"""Region tree: the nesting structure of OpenACC constructs in a program.

The legality pass needs to know *where* a directive sits (a ``cache`` must
be inside a loop, an ``update`` must not be inside a compute region, 1.0
forbids nested compute regions); the dependence pass needs the enclosing
compute construct and loop-directive stack of every analysed loop.  Both
consume the same tree, built by one ordered statement walk per function.

Node kinds:

* ``compute`` — ``parallel`` / ``kernels`` constructs and the combined
  ``parallel loop`` / ``kernels loop`` forms;
* ``data`` / ``host_data`` — structured data regions;
* ``accloop`` — a ``loop`` directive with its associated ``For``;
* ``for`` — a plain (undirectived) loop, kept so ``cache`` placement and
  implicit loop-variable privatisation see every enclosing loop;
* ``standalone`` — ``cache`` / ``update`` / ``wait`` / ``enter data`` /
  ``exit data`` directive statements.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.ir.acc import Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Block,
    For,
    Function,
    If,
    Node,
    Program,
    Stmt,
    While,
)

#: directive kinds that open a compute region
COMPUTE_KINDS = ("parallel", "kernels", "parallel loop", "kernels loop")


@dataclass
class Region:
    """One node of the region tree.

    The tree is owned top-down, by its roots: a region holds its children
    and only a weak link to its parent, so a tree is freed by reference
    counting as soon as its roots are dropped.
    """

    kind: str  # 'function' | 'compute' | 'data' | 'host_data' | 'accloop' | 'for' | 'standalone'
    node: Node
    directive: Optional[Directive] = None
    children: List["Region"] = field(default_factory=list)
    _parent: Optional["weakref.ref[Region]"] = field(
        default=None, repr=False, compare=False)

    @property
    def parent(self) -> Optional["Region"]:
        return self._parent() if self._parent is not None else None

    def add(self, child: "Region") -> "Region":
        child._parent = weakref.ref(self)
        self.children.append(child)
        return child

    # ------------------------------------------------------------- queries

    def ancestors(self) -> Iterator["Region"]:
        """Enclosing regions, innermost first (excluding self)."""
        current = self.parent
        while current is not None:
            yield current
            current = current.parent

    def enclosing_compute(self) -> Optional["Region"]:
        """The innermost enclosing compute region, if any.

        A combined construct (``parallel loop``) region *is* its own
        compute region, so its loop body asks the parent chain.
        """
        for region in self.ancestors():
            if region.kind == "compute":
                return region
        return None

    def in_compute(self) -> bool:
        if self.kind == "compute":
            return True
        return self.enclosing_compute() is not None

    def enclosing_loops(self) -> List["Region"]:
        """Enclosing loop regions, innermost first: ``accloop``/``for``
        plus combined-construct compute regions (``parallel loop``), whose
        node carries a ``For`` as well."""
        return [
            r for r in self.ancestors()
            if r.kind in ("accloop", "for") or isinstance(r.node, AccLoop)
        ]

    def walk(self) -> Iterator["Region"]:
        """Pre-order traversal of self and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_region_tree(program: Program) -> List[Region]:
    """One root region per function, children in statement order."""
    roots: List[Region] = []
    for fn in program.functions:
        root = Region(kind="function", node=fn)
        _collect(fn.body, root)
        roots.append(root)
    return roots


def walk_regions(program: Program) -> Iterator[Region]:
    for root in build_region_tree(program):
        yield from root.walk()


def _collect(stmt: Optional[Stmt], parent: Region) -> None:
    if stmt is None:
        return
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _collect(child, parent)
    elif isinstance(stmt, AccConstruct):
        kind = "compute" if stmt.directive.kind in COMPUTE_KINDS else (
            "host_data" if stmt.directive.kind == "host_data" else "data"
        )
        region = parent.add(Region(kind=kind, node=stmt,
                                   directive=stmt.directive))
        _collect(stmt.body, region)
    elif isinstance(stmt, AccLoop):
        kind = "compute" if stmt.directive.kind in COMPUTE_KINDS else "accloop"
        region = parent.add(Region(kind=kind, node=stmt,
                                   directive=stmt.directive))
        # the associated For is part of the directive's region, not a
        # separate child — but its body may open further regions
        _collect(stmt.loop.body, region)
    elif isinstance(stmt, AccStandalone):
        parent.add(Region(kind="standalone", node=stmt,
                          directive=stmt.directive))
    elif isinstance(stmt, For):
        region = parent.add(Region(kind="for", node=stmt))
        _collect(stmt.body, region)
    elif isinstance(stmt, While):
        _collect(stmt.body, parent)
    elif isinstance(stmt, If):
        _collect(stmt.then, parent)
        _collect(stmt.other, parent)
    # remaining statement kinds carry no region structure
