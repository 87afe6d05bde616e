"""OpenACC directive and clause model.

A :class:`Directive` is the parsed payload of one ``#pragma acc ...`` /
``!$acc ...`` line: a directive kind plus an ordered clause list.  Clause
arguments are either expressions (``num_gangs(expr)``), data references with
optional sections (``copy(a[0:n])``), or structured pairs (``reduction(+:x)``).

The model is shared by both frontends and is what the lowering, the vendor
bug hooks and the spec-conformance checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.ir.astnodes import Expr, Node

#: Directive kinds recognised in OpenACC 1.0 (plus the 2.0 additions the
#: framework supports behind a spec-version switch; see repro.spec).
DIRECTIVE_KINDS = (
    "parallel",
    "kernels",
    "data",
    "host_data",
    "loop",
    "parallel loop",
    "kernels loop",
    "cache",
    "declare",
    "update",
    "wait",
    # OpenACC 2.0 forward-looking support
    "enter data",
    "exit data",
    "routine",
)

#: Clauses that take data references and manage device memory.
DATA_CLAUSES = (
    "copy",
    "copyin",
    "copyout",
    "create",
    "present",
    "present_or_copy",
    "present_or_copyin",
    "present_or_copyout",
    "present_or_create",
    "deviceptr",
    "device_resident",
    # update directive data motion clauses
    "host",
    "device",
    # declare-only alias
    "delete",  # 2.0 exit data
)

#: directive kinds that open a compute region
COMPUTE_KINDS = ("parallel", "kernels", "parallel loop", "kernels loop")

#: Short spellings the 1.0 spec allows for the present_or_* family.
_CLAUSE_ALIASES = {
    "pcopy": "present_or_copy",
    "pcopyin": "present_or_copyin",
    "pcopyout": "present_or_copyout",
    "pcreate": "present_or_create",
    "self": "host",  # update self(...) == update host(...)
}


def normalize_clause_name(name: str) -> str:
    """Resolve clause spelling aliases (``pcopy`` -> ``present_or_copy``)."""
    return _CLAUSE_ALIASES.get(name, name)


# ---------------------------------------------------------------------------
# the clause x directive legality matrix (OpenACC 1.0 sections 2.4-2.11),
# read by the compiler pipeline and the lint pass alike
# ---------------------------------------------------------------------------

_DATA_10 = frozenset({
    "copy", "copyin", "copyout", "create", "present",
    "present_or_copy", "present_or_copyin", "present_or_copyout",
    "present_or_create", "deviceptr",
})
_LOOP_10 = frozenset({
    "collapse", "gang", "worker", "vector", "seq", "independent",
    "private", "reduction",
})

#: clause x directive legality, OpenACC 1.0 only
LEGAL_CLAUSES_10: Dict[str, FrozenSet[str]] = {
    "parallel": _DATA_10 | {"if", "async", "num_gangs", "num_workers",
                            "vector_length", "reduction", "private",
                            "firstprivate"},
    "kernels": _DATA_10 | {"if", "async"},
    "data": _DATA_10 | {"if"},
    "host_data": frozenset({"use_device"}),
    "loop": _LOOP_10,
    "cache": frozenset({"cache"}),
    "declare": _DATA_10 | {"device_resident"},
    "update": frozenset({"host", "device", "if", "async"}),
    "wait": frozenset({"wait"}),
}
LEGAL_CLAUSES_10["parallel loop"] = LEGAL_CLAUSES_10["parallel"] | _LOOP_10
LEGAL_CLAUSES_10["kernels loop"] = LEGAL_CLAUSES_10["kernels"] | _LOOP_10

#: directives / clauses introduced by OpenACC 2.0 (Section V-C)
V20_DIRECTIVES = frozenset({"enter data", "exit data", "routine"})
V20_CLAUSES = frozenset({"default", "auto", "delete"})

LEGAL_CLAUSES_20_ONLY: Dict[str, FrozenSet[str]] = {
    "enter data": frozenset({"if", "async", "wait", "copyin", "create",
                             "present_or_copyin", "present_or_create"}),
    "exit data": frozenset({"if", "async", "wait", "copyout", "delete"}),
    "routine": frozenset({"gang", "worker", "vector", "seq"}),
}

#: the merged (1.0 + 2.0) table the compiler pipeline consumes
ALLOWED_CLAUSES: Dict[str, Set[str]] = {
    kind: set(clauses) for kind, clauses in LEGAL_CLAUSES_10.items()
}
for _kind, _clauses in LEGAL_CLAUSES_20_ONLY.items():
    ALLOWED_CLAUSES[_kind] = set(_clauses)


@dataclass
class Section(Node):
    """A subarray section ``[start:length]`` in a data clause."""

    start: Optional[Expr] = None
    length: Optional[Expr] = None


@dataclass
class DataRef(Node):
    """A variable (possibly sectioned) named in a data clause."""

    name: str
    sections: List[Section] = field(default_factory=list)


@dataclass
class Clause(Node):
    """One clause on a directive.

    Exactly one of the payload fields is populated, depending on the clause:

    * ``expr`` — ``if``, ``async``, ``num_gangs``, ``num_workers``,
      ``vector_length``, ``collapse``, ``gang(n)``, ``worker(n)``,
      ``vector(n)``, ``wait(tag)``
    * ``refs`` — data clauses, ``private``, ``firstprivate``, ``use_device``,
      ``cache``
    * ``op`` + ``refs`` — ``reduction(op: vars)``
    * none — bare ``seq``, ``independent``, ``gang``, ``worker``, ``vector``,
      ``auto`` (2.0), ``default(none)`` uses ``op`` to carry the keyword.
    """

    name: str
    expr: Optional[Expr] = None
    refs: List[DataRef] = field(default_factory=list)
    op: Optional[str] = None

    @property
    def var_names(self) -> List[str]:
        return [r.name for r in self.refs]


@dataclass
class Directive(Node):
    """A parsed directive line: kind + clauses."""

    kind: str
    clauses: List[Clause] = field(default_factory=list)
    #: raw source text, kept for bug reports (paper Section III "Results").
    source: str = ""

    def clause(self, name: str) -> Optional[Clause]:
        """First clause with the given (normalised) name, or ``None``."""
        name = normalize_clause_name(name)
        for c in self.clauses:
            if c.name == name:
                return c
        return None

    def clauses_named(self, *names: str) -> List[Clause]:
        wanted = {normalize_clause_name(n) for n in names}
        return [c for c in self.clauses if c.name in wanted]

    def has_clause(self, name: str) -> bool:
        return self.clause(name) is not None

    def data_clauses(self) -> List[Clause]:
        return [c for c in self.clauses if c.name in DATA_CLAUSES]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.kind]
        for c in self.clauses:
            if c.op is not None and c.refs:
                parts.append(f"{c.name}({c.op}:{','.join(c.var_names)})")
            elif c.refs:
                parts.append(f"{c.name}({','.join(c.var_names)})")
            elif c.expr is not None:
                parts.append(f"{c.name}(...)")
            else:
                parts.append(c.name)
        return " ".join(parts)
