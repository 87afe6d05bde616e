"""The behaviour-independent half of a compile: parse, then collect the
nodes validation reads.

``Compiler.compile`` is two halves.  Parsing a source and finding its
directives, compute regions and runtime calls depend only on
``(source, language, name)``; judging them against a vendor's
:class:`~repro.compiler.behavior.CompilerBehavior` is the other half.
:func:`parse_front` does the first half once and returns a
:class:`ParsedSource`, which the compile cache's parse tier shares across
every behaviour of a sweep.  Neither the program nor the facts are ever
mutated, so any number of compiles may read them.

A parse also owns its program's static construct plans
(:mod:`repro.compiler.exec_model`): a table filled lazily, the first time
a region or loop runs under any behaviour, together with each compute
plan's device code.  Both are pure functions of the AST, so every
behaviour of a sweep shares them; the table lives as long as the parse
and the programs compiled from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.frontend.dispatch import parse_source
from repro.frontend.errors import FrontendError
from repro.ir.acc import COMPUTE_KINDS, Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Call,
    Node,
    Program,
    children,
)


class ComputeRegion:
    """A compute construct's directive, body, and the calls in that body
    in pre-order."""

    __slots__ = ("directive", "body", "calls")

    def __init__(self, directive: Directive, body: Node):
        self.directive = directive
        self.body = body
        #: filled during the walk, a tuple once the facts are built
        self.calls: Union[List[Call], Tuple[Call, ...]] = []


@dataclass(frozen=True)
class ValidationFacts:
    """What ``Compiler.validate`` checks, listed once per program.

    ``checks`` holds the directives and compute regions in the order
    validation visits them: per function, its ``declare`` directives, then
    a pre-order walk of its body where each construct's directive comes
    just before its region.  ``acc_calls`` holds the ``acc_*`` calls of
    every function body in the same order, for the link check.
    """

    user_functions: FrozenSet[str]
    #: functions carrying a 2.0 ``routine`` directive
    routine_functions: FrozenSet[str]
    checks: Tuple[Union[Directive, ComputeRegion], ...]
    acc_calls: Tuple[Call, ...]


def validation_facts(program: Program) -> ValidationFacts:
    """Collect the facts in one pre-order walk of every function body
    (the order of :func:`repro.ir.astnodes.walk`)."""
    checks: List[Union[Directive, ComputeRegion]] = []
    regions: List[ComputeRegion] = []
    acc_calls: List[Call] = []
    for fn in program.functions:
        checks.extend(fn.declares)
        # each entry: a node and the regions whose body contains it
        stack: List[Tuple[Node, Tuple[ComputeRegion, ...]]] = [(fn.body, ())]
        while stack:
            node, open_regions = stack.pop()
            kids = children(node)
            if isinstance(node, Call):
                for region in open_regions:
                    region.calls.append(node)
                if node.name.startswith("acc_"):
                    acc_calls.append(node)
            elif isinstance(node, (AccConstruct, AccLoop, AccStandalone)):
                checks.append(node.directive)
                if (not isinstance(node, AccStandalone)
                        and node.directive.kind in COMPUTE_KINDS):
                    body = (node.body if isinstance(node, AccConstruct)
                            else node.loop)
                    region = ComputeRegion(node.directive, body)
                    checks.append(region)
                    regions.append(region)
                    inner = open_regions + (region,)
                    stack.extend([
                        (child, inner if child is body else open_regions)
                        for child in reversed(kids)
                    ])
                    continue
            if kids:
                stack.extend([(child, open_regions) for child in reversed(kids)])
    for region in regions:
        region.calls = tuple(region.calls)
    return ValidationFacts(
        user_functions=frozenset(fn.name for fn in program.functions),
        routine_functions=frozenset(
            fn.name for fn in program.functions
            if any(d.kind == "routine" for d in fn.declares)
        ),
        checks=tuple(checks),
        acc_calls=tuple(acc_calls),
    )


@dataclass(frozen=True)
class ParsedSource:
    """One source's parse: the program and its facts, or the frontend
    error (exactly one of ``program`` and ``error`` is set)."""

    program: Optional[Program]
    facts: Optional[ValidationFacts]
    error: Optional[FrontendError]
    #: the program's static construct plans, node id -> (node, plan),
    #: filled lazily by every compile of this parse (see
    #: repro.compiler.exec_model.plan_for)
    plans: Dict[int, tuple] = field(default_factory=dict, repr=False,
                                    compare=False)


def parse_front(source: str, language: str, name: str) -> ParsedSource:
    """Parse ``source`` and collect its validation facts.

    A :class:`FrontendError` is returned, not raised, with its traceback
    dropped so a cached error keeps no parser frames alive.  Anything else
    the frontend raises (ValueError for an unknown language, an internal
    crash) propagates.
    """
    try:
        program = parse_source(source, language, name)
    except FrontendError as err:
        return ParsedSource(program=None, facts=None,
                            error=err.with_traceback(None))
    return ParsedSource(program=program, facts=validation_facts(program),
                        error=None)
