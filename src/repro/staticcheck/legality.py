"""Pass 1: directive/clause legality and region scoping.

This module applies the **clause x directive legality matrix** — the
explicit encoding of which clauses OpenACC 1.0 permits on which directives
(spec sections 2.4-2.11; the 2.0 additions of Section V-C are carried
separately and merged in for 2.0-versioned templates).  The matrix lives
in :mod:`repro.ir.acc`, beside the directive model, and the compiler
pipeline reads the same tables (:data:`ALLOWED_CLAUSES`), so the simulated
compilers and the lint pass can never disagree about legality.

Emitted diagnostics (all errors):

* ``ACC101`` — clause not permitted on the directive, or a directive /
  clause that does not exist at the checked spec version;
* ``ACC102`` — a single-valued clause (``num_gangs``, ``if``, ...) given
  more than once;
* ``ACC103`` — one variable named in two data clauses of one directive;
* ``ACC104`` — ``seq`` combined with ``independent``/``gang``/``worker``/
  ``vector``;
* ``ACC105`` — loop parallelism nested inside finer parallelism (``gang``
  under ``worker``/``vector``, ``worker`` under ``vector``);
* ``ACC106`` — a compute region nested inside a compute region (1.0 has
  no nested parallelism);
* ``ACC107`` — ``cache`` outside any loop body;
* ``ACC108`` — ``update`` inside a compute region;
* ``ACC109`` — a reduction variable also listed in ``private`` /
  ``firstprivate`` on the same directive.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.ir.acc import (
    DATA_CLAUSES,
    LEGAL_CLAUSES_10,
    LEGAL_CLAUSES_20_ONLY,
    V20_CLAUSES,
    V20_DIRECTIVES,
    Directive,
)
from repro.ir.astnodes import AccLoop, Program
from repro.spec.versions import ACC_10, ACC_20, SpecVersion
from repro.staticcheck.diagnostics import Diagnostic, sort_diagnostics
from repro.staticcheck.regions import Region, walk_regions


def legal_clauses(version: SpecVersion) -> Dict[str, FrozenSet[str]]:
    """The legality matrix at ``version`` (1.0 rows, plus 2.0 additions)."""
    if version < ACC_20:
        return dict(LEGAL_CLAUSES_10)
    table = dict(LEGAL_CLAUSES_10)
    table.update(LEGAL_CLAUSES_20_ONLY)
    # 2.0 clause additions on 1.0 directives
    table["parallel"] = table["parallel"] | {"default"}
    table["loop"] = table["loop"] | {"auto"}
    table["parallel loop"] = table["parallel loop"] | {"default", "auto"}
    table["kernels loop"] = table["kernels loop"] | {"auto"}
    return table


#: clauses that take exactly one value and may therefore appear only once
SINGLE_VALUED_CLAUSES = frozenset({
    "if", "async", "num_gangs", "num_workers", "vector_length",
    "collapse", "default",
})

#: ranks for the 1.0 gang > worker > vector nesting order
_PARALLELISM_RANK = {"gang": 3, "worker": 2, "vector": 1}


# ---------------------------------------------------------------------------
# per-directive checks
# ---------------------------------------------------------------------------


def check_directive(d: Directive, version: SpecVersion = ACC_10) -> List[Diagnostic]:
    """Directive-local legality: matrix, duplicates, conflicts (ACC101-104,
    ACC109).  Region-scoping checks need the program context — see
    :func:`check_program_legality`."""
    diags: List[Diagnostic] = []
    table = legal_clauses(version)
    allowed = table.get(d.kind)
    if allowed is None:
        hint = ""
        if d.kind in V20_DIRECTIVES:
            hint = f"`{d.kind}` requires OpenACC 2.0"
        diags.append(Diagnostic(
            "ACC101",
            f"directive '{d.kind}' does not exist in OpenACC {version}",
            loc=d.loc, hint=hint,
        ))
        return diags

    seen_single: Dict[str, int] = {}
    data_vars: Dict[str, str] = {}
    for clause in d.clauses:
        if clause.name not in allowed:
            hint = ""
            if clause.name in V20_CLAUSES and version < ACC_20:
                hint = f"clause '{clause.name}' requires OpenACC 2.0"
            diags.append(Diagnostic(
                "ACC101",
                f"clause '{clause.name}' not permitted on '{d.kind}'",
                loc=clause.loc, hint=hint,
            ))
            continue
        if clause.name in SINGLE_VALUED_CLAUSES:
            count = seen_single.get(clause.name, 0)
            if count:
                diags.append(Diagnostic(
                    "ACC102",
                    f"clause '{clause.name}' appears more than once on "
                    f"'{d.kind}'",
                    loc=clause.loc,
                    hint="keep exactly one occurrence",
                ))
            seen_single[clause.name] = count + 1
        if clause.name in DATA_CLAUSES:
            for var in clause.var_names:
                first = data_vars.get(var)
                if first is not None and first != clause.name:
                    diags.append(Diagnostic(
                        "ACC103",
                        f"variable '{var}' appears in both '{first}' and "
                        f"'{clause.name}' on '{d.kind}'",
                        loc=clause.loc,
                        hint="a variable may have only one data attribute "
                             "per directive",
                    ))
                data_vars.setdefault(var, clause.name)

    # seq conflicts with any assertion or mapping of parallelism
    if d.has_clause("seq"):
        for other in ("independent", "gang", "worker", "vector"):
            conflict = d.clause(other)
            if conflict is not None:
                diags.append(Diagnostic(
                    "ACC104",
                    f"'seq' conflicts with '{other}' on '{d.kind}'",
                    loc=conflict.loc,
                    hint="a sequential loop cannot also be work-shared",
                ))

    # reduction vars must not also be privatised on the same directive
    reduction_vars = {
        var for c in d.clauses_named("reduction") for var in c.var_names
    }
    if reduction_vars:
        for c in d.clauses_named("private", "firstprivate"):
            for var in c.var_names:
                if var in reduction_vars:
                    diags.append(Diagnostic(
                        "ACC109",
                        f"reduction variable '{var}' also listed in "
                        f"'{c.name}' on '{d.kind}'",
                        loc=c.loc,
                        hint="the reduction clause already privatises the "
                             "accumulator",
                    ))
    return diags


# ---------------------------------------------------------------------------
# whole-program pass
# ---------------------------------------------------------------------------


def check_program_legality(
    program: Program, version: SpecVersion = ACC_10
) -> List[Diagnostic]:
    """The full legality pass: every directive plus region scoping."""
    diags: List[Diagnostic] = []
    for fn in program.functions:
        for d in fn.declares:
            diags.extend(check_directive(d, version))
    for region in walk_regions(program):
        d = region.directive
        if d is not None:
            diags.extend(check_directive(d, version))
        if region.kind == "compute":
            if region.enclosing_compute() is not None:
                diags.append(Diagnostic(
                    "ACC106",
                    f"compute construct '{d.kind}' nested inside a compute "
                    "region",
                    loc=d.loc,
                    hint="OpenACC 1.0 does not define nested parallelism",
                ))
        elif region.kind == "standalone":
            if d.kind == "cache" and not region.enclosing_loops():
                diags.append(Diagnostic(
                    "ACC107",
                    "cache directive must appear inside a loop body",
                    loc=d.loc,
                ))
            elif d.kind == "update" and region.in_compute():
                diags.append(Diagnostic(
                    "ACC108",
                    "update directive inside a compute region",
                    loc=d.loc,
                    hint="move the update outside the parallel/kernels "
                         "construct",
                ))
        if isinstance(region.node, AccLoop):
            diags.extend(_check_nesting_order(region))
    return sort_diagnostics(diags)


def _loop_rank(d: Optional[Directive]) -> Optional[int]:
    """Finest parallelism level a loop directive maps onto, or None."""
    if d is None:
        return None
    ranks = [
        _PARALLELISM_RANK[c.name]
        for c in d.clauses
        if c.name in _PARALLELISM_RANK
    ]
    return min(ranks) if ranks else None


def _check_nesting_order(region: Region) -> List[Diagnostic]:
    """Gang loops contain worker loops contain vector loops — never the
    reverse (ACC105)."""
    d = region.directive
    own = [
        (c.name, _PARALLELISM_RANK[c.name], c.loc)
        for c in d.clauses
        if c.name in _PARALLELISM_RANK
    ]
    if not own:
        return []
    coarsest = max(rank for _, rank, _ in own)
    for enclosing in region.ancestors():
        if not isinstance(enclosing.node, AccLoop):
            continue
        enclosing_rank = _loop_rank(enclosing.directive)
        if enclosing_rank is None:
            continue
        if coarsest > enclosing_rank:
            name = next(n for n, rank, _ in own if rank == coarsest)
            enclosing_name = next(
                c.name for c in enclosing.directive.clauses
                if c.name in _PARALLELISM_RANK
                and _PARALLELISM_RANK[c.name] == enclosing_rank
            )
            loc = next(l for n, _, l in own if n == name)
            return [Diagnostic(
                "ACC105",
                f"'{name}' loop nested inside a '{enclosing_name}' loop",
                loc=loc,
                hint="order parallelism gang > worker > vector from "
                     "outermost to innermost",
            )]
    return []
