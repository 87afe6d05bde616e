"""Reduction operators (OpenACC 1.0, Section 2.4.10 of the spec).

The paper's reduction tests "cover combinations of different types of data
(e.g. int, float and double) and different types of reduction operations
(+, *, max, min, &&, ||, &, |, ^)" (Section IV-C4).  This module is the
single source of truth for operator identities and combination semantics,
used both by the conforming lowering and by the test-oracle computations in
the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class ReductionOp:
    """One reduction operator.

    ``symbol`` is the spelling used in the clause (``+``, ``*``, ``max`` ...);
    ``identity`` is a callable of the element type name so integer and
    floating identities can differ (e.g. ``min``).
    """

    symbol: str
    int_identity: int
    float_identity: float
    combine: Callable[[object, object], object]
    #: valid on floating-point operands?  (&&/||/&/|/^ are integer-only)
    floating_ok: bool = True

    def identity(self, type_base: str):
        if type_base in ("float", "double"):
            return self.float_identity
        return self.int_identity


def _land(a, b):
    return 1 if (a and b) else 0


def _lor(a, b):
    return 1 if (a or b) else 0


_INT_MIN = -(2**31)
_INT_MAX = 2**31 - 1

REDUCTION_OPS: Dict[str, ReductionOp] = {
    "+": ReductionOp("+", 0, 0.0, lambda a, b: a + b),
    "*": ReductionOp("*", 1, 1.0, lambda a, b: a * b),
    "max": ReductionOp("max", _INT_MIN, float("-inf"), max),
    "min": ReductionOp("min", _INT_MAX, float("inf"), min),
    "&": ReductionOp("&", -1, 0.0, lambda a, b: a & b, floating_ok=False),
    "|": ReductionOp("|", 0, 0.0, lambda a, b: a | b, floating_ok=False),
    "^": ReductionOp("^", 0, 0.0, lambda a, b: a ^ b, floating_ok=False),
    "&&": ReductionOp("&&", 1, 0.0, _land, floating_ok=False),
    "||": ReductionOp("||", 0, 0.0, _lor, floating_ok=False),
}

#: Fortran spellings mapped to the canonical symbols.
FORTRAN_REDUCTION_ALIASES = {
    ".and.": "&&",
    ".or.": "||",
    "iand": "&",
    "ior": "|",
    "ieor": "^",
}


def canonical_reduction(symbol: str) -> str:
    return FORTRAN_REDUCTION_ALIASES.get(symbol.lower(), symbol)


def reduction_identity(symbol: str, type_base: str):
    """Identity element for ``symbol`` on operands of ``type_base``."""
    return REDUCTION_OPS[canonical_reduction(symbol)].identity(type_base)


def reduction_combine(symbol: str, a, b):
    """Combine two partial results under ``symbol``."""
    return REDUCTION_OPS[canonical_reduction(symbol)].combine(a, b)
