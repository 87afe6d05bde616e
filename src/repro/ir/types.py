"""Scalar and array types shared by the mini-C and mini-Fortran frontends.

The type system is deliberately small: the OpenACC validation corpus only
needs integer and floating scalars, fixed/variable length arrays of those,
and opaque device pointers.  Types are interned value objects so they can be
compared with ``==`` and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Type:
    """A scalar/pointer type.

    Attributes
    ----------
    base:
        One of ``"int"``, ``"long"``, ``"float"``, ``"double"``, ``"char"``,
        ``"bool"``, ``"void"``.
    pointer:
        Pointer depth (``int*`` has ``pointer == 1``).
    """

    base: str
    pointer: int = 0

    @property
    def is_integer(self) -> bool:
        return self.pointer == 0 and self.base in ("int", "long", "char", "bool")

    @property
    def is_floating(self) -> bool:
        return self.pointer == 0 and self.base in ("float", "double")

    @property
    def is_numeric(self) -> bool:
        return self.is_integer or self.is_floating

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.base + "*" * self.pointer


INT = Type("int")
LONG = Type("long")
FLOAT = Type("float")
DOUBLE = Type("double")
CHAR = Type("char")
BOOL = Type("bool")
VOID = Type("void")

#: surface-syntax names accepted by the mini-C parser
C_TYPE_NAMES = {
    "int": INT,
    "long": LONG,
    "float": FLOAT,
    "double": DOUBLE,
    "char": CHAR,
    "void": VOID,
}

#: Fortran declaration keywords mapped onto the shared type lattice.
FORTRAN_TYPE_NAMES = {
    "integer": INT,
    "real": FLOAT,
    "doubleprecision": DOUBLE,
    "logical": BOOL,
}
