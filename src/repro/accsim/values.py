"""Runtime value model.

Every variable binding is a :class:`Cell` (a mutable box) so that device
mappings can alias host storage by identity — the present table is keyed by
cell.  Arrays are :class:`ArrayValue` (one flat row-major Python list plus
declared lower bounds, so C 0-based and Fortran 1-based/sectioned indexing
share one implementation).  Device heap allocations made via ``acc_malloc``
are :class:`DevicePointer` handles.

Storage model: integer element types (``int``/``long``/``char``/``bool``)
hold 64-bit integers and floating types hold doubles.  Every store converts
the value the way a C assignment to an ``int64_t``/``double`` element would:
``int()`` truncates toward zero and a result outside int64 raises
:class:`OverflowError`; ``float()`` for the floating types.

Floating point note: C ``float`` / Fortran ``real`` values are *stored and
computed in double precision*.  The paper's floating-point reduction oracle
(Fig. 7) compares against a closed form with a 1e-9 rounding tolerance;
simulating 32-bit rounding would introduce spurious mismatches that say
nothing about directive conformance, so we deliberately keep one precision
(recorded in DESIGN.md as a substitution).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Optional, Sequence

from repro.accsim.errors import AccRuntimeError
from repro.ir.types import Type

#: accounting size of one array element (int64 or double)
ELEMENT_BYTES = 8

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def _to_int64(value) -> int:
    value = int(value)
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    raise OverflowError("Python int too large to convert to C long")


_CONVERTERS = {
    "int": _to_int64,
    "long": _to_int64,
    "char": _to_int64,
    "bool": _to_int64,
    "float": float,
    "double": float,
}


class ArrayValue:
    """An n-dimensional array with declared lower bounds.

    ``lowers[d]`` is the index of the first element along dimension ``d``
    (0 for C, typically 1 for Fortran).  ``data`` is the flat row-major
    element list.
    """

    __slots__ = ("data", "type_base", "lowers", "shape", "_strides",
                 "_convert", "_lo0", "_n0", "_rank1")

    def __init__(
        self,
        shape: Sequence[int],
        type_base: str,
        lowers: Optional[Sequence[int]] = None,
        fill: Optional[float] = None,
    ):
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise AccRuntimeError(f"negative array extent {shape}")
        try:
            self._convert = _CONVERTERS[type_base]
        except KeyError:
            raise AccRuntimeError(f"cannot allocate array of {type_base!r}") from None
        self.type_base = type_base
        self.shape = shape
        self.data: List = [self._convert(0)] * prod(shape)
        if fill is not None:
            self.fill(fill)
        self.lowers = tuple(int(l) for l in (lowers or (0,) * len(shape)))
        if len(self.lowers) != len(shape):
            raise AccRuntimeError("lower-bounds rank mismatch")
        # precomputed for the element accessors (the storage never changes
        # shape): the distance in ``data`` between neighbours along each
        # dimension, and the rank-1 lower bound and extent
        self._strides = tuple(prod(shape[d + 1:]) for d in range(len(shape)))
        self._rank1 = len(shape) == 1
        self._lo0 = self.lowers[0] if shape else 0
        self._n0 = shape[0] if shape else 0

    @property
    def nbytes(self) -> int:
        """Accounting size: ``ELEMENT_BYTES`` per element."""
        return ELEMENT_BYTES * len(self.data)

    def fill(self, value) -> None:
        """Set every element to ``value`` (converted once)."""
        self.data = [self._convert(value)] * len(self.data)

    # -- indexing ----------------------------------------------------------

    def _offset(self, indices: Sequence[int]) -> int:
        if len(indices) != len(self.shape):
            raise AccRuntimeError(
                f"rank mismatch: {len(indices)} subscripts for rank-{len(self.shape)} array"
            )
        off = [int(i) - l for i, l in zip(indices, self.lowers)]
        flat = 0
        for o, extent, stride in zip(off, self.shape, self._strides):
            if o < 0 or o >= extent:
                raise AccRuntimeError(
                    f"index out of bounds: subscript {indices} for shape {self.shape} "
                    f"(lower bounds {self.lowers})"
                )
            flat += o * stride
        return flat

    def get(self, indices: Sequence[int]):
        if self._rank1 and len(indices) == 1:
            off = int(indices[0]) - self._lo0
            if 0 <= off < self._n0:
                return self.data[off]
        return self.data[self._offset(indices)]

    def set(self, indices: Sequence[int], value) -> None:
        if self._rank1 and len(indices) == 1:
            off = int(indices[0]) - self._lo0
            if 0 <= off < self._n0:
                self.data[off] = self._convert(value)
                return
        self.data[self._offset(indices)] = self._convert(value)

    # -- sections ------------------------------------------------------------

    @property
    def length(self) -> int:
        """Extent of the first dimension (the sectioned one)."""
        return self.shape[0]

    def read_section(self, start: int, length: int) -> List:
        """Copy of rows [start, start+length) in *declared* index space, as
        a flat row-major list."""
        lo = start - self.lowers[0]
        if lo < 0 or lo + length > self.shape[0]:
            raise AccRuntimeError(
                f"section [{start}:{start + length}) outside array bounds"
            )
        row = self._strides[0]
        return self.data[lo * row : (lo + length) * row]

    def write_section(self, start: int, values: List) -> None:
        """Store whole rows from ``start`` on: ``values`` is a flat list read
        by :meth:`read_section` of an array of the same element type, so the
        elements are copied as they are."""
        row = self._strides[0]
        length = len(values) // row if row else 0
        lo = start - self.lowers[0]
        if lo < 0 or lo + length > self.shape[0]:
            raise AccRuntimeError(
                f"section write [{start}:{start + length}) outside array bounds"
            )
        self.data[lo * row : (lo + length) * row] = values

    def clone(self) -> "ArrayValue":
        out = ArrayValue(self.shape, self.type_base, self.lowers)
        out.data = self.data.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue({self.type_base}{list(self.shape)}, lowers={self.lowers})"


@dataclass
class DevicePointer:
    """Opaque handle returned by ``acc_malloc``; points at raw device bytes
    that are viewed with an element type once bound by a ``deviceptr``
    clause or dereferenced in a kernel."""

    nbytes: int
    buffer: Optional[ArrayValue] = None
    freed: bool = False

    def as_array(self, type_base: str) -> ArrayValue:
        if self.freed:
            raise AccRuntimeError("use of device pointer after acc_free")
        itemsize = 4 if type_base in ("int", "float", "char", "bool") else 8
        length = self.nbytes // itemsize
        if self.buffer is None:
            self.buffer = ArrayValue((length,), type_base)
        elif self.buffer.type_base != type_base or self.buffer.length != length:
            # retyping a raw allocation: preserve length by element count
            fresh = ArrayValue((length,), type_base)
            n = min(length, self.buffer.length)
            fresh.data[:n] = map(fresh._convert, self.buffer.data[:n])
            self.buffer = fresh
        return self.buffer


class Cell:
    """Mutable variable binding; identity of a cell keys device mappings."""

    __slots__ = ("value", "type", "name")

    def __init__(self, value, type: Optional[Type] = None, name: str = "?"):
        self.value = value
        self.type = type
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.name}={self.value!r})"


def coerce_scalar(type_base: Optional[str], value):
    """Coerce an assigned scalar to the declared type (C conversion rules:
    float->int truncates toward zero)."""
    if type_base in ("int", "long", "char", "bool"):
        return int(value)
    if type_base in ("float", "double"):
        return float(value)
    return value
