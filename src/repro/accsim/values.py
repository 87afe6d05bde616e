"""Runtime value model.

Every variable binding is a :class:`Cell` (a mutable box) so that device
mappings can alias host storage by identity — the present table is keyed by
cell.  Arrays are :class:`ArrayValue` (numpy storage plus declared lower
bounds, so C 0-based and Fortran 1-based/sectioned indexing share one
implementation).  Device heap allocations made via ``acc_malloc`` are
:class:`DevicePointer` handles.

Floating point note: C ``float`` / Fortran ``real`` values are *stored and
computed in double precision*.  The paper's floating-point reduction oracle
(Fig. 7) compares against a closed form with a 1e-9 rounding tolerance;
simulating 32-bit rounding would introduce spurious mismatches that say
nothing about directive conformance, so we deliberately keep one precision
(recorded in DESIGN.md as a substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.accsim.errors import AccRuntimeError
from repro.ir.types import Type

_NUMPY_DTYPES = {
    "int": np.int64,
    "long": np.int64,
    "char": np.int64,
    "bool": np.int64,
    "float": np.float64,
    "double": np.float64,
}


def numpy_dtype(type_base: str):
    try:
        return _NUMPY_DTYPES[type_base]
    except KeyError:
        raise AccRuntimeError(f"cannot allocate array of {type_base!r}") from None


def scalar_default(type_base: str):
    """Default (uninitialised) scalar value.  We use a sentinel-ish nonzero
    value so tests that read uninitialised data notice (mirrors the paper's
    copyout test relying on non-deterministic uninitialised device data)."""
    if type_base in ("float", "double"):
        return 0.0
    return 0


class ArrayValue:
    """An n-dimensional array with declared lower bounds.

    ``lowers[d]`` is the index of the first element along dimension ``d``
    (0 for C, typically 1 for Fortran).
    """

    __slots__ = ("data", "type_base", "lowers", "_shape", "_lo0", "_n0",
                 "_rank1")

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
        self.data = np.zeros(shape, dtype=numpy_dtype(type_base))
        if fill is not None:
            self.data.fill(fill)
        self.type_base = type_base
        self.lowers = tuple(int(l) for l in (lowers or (0,) * len(shape)))
        if len(self.lowers) != len(shape):
            raise AccRuntimeError("lower-bounds rank mismatch")
        # precomputed for the element accessors: the shape, and the rank-1
        # lower bound and extent (the storage never changes shape)
        self._shape = shape
        self._rank1 = len(shape) == 1
        self._lo0 = self.lowers[0] if shape else 0
        self._n0 = shape[0] if shape else 0

    # -- indexing ----------------------------------------------------------

    def _offset(self, indices: Sequence[int]) -> Tuple[int, ...]:
        if len(indices) != len(self._shape):
            raise AccRuntimeError(
                f"rank mismatch: {len(indices)} subscripts for rank-{len(self._shape)} array"
            )
        off = tuple(int(i) - l for i, l in zip(indices, self.lowers))
        for o, extent in zip(off, self._shape):
            if o < 0 or o >= extent:
                raise AccRuntimeError(
                    f"index out of bounds: subscript {indices} for shape {self._shape} "
                    f"(lower bounds {self.lowers})"
                )
        return off

    def get(self, indices: Sequence[int]):
        # ``item`` returns the Python int/float the dtype maps to, exactly
        # what int()/float() of the numpy scalar would give
        if self._rank1 and len(indices) == 1:
            off = int(indices[0]) - self._lo0
            if 0 <= off < self._n0:
                return self.data.item(off)
        return self.data.item(self._offset(indices))

    def set(self, indices: Sequence[int], value) -> None:
        if self._rank1 and len(indices) == 1:
            off = int(indices[0]) - self._lo0
            if 0 <= off < self._n0:
                self.data[off] = value
                return
        self.data[self._offset(indices)] = value

    # -- sections ------------------------------------------------------------

    @property
    def length(self) -> int:
        """Extent of the first dimension (the sectioned one)."""
        return int(self.data.shape[0])

    def read_section(self, start: int, length: int) -> np.ndarray:
        """Copy of rows [start, start+length) in *declared* index space."""
        lo = start - self.lowers[0]
        if lo < 0 or lo + length > self.data.shape[0]:
            raise AccRuntimeError(
                f"section [{start}:{start + length}) outside array bounds"
            )
        return self.data[lo : lo + length].copy()

    def write_section(self, start: int, values: np.ndarray) -> None:
        lo = start - self.lowers[0]
        if lo < 0 or lo + len(values) > self.data.shape[0]:
            raise AccRuntimeError(
                f"section write [{start}:{start + len(values)}) outside array bounds"
            )
        self.data[lo : lo + len(values)] = values

    def clone(self) -> "ArrayValue":
        out = ArrayValue(self.data.shape, self.type_base, self.lowers)
        out.data[...] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue({self.type_base}{list(self.data.shape)}, lowers={self.lowers})"


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
            fresh.data[:n] = self.buffer.data[:n]
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
