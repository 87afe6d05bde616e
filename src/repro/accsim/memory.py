"""Device memory: present table and data-clause actions.

The paper's data-construct tests (Section IV-B) observe exactly these
semantics:

* ``copy`` — copyin at region entry, copyout at exit (Fig. 6);
* ``copyin`` — device values freely clobbered, host values untouched;
* ``copyout`` — device allocation starts as *garbage* so the paper's second
  copyout test ("the array values are non-deterministic because the device
  had just allocated memory") observes host/device inconsistency; we fill
  fresh allocations with a deterministic pseudo-garbage pattern;
* ``create`` — allocation only, no transfers;
* ``present`` family — reference-counted reuse; a plain ``present`` of
  absent data raises :class:`PresentError`;
* scalars participate like arrays (a scalar is a section of length 0 dims),
  which is what lets Cray's "scalar copy does not happen" bug be expressed
  as a hook.

Mappings are keyed by the *cell* holding the host value, so re-assigning a
host scalar does not disturb its device copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.accsim.errors import DeviceAllocationError, PresentError
from repro.accsim.values import ELEMENT_BYTES, ArrayValue, Cell, DevicePointer


#: accounting size of a scalar transfer (the simulator does not model
#: element widths for scalars; 8 covers the widest C/Fortran scalar)
_SCALAR_BYTES = 8


def fill_garbage(array: ArrayValue, salt: int) -> None:
    """Deterministic 'uninitialised device memory' pattern."""
    # element i is ((salt * 2654435761 + i * 40503) % 1000003) - 500000,
    # scaled by 1e-3 in a floating array
    scale = 1e-3 if array.type_base in ("float", "double") else 1
    first = salt * 2654435761
    array.data = [
        (n % 1000003 - 500000) * scale
        for n in range(first, first + 40503 * len(array.data), 40503)
    ]


@dataclass
class Mapping:
    """One present-table entry: a device copy of (a section of) a host cell."""

    cell: Cell
    device_data: object  # ArrayValue for arrays, plain scalar for scalars
    start: int = 0
    length: int = 0  # 0 => scalar
    refcount: int = 1
    copyout_on_exit: bool = False
    owner: bool = True  # allocated by the entry that created it

    @property
    def is_scalar(self) -> bool:
        return not isinstance(self.device_data, ArrayValue)


def _present_key(cell: Cell) -> int:
    """Arrays are keyed by the array object so aliases (e.g. a procedure
    parameter bound to the caller's array) share one mapping; scalars have
    no stable value identity and are keyed by their cell."""
    if isinstance(cell.value, ArrayValue):
        return id(cell.value)
    return id(cell)


class DeviceMemory:
    """Present table plus the device heap (``acc_malloc``)."""

    def __init__(self) -> None:
        self._present: Dict[int, Mapping] = {}
        self._salt = 0
        self.bytes_allocated = 0
        #: cumulative data-clause traffic (profiling; see repro.obs)
        self.bytes_to_device = 0
        self.bytes_to_host = 0

    # ------------------------------------------------------------- queries

    def lookup(self, cell: Cell) -> Optional[Mapping]:
        return self._present.get(_present_key(cell))

    def is_present(self, cell: Cell) -> bool:
        return _present_key(cell) in self._present

    # ---------------------------------------------------------- entry/exit

    def enter(
        self,
        action: str,
        cell: Cell,
        start: Optional[int] = None,
        length: Optional[int] = None,
        *,
        skip_scalar_transfer: Callable[[], bool] = lambda: False,
    ) -> Mapping:
        """Perform a data-clause entry action; returns the mapping.

        ``action`` is the normalised clause name.  ``skip_scalar_transfer``
        is the hook point for Cray's scalar-copy bug: when it answers True
        the mapping is created but the value transfer is suppressed.  It
        is asked only for a new scalar mapping whose action transfers.
        """
        existing = self.lookup(cell)
        present_or = action.startswith("present_or_") or action == "present"
        base_action = action.replace("present_or_", "")

        if existing is not None:
            if not present_or and action != "present":
                # 1.0 compilers commonly treated a duplicate copy/copyin as
                # present_or_*; we follow that permissive behaviour.
                pass
            existing.refcount += 1
            return existing

        if action == "present":
            raise PresentError(
                f"variable {cell.name!r} not present on device"
            )

        mapping = self._allocate(cell, start, length)
        if base_action in ("copy", "copyin", "copyout"):
            skip = mapping.is_scalar and skip_scalar_transfer()
            if base_action != "copyout" and not skip:
                self._host_to_device(mapping)
            if base_action != "copyin":
                mapping.copyout_on_exit = not skip
        self._present[_present_key(cell)] = mapping
        return mapping

    def exit(self, mapping: Mapping) -> None:
        """Undo one entry action (structured region exit)."""
        mapping.refcount -= 1
        if mapping.refcount > 0:
            return
        if mapping.copyout_on_exit:
            self._device_to_host(mapping)
        self._deallocate(mapping)

    def delete(self, cell: Cell) -> None:
        """2.0 ``exit data delete``: drop the mapping without copyout."""
        mapping = self.lookup(cell)
        if mapping is None:
            raise PresentError(f"delete of absent variable {cell.name!r}")
        self._deallocate(mapping)

    def force_copyout(self, cell: Cell) -> None:
        """2.0 ``exit data copyout``."""
        mapping = self.lookup(cell)
        if mapping is None:
            raise PresentError(f"copyout of absent variable {cell.name!r}")
        self._device_to_host(mapping)
        self._deallocate(mapping)

    # ----------------------------------------------------------- transfers

    def update_host(self, cell: Cell, start: Optional[int] = None,
                    length: Optional[int] = None) -> None:
        mapping = self.lookup(cell)
        if mapping is None:
            raise PresentError(f"update host of absent variable {cell.name!r}")
        self._device_to_host(mapping, start, length)

    def update_device(self, cell: Cell, start: Optional[int] = None,
                      length: Optional[int] = None) -> None:
        mapping = self.lookup(cell)
        if mapping is None:
            raise PresentError(f"update device of absent variable {cell.name!r}")
        self._host_to_device(mapping, start, length)

    # -------------------------------------------------------------- heap

    def malloc(self, nbytes: int) -> DevicePointer:
        if nbytes < 0:
            raise DeviceAllocationError(f"acc_malloc of negative size {nbytes}")
        self.bytes_allocated += nbytes
        return DevicePointer(nbytes=int(nbytes))

    def free(self, ptr: DevicePointer) -> None:
        if not isinstance(ptr, DevicePointer):
            raise DeviceAllocationError("acc_free of a non-device pointer")
        if ptr.freed:
            raise DeviceAllocationError("double acc_free")
        ptr.freed = True
        self.bytes_allocated -= ptr.nbytes

    # -------------------------------------------------------------- private

    def _allocate(self, cell: Cell, start: Optional[int], length: Optional[int]) -> Mapping:
        self._salt += 1
        value = cell.value
        if isinstance(value, ArrayValue):
            if start is None:
                start = value.lowers[0]
            if length is None:
                length = value.length
            shape = (length,) + value.shape[1:]
            lowers = (start,) + value.lowers[1:]
            device = ArrayValue(shape, value.type_base, lowers)
            fill_garbage(device, self._salt)
            self.bytes_allocated += device.nbytes
            return Mapping(cell=cell, device_data=device, start=start, length=length)
        if isinstance(value, DevicePointer):
            raise DeviceAllocationError(
                f"device pointer {cell.name!r} cannot appear in a data clause "
                "(use deviceptr)"
            )
        # scalar: garbage initial device value
        garbage = (self._salt * 7919) % 104729 - 50000
        if isinstance(value, float):
            garbage = garbage * 1e-3
        return Mapping(cell=cell, device_data=garbage)

    def _deallocate(self, mapping: Mapping) -> None:
        if isinstance(mapping.device_data, ArrayValue):
            self.bytes_allocated -= mapping.device_data.nbytes
        self._present.pop(_present_key(mapping.cell), None)

    def _host_to_device(self, mapping: Mapping, start: Optional[int] = None,
                        length: Optional[int] = None) -> None:
        host = mapping.cell.value
        if isinstance(host, ArrayValue):
            start = mapping.start if start is None else start
            length = mapping.length if length is None else length
            values = host.read_section(start, length)
            mapping.device_data.write_section(start, values)
            self.bytes_to_device += ELEMENT_BYTES * len(values)
        else:
            mapping.device_data = host
            self.bytes_to_device += _SCALAR_BYTES

    def _device_to_host(self, mapping: Mapping, start: Optional[int] = None,
                        length: Optional[int] = None) -> None:
        host = mapping.cell.value
        if isinstance(host, ArrayValue):
            start = mapping.start if start is None else start
            length = mapping.length if length is None else length
            values = mapping.device_data.read_section(start, length)
            host.write_section(start, values)
            self.bytes_to_host += ELEMENT_BYTES * len(values)
        else:
            mapping.cell.value = mapping.device_data
            self.bytes_to_host += _SCALAR_BYTES
