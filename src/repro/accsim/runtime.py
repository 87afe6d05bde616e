"""The OpenACC 1.0 runtime library over a :class:`Machine`.

Each public method implements one ``acc_*`` routine from the 1.0 spec
(Section 3).  Return conventions follow the C bindings: tests/queries return
``int`` 0/1, device types are :class:`DeviceType` values (the C enum).

``acc_on_device`` is not here: its answer depends on the executing
context, so the interpreter asks the executor
(:meth:`repro.compiler.exec_model.AccExecutor.on_device_answer`).

Vendor bug injection enters through the optional ``hooks`` object, which
in a program run is that run's
:class:`~repro.compiler.exec_model.AccExecutor`.  Its one hook:

``hook_async_test(tag, result)``
    may override the result of acc_async_test/_all (PGI 13.x returned the
    caller's initial value, i.e. the call misbehaved — Section V-B).
"""

from __future__ import annotations

from typing import Optional

from repro.accsim.machine import Machine
from repro.accsim.values import DevicePointer
from repro.spec.devices import DeviceType


class AccRuntime:
    def __init__(self, machine: Machine, hooks: Optional[object] = None):
        self.machine = machine
        self.hooks = hooks

    def _hook(self, name: str):
        return getattr(self.hooks, name, None) if self.hooks is not None else None

    # ----------------------------------------------------- device management

    def acc_get_num_devices(self, requested: DeviceType) -> int:
        if requested.name == "acc_device_none":
            return 0
        devices = self.machine.devices_matching(requested)
        if requested.not_host:
            devices = [d for d in devices if not d.is_host]
        return len(devices)

    def acc_set_device_type(self, requested: DeviceType) -> None:
        self.machine.set_device_type(requested)

    def acc_get_device_type(self) -> DeviceType:
        return self.machine.current_device().device_type

    def acc_set_device_num(self, num: int, requested: Optional[DeviceType] = None) -> None:
        self.machine.set_device_num(num, requested)

    def acc_get_device_num(self, requested: Optional[DeviceType] = None) -> int:
        return self.machine.device_num

    # ------------------------------------------------------- init/shutdown

    def acc_init(self, requested: Optional[DeviceType] = None) -> None:
        self.machine.init(requested)

    def acc_shutdown(self, requested: Optional[DeviceType] = None) -> None:
        self.machine.shutdown(requested)

    # ---------------------------------------------------------------- async

    def acc_async_test(self, tag: Optional[int]) -> int:
        device = self.machine.current_device()
        result = 1 if device.queues.test(tag) else 0
        hook = self._hook("hook_async_test")
        if hook is not None:
            result = hook(tag, result)
        return result

    def acc_async_test_all(self) -> int:
        device = self.machine.current_device()
        result = 1 if device.queues.test_all() else 0
        hook = self._hook("hook_async_test")
        if hook is not None:
            result = hook(None, result)
        return result

    def acc_async_wait(self, tag: Optional[int]) -> None:
        self.machine.current_device().queues.wait(tag)

    def acc_async_wait_all(self) -> None:
        self.machine.current_device().queues.wait_all()

    # ----------------------------------------------------------------- heap

    def acc_malloc(self, nbytes: int) -> DevicePointer:
        return self.machine.current_device().memory.malloc(int(nbytes))

    def acc_free(self, ptr: DevicePointer) -> None:
        self.machine.current_device().memory.free(ptr)
