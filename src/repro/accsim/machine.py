"""The simulated heterogeneous node: a host plus attached accelerators.

Mirrors the paper's testbed (Section V: "16 cores Intel Xeon x86_64 CPU with
32GB main memory, and an NVIDIA Kepler GPU card (K20)") as one host
pseudo-device plus one (configurable: more) accelerator.
"""

from __future__ import annotations

from typing import List, Optional

from repro.accsim.device import Device, ExecProfile
from repro.accsim.errors import InvalidDeviceError
from repro.spec.devices import (
    ACC_DEVICE_HOST,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
    DeviceType,
)


class Machine:
    """Host + accelerators + the current-device selection state."""

    def __init__(
        self,
        accel_count: int = 1,
        accel_device_type: DeviceType = ACC_DEVICE_NVIDIA,
        profile: Optional[ExecProfile] = None,
    ):
        # the accelerators' profile (see ExecProfile); the host keeps its own
        if profile is None:
            profile = ExecProfile()
        self.host = Device(device_type=ACC_DEVICE_HOST, num=0, profile=ExecProfile())
        self.accelerators: List[Device] = [
            Device(device_type=accel_device_type, num=i, profile=profile)
            for i in range(accel_count)
        ]
        #: the *requested* device type (what acc_set_device_type stored)
        self.requested_type: DeviceType = ACC_DEVICE_NOT_HOST if accel_count else ACC_DEVICE_HOST
        self.device_num: int = 0
        self.initialized: bool = False
        self.shut_down: bool = False

    # ------------------------------------------------------------ selection

    def devices_matching(self, requested: DeviceType) -> List[Device]:
        out = []
        for dev in [self.host] + self.accelerators:
            if dev.device_type.matches(requested):
                out.append(dev)
        return out

    def current_device(self) -> Device:
        """Resolve the requested type/num to a concrete device."""
        if self.requested_type.name == "acc_device_none":
            return self.host
        matching = self.devices_matching(self.requested_type)
        # prefer accelerators when the request is satisfiable by either
        accel = [d for d in matching if not d.is_host]
        pool = accel or matching
        if not pool:
            raise InvalidDeviceError(
                f"no device of type {self.requested_type.name}"
            )
        if self.device_num >= len(pool):
            raise InvalidDeviceError(
                f"device number {self.device_num} out of range for "
                f"{self.requested_type.name} ({len(pool)} available)"
            )
        return pool[self.device_num]

    def set_device_type(self, requested: DeviceType) -> None:
        self.requested_type = requested
        self.device_num = 0

    def set_device_num(self, num: int, requested: Optional[DeviceType] = None) -> None:
        if requested is not None:
            self.requested_type = requested
        self.device_num = int(num)

    # ---------------------------------------------------------------- state

    def init(self, requested: Optional[DeviceType] = None) -> None:
        if requested is not None:
            self.requested_type = requested
        self.initialized = True
        self.shut_down = False

    def shutdown(self, requested: Optional[DeviceType] = None) -> None:
        """Flush queues and drop device state for matching devices."""
        targets = (
            self.devices_matching(requested) if requested is not None
            else [self.host] + self.accelerators
        )
        for dev in targets:
            dev.queues.wait_all()
            dev.reset()
        self.shut_down = True
        self.initialized = False
