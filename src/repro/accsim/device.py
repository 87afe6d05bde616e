"""The simulated accelerator device.

A :class:`Device` owns discrete memory (present table + heap) and async
queues.  Its :class:`ExecProfile` captures the *implementation-defined*
execution-model choices the paper highlights in Section II — how the three
OpenACC parallelism levels map onto hardware and what the default sizes are.
The actual gang/worker/vector iteration scheduling is driven by the compiler
lowering (:mod:`repro.compiler.exec_model`); the profile only supplies the
numbers and capability switches (e.g. PGI "just ignores worker"), and the
accelerator's concrete device type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accsim.asyncq import AsyncQueues
from repro.accsim.memory import DeviceMemory
from repro.spec.devices import (
    ACC_DEVICE_HOST,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
    DeviceType,
)


@dataclass
class ExecProfile:
    """Implementation-defined execution model parameters.

    The host device uses these defaults.  An accelerator's profile is any
    object with these five fields: the compiler passes its behaviour
    (:class:`~repro.compiler.behavior.CompilerBehavior`), the region
    executor reads a default size only when a region omits its clause, and
    the device reads ``concrete_device_type`` only when a request names a
    concrete type.  That type must be an accelerator type (``not_host``).
    """

    default_num_gangs: int = 16
    default_num_workers: int = 4
    default_vector_length: int = 8
    #: collapse the worker level to 1 lane (PGI 1.0-era behaviour)
    worker_ignored: bool = False
    #: what acc_get_device_type names the accelerator (implementation-defined)
    concrete_device_type: DeviceType = ACC_DEVICE_NVIDIA


@dataclass
class Device:
    """One attached accelerator (or the host pseudo-device).

    Only a request that names a concrete type (``acc_device_nvidia``, an
    ``acc_get_device_type`` call) can tell two accelerators of different
    types apart, so an abstract request (``none``, ``default``, ``host``,
    ``not_host``) is answered from ``is_host`` alone, and an accelerator's
    concrete type is read from its profile only when a request names one.
    """

    is_host: bool = False
    num: int = 0
    profile: ExecProfile = field(default_factory=ExecProfile)
    memory: DeviceMemory = field(default_factory=DeviceMemory)
    queues: AsyncQueues = field(default_factory=AsyncQueues)
    #: kernels launched on this device (observability for tests/benches)
    kernels_launched: int = 0

    @property
    def device_type(self) -> DeviceType:
        """The concrete type ``acc_get_device_type`` names this device."""
        if self.is_host:
            return ACC_DEVICE_HOST
        return self.profile.concrete_device_type

    def matches(self, requested: DeviceType) -> bool:
        """Does this device satisfy a request for ``requested``?"""
        if requested.standard:
            kind = ACC_DEVICE_HOST if self.is_host else ACC_DEVICE_NOT_HOST
            return kind.matches(requested)
        return self.device_type.matches(requested)

    def reset(self) -> None:
        """Drop all device state (used by acc_shutdown)."""
        self.memory = DeviceMemory()
        self.queues = AsyncQueues()
        self.kernels_launched = 0
