"""The simulated accelerator device.

A :class:`Device` owns discrete memory (present table + heap) and async
queues.  Its :class:`ExecProfile` captures the *implementation-defined*
execution-model choices the paper highlights in Section II — how the three
OpenACC parallelism levels map onto hardware and what the default sizes are.
The actual gang/worker/vector iteration scheduling is driven by the compiler
lowering (:mod:`repro.compiler.exec_model`); the profile only supplies the
numbers and capability switches (e.g. PGI "just ignores worker").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accsim.asyncq import AsyncQueues
from repro.accsim.memory import DeviceMemory
from repro.spec.devices import ACC_DEVICE_NVIDIA, DeviceType


@dataclass
class ExecProfile:
    """Implementation-defined execution model parameters.

    The host device uses these defaults.  An accelerator's profile is any
    object with these four fields: the compiler passes its behaviour
    (:class:`~repro.compiler.behavior.CompilerBehavior`), and the region
    executor reads a default size only when a region omits its clause.
    """

    default_num_gangs: int = 16
    default_num_workers: int = 4
    default_vector_length: int = 8
    #: collapse the worker level to 1 lane (PGI 1.0-era behaviour)
    worker_ignored: bool = False


@dataclass
class Device:
    """One attached accelerator (or the host pseudo-device)."""

    device_type: DeviceType = ACC_DEVICE_NVIDIA
    num: int = 0
    profile: ExecProfile = field(default_factory=ExecProfile)
    memory: DeviceMemory = field(default_factory=DeviceMemory)
    queues: AsyncQueues = field(default_factory=AsyncQueues)
    #: kernels launched on this device (observability for tests/benches)
    kernels_launched: int = 0

    @property
    def is_host(self) -> bool:
        return not self.device_type.not_host

    def reset(self) -> None:
        """Drop all device state (used by acc_shutdown)."""
        self.memory = DeviceMemory()
        self.queues = AsyncQueues()
        self.kernels_launched = 0
