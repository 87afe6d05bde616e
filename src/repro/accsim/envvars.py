"""OpenACC environment variables (spec Section 4).

``ACC_DEVICE_TYPE`` selects the device type used when a program starts;
``ACC_DEVICE_NUM`` the device number.  The harness passes the environment
as a plain dict (never the real process environment) so tests are hermetic.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.accsim.errors import InvalidDeviceError
from repro.accsim.machine import Machine
from repro.spec.devices import (
    DeviceType,
    device_type_by_name,
)

#: the spellings 1.0-era implementations accepted for ACC_DEVICE_TYPE
_TYPE_SPELLINGS: Dict[str, str] = {
    "NVIDIA": "acc_device_nvidia",
    "RADEON": "acc_device_radeon",
    "XEONPHI": "acc_device_xeonphi",
    "HOST": "acc_device_host",
    "NOT_HOST": "acc_device_not_host",
    "DEFAULT": "acc_device_default",
}


def parse_device_type(value: str) -> DeviceType:
    name = _TYPE_SPELLINGS.get(value.strip().upper())
    if name is None:
        raise InvalidDeviceError(f"unrecognised ACC_DEVICE_TYPE value {value!r}")
    return device_type_by_name(name)


def apply_environment(machine: Machine, env: Mapping[str, str]) -> None:
    """Apply ACC_* variables to a freshly constructed machine."""
    if "ACC_DEVICE_TYPE" in env:
        machine.set_device_type(parse_device_type(env["ACC_DEVICE_TYPE"]))
    if "ACC_DEVICE_NUM" in env:
        try:
            machine.device_num = int(env["ACC_DEVICE_NUM"])
        except ValueError:
            raise InvalidDeviceError(
                f"ACC_DEVICE_NUM must be an integer, got {env['ACC_DEVICE_NUM']!r}"
            ) from None
