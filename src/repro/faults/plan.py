"""The :class:`FaultPlan`: a declarative, picklable fault-injection spec.

A plan is plain frozen data — it travels inside
:class:`~repro.harness.config.HarnessConfig` to process-pool workers, and
every :class:`~repro.faults.injector.FaultInjector` built from the same
plan makes identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: named injection sites, in documentation order
FAULT_SITES = ("compile", "iteration", "worker", "stall", "journal")

#: parse() aliases: CLI token -> dataclass field
_SITE_FIELDS = {
    "compile": "compile_crash",
    "iteration": "iteration_crash",
    "worker": "worker_death",
    "stall": "stall",
    "journal": "journal_torn",
}
_OPTION_FIELDS = {
    "seed": ("seed", int),
    "stall-s": ("stall_s", float),
    "stall_s": ("stall_s", float),
    "max-fires": ("max_fires", int),
    "max_fires": ("max_fires", int),
}


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject, where, and how often.

    ``max_fires`` bounds how many *attempts* of a unit observe its faults:
    with the default 1 every injected fault is transient — it fires on the
    first attempt and heals on retry/recheck — which is what makes the
    healed run byte-identical to the fault-free run.  ``persistent=True``
    makes every fault fire on every attempt, the test vector for the
    exhausted-retries (``HARNESS_ERROR``) and quarantine paths.

    ``attempt_offset`` shifts the attempt counter for every decision; the
    Titan harness uses it so that a re-check or recovery probe counts as a
    later attempt of the same unit (transient faults do not recur).
    """

    seed: int = 0
    #: rate of internal compiler crashes, per compile site
    compile_crash: float = 0.0
    #: rate of transient runtime crashes, per (template, phase, iteration)
    iteration_crash: float = 0.0
    #: rate of worker-process deaths, per work unit (process policy only)
    worker_death: float = 0.0
    #: rate of wall-clock stalls, per (template, phase, iteration)
    stall: float = 0.0
    #: rate of torn journal writes (a simulated crash mid-append: half the
    #: record reaches the disk, then the process "dies"), per work unit;
    #: the attempt number is the journal's resume generation, so a torn
    #: write is transient across resumes unless ``persistent``
    journal_torn: float = 0.0
    #: how long one injected stall sleeps
    stall_s: float = 0.05
    #: attempts of a unit that observe its faults (1 = transient)
    max_fires: int = 1
    #: added to every attempt number (rechecks/probes count as later attempts)
    attempt_offset: int = 0
    #: fire on every attempt, regardless of max_fires
    persistent: bool = False

    def __post_init__(self) -> None:
        for name in _SITE_FIELDS.values():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if self.stall_s < 0.0:
            raise ValueError(f"stall_s must be >= 0, got {self.stall_s}")
        if self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.attempt_offset < 0:
            raise ValueError(
                f"attempt_offset must be >= 0, got {self.attempt_offset}"
            )

    @property
    def active(self) -> bool:
        """Does this plan inject anything at all?"""
        return any(
            getattr(self, field) > 0.0 for field in _SITE_FIELDS.values()
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI spec like ``'worker=0.5,iteration=0.2,seed=7'``.

        Tokens: ``<site>=<rate>`` for every site in :data:`FAULT_SITES`
        (``compile``, ``iteration``, ``worker``, ``stall``, ``journal``);
        options ``seed=N``, ``stall-s=F``, ``max-fires=N``; flag
        ``persistent``.
        """
        kwargs: dict = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token == "persistent":
                kwargs["persistent"] = True
                continue
            if "=" not in token:
                raise ValueError(
                    f"bad fault token {token!r}: expected site=rate, "
                    f"seed=N, stall-s=F, max-fires=N or 'persistent' "
                    f"(sites: {', '.join(FAULT_SITES)})"
                )
            name, _, value = token.partition("=")
            name = name.strip()
            value = value.strip()
            try:
                if name in _SITE_FIELDS:
                    kwargs[_SITE_FIELDS[name]] = float(value)
                elif name in _OPTION_FIELDS:
                    field, convert = _OPTION_FIELDS[name]
                    kwargs[field] = convert(value)
                else:
                    raise ValueError(
                        f"unknown fault site/option {name!r} "
                        f"(sites: {', '.join(FAULT_SITES)}; options: "
                        "seed, stall-s, max-fires, persistent)"
                    )
            except ValueError as err:
                if "unknown fault" in str(err) or "bad fault" in str(err):
                    raise
                raise ValueError(
                    f"bad value {value!r} for fault option {name!r}"
                ) from None
        return cls(**kwargs)


assert set(_SITE_FIELDS) == set(FAULT_SITES)
assert all(f.name in {
    "seed", "compile_crash", "iteration_crash", "worker_death", "stall",
    "journal_torn", "stall_s", "max_fires", "attempt_offset", "persistent",
} for f in fields(FaultPlan))
