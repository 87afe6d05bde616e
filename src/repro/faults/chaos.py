"""Seeded chaos schedules: every fault site armed at once (``repro.faults``).

The individual sites prove one failure mode each; a *chaos schedule*
proves the composition.  :class:`ChaosSchedule` arms every documented
site — the in-process ones (compile/iteration/worker/stall/journal) and
the campaign-server wire ones (conn/frame/slow_client) — from one seed,
split into the two plans the system actually takes:

* :meth:`ChaosSchedule.runner_plan` travels inside the submission's
  ``config.fault_plan`` and fires inside the campaign (compiler,
  iterations, pool workers, journal);
* :meth:`ChaosSchedule.server_plan` arms the server process itself
  (``repro serve --inject-faults`` / ``serve_in_thread(fault_plan=...)``)
  and fires on the wire protocol.

Every fault is *transient* (``max_fires=1``): each decision key fires
once and heals on the next attempt, resume generation, or client retry.
That is the invariant the chaos suite leans on — a chaotic campaign
driven with :func:`drive_to_completion` always terminates ``done``, and
its report is byte-identical to a fault-free run of the same spec,
because every layer's recovery path (engine retry, pool respawn,
journal resume, client retry/reconnect, watchdog requeue) converges on
the same completed unit set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import _SITE_FIELDS as _FIELDS, FaultPlan

#: sites that fire inside the campaign (armed via ``config.fault_plan``)
RUNNER_SITES = ("compile", "iteration", "worker", "stall", "journal")
#: sites that fire inside the server process (armed via ``--inject-faults``)
SERVER_SITES = ("conn", "frame", "slow_client")


@dataclass(frozen=True)
class ChaosSchedule:
    """One seed, every site, both sides of the wire.

    ``rate`` is the per-site firing probability (1.0 = every decision
    key fires once); ``stall_s`` bounds each injected stall — keep it
    well under the server's ``watchdog_s`` unless the point of the test
    is to trip the watchdog.
    """

    seed: int = 0
    rate: float = 1.0
    stall_s: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.stall_s < 0.0:
            raise ValueError(f"stall_s must be >= 0, got {self.stall_s}")

    def _plan(self, sites) -> FaultPlan:
        kwargs = {_FIELDS[site]: self.rate for site in sites}
        return FaultPlan(seed=self.seed, stall_s=self.stall_s, **kwargs)

    def runner_plan(self) -> FaultPlan:
        """The campaign-side plan (travels in ``config.fault_plan``)."""
        return self._plan(RUNNER_SITES)

    def server_plan(self) -> FaultPlan:
        """The server-side plan (wire protocol sites)."""
        return self._plan(SERVER_SITES)

    def apply(self, spec: dict) -> dict:
        """Return a copy of a submission spec with the runner plan armed
        in its config (``describe()`` round-trips through
        ``FaultPlan.parse``, which is how the spec string survives the
        protocol's config normalization)."""
        spec = dict(spec)
        config = dict(spec.get("config") or {})
        config["fault_plan"] = self.runner_plan().describe()
        spec["config"] = config
        return spec


def drive_to_completion(client, spec, *, max_resubmits: int = 8,
                        wait_timeout_s: float = 600.0):
    """Submit ``spec`` and drive it to ``done`` through any injected
    crash: a campaign that lands ``failed`` (torn journal, watchdog
    give-up) is resubmitted — resume replays its
    journaled units — until it completes or ``max_resubmits`` is spent.

    Returns ``(info, resubmits)``: the terminal campaign info dict and
    how many resubmissions the chaos cost.  Raises ``RuntimeError`` if
    the campaign will not converge, which is precisely the regression
    this harness exists to catch.
    """
    cid = client.submit(spec)["id"]
    info = client.wait(cid, timeout_s=wait_timeout_s)
    resubmits = 0
    while info["state"] != "done":
        if resubmits >= max_resubmits:
            raise RuntimeError(
                f"campaign {cid} failed to converge after {resubmits} "
                f"resubmit(s); last state {info['state']!r} "
                f"(error: {info.get('error')!r})"
            )
        resubmits += 1
        client.resubmit(cid)
        info = client.wait(cid, timeout_s=wait_timeout_s)
    return info, resubmits
