"""Run, check and compare the campaign workloads (see README.md).

One workload, as the root ``BENCHMARK.json`` command runs it::

    python3 benchmarks/workloads/run.py --workload NAME --seed N --seconds S --trace 0|1

prints progress on stderr and, as the last stdout line, one JSON object
with ``correct``/``attempted``/``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) declared in the
root ``BENCHMARK.json``.  Without ``--workload`` (or with several) every
workload runs in its own fresh child process, one after another, and
``--out FILE`` collects their full records; ``--out A B`` runs each
workload twice in a row and writes one full set of records to each file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.workloads import tracing

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
SPEC_PATH = ROOT / "BENCHMARK.json"
#: journals, live streams and spans; everything the benchmark writes
WORK_DIR = ROOT / ".bench_work"
DEFAULT_SEED = 20140519
#: fresh processes whose import + suite build is timed for setup_s, spread
#: evenly over the timed stretch of the run
SETUP_SAMPLES = 15
#: the warm-up pass runs every WARMUP_STRIDE-th template: enough to import
#: and specialise every layer's code, at a fraction of a pass's time
WARMUP_STRIDE = 4
#: every slice is timed at least this often, however short the budget
MIN_ROUNDS = 2
#: iterations of the reference loop
REFERENCE_ITERATIONS = 100_000
#: the reference loop's typical time on a 2-core x86_64 VM (20 to 40 ms
#: there); setup_s is given in seconds of a host that runs it in this time
NOMINAL_REFERENCE_S = 0.025
#: setup in a fresh process (half of it loading numpy's shared libraries)
#: slows down about as the square root of the reference loop: log-log
#: slopes of 0.45 to 0.6 in three sets of runs on that VM
SETUP_REFERENCE_EXPONENT = 0.5


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# setup time: measured in fresh processes
# ---------------------------------------------------------------------------


def setup_probe() -> int:
    """Time importing repro and building the suite in this fresh process."""
    start = perf_counter()
    from repro.suite import openacc10_suite

    openacc10_suite()
    print(json.dumps({"setup_s": perf_counter() - start}))
    return 0


def _probe_env() -> Dict[str, str]:
    """The probes' environment: bytecode is read from and written to a
    cache of their own under WORK_DIR, whatever PYTHONDONTWRITEBYTECODE
    says and whatever ``src/`` holds, so every timed probe imports cached
    bytecode, as a user's second run does."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "pycache")
    return env


def _probe_setup() -> float:
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-probe"], env=_probe_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _probes_due(elapsed: float, seconds: float) -> int:
    """Setup probes that should have run ``elapsed`` seconds into a timed
    stretch of ``seconds``: one at its start, the rest evenly spaced."""
    return min(SETUP_SAMPLES, int(elapsed * SETUP_SAMPLES / seconds) + 1)


def setup_seconds(probe_s: float, reference_s: float) -> float:
    """A setup probe's time on a host that runs the reference loop in
    NOMINAL_REFERENCE_S, given the reference loop's time around the probe."""
    return probe_s * (NOMINAL_REFERENCE_S
                      / reference_s) ** SETUP_REFERENCE_EXPONENT


# ---------------------------------------------------------------------------
# the reference loop
# ---------------------------------------------------------------------------


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed pure-Python work on builtins only, so no change to the program
    makes it faster or slower.  Timed right before and right after every
    slice, it measures how fast the host runs Python at that moment."""
    table: Dict[int, int] = {}
    names: List[str] = []
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        names.append(str(key))
        if len(names) > 64:
            names.clear()
    return len(table)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summary(values: List[float], unit: str) -> dict:
    """Median, quartiles and count of ``values``."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _band(stat, q1s, medians, q3s) -> dict:
    """A per-unit statistic of the units' median times, with the same
    statistic of their first and third quartiles as its spread."""
    return {"value": stat(medians), "unit": "ref", "q1": stat(q1s),
            "q3": stat(q3s), "n": len(medians)}


@dataclass
class SliceTime:
    """One timed run of one slice of the corpus."""

    slice: int
    wall: float
    cpu: float
    #: mean time of the reference loop right before and right after it
    reference: float
    #: every unit's ``TestResult.elapsed_s``, in report order
    units: List[float]
    #: ``RunMetrics`` of every suite run of the slice
    metrics: list
    replay_s: float


def by_slice(times: List[SliceTime], slices: int) -> List[List[SliceTime]]:
    return [[t for t in times if t.slice == i] for i in range(slices)]


def slice_sum(groups: List[List[SliceTime]], value: Callable[[SliceTime], float],
              unit: str) -> dict:
    """A whole-corpus figure: the sum over the slices of the median of
    ``value`` over each slice's runs (q1 and q3 likewise)."""
    cols = [quartiles([value(t) for t in group]) for group in groups]
    q1, med, q3 = (sum(col[k] for col in cols) for k in range(3))
    return {"value": med, "unit": unit, "q1": q1, "q3": q3,
            "n": min(len(group) for group in groups)}


def unit_bands(groups: List[List[SliceTime]]) -> Tuple[dict, dict]:
    """p50 and p90 over the units of each unit's median time over its
    slice's runs, each run's time divided by that run's reference time.
    A slice runs the same units in the same order every time, and a unit's
    median drops a slowdown that hit it in one run only."""
    q1s, medians, q3s = zip(*(
        quartiles(times) for group in groups
        for times in zip(*([u / t.reference for u in t.units]
                           for t in group))))
    return (_band(statistics.median, q1s, medians, q3s),
            _band(p90, q1s, medians, q3s))


def _rusage() -> Tuple[float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS MB
    of this process or any reaped child)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _utilization(metrics) -> float:
    busy = sum(m.busy_s for m in metrics)
    capacity = sum(m.wall_s * m.workers for m in metrics)
    return busy / capacity if capacity > 0 else 0.0


def per_layer_metrics(recorder, metrics, traced_s: float, overhead: float,
                      replay_s: float, utilization: float) -> Dict[str, float]:
    """The span-derived layer metrics plus the ones the pass reports
    itself: compile-cache hit rate (the traced pass's ``metrics``), journal
    replay time, pool utilization (both from the timed slices), the traced
    pass's ``overhead`` over an untraced one, and the share of its
    ``traced_s`` that is self time of a layer below the harness.  The
    harness layers enclose nearly the whole pass, so time no inner hook
    covers lands in their self time; a hook that stops firing lowers that
    share."""
    layers = tracing.layer_metrics(recorder)
    hits = sum(m.cache_hits for m in metrics)
    lookups = hits + sum(m.cache_misses for m in metrics)
    layers["compiler.cache.hit_rate"] = hits / lookups if lookups else 0.0
    layers["journal.replay_s"] = replay_s
    layers["harness.engine.worker_utilization"] = utilization
    layers["trace_overhead"] = overhead
    layers["trace_attributed"] = sum(
        v for k, v in layers.items()
        if k.endswith(".self_s") and not k.startswith("harness.")) / traced_s
    return layers


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 trace_dir: Path) -> dict:
    """Setup, one warm-up pass, ``seconds`` of timed slices, and
    (``trace``) one traced pass of workload ``name``; returns its full
    record."""
    WORK_DIR.mkdir(exist_ok=True)
    _probe_setup()  # untimed: fills the probes' bytecode cache
    from repro.suite import openacc10_suite
    from benchmarks.workloads import catalog

    workload = catalog.WORKLOADS[name]
    suite = openacc10_suite()
    slices = [catalog.Sample(suite, workload.slices, i)
              for i in range(workload.slices)]
    verifier = catalog.Verifier(catalog.load_golden())
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)

    def run(label: str, corpus, csv_key: Optional[int] = None,
            serial: bool = False, recorder=None):
        env = catalog.Env(corpus, seed, tempfile.mkdtemp(dir=workdir), serial)
        cpu0, _ = _rusage()
        start = perf_counter()
        if recorder is None:
            result = workload.run(env)
        else:
            with tracing.patched(tracing.LAYER_HOOKS, recorder):
                result = workload.run(env)
        wall = perf_counter() - start
        cpu = _rusage()[0] - cpu0
        shutil.rmtree(env.scratch)
        check = verifier.add(label, result, corpus.select(), csv_key)
        for note in check.notes:
            _log(f"  CHECK FAILED {note}")
        return result, wall, cpu

    def run_slice(i: int, label: str, before: float,
                  **kwargs) -> Tuple[SliceTime, float]:
        """Slice ``i``, then the reference loop; ``before`` is the
        reference time taken just before the slice.  Returns the slice's
        time and the reference time after it."""
        result, wall, cpu = run(f"{label} slice {i}", slices[i], csv_key=i,
                                **kwargs)
        after = time_reference()
        return SliceTime(
            i, wall, cpu, (before + after) / 2,
            [u.elapsed_s for _, r in result.runs for u in r.results],
            [r.metrics for _, r in result.runs], result.replay_s), after

    def one_round(label: str, **kwargs) -> List[SliceTime]:
        times, before = [], time_reference()
        for i in range(len(slices)):
            time, before = run_slice(i, label, before, **kwargs)
            times.append(time)
        _log_round(name, label, times)
        return times

    try:
        _, warm, _ = run("warm-up", catalog.Sample(suite, WARMUP_STRIDE))
        _log(f"  {name} warm-up: {warm:.3f} s")
        # the setup probes are spread over the timed stretch, between
        # slices; a probe taken before the warm-up, on an idle machine,
        # took up to 1.5 times as long as the ones after it.  Each probe
        # is read against the reference loop timed right before and right
        # after it, like the slices.
        setup: List[float] = []
        setup_nominal: List[float] = []
        timed: List[SliceTime] = []
        start, before = perf_counter(), time_reference()
        while True:
            elapsed = perf_counter() - start
            for _ in range(_probes_due(elapsed, seconds) - len(setup)):
                setup.append(_probe_setup())
                after = time_reference()
                setup_nominal.append(
                    setup_seconds(setup[-1], (before + after) / 2))
                before = after
            if elapsed >= seconds and len(timed) >= MIN_ROUNDS * len(slices):
                break
            i = len(timed) % len(slices)
            time, before = run_slice(i, "timed", before)
            timed.append(time)
            if i == len(slices) - 1:
                _log_round(name, f"round {len(timed) // len(slices)}",
                           timed[-len(slices):])
        _, peak_rss = _rusage()
        groups = by_slice(timed, len(slices))
        unit_p50, unit_p90 = unit_bands(groups)
        record = {
            "workload": name, "seed": seed, "seconds": seconds,
            "slices": len(slices), "rounds": len(timed) / len(slices),
            "warmup_s": warm, "units": unit_p50["n"],
            "end_to_end": {
                "setup_s": summary(setup_nominal, "s"),
                "wall_ref": slice_sum(groups, lambda t: t.wall / t.reference,
                                      "ref"),
                "cpu_ref": slice_sum(groups, lambda t: t.cpu / t.reference,
                                     "ref"),
                "unit_p50_ref": unit_p50,
                "unit_p90_ref": unit_p90,
                "peak_rss_mb": summary([peak_rss], "MB"),
            },
            # setup and the pass in seconds as this host ran them, and the
            # reference loop's time: for reading, not for comparing
            "as_run": {
                "setup_s": summary(setup, "s"),
                "wall_s": slice_sum(groups, lambda t: t.wall, "s"),
                "reference_ms": summary([t.reference * 1000 for t in timed],
                                        "ms"),
            },
            "per_layer": None,
        }
        if trace:
            untraced = record["end_to_end"]["wall_ref"]["value"]
            if name == "durable_campaign":
                # the traced pass runs serially (the wrappers exist only in
                # this process), so its overhead is judged against an
                # untraced serial pass
                untraced = sum(t.wall / t.reference
                               for t in one_round("untraced serial",
                                                  serial=True))
            recorder = tracing.SpanRecorder()
            traced = one_round("traced", serial=True, recorder=recorder)
            record["per_layer"] = per_layer_metrics(
                recorder, [m for t in traced for m in t.metrics],
                traced_s=sum(t.wall for t in traced),
                overhead=sum(t.wall / t.reference for t in traced) / untraced,
                replay_s=slice_sum(groups, lambda t: t.replay_s, "s")["value"],
                utilization=statistics.median(
                    _utilization(t.metrics) for t in timed))
            path = tracing.write_spans(recorder, str(trace_dir), name)
            _log(f"  {name}: {len(recorder.layers)} spans -> {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check = verifier.total
    record.update(attempted=check.units, failed=check.failed,
                  error_frac=check.failed / check.units if check.units else 1.0,
                  correct=check.failed == 0 and check.units > 0,
                  notes=check.notes)
    return record


def _log_round(name: str, label: str, times: List[SliceTime]) -> None:
    wall = sum(t.wall for t in times)
    ref = sum(t.wall / t.reference for t in times)
    _log(f"  {name} {label}: {wall:.3f} s wall, {ref:.1f} ref")


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line of a one-workload run, built from its record."""
    if trace:
        values = record["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = record["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# several workloads, each in a fresh child
# ---------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_meta(seed: int, seconds: int, trace: bool) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": _git_sha(),
            "seed": seed, "seconds": seconds, "trace": trace}


def run_children(names: List[str], args, copies: int) -> List[Dict[str, dict]]:
    """Runs each workload in a fresh child process, ``copies`` times back
    to back, so that the copies of one workload are measured minutes
    closer together than whole runs of every workload would be; returns
    one ``{workload: record}`` per copy."""
    runs: List[Dict[str, dict]] = [{} for _ in range(copies)]
    WORK_DIR.mkdir(exist_ok=True)
    for name in names:
        for records in runs:
            fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json",
                                       dir=WORK_DIR)
            os.close(fd)
            try:
                subprocess.run(
                    [sys.executable, str(RUN_PY), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--trace-dir", str(args.trace_dir), "--out", out],
                    stdout=subprocess.DEVNULL, timeout=900,
                )
                if os.path.getsize(out):
                    with open(out, encoding="utf-8") as fh:
                        records.update(json.load(fh)["workloads"])
                else:
                    _log(f"{name}: the child wrote no record")
            finally:
                os.unlink(out)
    return runs


def render_table(records: Dict[str, dict], spec: dict) -> str:
    lines = []
    for name, record in records.items():
        lines.append(f"{name}: {record['rounds']:.1f} rounds of "
                     f"{record['slices']} slices, "
                     f"{record['attempted']} units checked, "
                     f"error_frac {record['error_frac']:.4f}")
        for m in spec["end_to_end"]:
            s = record["end_to_end"][m["name"]]
            lines.append(f"  {m['name']:<18} {s['value']:>12.4f} {m['unit']:<4}"
                         f" [q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']}]")
        for key, value in (record["per_layer"] or {}).items():
            lines.append(f"  {key:<42} {value:>14.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(base: dict, new: dict, spec: dict) -> Tuple[List[str], int]:
    """One row per (workload, end-to-end metric); returns the rows and the
    number of regressions (a change worse than the metric's bound while
    both spreads are within it)."""
    rows = [f"{'workload':<17} {'metric':<17} {'base [q1, q3]':>28} "
            f"{'new [q1, q3]':>28} {'change':>8}  verdict"]
    regressions = 0
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_rec, n_rec = base["workloads"][name], new["workloads"][name]
        for m in spec["end_to_end"]:
            b = b_rec["end_to_end"][m["name"]]
            n = n_rec["end_to_end"][m["name"]]
            change = (n["value"] - b["value"]) / b["value"]
            worse = change if m["better"] == "lower" else -change
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (b, n))
            if spread > m["bound"]:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worse > m["bound"]:
                verdict = f"REGRESSION (bound {m['bound']:.0%})"
                regressions += 1
            else:
                verdict = "ok"
            rows.append(
                f"{name:<17} {m['name']:<17} "
                f"{_cell(b):>28} {_cell(n):>28} {change:>+8.1%}  {verdict}")
        worse_errors = n_rec["error_frac"] > b_rec["error_frac"]
        regressions += worse_errors
        rows.append(f"{name:<17} {'error_frac':<17} {b_rec['error_frac']:>28.4f} "
                    f"{n_rec['error_frac']:>28.4f} {'':>8}  "
                    f"{'REGRESSION (any increase)' if worse_errors else 'ok'}")
    return rows, regressions


def _cell(s: dict) -> str:
    return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser(names: List[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks.workloads",
        description="Campaign workload benchmark for the OpenACC 1.0 "
                    "validation-suite reproduction.")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all, each in "
                        "a fresh child process)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25,
                   help="time budget of the timed slices; every slice runs "
                        f"at least {MIN_ROUNDS} times however short it is")
    p.add_argument("--trace", type=int, choices=(0, 1), default=1,
                   help="1: add a traced pass and report per-layer metrics")
    p.add_argument("--trace-dir", type=Path, default=WORK_DIR / "spans",
                   help="where <workload>.spans.jsonl is written")
    p.add_argument("--out", type=Path, nargs="+", metavar="FILE",
                   help="write the full records here; with several files "
                        "each workload runs once per file, back to back")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                   help="compare two --out files against the bounds")
    p.add_argument("--write-golden", action="store_true",
                   help="re-record golden.json from the current code")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--setup-probe"]:
        return setup_probe()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parser(names).parse_args(argv)
    if args.seconds < 1:
        _log("--seconds must be >= 1")
        return 2
    if args.compare:
        base, new = (json.loads(p.read_text(encoding="utf-8"))
                     for p in args.compare)
        rows, regressions = compare(base, new, spec)
        print("\n".join(rows))
        print(f"{regressions} regression(s)")
        return 1 if regressions else 0
    if args.write_golden:
        from repro.suite import openacc10_suite
        from benchmarks.workloads.catalog import GOLDEN_PATH, build_golden

        golden = build_golden(openacc10_suite())
        GOLDEN_PATH.write_text(_golden_text(golden), encoding="utf-8")
        _log(f"wrote {sum(map(len, golden.values()))} verdicts to {GOLDEN_PATH}")
        return 0

    selected = args.workload or names
    outs = args.out or []
    trace = bool(args.trace)
    in_process = len(selected) == 1 and len(outs) <= 1
    if in_process:
        try:
            record = run_workload(selected[0], args.seed, args.seconds, trace,
                                  args.trace_dir)
        except subprocess.CalledProcessError as err:
            _log(f"setup failed: {err.stderr.strip()}")
            return 2
        runs = [{selected[0]: record}]
    else:
        runs = run_children(selected, args, max(1, len(outs)))
        for records in runs:
            print(render_table(records, spec))
    for path, records in zip(outs, runs):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"meta": run_meta(args.seed, args.seconds, trace),
             "workloads": records}, indent=1) + "\n", encoding="utf-8")
    if in_process:
        print(json.dumps(result_line(record, spec, trace)))
    ok = all(len(records) == len(selected)
             and all(r["correct"] for r in records.values())
             for records in runs)
    return 0 if ok else 1


def _golden_text(golden: Dict[str, Dict[str, list]]) -> str:
    """One verdict per line, so a changed verdict is a one-line diff."""
    blocks = []
    for key, units in golden.items():
        rows = ",\n".join(f"  {json.dumps(u)}: {json.dumps(v)}"
                          for u, v in units.items())
        blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"
