"""Per-layer spans recorded from the benchmark's side of each layer boundary.

A traced pass patches a wrapper onto each layer's public entry point (the
:data:`LAYER_HOOKS` table), runs the workload, and restores the original
attributes.  Nothing under ``src/`` knows about it.  Each wrapper records
one span (layer, start, end, parent) in a :class:`SpanRecorder`; a layer's
self time is its spans' durations minus the time covered by their child
spans, so the self times of all layers add up to the time spent inside
wrapped calls.

The traced pass must run in one thread of one process: spans nest by call
order, and wrappers do not exist in pool workers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_NO_PARENT = -1


class SpanRecorder:
    """Spans of one traced pass, kept in memory as parallel lists."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: extra per-layer tallies, e.g. ``{"accsim.memory.bytes": 4096}``
        self.counts: Dict[str, float] = {}
        #: (source, language) pairs parsed so far, for the repeat share
        self.parsed: set = set()
        self._open: List[int] = []

    def push(self, layer: str) -> int:
        index = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._open[-1] if self._open else _NO_PARENT)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def pop(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order: the traced pass "
                               "must run in a single thread")

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Layer -> summed span durations minus their children's."""
        child_time = [0.0] * len(self.layers)
        for i, parent in enumerate(self.parents):
            if parent != _NO_PARENT:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            own = self.ends[i] - self.starts[i] - child_time[i]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def total_times(self) -> Dict[str, float]:
        """Layer -> summed durations of its outermost spans (nested spans of
        the same layer are not counted twice)."""
        out: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            parent = self.parents[i]
            while parent != _NO_PARENT and self.layers[parent] != layer:
                parent = self.parents[parent]
            if parent == _NO_PARENT:
                out[layer] = out.get(layer, 0.0) + self.ends[i] - self.starts[i]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for layer in self.layers:
            out[layer] = out.get(layer, 0) + 1
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, layer in enumerate(self.layers):
                fh.write(json.dumps({
                    "id": i, "layer": layer,
                    "start": self.starts[i] - origin,
                    "end": self.ends[i] - origin,
                    "parent": self.parents[i],
                }) + "\n")


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``.

    ``when(*args)`` decides whether a call opens a span (None: always).
    ``before(*args)`` is taken before the call and handed to
    ``after(recorder, before_value, args, result)`` once it returns, for
    counts such as bytes moved.
    """

    layer: str
    target: str
    when: Optional[Callable] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(fn: Callable, hook: Hook, rec: SpanRecorder) -> Callable:
    layer, when, before, after = hook.layer, hook.when, hook.before, hook.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        token = before(*args, **kwargs) if before is not None else None
        index = rec.push(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop(index)
        if after is not None:
            after(rec, token, args, result)
        return result

    return wrapper


@contextmanager
def patched(hooks: Sequence[Hook], rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every hook's target for the duration of the block; the original
    attribute objects are put back on exit, even when the block raises."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook.target)
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, hook, rec))
            else:
                wrapped = _wrap(raw, hook, rec)
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def hook_targets(hooks: Sequence[Hook]) -> List[Tuple[object, str, object]]:
    """(owner, attr, current attribute object) for every hook target."""
    out = []
    for hook in hooks:
        owner, attr = _resolve(hook.target)
        out.append((owner, attr, vars(owner)[attr]))
    return out


# ---------------------------------------------------------------------------
# the layer table
# ---------------------------------------------------------------------------


def _parsed(language: str):
    def after(rec: SpanRecorder, _token, args, _result) -> None:
        source = args[0]
        rec.add(f"{language}.bytes", len(source))
        key = (source, language)
        if key in rec.parsed:
            rec.add("compiler.pipeline.repeats", 1)
        else:
            rec.parsed.add(key)
    return after


def _memory_bytes(memory, *_args, **_kwargs) -> int:
    return memory.bytes_to_device + memory.bytes_to_host


def _memory_after(rec: SpanRecorder, before: int, args, _result) -> None:
    rec.add("accsim.memory.bytes", _memory_bytes(args[0]) - before)


def _queue_waits(queues, *_args, **_kwargs) -> int:
    return queues.waits


def _queue_after(rec: SpanRecorder, before: int, args, _result) -> None:
    rec.add("accsim.asyncq.waits", args[0].waits - before)


def _steps_after(rec: SpanRecorder, _token, _args, result) -> None:
    rec.add("compiler.interp.steps", result.steps)


def _is_compute_construct(_executor, stmt, *_args, **_kwargs) -> bool:
    return stmt.directive.kind in ("parallel", "kernels")


def _is_combined_loop(_executor, stmt, *_args, **_kwargs) -> bool:
    # a plain `loop` inside a region is already under the region's span;
    # an orphan one runs on the host, which is the interpreter's time
    return stmt.directive.kind in ("parallel loop", "kernels loop")


_MEMORY = "repro.accsim.memory:DeviceMemory."

#: Every wrapped entry point, outermost layers first.  Template generation
#: and lint reach the generators and parsers through their own module
#: bindings, so each binding a campaign calls through is listed.
LAYER_HOOKS: Tuple[Hook, ...] = (
    Hook("harness.titan", "repro.harness.titan:TitanHarness.sweep"),
    Hook("harness.engine", "repro.harness.runner:ValidationRunner.run_suite"),
    Hook("harness.runner", "repro.harness.runner:ValidationRunner.run_template"),
    Hook("staticcheck", "repro.staticcheck:lint_template"),
    Hook("journal", "repro.journal.wal:JournalWriter.append"),
    Hook("journal", "repro.journal.wal:JournalWriter.resume"),
    Hook("obs.live", "repro.obs.live:LiveTelemetry.unit"),
    Hook("obs.live", "repro.obs.live:LiveTelemetry.end"),
    Hook("templates", "repro.harness.runner:generate_functional"),
    Hook("templates", "repro.harness.runner:generate_cross"),
    Hook("templates", "repro.staticcheck.corpus:generate_functional"),
    Hook("templates", "repro.staticcheck.corpus:generate_cross"),
    Hook("compiler.cache", "repro.compiler.cache:CompileCache.get_or_compile"),
    Hook("compiler.pipeline", "repro.compiler.pipeline:Compiler.compile"),
    Hook("minic", "repro.minic:parse_program", after=_parsed("minic")),
    Hook("minifort", "repro.minifort:parse_program", after=_parsed("minifort")),
    Hook("compiler.closures", "repro.compiler.closures:lower_program"),
    Hook("compiler.interp", "repro.compiler.pipeline:ProgramRunner.run",
         after=_steps_after),
    Hook("accsim.machine", "repro.accsim.machine:Machine.__init__"),
    Hook("compiler.exec_model",
         "repro.compiler.exec_model:AccExecutor.exec_construct",
         when=_is_compute_construct),
    Hook("compiler.exec_model",
         "repro.compiler.exec_model:AccExecutor.exec_acc_loop",
         when=_is_combined_loop),
    *(Hook("accsim.memory", _MEMORY + name, before=_memory_bytes,
           after=_memory_after)
      for name in ("enter", "exit", "update_host", "update_device",
                   "force_copyout", "delete")),
    Hook("accsim.asyncq", "repro.accsim.asyncq:AsyncQueues.wait",
         before=_queue_waits, after=_queue_after),
    Hook("accsim.asyncq", "repro.accsim.asyncq:AsyncQueues.wait_all",
         before=_queue_waits, after=_queue_after),
)

#: layer names in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(h.layer for h in LAYER_HOOKS))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus the
    layer-specific extras; every key is present even when a layer never ran."""
    self_s = rec.self_times()
    total_s = rec.total_times()
    calls = rec.calls()
    counts = rec.counts
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for lang in ("minic", "minifort"):
        kb = counts.get(f"{lang}.bytes", 0) / 1024
        out[f"{lang}.kb_per_s"] = _ratio(kb, self_s.get(lang, 0.0))
    parses = calls.get("minic", 0) + calls.get("minifort", 0)
    out["compiler.pipeline.repeat_frac"] = _ratio(
        counts.get("compiler.pipeline.repeats", 0), parses)
    steps = counts.get("compiler.interp.steps", 0)
    out["compiler.interp.steps"] = steps
    out["compiler.interp.steps_per_s"] = _ratio(
        steps, total_s.get("compiler.interp", 0.0))
    out["accsim.memory.bytes"] = counts.get("accsim.memory.bytes", 0)
    out["accsim.asyncq.waits"] = counts.get("accsim.asyncq.waits", 0)
    return out


def write_spans(rec: SpanRecorder, directory: str, workload: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}.spans.jsonl")
    rec.write_jsonl(path)
    return path
