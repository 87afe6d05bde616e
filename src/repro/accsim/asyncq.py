"""Asynchronous activity queues.

OpenACC ``async(tag)`` work goes onto a per-tag queue; nothing executes until
a ``wait`` drains it (or the program flushes at exit).  This is the weakest
legal execution schedule and it is precisely the one the async tests need:
``acc_async_test`` must observe *incomplete* work between enqueue and wait
(Fig. 10), and results read without a wait must be stale (cross tests).

The module also keeps a logical clock counting completed activities, used by
reports and by the Titan production-harness statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: queue used by `async` without an argument
DEFAULT_QUEUE = object()


@dataclass
class Activity:
    run: Callable[[], None]
    description: str = ""


class AsyncQueues:
    def __init__(self) -> None:
        self._queues: Dict[object, List[Activity]] = {}
        self.completed = 0  # logical clock
        self.enqueued = 0
        #: profiling (see repro.obs): wait calls and the deepest backlog
        #: observed across all queues at any enqueue
        self.waits = 0
        self.max_pending = 0

    def _key(self, tag: Optional[int]) -> object:
        return DEFAULT_QUEUE if tag is None else int(tag)

    def enqueue(self, tag: Optional[int], run: Callable[[], None],
                description: str = "") -> None:
        self._queues.setdefault(self._key(tag), []).append(
            Activity(run=run, description=description)
        )
        self.enqueued += 1
        depth = self.pending()
        if depth > self.max_pending:
            self.max_pending = depth

    def test(self, tag: Optional[int]) -> bool:
        """True (complete) iff no pending activities on the tagged queue."""
        return not self._queues.get(self._key(tag))

    def test_all(self) -> bool:
        return all(not q for q in self._queues.values())

    def wait(self, tag: Optional[int]) -> None:
        """Drain the tagged queue, executing activities in order."""
        self.waits += 1
        self._drain(self._key(tag))

    def wait_all(self) -> None:
        self.waits += 1
        # drain in deterministic order; activities may enqueue more work
        while any(self._queues.values()):
            for key in list(self._queues):
                self._drain(key)

    def _drain(self, key: object) -> None:
        queue = self._queues.get(key, [])
        while queue:
            activity = queue.pop(0)
            activity.run()
            self.completed += 1

    def discard(self) -> None:
        """Drop every queued activity unrun."""
        self._queues.clear()

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())
