"""Bucketed calendar-queue prototype for the event schedule.

``REPRO_SIM_CALENDAR=1`` makes :class:`~repro.sim.core.Environment`
construct a :class:`CalendarEnvironment` instead (see
``Environment.__new__``), swapping the single binary heap for a
two-level structure in the calendar-queue family (Brown 1988): events
hash into fixed-width time buckets (a dict keyed by
``floor(t / width)``), and a small heap of *bucket indices* finds the
front bucket without scanning empty ones.  Each bucket is its own tiny
heap ordered by the exact same ``(time, priority, seq)`` key the binary
heap uses, and equal timestamps always land in the same bucket, so
event ordering — and therefore every simulation result — is
byte-identical to the default kernel.

The bet behind the structure: most pushes land in an existing bucket,
where the per-operation heap is tens of entries instead of thousands,
so ``heappush``/``heappop`` touch a shorter path.  The bench
(``benchmarks/kernel_baseline.py``, compared in docs/performance.md)
decides whether that beats the C-implemented single ``heapq`` — the
prototype stays opt-in either way, and the default kernel keeps
whichever structure wins.

Cancellation follows the same lazy-deletion contract as the core
kernel: dead entries are skipped at the front and compaction rebuilds
the calendar when they dominate.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim.core import (
    EmptySchedule,
    Environment,
    _COMPACT_DEAD_MIN,
)
from repro.sim.events import Event, EventPriority

_INF = float("inf")


class CalendarEnvironment(Environment):
    """Environment whose schedule is a bucketed calendar queue."""

    #: bucket width in simulation seconds; sized around the testbed's
    #: densest event spacing (packet serialization, a few ms) so a
    #: bucket holds a handful of events, not hundreds
    BUCKET_WIDTH = 0.01

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: bucket index -> per-bucket min-heap of (t, prio, seq, event)
        self._buckets: dict = {}
        #: min-heap of active bucket indices (invariant: an index is in
        #: this heap iff it is a key of ``_buckets``)
        self._bucket_heap: List[int] = []
        #: total entries across buckets, dead included
        self._count = 0
        # the base class's binary heap is never used on this path
        self._queue = []

    # ------------------------------------------------------------------
    def queue_size(self) -> int:
        return self._count - self._dead

    def schedule_at(
        self,
        event: Event,
        when: float,
        priority: int = EventPriority.NORMAL,
    ) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        idx = int(when / self.BUCKET_WIDTH)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = []
            self._buckets[idx] = bucket
            heapq.heappush(self._bucket_heap, idx)
        heapq.heappush(bucket, (when, int(priority), self._seq, event))
        self._seq += 1
        self._count += 1
        stats = self._stats
        if stats is not None:
            stats.events_scheduled += 1
            depth = self._count - self._dead
            if depth > stats.peak_heap_size:
                stats.peak_heap_size = depth
            active = self._active_process
            if active is not None:
                stats.events_by_process[active.name] += 1

    # ------------------------------------------------------------------
    def _front_bucket(self) -> Optional[List[Tuple[float, int, int, Event]]]:
        """The non-empty bucket holding the global minimum, or None."""
        heap = self._bucket_heap
        buckets = self._buckets
        while heap:
            idx = heap[0]
            bucket = buckets[idx]
            if bucket:
                return bucket
            heapq.heappop(heap)
            del buckets[idx]
        return None

    def _note_cancel(self) -> None:
        self._dead += 1
        if self._stats is not None:
            self._stats.events_cancelled += 1
        if self._dead > _COMPACT_DEAD_MIN and self._dead * 2 > self._count:
            self._compact()

    def _compact(self) -> None:
        entries = [
            entry
            for bucket in self._buckets.values()
            for entry in bucket
            if not entry[3]._cancelled
        ]
        self._buckets = {}
        self._bucket_heap = []
        self._count = len(entries)
        self._dead = 0
        width = self.BUCKET_WIDTH
        for entry in entries:
            idx = int(entry[0] / width)
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
            else:
                bucket.append(entry)
        for idx, bucket in self._buckets.items():
            heapq.heapify(bucket)
            heapq.heappush(self._bucket_heap, idx)
        if self._stats is not None:
            self._stats.heap_compactions += 1

    def peek(self) -> float:
        while True:
            bucket = self._front_bucket()
            if bucket is None:
                return _INF
            if not bucket[0][3]._cancelled:
                return bucket[0][0]
            heapq.heappop(bucket)
            self._count -= 1
            self._dead -= 1
            if self._stats is not None:
                self._stats.events_skipped += 1

    def step(self) -> None:
        while True:
            bucket = self._front_bucket()
            if bucket is None:
                raise EmptySchedule()
            when, _prio, _seq, event = heapq.heappop(bucket)
            self._count -= 1
            if not event._cancelled:
                break
            self._dead -= 1
            if self._stats is not None:
                self._stats.events_skipped += 1
        if when < self._now:  # pragma: no cover - bucket order guarantees
            raise RuntimeError("time went backwards")
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if self._stats is not None:
            self._stats.events_processed += 1

        if not event._ok and not event._defused:
            exc = event.value
            raise exc
