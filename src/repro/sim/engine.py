"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and a binary heap of pending
``(time, seq, handle)`` entries. Events scheduled for the same instant fire
in the order they were scheduled (a monotonically increasing sequence
number breaks ties), which makes whole-system runs bit-for-bit
reproducible for a given seed. Keying the heap on plain tuples keeps every
heap comparison in C.

Cancellation is lazy (a flag, O(1)), but the engine counts dead entries
and compacts the heap when more than half of the resident entries are
cancelled, so cancel-heavy workloads (client retransmit timers are
cancelled on every reply) cannot grow the heap without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.randomness import RandomStreams

#: Compaction never triggers below this many dead entries.
_COMPACT_MIN_DEAD = 64


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when popped. This keeps ``cancel`` O(1), which matters because
    protocols cancel far more timers (retransmit timers that never fire)
    than they let expire.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call multiple times."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams drawn through :attr:`streams`.
        Two simulators built with the same seed and the same scheduling
        sequence produce identical executions.
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.streams = RandomStreams(seed)
        # Optional repro.telemetry.Telemetry sink. Every instrumented
        # layer reads this attribute and publishes only when it is set,
        # so a run without telemetry pays one None check per hook.
        self.telemetry = None
        # (time, seq, handle); seq is unique, so handles are never compared.
        self._heap: List[Tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        # Live = scheduled and neither fired nor cancelled. Maintained
        # incrementally so telemetry never scans the heap.
        self._live = 0
        # Dead = cancelled but still resident in the heap.
        self._dead = 0

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def live_events(self) -> int:
        """Pending (scheduled, not fired, not cancelled) events right now."""
        return self._live

    # ---------------------------------------------------------- scheduling

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def stop(self) -> None:
        """Halt the run loop after the current event returns."""
        self._stopped = True

    # ----------------------------------------------------------- occupancy

    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        In place: ``run()`` keeps a local alias of the heap list across
        callbacks (which is where cancels — and hence compactions —
        happen), so the list object's identity must be preserved.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------- queries

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------ run loop

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains or a bound is hit.

        Parameters
        ----------
        until:
            Absolute virtual time bound. Events at exactly ``until`` still
            fire; the clock never advances past it. When a later event
            remains pending the clock is left parked at ``until`` so
            successive ``run`` calls observe continuous time.
        max_events:
            Safety valve against runaway event loops.

        Returns the number of events processed by this call.
        """
        processed = 0
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        park = False  # advance the clock to ``until`` on exit
        while True:
            if self._stopped:
                park = True
                break
            if max_events is not None and processed >= max_events:
                break
            if not heap:
                park = True
                break
            entry = pop(heap)
            time, _, event = entry
            if event.cancelled:
                self._dead -= 1
                continue
            if until is not None and time > until:
                push(heap, entry)
                park = True
                break
            self.now = time
            event.callback(*event.args)
            self._live -= 1
            processed += 1
            self._events_processed += 1
        if park and until is not None and self.now < until:
            self.now = until
        tel = self.telemetry
        if tel is not None:
            tel.metrics.set_gauge("sim.virtual_time_ns", self.now)
            tel.metrics.set_gauge("sim.events_processed", self._events_processed)
            tel.metrics.set_gauge("sim.pending_events", self._live)
        return processed

    def run_for(self, duration: int, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self.now + duration, max_events=max_events)
