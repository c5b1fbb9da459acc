"""Open-loop request generator over a pool of simulated clients.

Requests come due on a fixed schedule (Poisson arrivals drawn from the
benchmark's seed), whether or not the system keeps up. Each due request
waits in a FIFO until one of the pool's clients is idle, and is then sent
through the client's public ``submit``; the client's ``on_complete`` and
``on_abort`` hooks free it again. Latency is timed from the due time, so
the wait a stall imposes on later requests is counted, not hidden the way
a closed loop hides it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.monitor import Histogram


def poisson_arrivals(
    rng: random.Random, rate_per_s: float, start_ns: int, end_ns: int
) -> List[int]:
    """Due times (ns) of a Poisson process of ``rate_per_s`` in [start, end)."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be > 0, got {rate_per_s!r}")
    times: List[int] = []
    t = start_ns
    while True:
        t += max(1, round(rng.expovariate(rate_per_s) * 1e9))
        if t >= end_ns:
            return times
        times.append(t)


class OpenLoop:
    """Drives ``clients`` with requests due at ``arrivals``.

    ``next_op`` makes the operation of each request as it comes due; every
    op is an echo op, so a result that differs from its op is counted in
    ``wrong_results``.
    Every request ends in exactly one of: completed, aborted by its
    client, or still pending (queued or in flight) when the caller stops
    the run; :meth:`failed` counts the last two.
    """

    def __init__(
        self,
        sim,
        clients: Sequence,
        arrivals: Sequence[int],
        next_op: Callable[[], bytes],
    ):
        self.sim = sim
        self._arrivals = sorted(arrivals)
        self._next_arrival = 0
        self._next_op = next_op
        self._idle: Deque = deque(clients)
        self._backlog: Deque[Tuple[int, bytes]] = deque()  # (due_ns, op)
        self._inflight: Dict[object, Tuple[int, int, bytes]] = {}
        self.attempted = 0
        self.aborted = 0
        self.wrong_results = 0
        # (due_ns, dispatched_ns, done_ns, client address, request id)
        self.completions: List[Tuple[int, int, int, int, int]] = []
        self.queue_waits = Histogram("queue_wait_ns")  # dispatched - due
        for client in clients:
            client.next_op = None  # the generator, not the client, issues ops
            client.on_complete = self._completion_hook(client)
            client.on_abort = self._abort_hook(client)

    # ------------------------------------------------------------- driving

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self._next_arrival < len(self._arrivals):
            self.sim.schedule_at(self._arrivals[self._next_arrival], self._arrive)
            self._next_arrival += 1

    def _arrive(self) -> None:
        self.attempted += 1
        self._backlog.append((self.sim.now, self._next_op()))
        self._schedule_next_arrival()
        self._dispatch()

    def _dispatch(self) -> None:
        now = self.sim.now
        while self._idle and self._backlog:
            client = self._idle.popleft()
            due, op = self._backlog.popleft()
            self._inflight[client] = (due, now, op)
            self.queue_waits.record(now - due)
            client.execute_now(client.submit, op)

    def _completion_hook(self, client):
        def hook(request_id: int, latency_ns: int, result: bytes) -> None:
            due, dispatched, op = self._inflight.pop(client)
            if result != op:
                self.wrong_results += 1
            self.completions.append(
                (due, dispatched, self.sim.now, client.address, request_id)
            )
            self._idle.append(client)
            self._dispatch()

        return hook

    def _abort_hook(self, client):
        def hook(request_id: int) -> None:
            self._inflight.pop(client)
            self.aborted += 1
            self._idle.append(client)
            self._dispatch()

        return hook

    # ------------------------------------------------------------- results

    @property
    def busy(self) -> bool:
        """Whether any request is queued, in flight, or not yet due."""
        return bool(
            self._backlog
            or self._inflight
            or self._next_arrival < len(self._arrivals)
        )

    @property
    def completed(self) -> int:
        return len(self.completions)

    def failed(self) -> int:
        """Requests aborted or still queued/in flight (undrained)."""
        return self.aborted + len(self._backlog) + len(self._inflight)

    def latencies(self) -> Histogram:
        """Due-time latency (ns) of every completed request."""
        histogram = Histogram("due_latency_ns")
        histogram.extend(done - due for due, _, done, _, _ in self.completions)
        return histogram

    def slo_miss_frac(self, limit_ns: int) -> float:
        """Share of attempted requests over ``limit_ns`` or failed."""
        if not self.attempted:
            return 0.0
        late = sum(1 for due, _, done, _, _ in self.completions if done - due > limit_ns)
        return (late + self.failed()) / self.attempted

    def first_completion_dispatched_at_or_after(self, time_ns: int) -> Optional[int]:
        """Completion time of the first request sent at or after ``time_ns``."""
        return min(
            (done for _, dispatched, done, _, _ in self.completions if dispatched >= time_ns),
            default=None,
        )
