"""Tests of the benchmark's own arithmetic and of its tracing's neutrality.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import walltrace  # noqa: E402
from openloop import OpenLoop, poisson_arrivals  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.clock import ms  # noqa: E402
from repro.sim.monitor import Histogram  # noqa: E402


# ---------------------------------------------------------------- spans


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_minus_covered_children():
    # outer [0, 100] holds a [10, 30] (which holds c [12, 20]) and b [40, 90].
    spans = [
        ("outer", "sim", 0, 100, -1),
        ("a", "net", 10, 30, 0),
        ("c", "crypto", 12, 20, 1),
        ("b", "net", 40, 90, 0),
    ]
    assert walltrace.self_times(spans) == [100 - 20 - 50, 20 - 8, 8, 50]


def test_tracer_records_nesting_and_layers():
    tracer = walltrace.WallTracer(clock=fake_clock([0, 10, 12, 20, 30, 40, 90, 100]))

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap(leaf, "c", "crypto")
    mid = tracer.wrap(lambda: traced_leaf(), "a", "net")
    late = tracer.wrap(lambda: None, "b", "net")

    def body():
        mid()
        late()

    tracer.wrap(body, "outer", "sim")()
    spans = tracer.closed_spans()
    assert spans == [
        ("outer", "sim", 0, 100, -1),
        ("a", "net", 10, 30, 0),
        ("c", "crypto", 12, 20, 1),
        ("b", "net", 40, 90, 0),
    ]
    by_layer, covered = walltrace.layer_totals(spans, (0, 100))
    assert by_layer == {"sim": 30, "net": 12 + 50, "crypto": 8}
    assert sum(by_layer.values()) == covered == 100
    # A window that leaves the outer span out: its children become top-level.
    by_layer, covered = walltrace.layer_totals(spans, (5, 95))
    assert by_layer == {"net": 12 + 50, "crypto": 8} and covered == 20 + 50


def test_span_closes_when_the_call_raises():
    tracer = walltrace.WallTracer(clock=fake_clock([0, 5]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom", "apps")()
    assert tracer.closed_spans() == [("boom", "apps", 0, 5, -1)]


def test_layer_of_module():
    assert walltrace.layer_of_module("repro.sim.engine") == "sim"
    assert walltrace.layer_of_module("repro.fastpath") == "fastpath"
    assert walltrace.layer_of_module("repro.protocols.pbft.replica") == "protocols/pbft"
    assert walltrace.layer_of_module("repro.protocols.base") == "protocols/common"
    assert walltrace.layer_of_module("openloop") == "workload"
    assert walltrace.top_layer("protocols/neobft") == "protocols"


# ------------------------------------------------------------- open loop


class FakeClient:
    """Serves one request at a time in ``service_ns`` (never, when None)."""

    def __init__(self, sim, address, service_ns=None, abort=False):
        self.sim = sim
        self.address = address
        self.service_ns = service_ns
        self.abort = abort
        self.next_request_id = 1
        self.on_complete = None
        self.on_abort = None
        self.next_op = None

    def execute_now(self, handler, *args):
        handler(*args)

    def submit(self, op):
        request_id = self.next_request_id
        self.next_request_id += 1
        if self.abort:
            self.sim.schedule(100, self.on_abort, request_id)
        elif self.service_ns is not None:
            self.sim.schedule(self.service_ns, self._done, request_id, op)
        return request_id

    def _done(self, request_id, op):
        self.on_complete(request_id, self.service_ns, op)


def histogram(*values):
    h = Histogram()
    h.extend(values)
    return h


def ops():
    counter = iter(range(1000))
    return lambda: b"op%d" % next(counter)


def test_due_time_latency_includes_fifo_wait():
    sim = Simulator()
    client = FakeClient(sim, 7, service_ns=10_000)
    loop = OpenLoop(sim, [client], [1_000, 2_000], ops())
    loop.start()
    sim.run()
    # The second request waited 9 us for the only client, then 10 us of service.
    assert loop.latencies() == histogram(10_000, 19_000)
    assert loop.queue_waits == histogram(0, 9_000)
    assert loop.attempted == loop.completed == 2
    assert loop.failed() == 0 and loop.wrong_results == 0
    assert loop.slo_miss_frac(limit_ns=15_000) == 0.5


def test_failed_counts_undrained_and_aborted_requests():
    sim = Simulator()
    stuck = FakeClient(sim, 1)  # never completes
    loop = OpenLoop(sim, [stuck], [10, 20, 30], ops())
    loop.start()
    sim.run()
    assert loop.attempted == 3 and loop.completed == 0
    assert loop.failed() == 3  # one in flight, two still queued
    assert loop.slo_miss_frac(limit_ns=ms(1)) == 1.0

    sim = Simulator()
    quitter = FakeClient(sim, 2, abort=True)
    loop = OpenLoop(sim, [quitter], [10, 20], ops())
    loop.start()
    sim.run()
    assert loop.aborted == 2 and loop.failed() == 2 and not loop.busy


def test_wrong_echo_results_are_counted():
    sim = Simulator()
    client = FakeClient(sim, 3, service_ns=5)
    client._done = lambda request_id, op: client.on_complete(request_id, 5, b"other")
    loop = OpenLoop(sim, [client], [1], ops())
    loop.start()
    sim.run()
    assert loop.wrong_results == 1


def test_poisson_arrivals_are_seeded_and_bounded():
    first = poisson_arrivals(random.Random("s/1"), 30_000, 0, ms(10))
    assert first == poisson_arrivals(random.Random("s/1"), 30_000, 0, ms(10))
    assert first != poisson_arrivals(random.Random("s/2"), 30_000, 0, ms(10))
    assert all(0 < t < ms(10) for t in first) and first == sorted(first)
    assert 200 < len(first) < 400  # ~300 expected


# ----------------------------------------------------- tracing neutrality


def test_traced_run_is_bit_identical_and_uninstall_restores():
    from repro.sim.engine import Simulator as Sim
    from repro.telemetry import Telemetry
    from workloads import Rep, Workload

    small = Workload("small", "echo", "neobft-hm", 4, warmup_ns=ms(0.2), duration_ns=ms(0.5))
    plain = Rep(small, seed=3)
    plain.run()
    plain.settle()
    assert plain.check() == []

    original = Sim.schedule
    tracer = walltrace.WallTracer()
    uninstall = walltrace.install(tracer)
    try:
        traced = Rep(small, seed=3, telemetry=Telemetry(), tracer=tracer)
        traced.run()
        traced.settle()
    finally:
        uninstall()
    assert Sim.schedule is original
    assert traced.check() == []
    assert traced.fingerprint() == plain.fingerprint()
    spans = tracer.closed_spans()
    by_layer, covered = walltrace.layer_totals(spans, (traced.start_ns, traced.end_ns))
    assert {"sim", "net", "crypto", "aom", "protocols/neobft"} <= set(by_layer)
    assert sum(by_layer.values()) == covered <= traced.end_ns - traced.start_ns
