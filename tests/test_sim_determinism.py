"""Determinism guarantees ``docs/performance.md`` promises:

- the ``fast`` tag scheme (keyed BLAKE2s) is bit-identical in every
  simulated output (events processed, completions, every latency
  sample) to the ``real`` one (genuine HalfSipHash): tag bytes are
  never an input to simulated time;
- ``run_sweep(workers=4)`` returns result-for-result the same list as
  serial execution.
"""

from repro.net.fabric import Fabric
from repro.net.packet import UDP_HEADER_BYTES, wire_size_of
from repro.runtime import ClusterOptions, run_sweep
from repro.runtime.cluster import build_cluster
from repro.runtime.harness import Measurement
from repro.sim.clock import ms
from repro.sim.engine import Simulator


SMALL = dict(protocol="neobft-hm", seed=7, num_clients=4)
WINDOW = dict(warmup_ns=ms(1), duration_ns=ms(3))


def _run(tag_scheme):
    cluster = build_cluster(ClusterOptions(tag_scheme=tag_scheme, **SMALL))
    result = Measurement(cluster, **WINDOW).run()
    return cluster.sim.events_processed, result


class TestTagSchemeEquivalence:
    def test_real_and_fast_tag_schemes_bit_identical(self):
        real_events, real = _run("real")
        fast_events, fast = _run("fast")
        # Pinned: a MAC or engine change that moves simulated time fails here.
        assert real_events == fast_events == 19120
        assert real.completions == fast.completions
        assert real.latency == fast.latency
        assert real == fast


class TestParallelSweep:
    def test_parallel_sweep_equals_serial(self):
        base = ClusterOptions(**SMALL)
        serial = run_sweep(base, [1, 4], seeds=[7, 11], workers=1, **WINDOW)
        parallel = run_sweep(base, [1, 4], seeds=[7, 11], workers=4, **WINDOW)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s == p

    def test_unpicklable_next_op_falls_back_to_serial(self):
        state = {"n": 0}  # closure over local state: not picklable as a task

        def next_op():
            state["n"] += 1
            return b"\x01" * 8

        base = ClusterOptions(**SMALL)
        results = run_sweep(base, [1, 2], workers=4, next_op=next_op, **WINDOW)
        assert len(results) == 2
        assert state["n"] > 0  # ran in-process


class TestWireSizeCache:
    def test_dispatch_matches_value_shapes(self):
        # Representative payloads through the per-type dispatch table.
        cases = [
            (None, 1), (True, 1), (7, 8), (1.5, 8),
            (b"abcd", 4), ("abc", 3),
            ([1, 2], 2 + 8 + 8), ({"k": b"xy"}, 2 + 1 + 2),
        ]
        for value, expected in cases:
            assert wire_size_of(value) == UDP_HEADER_BYTES + expected, value


class TestFabricWatermarkPruning:
    def test_stale_fifo_watermarks_are_swept(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric._prune_interval = 4
        fabric._deliveries_until_prune = 4
        # Seed watermarks in the past and the future.
        sim.schedule(ms(1), lambda: None)
        sim.run()
        fabric._last_arrival = {
            (0, 1): sim.now - 100,          # stale: can never clamp again
            (2, 3): sim.now + ms(5),        # in-flight: must survive
        }
        fabric._prune_fifo_watermarks()
        assert (0, 1) not in fabric._last_arrival
        assert fabric._last_arrival[(2, 3)] == sim.now + ms(5)
        assert fabric._deliveries_until_prune == 4

    def test_watermark_map_stays_bounded_under_load(self):
        # A run touches a handful of (src, dst) pairs; the map must not
        # grow with delivery count (it is pruned to in-flight pairs).
        cluster = build_cluster(ClusterOptions(**SMALL))
        cluster.fabric._prune_interval = 64
        cluster.fabric._deliveries_until_prune = 64
        Measurement(cluster, **WINDOW).run()
        pairs = len(cluster.fabric._last_arrival)
        endpoints = len(cluster.fabric._endpoints)
        assert pairs <= endpoints * endpoints
