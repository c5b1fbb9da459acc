"""Tests for the discrete-event engine: ordering, cancellation, bounds."""

import pytest

from repro.sim import Simulator
from repro.sim.clock import format_duration, ms, ns, secs, us


class TestClock:
    def test_unit_conversions(self):
        assert us(1) == 1_000
        assert ms(1) == 1_000_000
        assert secs(1) == 1_000_000_000
        assert ns(1.6) == 2  # rounds

    def test_fractional_units(self):
        assert us(0.5) == 500
        assert ms(2.25) == 2_250_000

    def test_format_duration_picks_unit(self):
        assert format_duration(12) == "12ns"
        assert format_duration(us(12)) == "12.000us"
        assert format_duration(ms(3)) == "3.000ms"
        assert format_duration(secs(2)) == "2.000s"


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(50, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]
        assert sim.now == 123

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling_from_handler(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(10, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(5, outer)
        sim.run()
        assert fired == [("outer", 5), ("inner", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(10, fired.append, "keep")
        drop = sim.schedule(10, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 10

    def test_live_events_counter(self):
        sim = Simulator()
        handles = [sim.schedule(i + (1 << 20), lambda: None) for i in range(10)]
        assert sim.live_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.live_events == 6
        sim.run()
        assert sim.live_events == 0


class TestRunBounds:
    def test_run_until_parks_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(5_000, fired.append, "late")
        sim.run(until=1_000)
        assert fired == ["early"]
        assert sim.now == 1_000
        sim.run()
        assert fired == ["early", "late"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(1_000, fired.append, "edge")
        sim.run(until=1_000)
        assert fired == ["edge"]

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 100
        sim.run_for(50)
        assert sim.now == 150

    def test_max_events_bound(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule(1, tick)

        sim.schedule(0, tick)
        sim.run(max_events=25)
        assert count[0] == 25

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20


class TestCompaction:
    def test_mass_cancellation_compacts_and_survivors_fire(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1000 + i, fired.append, i) for i in range(500)]
        for i, handle in enumerate(handles):
            if i % 10:  # cancel 90%
                handle.cancel()
        # Compaction triggered (dead > 64 and dead > half the residents).
        assert len(sim._heap) < 500
        sim.run()
        assert fired == [i for i in range(500) if i % 10 == 0]

    def test_compaction_during_run_keeps_heap_identity(self):
        # run() holds a local alias to the heap; compaction must mutate
        # in place or post-compaction schedules go to a different list.
        sim = Simulator()
        fired = []

        def phase_one():
            handles = [sim.schedule(100 + i, lambda: None) for i in range(300)]
            for handle in handles:
                handle.cancel()
            sim.schedule(50, fired.append, "after-compaction")

        sim.schedule(1, phase_one)
        sim.run()
        assert fired == ["after-compaction"]


class TestDeterminism:
    def test_same_seed_same_random_streams(self):
        a = Simulator(seed=42).streams.get("x")
        b = Simulator(seed=42).streams.get("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        sim = Simulator(seed=42)
        a = sim.streams.get("a")
        b = sim.streams.get("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        x = Simulator(seed=7).streams.fork("replica-1").get("loss")
        y = Simulator(seed=7).streams.fork("replica-1").get("loss")
        assert x.random() == y.random()
