"""Key-value state machine, echo/counter apps, and YCSB generator tests."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvstore.store import (
    KeyValueApp,
    encode_delete,
    encode_get,
    encode_put,
    encode_scan,
)
from repro.apps.statemachine import CounterApp, EchoApp
from repro.apps.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WorkloadMix,
    YcsbWorkload,
    zipfian_sampler,
)
from repro.crypto.costmodel import CostModel


class TestKeyValueApp:
    def test_put_get_delete_cycle(self):
        app = KeyValueApp()
        result, undo = app.execute_with_undo(encode_put(b"k", b"v"))
        assert result == b""
        assert undo is not None
        assert app.execute(encode_get(b"k")) == b"v"
        removed, _ = app.execute_with_undo(encode_delete(b"k"))
        assert removed == b"v"
        assert app.execute(encode_get(b"k")) == b""

    def test_put_returns_previous(self):
        app = KeyValueApp()
        app.execute(encode_put(b"k", b"v1"))
        result, _ = app.execute_with_undo(encode_put(b"k", b"v2"))
        assert result == b"v1"

    def test_undo_put_restores_absence(self):
        app = KeyValueApp()
        _, undo = app.execute_with_undo(encode_put(b"k", b"v"))
        undo()
        assert app.execute(encode_get(b"k")) == b""

    def test_undo_put_restores_previous_value(self):
        app = KeyValueApp()
        app.execute(encode_put(b"k", b"old"))
        _, undo = app.execute_with_undo(encode_put(b"k", b"new"))
        undo()
        assert app.execute(encode_get(b"k")) == b"old"

    def test_undo_delete_restores(self):
        app = KeyValueApp()
        app.execute(encode_put(b"k", b"v"))
        _, undo = app.execute_with_undo(encode_delete(b"k"))
        undo()
        assert app.execute(encode_get(b"k")) == b"v"

    def test_reads_have_no_undo(self):
        app = KeyValueApp()
        _, undo = app.execute_with_undo(encode_get(b"k"))
        assert undo is None

    def test_scan_counts(self):
        app = KeyValueApp()
        for i in range(10):
            app.execute(encode_put(b"k%02d" % i, b"v"))
        result = app.execute(encode_scan(b"k02", b"k07"))
        assert struct.unpack(">I", result)[0] == 5

    def test_digest_changes_with_state(self):
        app = KeyValueApp()
        before = app.digest()
        app.execute(encode_put(b"k", b"v"))
        assert app.digest() != before

    def test_digest_tracks_mutation_history(self):
        a, b = KeyValueApp(), KeyValueApp()
        a.execute(encode_put(b"k", b"v"))
        a.execute(encode_delete(b"k"))
        # b never touched the key: same contents, different history.
        assert a.digest() != b.digest()

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            KeyValueApp().execute(b"Zjunk")

    def test_empty_op_is_noop(self):
        assert KeyValueApp().execute(b"") == b""

    def test_exec_cost_scan_heavier(self):
        app = KeyValueApp()
        cost = CostModel()
        assert app.exec_cost_ns(encode_scan(b"a", b"b"), cost) > app.exec_cost_ns(
            encode_get(b"a"), cost
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.binary(min_size=1, max_size=4)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_undo_stack_restores_initial_state(self, writes):
        app = KeyValueApp()
        app.execute(encode_put(b"base", b"line"))
        baseline = app.digest()
        undos = []
        for key_index, value in writes:
            _, undo = app.execute_with_undo(encode_put(b"k%d" % key_index, value))
            undos.append(undo)
        for undo in reversed(undos):
            if undo:
                undo()
        assert app.digest() == baseline


class TestSimpleApps:
    def test_echo_returns_input(self):
        app = EchoApp()
        assert app.execute(b"ping") == b"ping"

    def test_echo_digest_counts_executions(self):
        app = EchoApp()
        before = app.digest()
        app.execute(b"x")
        assert app.digest() != before

    def test_echo_undo(self):
        app = EchoApp()
        _, undo = app.execute_with_undo(b"x")
        digest_after = app.digest()
        app_2 = EchoApp()
        undo()
        assert app.digest() == app_2.digest()
        assert digest_after != app.digest()

    def test_counter_app_rollback_equivalence(self):
        straight = CounterApp()
        for delta in (5, -2, 7):
            straight.execute(delta.to_bytes(8, "big", signed=True))
        replayed = CounterApp()
        _, undo_a = replayed.execute_with_undo((5).to_bytes(8, "big", signed=True))
        _, undo_b = replayed.execute_with_undo((99).to_bytes(8, "big", signed=True))
        undo_b()  # speculative mis-execution rolled back
        replayed.execute((-2).to_bytes(8, "big", signed=True))
        replayed.execute((7).to_bytes(8, "big", signed=True))
        assert replayed.value == straight.value
        assert replayed.digest() == straight.digest()


class TestZipfian:
    def test_values_in_range(self):
        sampler = zipfian_sampler(1000, random.Random(1))
        samples = [sampler() for _ in range(5000)]
        assert all(0 <= s < 1000 for s in samples)

    def test_skew(self):
        sampler = zipfian_sampler(1000, random.Random(1))
        samples = [sampler() for _ in range(20000)]
        head = sum(1 for s in samples if s < 10)
        assert head / len(samples) > 0.3  # zipfian head is hot

    def test_population_validation(self):
        with pytest.raises(ValueError):
            zipfian_sampler(0, random.Random(1))


class TestYcsbWorkload:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadMix(read=0.5, update=0.2)

    def test_workload_a_mix_ratio(self):
        workload = YcsbWorkload(record_count=1000, mix=WORKLOAD_A, rng=random.Random(7))
        reads = sum(1 for _ in range(4000) if workload.next_op()[:1] == b"G")
        assert 0.45 < reads / 4000 < 0.55

    def test_workload_b_mostly_reads(self):
        workload = YcsbWorkload(record_count=1000, mix=WORKLOAD_B, rng=random.Random(7))
        reads = sum(1 for _ in range(4000) if workload.next_op()[:1] == b"G")
        assert reads / 4000 > 0.9

    def test_initial_records_sized(self):
        workload = YcsbWorkload(record_count=50, field_bytes=128)
        records = workload.initial_records()
        assert len(records) == 50
        assert all(len(value) == 128 for _, value in records)
        assert len({key for key, _ in records}) == 50

    def test_ops_reference_loaded_keys(self):
        workload = YcsbWorkload(record_count=100, rng=random.Random(3))
        loaded = {key for key, _ in workload.initial_records()}
        app = KeyValueApp()
        for key, value in workload.initial_records():
            app.load(key, value)
        for _ in range(200):
            op = workload.next_op()
            if op[:1] == b"G":
                assert op[1:] in loaded
                assert app.execute(op) != b""

    def test_update_values_have_field_size(self):
        workload = YcsbWorkload(record_count=10, field_bytes=64, rng=random.Random(3))
        while True:
            op = workload.next_op()
            if op[:1] == b"P":
                (klen,) = struct.unpack(">H", op[1:3])
                value = op[3 + klen :]
                assert len(value) == 64
                break


class TestSnapshotRestore:
    @pytest.mark.parametrize(
        "make_app, op, later_op",
        [
            (EchoApp, b"x", b"y"),
            (CounterApp, (3).to_bytes(8, "big", signed=True), (1).to_bytes(8, "big", signed=True)),
            (KeyValueApp, encode_put(b"k1", b"v2"), encode_put(b"k9", b"z")),
        ],
    )
    def test_restore_returns_to_snapshot_state(self, make_app, op, later_op):
        app = make_app()
        app.execute(op)
        snapshot, digest = app.snapshot(), app.digest()
        for _ in range(3):
            app.execute(later_op)
        assert app.digest() != digest
        other = make_app()
        other.restore(snapshot)
        app.restore(snapshot)
        assert app.digest() == other.digest() == digest

    def test_kv_snapshot_survives_writes_on_both_sides(self):
        app = KeyValueApp(min_degree=2)
        for i in range(40):
            app.execute(encode_put(b"key%03d" % i, b"a"))
        snapshot, digest = app.snapshot(), app.digest()
        app.execute(encode_put(b"key005", b"b"))
        app.execute(encode_delete(b"key006"))
        restored = KeyValueApp(min_degree=2)
        restored.restore(snapshot)
        restored.execute(encode_delete(b"key007"))
        # Neither replica's writes leak into the snapshot or each other.
        fresh = KeyValueApp(min_degree=2)
        fresh.restore(snapshot)
        assert fresh.digest() == digest
        assert fresh.execute(encode_get(b"key005")) == b"a"
        assert app.execute(encode_get(b"key007")) == b"a"
        assert restored.execute(encode_get(b"key006")) == b"a"
