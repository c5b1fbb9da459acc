"""Protocol-specific unit behaviours: Zyzzyva history chains and
fill-hole, HotStuff quorum certificates, NeoBFT state sync, PBFT
checkpoints."""

import pytest

from repro.faults.network import drop_fraction_for
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


def run_cluster(protocol, clients=3, duration=ms(8), seed=31, **kwargs):
    cluster = build_cluster(
        ClusterOptions(protocol=protocol, num_clients=clients, seed=seed, **kwargs)
    )
    run = Measurement(cluster, warmup_ns=ms(1), duration_ns=duration).run()
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(ms(8))
    return cluster, run


class TestZyzzyva:
    def test_history_chains_agree(self):
        cluster, _ = run_cluster("zyzzyva")
        histories = {r.history for r in cluster.replicas}
        assert len(histories) == 1

    def test_order_log_retained_for_fill_hole(self):
        cluster, _ = run_cluster("zyzzyva")
        leader = cluster.replicas[0]
        assert leader.order_log
        assert set(leader.order_log) == set(range(leader.next_seq))

    def test_fill_hole_recovers_from_order_req_loss(self):
        cluster = build_cluster(ClusterOptions(protocol="zyzzyva", num_clients=3, seed=32))
        victim = cluster.replicas[2]
        rng = cluster.sim.streams.get("test.drops")
        drop_fraction_for(cluster.fabric, victim.address, 0.05, rng)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(25)).run()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(ms(10))
        assert run.completions > 50
        # The victim caught up via fill-hole: same history as the rest.
        assert victim.history == cluster.replicas[0].history

    def test_fast_path_used_when_all_replicas_live(self):
        cluster, run = run_cluster("zyzzyva")
        assert sum(c.slow_path_commits for c in cluster.clients) == 0

    def test_slow_path_used_with_silent_replica(self):
        cluster = build_cluster(
            ClusterOptions(
                protocol="zyzzyva", num_clients=3, seed=33,
                replica_kwargs={"silent_replicas": {3}},
            )
        )
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(8)).run()
        assert run.completions > 10
        assert sum(c.slow_path_commits for c in cluster.clients) > 0


class TestHotStuff:
    def test_qcs_cover_all_three_phases(self):
        cluster, run = run_cluster("hotstuff", duration=ms(15))
        assert run.completions > 5
        leader = cluster.replicas[0]
        assert leader.exec_cursor > 0

    def test_replicas_execute_identically(self):
        cluster, _ = run_cluster("hotstuff", duration=ms(15))
        counts = {r.ops_executed for r in cluster.replicas}
        assert len(counts) == 1

    def test_decide_carries_commit_qc_only(self):
        from repro.crypto.backend import CryptoContext, make_authority
        from repro.crypto.costmodel import CostModel
        from repro.protocols.hotstuff.messages import Phase, QuorumCert, qc_body

        authority = make_authority("fast")
        ctx = CryptoContext(0, authority, CostModel())
        body = qc_body(0, 1, Phase.PREPARE, b"d")
        prepare_qc = QuorumCert(0, 1, Phase.PREPARE, b"d", ctx.combine_threshold(body))
        # A prepare QC must not validate as a commit QC (domain separation
        # by the phase inside the signed body).
        commit_body = qc_body(0, 1, Phase.COMMIT, b"d")
        assert not ctx.verify_threshold_combined(prepare_qc.combined, commit_body)


class TestNeoBftStateSync:
    def test_sync_points_advance_commit_cursor(self):
        cluster, run = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        assert run.replica_metrics.get("sync_points", 0) > 0
        for replica in cluster.replicas:
            assert replica.log.commit_cursor > 0
            # Committed prefix is flagged and never exceeds the log.
            assert replica.log.commit_cursor <= len(replica.log)
            # (slots below the low-water mark are collected)
            assert replica.log.low_mark < replica.log.commit_cursor
            assert replica.log.get(replica.log.low_mark).committed

    def test_view_change_payload_shrinks_with_sync(self):
        cluster, _ = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        replica = cluster.replicas[1]
        suffix = replica._log_summary()
        assert len(suffix) == len(replica.log) - replica.log.commit_cursor

    def test_sync_points_release_undo_state(self):
        cluster, _ = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        for replica in cluster.replicas:
            log = replica.log
            retained = range(log.low_mark, len(log))
            with_undo = [s for s in retained if log.get(s).undo is not None]
            # Only the uncommitted suffix keeps rollback state, and a sync
            # point bounds that suffix.
            assert with_undo == list(range(log.commit_cursor, len(log)))
            assert len(with_undo) < replica.sync_interval

    def test_retained_history_stays_bounded_over_long_runs(self):
        """Ten times the run above: the log keeps under two sync intervals
        of committed history (plus the uncommitted tail) at every instant,
        however long the run."""
        interval = 64
        cluster = build_cluster(
            ClusterOptions(
                protocol="neobft-hm", num_clients=6, seed=31,
                replica_kwargs={"sync_interval": interval},
            )
        )
        for client in cluster.clients:
            client.next_op = lambda: b"op"
            client.start()
        worst_committed = worst_retained = 0
        for _ in range(150):
            cluster.sim.run_for(ms(1))
            for replica in cluster.replicas:
                log = replica.log
                worst_committed = max(worst_committed, log.commit_cursor - log.low_mark)
                tail = len(log) - log.commit_cursor
                worst_retained = max(worst_retained, len(log) - log.low_mark - tail)
        assert worst_committed < 2 * interval
        assert worst_retained < 2 * interval
        for replica in cluster.replicas:
            log = replica.log
            assert len(log) > 50 * interval  # the run is long enough to matter
            assert log.low_mark > len(log) - 4 * interval
            # Checkpoints: the mark's and the ones above it, nothing older.
            assert min(log.checkpoints) == log.low_mark
            assert len(log.checkpoints) <= 3
            assert all(s >= log.low_mark for s in replica._gap_certs)

    def test_merge_ignores_noop_below_commit_cursor(self):
        """A valid no-op summary for a committed slot must not rewrite it
        (it may be collected, and a committed slot never rolls back)."""
        from repro.protocols.log import NOOP_DIGEST
        from repro.protocols.neobft.messages import GapCommit, LogEntrySummary, ViewChange

        cluster, _ = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        replica = cluster.replicas[1]
        log = replica.log
        assert log.low_mark > 0
        head, length = log.head_hash(), len(log)
        for slot in (log.low_mark - 1, log.commit_cursor - 1):
            cert = []
            for signer in cluster.replicas[:3]:
                commit = GapCommit(replica.view_id, signer.address, slot, True)
                cert.append(GapCommit(
                    commit.view, commit.replica, commit.slot, commit.is_drop,
                    signer.crypto.sign(commit.signed_body()),
                ))
            summary = LogEntrySummary(
                slot=slot, is_noop=True, epoch=replica.view_id.epoch,
                digest=NOOP_DIGEST, request=None, oc=None, gap_cert=tuple(cert),
            )
            assert replica._entry_is_valid(summary)
            vc = ViewChange(replica.view_id, replica.view_id.next_leader(),
                            cluster.replicas[0].address, (), (summary,))
            merged = replica._merge_logs((vc,))
            assert slot not in merged
            replica._apply_merged_log({slot: summary})
            assert log.head_hash() == head and len(log) == length


class TestPbftCheckpoints:
    def test_stable_checkpoints_garbage_collect(self):
        cluster, run = run_cluster(
            "pbft", clients=6, duration=ms(20),
            replica_kwargs={"checkpoint_interval": 16},
        )
        replica = cluster.replicas[1]
        assert replica.last_stable >= 0
        # Executed slots at or below the stable checkpoint are gone.
        assert all(seq > replica.last_stable or not state.executed
                   for seq, state in replica.slots.items())

    def test_checkpoint_digests_match(self):
        cluster, _ = run_cluster("pbft", clients=4, duration=ms(15))
        digests = {r.app.digest() for r in cluster.replicas}
        assert len(digests) == 1
