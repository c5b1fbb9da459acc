"""State transfer: a lagging replica catches up across an epoch change."""

import pytest

from repro.faults.behaviors import make_silent
from repro.faults.sequencer import fail_sequencer
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


class TestLaggardCatchUp:
    def test_partitioned_replica_rejoins_after_failover(self):
        """Partition a replica, run, fail the sequencer, heal: the laggard
        must catch up (state transfer) and finish the epoch change with
        the rest of the group."""
        options = ClusterOptions(protocol="neobft-hm", num_clients=6, seed=41)
        cluster = build_cluster(options)
        sim = cluster.sim
        victim = cluster.replicas[2]
        # Cut the sequencer's leg too, so the victim really misses ordered
        # requests (beyond what its peers keep in their logs).
        sequencer = cluster.config_service.sequencer_for(1)
        peers = [r.address for r in cluster.replicas if r is not victim] + [
            c.address for c in cluster.clients
        ] + [sequencer.switch_address]

        from repro.faults.network import isolate_host

        heal_holder = {}

        def cut():
            heal_holder["heal"] = isolate_host(cluster.fabric, victim.address, peers)

        def heal_and_fail():
            heal_holder["heal"]()
            fail_sequencer(cluster.config_service.sequencer_for(1))

        sim.schedule(ms(5), cut)
        sim.schedule(ms(25), heal_and_fail)

        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(280))
        run = measurement.run()
        for client in cluster.clients:
            client.next_op = lambda: None
        sim.run_for(ms(30))

        assert cluster.config_service.failovers_completed >= 1
        assert run.completions > 500
        # The victim rejoined the new epoch with a consistent log prefix.
        live = [r for r in cluster.replicas]
        shortest = min(len(r.log) for r in live)
        assert shortest > 0
        heads = {r.log.hash_up_to(shortest - 1) for r in live}
        assert len(heads) == 1
        assert victim.view_id.epoch == cluster.replicas[0].view_id.epoch
        # The peers collected the slots the victim missed, so it caught up
        # by installing a checkpoint that f+1 of them vouched for.
        assert victim.metrics.get("checkpoint_installs") >= 1
        assert victim.app.digest() == cluster.replicas[0].app.digest()

    def test_catchup_query_path_fills_merge_holes(self):
        """A replica that fell behind mid-epoch drains through the query
        catch-up instead of misaligning its log."""
        from repro.faults.network import drop_fraction_for

        options = ClusterOptions(protocol="neobft-hm", num_clients=6, seed=42)
        cluster = build_cluster(options)
        victim = cluster.replicas[1]
        rng = cluster.sim.streams.get("burst")
        remove = drop_fraction_for(cluster.fabric, victim.address, 0.5, rng)
        cluster.sim.schedule(ms(8), remove)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(40)).run()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(ms(20))
        assert run.completions > 200
        shortest = min(len(r.log) for r in cluster.replicas)
        heads = {r.log.hash_up_to(shortest - 1) for r in cluster.replicas}
        assert len(heads) == 1
        # Slots are aligned: the victim's entries match others' digests over
        # the range both still hold, and the chain head below that range
        # (the covering checkpoint's) matches too.
        reference = cluster.replicas[0]
        low = max(victim.log.low_mark, reference.log.low_mark)
        high = min(len(victim.log), len(reference.log))
        assert high - low > 0
        if low > 0:
            assert victim.log.hash_up_to(low - 1) == reference.log.hash_up_to(low - 1)
        for slot in range(low, high):
            assert victim.log.get(slot).digest == reference.log.get(slot).digest


class TestCheckpointInstall:
    def _partition_until_collected(self, seed=43):
        """A victim cut off (sequencer leg included) until its peers have
        collected the slots it missed; returns (cluster, victim, peers, heal)."""
        from repro.faults.network import isolate_host

        options = ClusterOptions(
            protocol="neobft-hm", num_clients=4, seed=seed,
            replica_kwargs={"sync_interval": 32},
        )
        cluster = build_cluster(options)
        victim = cluster.replicas[3]
        others = [r for r in cluster.replicas if r is not victim]
        hosts = [r.address for r in others] + [c.address for c in cluster.clients]
        hosts.append(cluster.config_service.sequencer_for(1).switch_address)
        for client in cluster.clients:
            client.next_op = lambda: b"op"
            client.start()
        cluster.sim.run_for(ms(1))
        heal = isolate_host(cluster.fabric, victim.address, hosts)
        cluster.sim.run_for(ms(6))
        assert all(r.log.low_mark > len(victim.log) for r in others)
        return cluster, victim, others, heal

    def test_laggard_installs_checkpoint_vouched_by_f_plus_one(self):
        cluster, victim, others, heal = self._partition_until_collected()
        heal()
        cluster.sim.run_for(ms(4))
        assert victim.metrics.get("checkpoint_installs") == 1
        installed = victim.log.low_mark
        assert installed > 0 and victim.log.get(installed - 1) is None
        assert victim.log.hash_up_to(installed - 1) == others[0].log.hash_up_to(installed - 1)
        shortest = min(len(r.log) for r in cluster.replicas)
        assert len({r.log.hash_up_to(shortest - 1) for r in cluster.replicas}) == 1

    def test_single_byzantine_checkpoint_is_never_installed(self):
        """One peer forges the checkpoint head and the honest replies are
        held back: the lone forged vouch never reaches f+1."""
        import dataclasses

        from repro.protocols.neobft.messages import StateTransferReply

        cluster, victim, others, heal = self._partition_until_collected()
        forged_head = b"\x66" * 32
        byzantine, honest = others[0], others[1:]

        def forge(dst, message):
            if isinstance(message, StateTransferReply) and message.checkpoint is not None:
                checkpoint = dataclasses.replace(message.checkpoint, head=forged_head)
                return dataclasses.replace(message, checkpoint=checkpoint)
            return message

        def withhold(dst, message):
            return None if isinstance(message, StateTransferReply) else message

        byzantine.add_send_interposer(forge)
        removers = [peer.add_send_interposer(withhold) for peer in honest]
        stuck_at = len(victim.log)
        heal()
        cluster.sim.run_for(ms(3))
        assert victim._checkpoint_offers  # the forged offer did arrive
        assert victim.metrics.get("checkpoint_installs") == 0
        assert len(victim.log) == stuck_at and victim.log.low_mark < stuck_at
        # Honest replies resume: f+1 of them outvote the forgery.
        for remove in removers:
            remove()
        victim.request_state_transfer()
        cluster.sim.run_for(ms(3))
        assert victim.metrics.get("checkpoint_installs") == 1
        mark = victim.log.low_mark
        assert victim.log.hash_up_to(mark - 1) == honest[0].log.hash_up_to(mark - 1)
        assert victim.log.hash_up_to(mark - 1) != forged_head
