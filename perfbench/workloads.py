"""The benchmark's workloads: one seeded build-and-run of a simulated system.

A :class:`Rep` builds a cluster for one workload and seed (timed as
set-up), drives it (timed as the run), checks the simulated outputs, and
reports the service metrics a user of the simulated system sees. Every
input is generated from the seed: echo payloads through the harness's
``workload.echo`` stream of the seeded simulator, YCSB keys and values and
the open-loop arrival times through ``random.Random`` streams named after
the seed. The system under test only ever sees the generated operations.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from openloop import OpenLoop, poisson_arrivals
from repro.apps.kvstore.store import KeyValueApp
from repro.apps.ycsb import WORKLOAD_A, YcsbWorkload
from repro.faults import FaultCampaign, FaultEvent, FaultSpec, InvariantMonitor
from repro.protocols.log import ReplicaLog
from repro.runtime.cluster import ClusterOptions, build_cluster
from repro.runtime.harness import Measurement, default_echo_op
from repro.sim.clock import ms, us

#: Latency limit of ``slo_miss_frac``: far above every fault-free p99.
SLO_LIMIT_NS = ms(1)
#: Drain poll step: a closed loop drains within about one request latency.
DRAIN_STEP_NS = us(20)
#: Idle virtual time after the drain so lagging replicas finish executing.
SETTLE_NS = ms(1)


@dataclass(frozen=True)
class Workload:
    """One load; why each is in the benchmark is in ``BENCHMARK.json``."""

    name: str
    kind: str  # "echo", "ycsb" or "failover"
    protocol: str
    clients: int
    warmup_ns: int = 0
    duration_ns: int = 0


# Failover (open loop): arrivals over [0, FAILOVER_END), sequencer killed at
# FAILOVER_KILL, drained for at most FAILOVER_DRAIN afterwards.
FAILOVER_RATE_PER_S = 30_000
FAILOVER_KILL = ms(8)
FAILOVER_END = ms(100)
FAILOVER_DRAIN = ms(40)
#: Completions in the last RECOVERY_WINDOW of arrivals must reach this
#: share of the offered rate: the service is back, not just drained.
RECOVERY_WINDOW = ms(5)
RECOVERY_SHARE = 0.8

YCSB_RECORDS = 12_000
YCSB_FIELD_BYTES = 128

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Measurement windows give the p99 at least 1000 samples.
        Workload("echo-neobft-hm", "echo", "neobft-hm", 32, warmup_ns=ms(1), duration_ns=ms(4)),
        Workload("echo-pbft", "echo", "pbft", 32, warmup_ns=ms(1), duration_ns=ms(5)),
        Workload("ycsb-neobft-hm", "ycsb", "neobft-hm", 48, warmup_ns=ms(1), duration_ns=ms(5)),
        Workload("failover-neobft-hm", "failover", "neobft-hm", 64),
    )
}


class Rep:
    """One build-and-run of ``workload`` with ``seed``.

    ``telemetry`` (a ``repro.telemetry.Telemetry``) and ``tracer`` (a
    ``walltrace.WallTracer`` already installed) are given for the traced
    run only; both watch without changing what is simulated.
    """

    def __init__(self, workload: Workload, seed: int, telemetry=None, tracer=None):
        self.workload = workload
        self.seed = seed
        self.telemetry = telemetry
        self.tracer = tracer
        self.attempted = 0
        self.wrong_results = 0
        # Closed loop: (client address, request id, latency ns), in order.
        self._completions: List[Tuple[int, int, int]] = []
        self._ops: Dict[Tuple[int, int], bytes] = {}
        self.monitor: Optional[InvariantMonitor] = None
        self.openloop: Optional[OpenLoop] = None
        self.measurement: Optional[Measurement] = None
        self.result = None

        start = time.perf_counter()
        options = ClusterOptions(
            protocol=workload.protocol, num_clients=workload.clients, seed=seed
        )
        if workload.kind == "ycsb":
            self._ycsb = YcsbWorkload(
                record_count=YCSB_RECORDS, field_bytes=YCSB_FIELD_BYTES,
                mix=WORKLOAD_A, rng=random.Random(f"ycsb/{seed}"),
            )
            records = self._ycsb.initial_records()

            def app_factory():
                app = KeyValueApp()
                for key, value in records:
                    app.load(key, value)
                return app

            options.app_factory = app_factory
        build_start = time.perf_counter()
        self.cluster = build_cluster(options)
        self.build_s = time.perf_counter() - build_start
        self._trace_hooks(("deliver", "deliver_drop", "on_stuck", "mark_committed_up_to"))
        if workload.kind == "failover":
            self._setup_failover()
        else:
            self._setup_closed_loop()
        self.setup_s = time.perf_counter() - start

    # -------------------------------------------------------------- set-up

    def _setup_closed_loop(self) -> None:
        next_op = self._ycsb.next_op if self.workload.kind == "ycsb" else None
        self.measurement = Measurement(
            self.cluster, self.workload.warmup_ns, self.workload.duration_ns,
            next_op=next_op, drain_step_ns=DRAIN_STEP_NS, telemetry=self.telemetry,
        )
        echo = self.workload.kind == "echo"
        for client in self.cluster.clients:
            client.next_op = self._counted_op(client, client.next_op)
            client.on_complete = self._checked_completion(client, client.on_complete, echo)

    def _counted_op(self, client, generate):
        def next_op() -> bytes:
            op = generate()
            self.attempted += 1
            self._ops[(client.address, client.next_request_id)] = op
            return op

        return next_op

    def _checked_completion(self, client, hook, echo: bool):
        def on_complete(request_id: int, latency_ns: int, result: bytes) -> None:
            op = self._ops.pop((client.address, request_id))
            if echo and result != op:
                self.wrong_results += 1
            self._completions.append((client.address, request_id, latency_ns))
            hook(request_id, latency_ns, result)

        return on_complete

    def _setup_failover(self) -> None:
        cluster = self.cluster
        self.campaign = FaultCampaign(
            [FaultEvent(FAILOVER_KILL, FaultSpec("fail_sequencer"), label="kill-sequencer")]
        )
        self.monitor = InvariantMonitor(context=self.campaign.describe).attach(cluster)
        self._trace_hooks(("deliver", "deliver_drop", "mark_committed_up_to"))
        arrivals = poisson_arrivals(
            random.Random(f"arrivals/{self.seed}"), FAILOVER_RATE_PER_S, 0, FAILOVER_END
        )
        self.openloop = OpenLoop(
            cluster.sim, cluster.clients, arrivals,
            default_echo_op(cluster.sim.streams.get("workload.echo")),
        )
        self.campaign.arm(cluster)
        if self.telemetry is not None:
            cluster.sim.telemetry = self.telemetry

    def _trace_hooks(self, names) -> None:
        """Span callbacks stored on instances (traced run only).

        The aom receiver calls its replica through callbacks it holds as
        attributes, and the invariant monitor replaces those and the
        log's commit method with its own; without spans here that work
        would be booked to the layer that happened to call it.
        """
        if self.tracer is None:
            return
        from walltrace import wrap_instance_callable

        for replica in self.cluster.replicas:
            for owner in (getattr(replica, "aom_lib", None), getattr(replica, "log", None)):
                for name in names:
                    if owner is not None and getattr(owner, name, None) is not None:
                        wrap_instance_callable(self.tracer, owner, name)

    # ----------------------------------------------------------------- run

    def run(self) -> None:
        """The timed region: drive the workload and drain it."""
        sim = self.cluster.sim
        self.events_before = sim.events_processed
        self.busy_before = [actor.cpu.busy_ns for actor in self._actors()]
        self.crypto_before = self._crypto_counts()
        self.vstart = sim.now
        self.start_ns = time.perf_counter_ns()
        if self.measurement is not None:
            self.result = self.measurement.run()
        else:
            self.openloop.start()
            sim.run(until=FAILOVER_END)
            deadline = sim.now + FAILOVER_DRAIN
            while self.openloop.busy and sim.now < deadline:
                sim.run_for(min(DRAIN_STEP_NS, deadline - sim.now))
        self.end_ns = time.perf_counter_ns()
        self.wall_s = (self.end_ns - self.start_ns) / 1e9
        self.vend = sim.now
        self.events = sim.events_processed - self.events_before
        self.busy_after = [actor.cpu.busy_ns for actor in self._actors()]
        self.crypto_after = self._crypto_counts()

    def settle(self) -> None:
        """Stop issuing work and let replicas catch up (untimed)."""
        for client in self.cluster.clients:
            client.next_op = None
        self.cluster.sim.run_for(SETTLE_NS)
        if self.openloop is not None:
            self.campaign.heal_all()

    def _crypto_counts(self) -> Dict[str, int]:
        """``CryptoContext.op_counts`` summed over every node's context."""
        totals: Dict[str, int] = {}
        seen = set()
        for node in self._actors():
            ctx = getattr(node, "crypto", None)
            if ctx is not None and id(ctx) not in seen:
                seen.add(id(ctx))
                for op, count in ctx.op_counts.items():
                    totals[op] = totals.get(op, 0) + count
        return totals

    def _actors(self) -> list:
        cluster = self.cluster
        actors = list(cluster.replicas) + list(cluster.clients)
        if cluster.config_service is not None:
            actors.append(cluster.config_service)
        return actors

    # -------------------------------------------------------------- results

    @property
    def vms(self) -> float:
        """Simulated milliseconds covered by the timed region."""
        return (self.vend - self.vstart) / 1e6

    @property
    def completed(self) -> int:
        if self.openloop is not None:
            return self.openloop.completed
        return len(self._completions)

    @property
    def failed(self) -> int:
        """Aborted requests plus those still pending after the drain."""
        if self.openloop is not None:
            return self.openloop.failed()
        aborted = sum(client.aborted for client in self.cluster.clients)
        return aborted + sum(client.inflight is not None for client in self.cluster.clients)

    @property
    def attempted_ops(self) -> int:
        return self.openloop.attempted if self.openloop is not None else self.attempted

    def replica_metrics(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for replica in self.cluster.replicas:
            for key, value in replica.metrics.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def check(self) -> List[str]:
        """Correctness problems of this run (empty when it is correct)."""
        problems = []
        if self.attempted_ops < 1:
            problems.append("no operation was attempted")
        if self.attempted_ops != self.completed + self.failed:
            problems.append(
                f"attempted {self.attempted_ops} != completed {self.completed} "
                f"+ failed {self.failed}"
            )
        if self.wrong_results or (self.openloop and self.openloop.wrong_results):
            wrong = self.wrong_results or self.openloop.wrong_results
            problems.append(f"{wrong} echo result(s) differ from their op")
        # The failover kills the sequencer, not a replica: all must agree.
        digests = {replica.app.digest() for replica in self.cluster.replicas}
        if len(digests) != 1:
            problems.append(f"replica app digests disagree: {len(digests)} distinct")
        if self.monitor is not None:
            if self.monitor.checks == 0:
                problems.append("invariant monitor made no checks")
            if self.monitor.violations:
                problems.append(f"invariant violations: {self.monitor.violations[:3]}")
        if self.openloop is not None:
            problems.extend(self._check_failover())
        return problems

    def _check_failover(self) -> List[str]:
        problems = []
        service = self.cluster.config_service
        if service.failovers_completed != 1:
            problems.append(f"{service.failovers_completed} failovers, expected 1")
        if self.outage_ns() is None:
            problems.append("no request sent after the kill completed")
        lo = FAILOVER_END - RECOVERY_WINDOW
        done_late = sum(1 for _, _, done, _, _ in self.openloop.completions if lo <= done < FAILOVER_END)
        expected = FAILOVER_RATE_PER_S * RECOVERY_WINDOW / 1e9
        if done_late < RECOVERY_SHARE * expected:
            problems.append(
                f"rate did not recover: {done_late} completions in the last "
                f"{RECOVERY_WINDOW / 1e6:.0f} ms, offered ~{expected:.0f}"
            )
        return problems

    def outage_ns(self) -> Optional[int]:
        """Kill to the first completion of a request sent after the kill."""
        first = self.openloop.first_completion_dispatched_at_or_after(FAILOVER_KILL)
        return None if first is None else first - FAILOVER_KILL

    def fingerprint(self) -> str:
        """Digest of the simulated outputs; equal runs are bit-identical."""
        if self.openloop is not None:
            completions = self.openloop.completions
        else:
            completions = self._completions
        material = repr((
            self.events, self.vend, self.attempted_ops, self.completed, self.failed,
            completions, sorted(self.replica_metrics().items()),
            [replica.app.digest() for replica in self.cluster.replicas],
        ))
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    def service_metrics(self) -> Dict[str, Tuple[float, str, Optional[int]]]:
        """Simulated service quality: ``name -> (value, unit, samples)``."""
        if self.openloop is not None:
            latencies = self.openloop.latencies()
            last_done = max(done for _, _, done, _, _ in self.openloop.completions)
            tput = self.openloop.completed / (last_done / 1e9)
            slo = self.openloop.slo_miss_frac(SLO_LIMIT_NS)
            outage_ms = self.outage_ns() / 1e6
            p50, p99, n = latencies.percentile(50), latencies.percentile(99), latencies.count
        else:
            # The harness histogram holds the measurement window's samples.
            window = self.result.latency
            p50, p99, n = window.percentile(50), window.percentile(99), window.count
            tput = self.result.throughput_ops
            late = sum(1 for _, _, latency in self._completions if latency > SLO_LIMIT_NS)
            slo = (late + self.failed) / self.attempted_ops
            outage_ms = 0.0
        return {
            "virt_tput_kops": (tput / 1e3, "kop/s", None),
            "virt_p50_us": (p50 / 1e3, "us", n),
            "virt_p99_us": (p99 / 1e3, "us", n),
            "ops_failed_frac": (self.failed / self.attempted_ops, "frac", self.attempted_ops),
            "outage_ms": (outage_ms, "ms", None),
            "slo_miss_frac": (slo, "frac", self.attempted_ops),
        }

    # ---------------------------------------------------- per-layer counts

    def work_counts(self) -> Dict[str, float]:
        """Virtual work of the timed region, per committed op."""
        ops = max(self.completed, 1)
        crypto = {
            op: count - self.crypto_before.get(op, 0)
            for op, count in self.crypto_after.items()
        }
        elapsed = self.vend - self.vstart
        busy = [
            (after - before) / (elapsed * actor.cpu.cores)
            for actor, before, after in zip(self._actors(), self.busy_before, self.busy_after)
        ]
        replicas = self.cluster.replicas
        batchers = [r.batcher for r in replicas if hasattr(r, "batcher")]
        batches = sum(b.batches_flushed for b in batchers)
        libs = [r.aom_lib for r in replicas if getattr(r, "aom_lib", None) is not None]
        logs = [r.log for r in replicas if isinstance(getattr(r, "log", None), ReplicaLog)]
        retries = sum(client.retries for client in self.cluster.clients)
        views = [r.metrics.as_dict().get("views_entered", 0) for r in replicas]
        return {
            "sim.events_per_op": self.events / ops,
            "sim.cpu_busy_frac_max": max(busy),
            "crypto.macs_per_op": crypto.get("mac", 0) / ops,
            "crypto.digests_per_op": crypto.get("digest", 0) / ops,
            "crypto.sigs_per_op": (crypto.get("sign", 0) + crypto.get("share", 0)) / ops,
            "aom.deliveries_per_op": sum(lib.delivered_count for lib in libs) / ops,
            # Without a batcher (NeoBFT) aom orders each request on its own.
            "protocols.ops_per_batch": (
                sum(b.items_flushed for b in batchers) / batches if batches else 1.0
            ),
            "protocols.retries_per_op": retries / ops,
            "protocols.view_changes": float(max(views)),
            "protocols.log_entries_end": float(max((log.next_slot for log in logs), default=0)),
        }
