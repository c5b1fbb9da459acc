"""Chaos suite: one run, every fault class, safety checked throughout.

A single campaign layers a crash-recover replica, fabric-wide 1% packet
loss, mild duplication/reordering, and a sequencer failover on one
NeoBFT cluster, with the invariant monitor attached for the whole run.
Reported: the throughput timeline, the recovery time after each
disruption, and the pre-fault vs post-failover rates.

Runs two ways:

- under pytest-benchmark with the rest of the figure benches, and
- standalone (``python -m benchmarks.bench_chaos_suite``) as the fast CI
  smoke — same campaign, shorter run, exits non-zero on any violation.
"""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultSpec, run_campaign
from repro.runtime import ClusterOptions
from repro.sim.clock import ms

from benchmarks.bench_common import fmt_row, report

BUCKET = ms(5)
CRASH_AT = ms(15)
CRASH_HEAL = ms(55)
DROPS_AT = ms(5)
DROPS_HEAL = ms(150)
SEQ_KILL_AT = ms(80)
TOTAL = ms(260)


def build_campaign() -> FaultCampaign:
    return FaultCampaign(
        [
            FaultEvent(
                CRASH_AT,
                FaultSpec("crash_replica", target=2),
                until_ns=CRASH_HEAL,
                label="crash-r2",
            ),
            FaultEvent(
                DROPS_AT,
                FaultSpec("drop_fraction", params={"fraction": 0.01}),
                until_ns=DROPS_HEAL,
                label="drops-1pct",
            ),
            FaultEvent(
                DROPS_AT,
                FaultSpec("duplicate", params={"fraction": 0.005}),
                until_ns=DROPS_HEAL,
                label="dup-0.5pct",
            ),
            FaultEvent(
                DROPS_AT,
                FaultSpec("reorder", params={"fraction": 0.005, "max_delay_ns": 20_000}),
                until_ns=DROPS_HEAL,
                label="reorder-0.5pct",
            ),
            FaultEvent(SEQ_KILL_AT, FaultSpec("fail_sequencer"), label="seq-kill"),
        ]
    )


def run_suite(total_ns: int = TOTAL):
    options = ClusterOptions(
        protocol="neobft-hm",
        num_clients=8,
        seed=7,
        client_kwargs=dict(retry_timeout_max_ns=ms(10)),
    )
    return run_campaign(
        options, build_campaign(), warmup_ns=ms(2), duration_ns=total_ns, bucket_ns=BUCKET
    )


def summarize(run, total_ns: int):
    """Render the report and return the derived recovery numbers."""
    timeline = run.completions
    # Recovery after the sequencer kill: straggler completions can land
    # during the outage (gap resolution runs replica-to-replica, without
    # the sequencer), so sustained recovery starts after the *last*
    # zero-throughput bucket of the outage window.
    kill_bucket = timeline.bucket_of(SEQ_KILL_AT)
    last_dark = max(
        (
            i
            for i in range(kill_bucket, timeline.bucket_of(total_ns - ms(10)))
            if timeline.ops_in_bucket(i) == 0
        ),
        default=kill_bucket,
    )
    recovery_at = timeline.first_completion_after(last_dark * BUCKET)
    failover_ms = (recovery_at - SEQ_KILL_AT) / 1e6 if recovery_at else float("inf")
    crash_recovery = timeline.first_completion_after(CRASH_HEAL)

    # Pre-fault = before the first fault fires (warmup excluded).
    pre_fault_rate = timeline.rate_between(ms(2), DROPS_AT)
    post_failover_rate = timeline.rate_between(total_ns - ms(50), total_ns)

    widths = [12, 16]
    lines = [
        "combined chaos campaign on neobft-hm (8 clients, seed 7)",
        fmt_row(["t (ms)", "ops per bucket"], widths),
    ]
    for index in range(timeline.bucket_of(total_ns + ms(10))):
        lines.append(
            fmt_row([f"{index * BUCKET / 1e6:.0f}", timeline.ops_in_bucket(index)], widths)
        )
    lines.append("")
    lines.append("campaign timeline:")
    lines.append(run.campaign.describe())
    lines.append("")
    lines.append(f"sequencer outage (kill -> recovery): {failover_ms:.1f} ms")
    lines.append(
        "first completion after replica heal: "
        f"{(crash_recovery - CRASH_HEAL) / 1e6:.2f} ms" if crash_recovery else "never"
    )
    lines.append(f"pre-fault rate: {pre_fault_rate / 1e3:.1f} K ops/s; "
                 f"post-failover rate: {post_failover_rate / 1e3:.1f} K ops/s")
    lines.append(f"retries: {run.result.retries}, aborted: {run.result.aborted}, "
                 f"invariant checks: {run.monitor.checks}")
    lines.append(f"state transfers on recovery: "
                 f"{run.result.replica_metrics.get('state_transfers', 0)}, checkpoint "
                 f"installs: {run.result.replica_metrics.get('checkpoint_installs', 0)}")
    report("chaos_suite", lines)
    return failover_ms, pre_fault_rate, post_failover_rate


def check(run, total_ns: int) -> None:
    failover_ms, pre_rate, post_rate = summarize(run, total_ns)
    # Safety held under every fault class at once.
    assert run.monitor.checks > 0
    assert run.monitor.violations == []
    # The failover completed and the cluster came back.
    assert run.cluster.config_service.failovers_completed == 1
    assert failover_ms < 100.0
    # Post-failover throughput recovers to >= 80% of the pre-fault rate.
    assert post_rate >= 0.8 * pre_rate
    # The crashed replica replayed state transfer on recovery.
    assert run.result.replica_metrics.get("state_transfers", 0) >= 1
    assert run.result.aborted == 0


def test_chaos_suite(benchmark):
    run = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    check(run, TOTAL)


def main() -> int:
    """CI smoke entry point: the same campaign on a shorter clock."""
    total = ms(230)
    run = run_suite(total)
    check(run, total)
    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
