"""The repository benchmark: simulator wall cost and simulated service quality.

Runs one named workload with one seed, repeatedly for ``--seconds``, in
this single process and single thread, and checks every run's simulated
outputs. With ``--trace 0`` it reports the end-to-end metrics from those
untraced runs; with ``--trace 1`` it repeats for half of ``--seconds``,
then makes one more run of the same seed under wall-clock span tracing
and reports the per-layer metrics.
See ``perfbench/README.md`` for the metrics, the workloads and the rules
for comparing numbers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo-neobft-hm --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness or determinism check exits with status 1 and prints no
result, and so does a checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Every run repeats at least this often, however short ``--seconds`` is.
MIN_REPS = 3
#: Share of the measuring time spent on extra set-ups, spread over the
#: run: after each rep, set-ups repeat until they have taken this share
#: of the rep's round.
SETUP_SHARE = 0.25


class CheckFailed(Exception):
    """A correctness or determinism check failed; no metrics are reported."""


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}") from exc
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Environment recorded beside every result
# ---------------------------------------------------------------------------


def git_revision(root: str) -> str:
    """HEAD's commit read from ``.git`` (no git process), or ``none``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head[:12]
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()[:12]
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """Digest of every ``.py`` file under ``src`` (names and contents)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:12]


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(ROOT),
        "src_digest": source_digest(SRC),
    }


# ---------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------


def fresh_rep(workload, seed: int, **kwargs):
    """Build a rep from a collected heap and empty fast-path caches.

    The caches are process-global; emptying them gives every rep the
    state a new process would start the simulation in.
    """
    from repro import fastpath
    from workloads import Rep

    gc.collect()
    fastpath.clear_caches()
    return Rep(workload, seed, **kwargs)


def checked(rep) -> None:
    problems = rep.check()
    if problems:
        raise CheckFailed(f"{rep.workload.name} seed {rep.seed}: " + "; ".join(problems))


def measure(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Repeat the workload for ``seconds``; wall cost and set-up time.

    The wall cost is the upper quartile of the reps' wall seconds per
    simulated ms. On a shared host the CPU switches between a loaded speed
    and a faster one as other tenants come and go; the upper quartile
    stays at the loaded speed unless the fast one covers three quarters
    of the run, where the median and the mean follow the mix.

    Every set-up is timed alike: from a collected heap and empty caches,
    by ``fresh_rep``. Each rep's own set-up counts, and after each rep
    more set-ups (built and dropped) fill ``SETUP_SHARE`` of its round,
    so set-ups sample the whole run, not one stretch of it.
    """
    walls: List[float] = []
    setups: List[float] = []
    builds: List[float] = []
    fingerprints = set()
    first: Optional[Dict[str, object]] = None
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        round_start = time.perf_counter()
        rep = fresh_rep(workload, seed)
        rep.run()
        rep.settle()
        checked(rep)
        walls.append(rep.wall_s / rep.vms)
        setups.append(rep.setup_s)
        builds.append(rep.build_s)
        fingerprints.add(rep.fingerprint())
        if first is None:
            first = {
                "service": rep.service_metrics(),
                "attempted": rep.attempted_ops,
                "failed": rep.failed,
                "vms": rep.vms,
                "wall_s": rep.wall_s,
            }
        del rep
        setups_start = time.perf_counter()
        budget = (setups_start - round_start) * SETUP_SHARE / (1 - SETUP_SHARE)
        while time.perf_counter() - setups_start < budget:
            setups.append(fresh_rep(workload, seed).setup_s)
    if len(fingerprints) != 1:
        raise CheckFailed(
            f"{workload.name} seed {seed}: {len(fingerprints)} different fingerprints "
            "from identical runs"
        )
    first.update(
        reps=len(walls),
        wall_s_per_vms=statistics.quantiles(walls, n=4, method="inclusive")[2],
        wall_s_per_vms_all=walls,
        setup_s=statistics.median(setups),
        setup_s_all=setups,
        build_s=statistics.median(builds),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        fingerprint=fingerprints.pop(),
    )
    return first


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workload, seed: int, untraced: Dict[str, object]) -> Dict[str, object]:
    """One run of the same seed under span tracing, with telemetry attached."""
    import walltrace
    from repro import fastpath
    from repro.telemetry import CATEGORIES, Telemetry, decompose_all, median_decomposition

    tracer = walltrace.WallTracer()
    telemetry = Telemetry()
    uninstall = walltrace.install(tracer)
    try:
        rep = fresh_rep(workload, seed, telemetry=telemetry, tracer=tracer)
        caches_before = fastpath.snapshot_counters()
        counters_before = tracer.counters()
        rep.run()
        counters = [a - b for a, b in zip(tracer.counters(), counters_before)]
        caches_after = fastpath.snapshot_counters()
        rep.settle()
    finally:
        uninstall()
    checked(rep)
    if rep.fingerprint() != untraced["fingerprint"]:
        raise CheckFailed(
            f"{workload.name} seed {seed}: traced run fingerprint {rep.fingerprint()} "
            f"!= untraced {untraced['fingerprint']}"
        )

    spans = tracer.closed_spans()
    window = (rep.start_ns, rep.end_ns)
    wall_ns = rep.end_ns - rep.start_ns
    by_layer, covered_ns = walltrace.layer_totals(spans, window)
    vms = rep.vms
    ops = max(rep.completed, 1)
    top: Dict[str, int] = {layer: 0 for layer in walltrace.LAYERS}
    for layer, self_ns in by_layer.items():
        top[walltrace.top_layer(layer)] += self_ns
    schedules, cancels, transmits, bytes_sent = counters

    metrics: Dict[str, float] = {}
    # fastpath, runtime and telemetry run only inside other layers' spans.
    for layer in ("sim", "net", "crypto", "aom", "switchfab", "protocols", "faults", "workload"):
        metrics[f"{layer}.self_s_per_vms"] = top[layer] / 1e9 / vms
    metrics["apps.exec_self_s_per_vms"] = top["apps"] / 1e9 / vms
    metrics.update(rep.work_counts())
    metrics["sim.schedules_per_op"] = schedules / ops
    metrics["sim.cancels_per_op"] = cancels / ops
    metrics["net.msgs_per_op"] = transmits / ops
    metrics["net.bytes_per_op"] = bytes_sent / ops
    macs, mac_ns = walltrace.span_stats(spans, window, "CryptoContext.mac")
    metrics["crypto.us_per_mac"] = mac_ns / 1e3 / macs if macs else 0.0
    metrics["switchfab.tags_per_op"] = walltrace.span_stats(spans, window, "TagScheme.tag")[0] / ops
    for name in ("hmac", "sha256", "chain", "fastsign"):
        hits0, misses0 = caches_before.get(name, (0, 0))
        hits1, misses1 = caches_after.get(name, (0, 0))
        lookups = (hits1 - hits0) + (misses1 - misses0)
        metrics[f"fastpath.hit_rate.{name}"] = (hits1 - hits0) / lookups if lookups else 0.0
    _, load_ns = walltrace.span_stats(spans, (0, rep.start_ns), "KeyValueApp.load")
    metrics["apps.load_s"] = load_ns / 1e9
    metrics["runtime.build_s"] = untraced["build_s"]

    median = median_decomposition(decompose_all(telemetry.span_list()))
    for category in CATEGORIES:
        value = median.segments.get(category, 0) / 1e3 if median else 0.0
        metrics[f"virt_crit.{category}_us"] = value
    waits = rep.openloop.queue_waits if rep.openloop is not None else None
    metrics["openloop.queue_wait_p99_us"] = waits.percentile(99) / 1e3 if waits else 0.0
    metrics["trace.overhead_frac"] = (rep.wall_s / vms) / untraced["wall_s_per_vms"] - 1.0
    metrics["trace.unattributed_frac"] = (wall_ns - covered_ns) / wall_ns
    for name in ("ops_failed_frac", "outage_ms", "slo_miss_frac"):
        metrics[name] = untraced["service"][name][0]

    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.tsv")
    span_count = tracer.write_tsv(span_path, base_ns=rep.start_ns)
    return {
        "metrics": metrics,
        "sublayers": {layer: ns / 1e9 / vms for layer, ns in sorted(by_layer.items())},
        "span_count": span_count,
        "span_path": os.path.relpath(span_path, ROOT),
        "wall_s": rep.wall_s,
        "vms": vms,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(untraced: Dict[str, object]) -> Dict[str, Tuple[float, str, Optional[int]]]:
    """Every end-to-end metric: ``name -> (value, unit, samples)``."""
    metrics = {
        "wall_s_per_vms": (untraced["wall_s_per_vms"], "s/ms", untraced["reps"]),
        "setup_s": (untraced["setup_s"], "s", len(untraced["setup_s_all"])),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MB", None),
    }
    metrics.update(untraced["service"])
    return metrics


def print_report(workload, seed: int, trace: int, env, untraced, traced) -> None:
    print(
        f"perfbench {workload.name} seed={seed} trace={trace} nproc={env['nproc']} "
        f"python={env['python']} git_rev={env['git_rev']} src_digest={env['src_digest']}"
    )
    print(
        f"  reps={untraced['reps']} vms_per_rep={untraced['vms']:.3f} "
        f"fingerprint={untraced['fingerprint']}"
    )
    for name, (value, unit, samples) in end_to_end_metrics(untraced).items():
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {name:<22} {value:14.6f} {unit}{count}")
    if traced is not None:
        print(
            f"  traced run: {traced['span_count']} spans in {traced['span_path']}, "
            f"wall {traced['wall_s']:.3f} s for {traced['vms']:.3f} ms"
        )
        for name, value in traced["metrics"].items():
            print(f"  {name:<34} {value:14.6f}")
        for layer, value in traced["sublayers"].items():
            print(f"  self_s_per_vms[{layer}] {value:.6f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    env = environment()
    try:
        # In trace mode the untraced runs only give the traced run its
        # baseline, so they get half the time and the traced run the rest.
        untraced = measure(workload, args.seed, args.seconds / (2 if args.trace else 1))
        traced = traced_run(workload, args.seed, untraced) if args.trace else None
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1

    print_report(workload, args.seed, args.trace, env, untraced, traced)
    if traced is None:
        values = {name: (value, unit) for name, (value, unit, _) in end_to_end_metrics(untraced).items()}
        wanted = spec["end_to_end"]
    else:
        values = {name: (value, None) for name, value in traced["metrics"].items()}
        wanted = spec["per_layer"]
    metrics = {}
    for entry in wanted:
        value, unit = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit or entry["unit"]}
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
        "fingerprint": untraced["fingerprint"], "reps": untraced["reps"],
        "wall_s_per_vms_all": untraced["wall_s_per_vms_all"],
        "setup_s_all": untraced["setup_s_all"], "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": True,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
