"""Wall-clock spans over the simulator's layers, recorded from outside it.

:func:`install` wraps public entry points of ``repro`` classes (and the
callback of every event the simulator schedules) so that each call
becomes a span: a name, a layer, a wall-clock start and end, and the span
that was open when it began. Nothing in ``src/`` is edited and the
wrappers only call through, so a traced run simulates exactly what an
untraced run does; the benchmark checks that by comparing fingerprints.

A span's layer is the ``repro`` subpackage of the module that defines the
wrapped function (``protocols/<name>`` for a protocol's own package), so
a protocol's timer callback is booked to that protocol even though the
simulator fires it. Functions defined outside ``repro`` (the benchmark's
own open-loop generator) are booked to ``workload``.

A layer's self time is its spans' durations minus the time their direct
children cover (:func:`self_times`). ``Simulator.run`` is itself a
``sim`` span, so time the run loop spends outside every callback is
``sim`` self time, and the wall time outside every span is reported on
its own as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers in report order; ``protocols`` aggregates ``protocols/<name>``.
LAYERS = (
    "sim",
    "net",
    "crypto",
    "fastpath",
    "aom",
    "switchfab",
    "protocols",
    "apps",
    "faults",
    "runtime",
    "telemetry",
    "workload",
)

_REPRO_LAYERS = frozenset(LAYERS) - {"protocols", "workload"}

#: One span: (name, layer, start_ns, end_ns, parent index or -1).
Span = Tuple[str, str, int, int, int]


def layer_of_module(module: Optional[str]) -> str:
    """Layer of a dotted module name (see the module docstring)."""
    parts = (module or "").split(".")
    if parts[0] != "repro":
        return "workload"
    if len(parts) < 2:
        return "runtime"
    if parts[1] == "protocols":
        return "protocols/" + (parts[2] if len(parts) >= 4 else "common")
    return parts[1] if parts[1] in _REPRO_LAYERS else "runtime"


def layer_of(fn: Callable) -> str:
    """Layer of the module that defines ``fn`` (bound methods included)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return layer_of_module(getattr(fn, "__module__", None))


def top_layer(layer: str) -> str:
    """``protocols/neobft`` -> ``protocols``; other layers unchanged."""
    return layer.split("/", 1)[0]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the durations of its direct children.

    Spans nest (children start and end inside their parent), so the
    children's summed durations are exactly the part of the parent's
    interval they cover.
    """
    covered = [0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


class WallTracer:
    """In-memory span recorder plus the work counters the wrappers keep."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.schedules = 0
        self.cancels = 0
        self.transmits = 0
        self.bytes_sent = 0

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording one span per call."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)

        traced._walltrace = True
        return traced

    def as_span(self, callback: Callable) -> Callable:
        """A callback wrapped as a span (once, not twice)."""
        inner = getattr(callback, "__func__", callback)
        if getattr(inner, "_walltrace", False):
            return callback
        name = getattr(callback, "__qualname__", None) or type(callback).__qualname__
        return self.wrap(callback, name, layer_of(callback))

    def counters(self) -> Tuple[int, int, int, int]:
        """``(schedules, cancels, transmits, bytes_sent)`` so far."""
        return self.schedules, self.cancels, self.transmits, self.bytes_sent

    def closed_spans(self) -> List[Span]:
        """Every finished span (an open span's slot is still ``None``)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        return list(self.spans)

    def write_tsv(self, path: str, base_ns: int) -> int:
        """Write spans as TSV (times relative to ``base_ns``); returns count."""
        spans = self.closed_spans()
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tlayer\tname\tstart_ns\tend_ns\n")
            for index, (name, layer, start, end, parent) in enumerate(spans):
                out.write(
                    f"{index}\t{parent}\t{layer}\t{name}\t{start - base_ns}\t{end - base_ns}\n"
                )
        return len(spans)


# ---------------------------------------------------------------------------
# Wrapping the program's public entry points
# ---------------------------------------------------------------------------


def _entry_points() -> List[Tuple[type, str]]:
    """``(class, method)`` pairs wrapped as child spans."""
    from repro.aom.receiver import AomReceiverLib
    from repro.aom.sender import AomSenderLib
    from repro.aom.sequencer import AomSequencer
    from repro.apps.kvstore.store import KeyValueApp
    from repro.apps.statemachine import StateMachine
    from repro.crypto.backend import CryptoContext
    from repro.crypto.hmacvec import PairwiseKeys
    from repro.net.endpoint import Endpoint
    from repro.net.fabric import Fabric
    from repro.protocols.base import BaseClient
    from repro.sim.engine import Simulator
    from repro.switchfab.fpga import FpgaCoprocessor
    from repro.switchfab.hmac_pipeline import FoldedHmacPipeline, TagScheme
    from repro.switchfab.tofino import PacketEngine

    # Every Endpoint and StateMachine subclass must be loaded before the
    # subclass walk below, including protocols that ``build_cluster``
    # imports lazily.
    for package in ("repro.protocols", "repro.aom", "repro.apps"):
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)

    points: List[Tuple[type, str]] = [
        (Simulator, "run"),
        (Fabric, "transmit"),
        (Fabric, "deliver_from_switch"),
        (Endpoint, "receive"),
        (AomSenderLib, "multicast"),
        (AomSequencer, "on_packet"),
        (AomReceiverLib, "on_packet"),
        (AomReceiverLib, "on_confirm"),
        (FoldedHmacPipeline, "authenticate"),
        (FpgaCoprocessor, "process"),
        (PacketEngine, "admit"),
        (TagScheme, "tag"),
        (BaseClient, "submit"),
        (KeyValueApp, "load"),
    ]
    points += [
        (CryptoContext, name)
        for name in (
            "digest", "sign", "verify", "threshold_share", "verify_threshold_share",
            "combine_threshold", "verify_threshold_combined", "mac", "verify_mac",
        )
    ]
    points += [(PairwiseKeys, name) for name in ("key_between", "authenticate", "verify")]
    # Message handlers: without these a replica's work would be booked to
    # the ``net`` span that delivered its packet. (CPU-job handlers, such
    # as protocol timer callbacks, are wrapped in ``install``.)
    points += [(cls, "on_message") for cls in _subclasses(Endpoint) if "on_message" in vars(cls)]
    points += [
        (cls, "execute_with_undo")
        for cls in _subclasses(StateMachine)
        if "execute_with_undo" in vars(cls)
    ]
    return points


def _subclasses(cls: type) -> Iterable[type]:
    seen = set()
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.add(sub)
            todo.extend(sub.__subclasses__())
            yield sub


def install(tracer: WallTracer) -> Callable[[], None]:
    """Wrap the entry points, scheduling and cancellation; returns the undo."""
    from repro.net.fabric import Fabric
    from repro.net.packet import wire_size_of
    from repro.sim.actors import Actor
    from repro.sim.engine import EventHandle, Simulator

    patched: List[Tuple[type, str, object]] = []

    def patch(cls: type, name: str, replacement: Callable) -> None:
        patched.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    for cls, name in _entry_points():
        fn = vars(cls)[name]
        patch(cls, name, tracer.wrap(fn, f"{cls.__name__}.{name}", layer_of(fn)))

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    cancel = EventHandle.cancel
    execute = Actor.execute
    transmit = Fabric.transmit  # the span wrapper installed above

    def traced_schedule(sim, delay, callback, *args):
        tracer.schedules += 1
        return schedule(sim, delay, tracer.as_span(callback), *args)

    def traced_schedule_at(sim, time_ns, callback, *args):
        tracer.schedules += 1
        return schedule_at(sim, time_ns, tracer.as_span(callback), *args)

    def counted_cancel(handle):
        if not handle.cancelled:
            tracer.cancels += 1
        return cancel(handle)

    def traced_execute(actor, arrival, handler, *args):
        # The span is the handler's, whenever the CPU gets to run it.
        return execute(actor, arrival, tracer.as_span(handler), *args)

    def counted_transmit(fabric, src, dst, message):
        tracer.transmits += 1
        tracer.bytes_sent += wire_size_of(message)
        return transmit(fabric, src, dst, message)

    # Scheduled as an event callback (a deferred send), the counter must
    # not become a span of the benchmark's own layer: the span wrapper it
    # calls records the send.
    counted_transmit._walltrace = True
    patch(Simulator, "schedule", traced_schedule)
    patch(Simulator, "schedule_at", traced_schedule_at)
    patch(EventHandle, "cancel", counted_cancel)
    patch(Actor, "execute", traced_execute)
    patch(Fabric, "transmit", counted_transmit)

    def uninstall() -> None:
        for cls, name, original in reversed(patched):
            setattr(cls, name, original)
        patched.clear()

    return uninstall


def wrap_instance_callable(tracer: WallTracer, obj: object, attr: str) -> None:
    """Wrap a callable stored on an instance (hooks installed at run time)."""
    fn = getattr(obj, attr)
    name = getattr(fn, "__qualname__", attr)
    setattr(obj, attr, tracer.wrap(fn, name, layer_of(fn)))


def layer_totals(
    spans: Sequence[Span], window: Tuple[int, int]
) -> Tuple[Dict[str, int], int]:
    """Self time per layer of the spans inside ``window`` (wall ns).

    Returns ``(self_ns_by_layer, covered_ns)`` where ``covered_ns`` is the
    summed duration of the window's top-level spans; the window's wall
    time minus it is the unattributed remainder.
    """
    lo, hi = window
    selfs = self_times(spans)
    by_layer: Dict[str, int] = {}
    covered = 0
    for (_, layer, start, end, parent), own in zip(spans, selfs):
        if start < lo or end > hi:
            continue
        by_layer[layer] = by_layer.get(layer, 0) + own
        if parent < 0 or not (lo <= spans[parent][2] and spans[parent][3] <= hi):
            covered += end - start
    return by_layer, covered


def span_stats(
    spans: Sequence[Span], window: Tuple[int, int], name: str
) -> Tuple[int, int]:
    """``(count, total duration ns)`` of spans called ``name`` in ``window``."""
    lo, hi = window
    count = 0
    total = 0
    for span_name, _, start, end, _ in spans:
        if span_name == name and lo <= start and end <= hi:
            count += 1
            total += end - start
    return count, total
