"""The layer map: which public entry points of which ``repro`` module are
wrapped, under which span name, and the per-layer metrics read from them.

Span names are ``<layer>.<boundary>`` with the layer named after the
``repro`` package it lives in.  Kernels are wrapped through the
:mod:`repro.kernels` dispatch (``kernels.override``), never through the
codec's reference internals: every dispatch counts a call of that hook,
and a hook the active backend supplies is timed as its own span.  Under
``numpy`` every hook is ``None`` and the reference body runs inline, so
its time lands in the calling codec span.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from perfbench.tracer import Patcher, Tracer

__all__ = ["FrameTimer", "LAYER_METRICS", "Tally", "install", "layer_metrics"]

#: Per-layer metrics of a traced run: name -> unit.  Every traced run
#: reports all of them; a layer a workload does not exercise reads 0.
LAYER_METRICS: dict[str, str] = {
    "world.render.calls": "count",
    "world.render.self_s": "s",
    "world.render.per_frame": "count",
    "codec.me.calls": "count",
    "codec.me.self_s": "s",
    "codec.mc.self_s": "s",
    "codec.transform.self_s": "s",
    "codec.encode.self_s": "s",
    "codec.intra.calls": "count",
    "codec.intra.self_s": "s",
    "codec.region_encode.self_s": "s",
    "codec.intra_frac": "ratio",
    "core.agent.self_s": "s",
    "core.rotation.self_s": "s",
    "core.foreground.self_s": "s",
    "core.qp.self_s": "s",
    "core.mot.calls": "count",
    "core.mot.self_s": "s",
    "baselines.scheme.self_s": "s",
    "network.uplink.calls": "count",
    "network.uplink.self_s": "s",
    "network.kbit_per_frame": "kbit",
    "edge.server.self_s": "s",
    "edge.decode.self_s": "s",
    "edge.detect.self_s": "s",
    "edge.detect.gt_calls_per_frame": "count",
    "edge.evaluate.self_s": "s",
    "stream.capture_wait_s": "s",
    "stream.run.self_s": "s",
    "stream.queue.submits": "count",
    "stream.shed_frac": "ratio",
    "fleet.cell.self_s": "s",
    "fleet.batch.self_s": "s",
    "fleet.settle.self_s": "s",
    "fleet.agent_pool.busy_frac": "ratio",
    "fleet.requests": "count",
    "fleet.rejected": "count",
    "fleet.batch_size_mean": "count",
    "metrics.samples": "count",
    "metrics.series": "count",
    "metrics.self_s": "s",
    "wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}

#: The kernel hooks of :data:`repro.kernels.KERNEL_NAMES` (kept literal so
#: the metric set is fixed even if a later registry drops a hook).
KERNEL_HOOKS = (
    "exhaustive_search",
    "motion_compensate",
    "dct_blocks",
    "quantize",
    "dequantize",
    "descend_sweep",
    "seed_sweep",
    "offset_sweep",
)
for _hook in KERNEL_HOOKS:
    LAYER_METRICS[f"kernels.{_hook}.calls"] = "count"
    LAYER_METRICS[f"kernels.{_hook}.self_s"] = "s"


@contextmanager
def swapped_frame(clip, frame):
    """Shadow ``clip.frame`` on the instance, then put back what was there."""
    own = vars(clip)
    had, previous = "frame" in own, own.get("frame")
    clip.frame = frame
    try:
        yield
    finally:
        if had:
            clip.frame = previous
        else:
            del clip.frame


def _scheme_classes():
    from repro.baselines import DDSScheme, EAARScheme, O3Scheme
    from repro.core.agent import DiVEScheme

    return (DiVEScheme, DDSScheme, EAARScheme, O3Scheme)


class FrameTimer:
    """Per-frame wall time on each scheme thread, taken from outside.

    Wraps every scheme's public ``run(clip, trace, server)`` and, for the
    length of the call, the ``frame`` method of the clip object the scheme
    was handed (a plain clip in batch runs, the capture facade in stream
    runs).  Clock readings before and after each fetch split the scheme
    thread's time: a frame runs from the return of its fetch to the call
    of the next fetch, or to the return of ``run``.  The fetch itself is
    the wait for the capture stage to deliver the frame; it is not part of
    the frame (it counts in ``frames_per_s``).  With a ``tracer`` every
    fetch is also a ``stream.capture`` span, whose self time is the
    capture layer's ``stream.capture_wait_s``.
    """

    def __init__(self, tracer: Tracer | None = None, clock=time.perf_counter):
        self._tracer = tracer
        self._clock = clock
        self._lock = threading.Lock()
        self.samples: list[float] = []

    def install(self, patcher: Patcher) -> None:
        for cls in _scheme_classes():
            patcher.method(cls, "run", self.wrap_run)

    def wrap_run(self, run):
        """``run`` with its clip's frame fetches timed."""
        clock = self._clock

        def timed_run(scheme, clip, trace, server):
            fetch = clip.frame
            if self._tracer is not None:
                fetch = self._tracer.wrap("stream.capture", fetch)
            starts: list[float] = []  # fetch returned: a frame starts
            ends: list[float] = []  # next fetch called: the frame ended

            def frame(index):
                if starts:
                    ends.append(clock())
                record = fetch(index)
                starts.append(clock())
                return record

            with swapped_frame(clip, frame):
                try:
                    return run(scheme, clip, trace, server)
                finally:
                    if starts:
                        ends.append(clock())
                    with self._lock:
                        self.samples.extend(b - a for a, b in zip(starts, ends))

        timed_run.__wrapped__ = run
        return timed_run


class Tally:
    """What ``after`` hooks gather at boundaries besides the tracer's counts."""

    def __init__(self):
        self.agent_workers: list[int] = []  # per FleetRunner.run_agents call
        self.series: set = set()  # metric series that received a sample
        self.batch_sizes: list[int] = []


def install(tracer: Tracer, patcher: Patcher, tally: Tally) -> None:
    """Wrap every layer boundary; the hooks fill ``tracer`` and ``tally``."""
    from repro import kernels
    from repro.codec import decoder, encoder, intra, motion, transform
    from repro.core import foreground, qp, rotation, tracking
    from repro.edge import detector, evaluation, server
    from repro.fleet import batch, cell, runner as fleet_runner
    from repro.metrics import flight, registry
    from repro.network import link
    from repro.stream import queues, runner as stream_runner
    from repro.world import renderer

    span = tracer.wrap

    def method(cls, attr, name, after=None):
        patcher.method(cls, attr, lambda fn: span(name, fn, after))

    def function(fn, name, after=None):
        patcher.function(fn, lambda f: span(name, f, after))

    # world
    method(renderer.Renderer, "render", "world.render")

    # codec
    function(motion.estimate_motion, "codec.me")
    function(motion.motion_compensate, "codec.mc")
    for fn in (transform.dct_blocks, transform.idct_blocks, transform.quantize, transform.dequantize):
        function(fn, "codec.transform")

    def encoded(result, args, kwargs):
        tracer.count("codec.encodes")
        if result.frame_type == "I":
            tracer.count("codec.intra_encodes")

    method(encoder.VideoEncoder, "encode", "codec.encode", encoded)
    function(intra.intra_encode, "codec.intra")
    function(encoder.encode_region_update, "codec.region_encode")

    # kernels: through the registry's dispatch primitive only
    dispatch = kernels.override
    timed_hooks: dict[str, object] = {}

    def override(kernel):
        tracer.count(f"kernels.{kernel}.calls")
        impl = dispatch(kernel)
        if impl is None:
            return None
        cached = timed_hooks.get(kernel)
        if cached is None or cached.__wrapped__ != impl:
            cached = timed_hooks[kernel] = span(f"kernels.{kernel}", impl)
        return cached

    patcher.function(dispatch, lambda fn: override)

    # core and the baselines' scheme loops
    schemes = _scheme_classes()
    method(schemes[0], "run", "core.agent")
    for cls in schemes[1:]:
        method(cls, "run", "baselines.scheme")
    function(rotation.estimate_rotation, "core.rotation")
    function(rotation.remove_rotation, "core.rotation")
    method(foreground.ForegroundExtractor, "extract", "core.foreground")
    method(qp.QPAllocator, "offsets", "core.qp")
    method(tracking.MotionVectorTracker, "track", "core.mot")

    # network
    def offered(result, args, kwargs):
        tracer.count("network.bytes", float(args[2]))

    method(link.UplinkSimulator, "transmit", "network.uplink", offered)
    method(stream_runner.StreamingUplink, "transmit", "network.uplink", offered)

    # edge
    method(server.EdgeServer, "process", "edge.server")
    method(server.EdgeServer, "process_image", "edge.server")
    method(decoder.VideoDecoder, "decode", "edge.decode")
    method(detector.QualityAwareDetector, "detect", "edge.detect")
    method(detector.QualityAwareDetector, "ground_truth", "edge.detect",
           lambda result, args, kwargs: tracer.count("edge.gt_calls"))
    function(evaluation.evaluate_detections, "edge.evaluate")

    # stream
    def streamed(result, args, kwargs):
        stats = result.stats
        tracer.count("stream.shed", stats.dropped)
        tracer.count("stream.jobs", stats.delivered + stats.degraded + stats.dropped)

    method(stream_runner.StreamRunner, "run", "stream.run", streamed)
    method(queues.BackpressureQueue, "submit", "stream.queue")

    # fleet
    method(cell.SharedCell, "allocate", "fleet.cell")

    def served(result, args, kwargs):
        tracer.count("fleet.requests", len(args[1]))
        tracer.count("fleet.rejected", sum(o.status == "rejected" for o in result))
        tally.batch_sizes.extend(b.size for b in args[0].batches)

    method(batch.BatchingEdgeServer, "serve", "fleet.batch", served)
    method(fleet_runner.FleetRunner, "settle", "fleet.settle")
    method(fleet_runner.FleetRunner, "run_agents", "fleet.agent_pool",
           lambda result, args, kwargs: tally.agent_workers.append(args[0].config.agent_workers))

    # metrics
    def sampled(result, args, kwargs):
        tracer.count("metrics.samples")
        tally.series.add(args[0])

    method(registry.CounterSeries, "inc", "metrics.record", sampled)
    method(registry.GaugeSeries, "set", "metrics.record", sampled)
    method(registry.HistogramSeries, "observe", "metrics.record", sampled)
    method(flight.FlightRecorder, "record", "metrics.record")

    # The clip the scheme fetches frames from: a cache hit in batch runs,
    # the wait on the capture workers in stream runs.
    FrameTimer(tracer).install(patcher)


def layer_metrics(tracer: Tracer, tally: Tally, *, frames: int, wall: float,
                  main_thread: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values of traced runs of ``frames`` agent-frames in all."""
    self_s = tracer.self_by_name()
    c = tracer.counters

    def calls(name):
        return float(tracer.calls(name))

    encodes = c.get("codec.encodes", 0.0)
    pool = [s for s in tracer.spans if s.name == "fleet.agent_pool"]
    pool_capacity = sum(s.duration * w for s, w in zip(pool, tally.agent_workers))
    busy = sum(s.duration for s in tracer.spans if s.name == "stream.run"
               and any(p.start <= s.start and s.end <= p.end for p in pool))
    main_self = sum(tracer.self_by_name(main_thread).values())
    out = {
        "world.render.calls": calls("world.render"),
        "world.render.self_s": self_s.get("world.render", 0.0),
        "world.render.per_frame": calls("world.render") / frames,
        "codec.me.calls": calls("codec.me"),
        "codec.me.self_s": self_s.get("codec.me", 0.0),
        "codec.mc.self_s": self_s.get("codec.mc", 0.0),
        "codec.transform.self_s": self_s.get("codec.transform", 0.0),
        "codec.encode.self_s": self_s.get("codec.encode", 0.0),
        "codec.intra.calls": calls("codec.intra"),
        "codec.intra.self_s": self_s.get("codec.intra", 0.0),
        "codec.region_encode.self_s": self_s.get("codec.region_encode", 0.0),
        "codec.intra_frac": c.get("codec.intra_encodes", 0.0) / encodes if encodes else 0.0,
        "core.agent.self_s": self_s.get("core.agent", 0.0),
        "core.rotation.self_s": self_s.get("core.rotation", 0.0),
        "core.foreground.self_s": self_s.get("core.foreground", 0.0),
        "core.qp.self_s": self_s.get("core.qp", 0.0),
        "core.mot.calls": calls("core.mot"),
        "core.mot.self_s": self_s.get("core.mot", 0.0),
        "baselines.scheme.self_s": self_s.get("baselines.scheme", 0.0),
        "network.uplink.calls": calls("network.uplink"),
        "network.uplink.self_s": self_s.get("network.uplink", 0.0),
        "network.kbit_per_frame": c.get("network.bytes", 0.0) * 8.0 / 1000.0 / frames,
        "edge.server.self_s": self_s.get("edge.server", 0.0),
        "edge.decode.self_s": self_s.get("edge.decode", 0.0),
        "edge.detect.self_s": self_s.get("edge.detect", 0.0),
        "edge.detect.gt_calls_per_frame": c.get("edge.gt_calls", 0.0) / frames,
        "edge.evaluate.self_s": self_s.get("edge.evaluate", 0.0),
        "stream.capture_wait_s": self_s.get("stream.capture", 0.0),
        "stream.run.self_s": self_s.get("stream.run", 0.0),
        "stream.queue.submits": calls("stream.queue"),
        "stream.shed_frac": c["stream.shed"] / c["stream.jobs"] if c.get("stream.jobs") else 0.0,
        "fleet.cell.self_s": self_s.get("fleet.cell", 0.0),
        "fleet.batch.self_s": self_s.get("fleet.batch", 0.0),
        "fleet.settle.self_s": self_s.get("fleet.settle", 0.0),
        "fleet.agent_pool.busy_frac": busy / pool_capacity if pool_capacity else 0.0,
        "fleet.requests": c.get("fleet.requests", 0.0),
        "fleet.rejected": c.get("fleet.rejected", 0.0),
        "fleet.batch_size_mean": (sum(tally.batch_sizes) / len(tally.batch_sizes)
                                  if tally.batch_sizes else 0.0),
        "metrics.samples": c.get("metrics.samples", 0.0),
        "metrics.series": float(len(tally.series)),
        "metrics.self_s": self_s.get("metrics.record", 0.0),
        "wall_s": wall,
        "unattributed_s": wall - main_self,
        "trace_overhead_frac": overhead_frac,
    }
    for hook in KERNEL_HOOKS:
        out[f"kernels.{hook}.calls"] = c.get(f"kernels.{hook}.calls", 0.0)
        out[f"kernels.{hook}.self_s"] = self_s.get(f"kernels.{hook}", 0.0)
    return out
