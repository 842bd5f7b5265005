"""The benchmark's workloads, driven only through the program's public API.

Each workload is a batch job in wall time (frames back to back) and an
open loop in virtual time (the simulated camera captures at the clip's
fps and never waits), so a stall shows in the virtual response metrics.

A workload builds its inputs from the seed (:meth:`Workload.prepare`),
runs one operation per input (:meth:`Workload.run`), and reruns any input
through the repo's reference path, the ``numpy`` backend with one worker
(:meth:`Workload.reference`).  Every operation's output digest must equal
the reference digest: every backend is bit-identical to ``numpy`` and any
worker count to one worker.  A workload whose measured path already is
the reference path is checked the other way round, against the same
inputs on the ``cext`` backend.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro import kernels
from repro.core.agent import DiVEScheme
from repro.experiments.config import scaled_bandwidth
from repro.experiments.runner import ground_truth_for, run_scheme
from repro.fleet import FleetConfig, FleetRunner
from repro.metrics import FlightRecorder, MetricsRegistry
from repro.network.trace import constant_trace
from repro.world.datasets import nuscenes_like

__all__ = ["WORKLOADS", "Outcome", "Workload", "frame_digest"]

#: The paper's uplink label for the single-agent workloads (Mbps).
PAPER_MBPS = 2.0


def frame_digest(frames) -> str:
    """SHA-256 over each frame's index, source, bytes, response and detections."""
    parts = [
        (f.index, f.source, f.bytes_sent, repr(f.response_time),
         tuple((d.kind, d.bbox, d.confidence, d.object_id) for d in f.detections))
        for f in sorted(frames, key=lambda fr: fr.index)
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class Outcome:
    """What the benchmark reads off one finished operation."""

    digest: str
    frames: list  # every agent's FrameResults
    maps: list[float]  # mAP per agent (raw-frame ground truth)


class Workload:
    """One named workload; subclasses fill in the four steps."""

    name = ""
    backend = "numpy"
    inputs = 1

    def boot(self) -> None:
        """Process-level set-up: activate the kernel backend."""
        kernels.activate(self.backend)

    def prepare(self, seed: int, j: int):
        """Input ``j`` of the run's :attr:`inputs`, built from ``seed`` only."""
        raise NotImplementedError

    def run(self, inp):
        """One measured operation on one input; returns the raw result."""
        raise NotImplementedError

    def outcome(self, result) -> Outcome:
        """The digest, frames and per-agent mAP of one raw result."""
        raise NotImplementedError

    def reference(self, inp) -> str:
        """Digest of ``inp`` on the path :meth:`run` must reproduce bit for bit."""
        raise NotImplementedError


@dataclass
class _ClipInput:
    clip: object
    trace: object
    ground_truth: list


class DiveBatch(Workload):
    """DiVE through ``run_scheme`` without streaming, preloaded nuScenes-like
    clips at 640x384, a constant 2 Mbps-label uplink, precomputed ground
    truth, ``numpy`` kernels, telemetry off."""

    name = "dive_batch"
    inputs = 7
    n_frames = 16

    def prepare(self, seed: int, j: int) -> _ClipInput:
        clip = nuscenes_like(seed * self.inputs + j, n_frames=self.n_frames).preload()
        trace = constant_trace(scaled_bandwidth(PAPER_MBPS, clip))
        return _ClipInput(clip, trace, ground_truth_for(clip))

    def run(self, inp: _ClipInput):
        return run_scheme(DiVEScheme(), inp.clip, inp.trace, ground_truth=inp.ground_truth)

    def outcome(self, result) -> Outcome:
        return Outcome(frame_digest(result.run.frames), list(result.run.frames), [result.map])

    def reference(self, inp: _ClipInput) -> str:
        # The measured path is numpy on one thread, the reference itself.
        with kernels.use_backend("cext"):
            return self.outcome(self.run(inp)).digest


class FleetOutage(Workload):
    """Fleets of eight agents round-robining DiVE, DDS, EAAR and O3 at
    320x192 in one 8 Mbps-label cell with outages, served by one batching
    edge worker with admission control; ``cext`` kernels, one agent
    thread, live metrics registry and flight recorder.  One fleet run is
    one operation.

    The agents run on one thread: with ``cext`` and two agent threads the
    fleet's outputs differ from the reference, because the backend's one
    ``_scratch`` buffer is shared by threads whose ctypes calls release
    the GIL.  A workload must be one on which no operation fails, so the
    pool goes back to ``min(2, nproc)`` threads once that is fixed."""

    name = "fleet_outage"
    backend = "cext"
    inputs = 4
    agents = 8
    n_frames = 8

    def prepare(self, seed: int, j: int) -> FleetConfig:
        # Agent i of fleet j plays clip seed (seed * inputs + j) * agents + i:
        # no clip is shared between fleets or seeds.
        return FleetConfig(
            n_agents=self.agents, n_frames=self.n_frames, schemes=("dive", "dds", "eaar", "o3"),
            seed=(seed * self.inputs + j) * self.agents, stagger=0.03,
            resolution=(320, 192), cell_mbps=8.0, cell_outages=True,
            workers=1, max_batch=2, max_wait=0.005, queue_capacity=2, admission="reject",
            deadline=0.25, stream_queue_capacity=2, stream_policy="drop-oldest",
            agent_workers=1,
        )

    def run(self, config: FleetConfig):
        return FleetRunner(config, metrics=MetricsRegistry(), flight_recorder=FlightRecorder()).run()

    def outcome(self, result) -> Outcome:
        frames = [f for run in result.runs for f in run.frames]
        return Outcome(result.digest(), frames, [r.map for r in result.reports])

    def reference(self, config: FleetConfig) -> str:
        with kernels.use_backend("numpy"):
            return self.run(replace(config, agent_workers=1)).digest()


WORKLOADS = {w.name: w for w in (DiveBatch, FleetOutage)}


def quality(outcomes: list[Outcome]) -> dict[str, float]:
    """Virtual-time results of one pass over the inputs.

    ``response_ms_*`` are capture-to-result times of the frames whose
    detections came from the edge; ``delivered_frac`` is their share of
    all frames.  Frames served locally (tracking, stale results) are
    counted by ``delivered_frac`` instead of flattening the percentiles
    to the constant local-tracking latency.
    """
    frames = [f for o in outcomes for f in o.frames]
    edge = [f.response_time * 1000.0 for f in frames
            if f.source == "edge" and np.isfinite(f.response_time)]
    return {
        "map": float(np.mean([m for o in outcomes for m in o.maps])),
        "response_ms_p50": float(np.percentile(edge, 50)),
        "response_ms_p90": float(np.percentile(edge, 90)),
        "delivered_frac": len(edge) / len(frames),
    }
