"""Each streamed frame is rendered exactly once.

The streaming capture stage renders every frame for the scheme and
scores that same record as ground truth, so neither fleet settlement nor
``run_scheme(stream=...)`` renders a frame a second time.  These tests
count ``Renderer.render`` calls to lock that in, and check that the
capture-stage ground truth is bit-identical to ``ground_truth_for``.
"""

import pytest

from conftest import GOLDEN_BANDWIDTH_MBPS
from repro.baselines import O3Scheme
from repro.baselines.base import AnalyticsScheme, SchemeRun
from repro.edge import EdgeServer, QualityAwareDetector
from repro.experiments import ground_truth_for, run_scheme, scaled_bandwidth
from repro.fleet import FleetConfig, FleetRunner
from repro.network import constant_trace
from repro.stream import StreamConfig, StreamRunner
from repro.world import nuscenes_like
from repro.world.renderer import Renderer

pytestmark = pytest.mark.timeout(600)


@pytest.fixture
def render_count(monkeypatch):
    """A callable returning how many frames have been rendered so far."""
    calls = []
    original = Renderer.render

    def counted(self, *args, **kwargs):
        calls.append(None)  # list.append is atomic: safe from capture threads
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Renderer, "render", counted)
    return lambda: len(calls)


def test_fleet_renders_each_agent_frame_once(render_count):
    config = FleetConfig(
        n_agents=3, n_frames=5, schemes=("dive", "eaar", "o3"),
        resolution=(192, 96), stagger=0.03, cell_mbps=3.0,
        workers=1, max_batch=2, queue_capacity=2,
    )
    result = FleetRunner(config).run()
    assert render_count() == 3 * 5
    assert [r.frames for r in result.reports] == [5, 5, 5]


def test_streamed_run_scheme_renders_each_frame_once(render_count):
    clip = nuscenes_like(2, n_frames=6, resolution=(192, 96))
    trace = constant_trace(scaled_bandwidth(2.0, clip))
    streamed = run_scheme(
        O3Scheme(), clip, trace, stream=StreamConfig(workers=2, watchdog=60.0))
    assert render_count() == 6
    scored = run_scheme(O3Scheme(), clip, trace, ground_truth=ground_truth_for(clip))
    assert streamed.ap == scored.ap


def test_stream_ground_truth_matches_ground_truth_for(golden_clips, golden_ground_truth):
    clip = golden_clips[0]
    trace = constant_trace(scaled_bandwidth(GOLDEN_BANDWIDTH_MBPS, clip))
    result = StreamRunner(O3Scheme(), StreamConfig(workers=2, watchdog=120.0)).run(
        clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
    assert result.ground_truth == golden_ground_truth[0]


def test_unfetched_frames_still_get_ground_truth():
    """A scheme that stops early still gets one ground-truth entry per frame."""

    class _FirstFrameOnly(AnalyticsScheme):
        name = "first"

        def run(self, clip, trace, server):
            clip.frame(0)
            return SchemeRun(scheme=self.name, clip_name=clip.name)

    clip = nuscenes_like(1, n_frames=12, resolution=(192, 96))
    result = StreamRunner(_FirstFrameOnly(), StreamConfig(prefetch=1, watchdog=60.0)).run(
        clip, constant_trace(1e6), EdgeServer(QualityAwareDetector(seed=7)))
    assert result.ground_truth == ground_truth_for(clip)
