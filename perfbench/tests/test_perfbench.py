"""The benchmark's own checks, at tiny scale.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import threading

import pytest

from perfbench import run
from perfbench.layers import LAYER_METRICS, FrameTimer, Tally, install, swapped_frame
from perfbench.tracer import Patcher, Tracer
from perfbench.workloads import WORKLOADS, DiveBatch, FleetOutage


class TinyBatch(DiveBatch):
    inputs = 1
    n_frames = 3


class TinyFleet(FleetOutage):
    inputs = 1
    agents = 2
    n_frames = 3


def _inputs(workload, seed):
    workload.boot()
    return [workload.prepare(seed, j) for j in range(workload.inputs)]


def _json(metrics, ops):
    line = json.loads(run.result_line(metrics, ops))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def test_end_to_end_metrics_all_emitted_with_units():
    workload = TinyBatch()
    metrics, ops = run.measure(workload, _inputs(workload, 0), 0.0, setup_s=1.0)
    line = _json(metrics, ops)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fleet_metrics_all_emitted_with_units():
    workload = TinyFleet()
    metrics, ops = run.measure(workload, _inputs(workload, 0), 0.0, setup_s=1.0)
    line = _json(metrics, ops)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END


def test_traced_run_emits_every_layer_metric_and_adds_up(tmp_path):
    workload = TinyBatch()
    metrics, ops = run.trace(workload, _inputs(workload, 0), tmp_path / "spans.jsonl")
    line = _json(metrics, ops)
    assert line["failed"] == 0 and line["attempted"] == 2  # untraced + traced run
    assert {k: v["unit"] for k, v in line["metrics"].items()} == LAYER_METRICS
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["codec.me.calls"] == 2  # frame 0 is an I-frame
    assert values["world.render.calls"] == 0  # preloaded, ground truth precomputed
    assert 0.0 <= values["unattributed_s"] < 0.25 * values["wall_s"]
    spans = [json.loads(s) for s in (tmp_path / "spans.jsonl").read_text().splitlines()]
    main = {s["thread"] for s in spans if s["name"] == "core.agent"}
    attributed = sum(s["self_s"] for s in spans if s["thread"] in main)
    assert attributed + values["unattributed_s"] == pytest.approx(values["wall_s"])


def test_self_time_nested_two_threads():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def other_thread():
        tracer.enter("outer")  # t=4, a separate stack: no parent
        now[0] = 6.0
        tracer.exit()

    assert tracer.enter("outer")  # t=0
    now[0] = 1.0
    assert tracer.enter("inner")  # t=1
    assert not tracer.enter("inner")  # re-entry joins the open span
    now[0] = 4.0
    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    tracer.exit()  # inner closes at t=6: 5 s
    now[0] = 10.0
    tracer.exit()  # outer closes at t=10: 10 s, 5 of them in inner
    by_thread = {}
    for s in tracer.spans:
        by_thread.setdefault(s.thread, {})[s.name] = (s.self_s, s.parent)
    main = by_thread.pop(threading.get_ident())
    assert main == {"inner": (5.0, "outer"), "outer": (5.0, None)}
    assert list(by_thread.values()) == [{"outer": (2.0, None)}]
    assert tracer.self_by_name() == {"outer": 7.0, "inner": 5.0}
    assert tracer.calls("inner") == 1


def test_wrap_counts_one_span_per_boundary_crossing():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    seen = []

    def leaf():
        now[0] += 1.0

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        now[0] += 2.0
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap("outer", outer, after=lambda result, args, kwargs: seen.append(result))()
    assert tracer.self_by_name() == {"leaf": 2.0, "outer": 2.0}
    assert tracer.calls("leaf") == 2 and seen == [None]


def test_frame_timer_leaves_the_capture_wait_out():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    timer = FrameTimer(tracer, clock=lambda: now[0])

    class Facade:
        def frame(self, index):
            now[0] += 10.0  # waiting on the capture stage
            return index

    def run(scheme, clip, trace, server):
        for i in range(3):
            clip.frame(i)
            now[0] += i + 1.0  # the scheme's own work on frame i
        return "done"

    clip = Facade()
    assert timer.wrap_run(run)(None, clip, None, None) == "done"
    assert timer.samples == [1.0, 2.0, 3.0]
    assert tracer.self_by_name() == {"stream.capture": 30.0}
    assert "frame" not in vars(clip)


def test_patches_are_restored():
    from repro import kernels
    from repro.codec import motion
    from repro.core import agent
    from repro.core.agent import DiVEScheme
    from repro.world.renderer import Renderer

    before = (kernels.override, agent.estimate_motion, motion.estimate_motion,
              Renderer.__dict__["render"], DiVEScheme.__dict__["run"])
    with Patcher() as patcher:
        install(Tracer(), patcher, Tally())
        FrameTimer().install(patcher)
        during = (kernels.override, agent.estimate_motion, motion.estimate_motion,
                  Renderer.__dict__["render"], DiVEScheme.__dict__["run"])
        assert all(a is not b for a, b in zip(before, during))
        assert agent.estimate_motion is motion.estimate_motion
    after = (kernels.override, agent.estimate_motion, motion.estimate_motion,
             Renderer.__dict__["render"], DiVEScheme.__dict__["run"])
    assert all(a is b for a, b in zip(before, after))


def test_swapped_frame_restores_nested_shadows():
    class Facade:
        def frame(self, index):
            return index

    clip = Facade()
    with swapped_frame(clip, lambda i: "outer"):
        with swapped_frame(clip, lambda i: "inner"):
            assert clip.frame(0) == "inner"
        assert clip.frame(0) == "outer"
    assert "frame" not in vars(clip) and clip.frame(3) == 3


def test_seed_changes_inputs_not_metric_set():
    workload = TinyBatch()
    a, b = _inputs(workload, 0), _inputs(workload, 1)
    assert a[0].clip.name != b[0].clip.name
    assert (a[0].clip.frame(1).image != b[0].clip.frame(1).image).any()
    metrics_a, _ = run.measure(workload, a, 0.0, setup_s=1.0)
    metrics_b, _ = run.measure(workload, b, 0.0, setup_s=1.0)
    assert list(metrics_a) == list(metrics_b) == list(run.END_TO_END)
    assert metrics_a["map"] != metrics_b["map"] or metrics_a["response_ms_p50"] != metrics_b["response_ms_p50"]


def test_workload_names():
    assert sorted(WORKLOADS) == ["dive_batch", "fleet_outage"]
