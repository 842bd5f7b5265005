"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dive_batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs every input once untraced and once traced and reports the per-layer
metrics.  Both check every operation's outputs against the
reference path.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-interpreter boots per run, besides the run's own.
BOOT_PROBES = 4

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "map": "ratio",
    "response_ms_p50": "ms",
    "response_ms_p90": "ms",
    "delivered_frac": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--boot-only", action="store_true",
                        help="print this interpreter's boot seconds and exit (set-up probe)")
    return parser.parse_args(argv)


def _say(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class _Ops:
    """Operations attempted and failed, and the raw results of the rest."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.results: list[tuple[int, object]] = []  # (input index, result)

    def run(self, index: int, inp) -> None:
        self.attempted += 1
        try:
            result = self.workload.run(inp)
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            _say(f"operation on input {index} raised:\n{traceback.format_exc()}")
            return
        self.results.append((index, result))

    def check(self, references: list[str]) -> list[tuple[int, object]]:
        """``(input index, outcome)`` of the finished operations.  Each one
        whose digest differs from its input's reference is a failed
        operation."""
        outcomes = []
        for index, result in self.results:
            outcome = self.workload.outcome(result)
            if outcome.digest != references[index]:
                self.failed += 1
                _say(f"input {index}: output digest {outcome.digest[:16]} != "
                     f"reference {references[index][:16]}")
            outcomes.append((index, outcome))
        return outcomes


def _first_per_input(outcomes) -> list:
    """The first outcome of each input: one pass's virtual-time results."""
    seen: dict[int, object] = {}
    for index, outcome in outcomes:
        seen.setdefault(index, outcome)
    return [seen[i] for i in sorted(seen)]


def _one_pass(ops: _Ops, inputs) -> float:
    start = time.perf_counter()
    for index, inp in enumerate(inputs):
        ops.run(index, inp)
    return time.perf_counter() - start


def measure(workload, inputs, seconds: float, setup_s: float) -> tuple[dict, _Ops]:
    """Untraced: whole passes over the inputs, as many as fill ``seconds``."""
    import numpy as np

    from perfbench.layers import FrameTimer
    from perfbench.tracer import Patcher
    from perfbench.workloads import quality

    timer = FrameTimer()
    ops = _Ops(workload)
    with Patcher() as patcher:
        timer.install(patcher)
        elapsed = _one_pass(ops, inputs)
        for _ in range(max(1, round(seconds / elapsed)) - 1):
            elapsed += _one_pass(ops, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = ops.check([workload.reference(inp) for inp in inputs])
    if not outcomes:
        raise RuntimeError("every operation failed")
    frames = sum(len(o.frames) for _, o in outcomes)
    samples_ms = np.asarray(timer.samples) * 1000.0
    first_pass = _first_per_input(outcomes)
    values = {
        "frames_per_s": frames / elapsed,
        "frame_ms_p50": float(np.percentile(samples_ms, 50)),
        "frame_ms_p90": float(np.percentile(samples_ms, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        **quality(first_pass),
    }
    edge = round(values["delivered_frac"] * sum(len(o.frames) for o in first_pass))
    _say(f"{frames} agent-frames in {elapsed:.3f} s over {ops.attempted} operations; "
         f"{len(samples_ms)} frame samples; {edge} edge-served frames in response_ms_*")
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}, ops


def trace(workload, inputs, spans_path: Path) -> tuple[dict, _Ops]:
    """Every input run twice, once untraced and once traced.

    An input's two runs are back to back, and which of them goes first
    alternates from input to input, so that warm-up and drift in host
    speed fall on both sides of ``trace_overhead_frac``: the median over
    inputs of traced over untraced seconds, minus one.
    """
    from perfbench.layers import LAYER_METRICS, Tally, install, layer_metrics
    from perfbench.tracer import Patcher, Tracer

    ops = _Ops(workload)
    tracer, tally = Tracer(), Tally()
    pairs = []  # (untraced, traced) seconds per input
    traced_at = []  # where the traced runs' results sit in ops.results
    for index, inp in enumerate(inputs):
        took = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            with Patcher() as patcher:
                if traced:
                    install(tracer, patcher, tally)
                finished = len(ops.results)
                start = time.perf_counter()
                ops.run(index, inp)
                took[traced] = time.perf_counter() - start
            if traced and len(ops.results) > finished:
                traced_at.append(finished)
        pairs.append((took[False], took[True]))
    outcomes = ops.check([workload.reference(inp) for inp in inputs])
    traced = [outcomes[at] for at in traced_at]
    if not traced:
        raise RuntimeError("every traced operation failed")
    frames = sum(len(o.frames) for _, o in traced)
    wall = sum(t for _, t in pairs)
    values = layer_metrics(
        tracer, tally, frames=frames, wall=wall, main_thread=threading.get_ident(),
        overhead_frac=statistics.median(t / u for u, t in pairs) - 1.0,
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as out:
        for s in tracer.spans:
            out.write(json.dumps({"name": s.name, "thread": s.thread, "start": s.start,
                                  "end": s.end, "self_s": s.self_s, "parent": s.parent}) + "\n")
    _say(f"traced {frames} agent-frames in {wall:.3f} s (untraced {sum(u for u, _ in pairs):.3f} s); "
         f"{len(tracer.spans)} spans -> {spans_path}")
    return {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}, ops


def _boot(workload_name: str):
    """Import the program and activate the workload's kernel backend."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    workload.boot()
    return workload


def _child_boot_seconds(workload_name: str) -> float:
    """Boot time of a fresh interpreter, measured by the child itself."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", "0", "--seconds", "0", "--boot-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _say(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    build = ROOT / ".bench_build"
    # The cext backend compiles into the temp dir; keep it inside the checkout.
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(build / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _say(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = _boot(args.workload)
    boot = [time.perf_counter() - _T0]
    if args.boot_only:
        print(f"{boot[0]!r}")
        return 0
    # Set-up is process start to the first timed frame: the boot (imports,
    # backend activation), measured here and in fresh child interpreters
    # and taken at its median, plus the set-up of every input (clip
    # construction, preload, ground truth), all of which precedes the
    # first timed frame.
    if not args.trace:
        boot += [_child_boot_seconds(args.workload) for _ in range(BOOT_PROBES)]
    inputs, prep = [], []
    for j in range(workload.inputs):
        start = time.perf_counter()
        inputs.append(workload.prepare(args.seed, j))
        prep.append(time.perf_counter() - start)
    setup_s = statistics.median(boot) + sum(prep)
    _say(f"{args.workload} seed {args.seed}: boot {', '.join(f'{b:.3f}' for b in boot)} s, "
         f"per-input set-up {', '.join(f'{p:.3f}' for p in prep)} s")

    if args.trace:
        metrics, ops = trace(workload, inputs, build / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, ops = measure(workload, inputs, args.seconds, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"{'failed_frac':34s} {ops.failed / ops.attempted:14.6f} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    print(result_line(metrics, ops))
    return 0


def result_line(metrics: dict, ops: _Ops) -> str:
    """The final JSON line: outcome counts and every metric with its unit."""
    return json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


if __name__ == "__main__":
    sys.exit(main())
