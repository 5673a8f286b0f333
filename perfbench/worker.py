"""Workload process: drives one workload through the package and reports.

    python3 perfbench/worker.py --workload NAME --seed N --ops N --trace 0|1

``perfbench/run.py`` starts it in a fresh interpreter whose ``PYTHONPATH``
holds the checkout's ``src``, and prints what it returns.  One untimed
warm-up operation comes first; the timed phase is then ``--ops``
operations in a closed loop, each starting when the previous one returns.
With ``--trace 1`` the same operations run a second time under the
tracer, so that ``trace.overhead_frac`` compares equal work.  Outputs are
checked after timing, so checks cost no timed work and no peak memory.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spin_torus
from reference import REFERENCE_S, Sampler, kernel_seconds
from tracer import SELF_TIME, Tracer
from workloads import WORKLOADS, digest_of

ROOT = Path(__file__).resolve().parent.parent

#: Tail percentiles printed when at least ``MIN_TAIL`` samples lie above them.
PERCENTILES = (90, 99)
MIN_TAIL = 10


def _percentile(sorted_values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = math.ceil(p / 100 * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _layer_metrics(tracer: Tracer, workload, ops: int, points: int) -> dict[str, dict]:
    summary = tracer.summary()
    for name, (relation, value) in workload.expected_calls(ops, points).items():
        if name in tracer.absent:
            continue
        calls = summary[name]["calls"]
        if not (calls == value if relation == "==" else calls >= value):
            raise RuntimeError(
                f"tracer saw {name} called {calls} times; the workload implies "
                f"{relation} {value}, so a rebinding was missed"
            )
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit, "n": ops}

    for name, row in summary.items():
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.busy_s", row["busy_s"], "s")
        if name in SELF_TIME:
            put(f"{name}.self_s", row["self_s"], "s")
    for name, total in tracer.extra.items():
        put(f"{name}.bytes", total, "B")
    serialized = tracer.extra["scenario.record_to_json"]
    put("scenario.bytes_per_point", serialized / points if points else 0.0, "B/point")
    put("verify.checks_failed", getattr(workload, "checks_failed", 0), "count")
    return metrics


def _timing_metrics(sampler: Sampler, samples: list, phase: tuple, ops: int, steps) -> dict:
    """Scaled end-to-end timings, plus the raw ones for reading alongside."""
    scaled = sorted(sum(sampler.scaled(*span) for span in s.values()) for s in samples)
    raw = sorted(sum(sampler.raw(*span) for span in s.values()) for s in samples)
    metrics = {
        "wall_s": {"value": sampler.scaled(*phase), "unit": "s", "n": ops},
        "raw.wall_s": {"value": sampler.raw(*phase), "unit": "s", "n": ops},
        "reference.kernel_ms": {
            "value": 1e3 * sampler.median_kernel_s(), "unit": "ms", "n": len(sampler.durations)
        },
    }
    if not scaled:
        return metrics
    metrics["op_p50_ms"] = {"value": 1e3 * statistics.median(scaled), "unit": "ms", "n": len(scaled)}
    metrics["raw.op_p50_ms"] = {"value": 1e3 * statistics.median(raw), "unit": "ms", "n": len(raw)}
    for p in PERCENTILES:
        value, above = _percentile(scaled, p)
        if above >= MIN_TAIL:
            metrics[f"op_p{p}_ms"] = {"value": 1e3 * value, "unit": "ms", "n": len(scaled)}
    if len(steps) > 1:
        for step in steps:
            times = [sampler.scaled(*s[step]) for s in samples]
            metrics[f"{step}_s"] = {"value": statistics.median(times), "unit": "s", "n": len(times)}
    return metrics


def run_workload(
    name: str,
    seed: int,
    ops: int,
    trace: bool,
    workdir: Path,
    negative_control: bool = False,
    **sizes,
) -> dict:
    """Warm up, time ``ops`` operations, optionally trace them, then check
    every output.  Operation 0 is the warm-up; with ``negative_control``
    the output of operation 1 is corrupted before its check."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, ops + 1, workdir, **sizes)
    clock = time.perf_counter
    errors: dict[int, str] = {}

    def attempt(i: int) -> dict | None:
        try:
            return workload.run(i, clock)
        except Exception as error:  # an operation that raised is a failed operation
            errors.setdefault(i, f"op {i} raised {type(error).__name__}: {error}")
            return None

    def timed_phase() -> tuple[list[dict], tuple[float, float]]:
        gc.collect()
        start = clock()
        samples = [attempt(i) for i in range(1, ops + 1)]
        return [s for s in samples if s is not None], (start, clock())

    attempt(0)
    with Sampler() as sampler:
        samples, phase = timed_phase()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if trace:
        # The traced phase runs without the sampler, so that no kernel run
        # lands inside a span; kernel runs on either side scale its length.
        speed = [kernel_seconds(5)]
        tracer = Tracer()
        tracer.install()
        try:
            _, traced_phase = timed_phase()
        finally:
            tracer.uninstall()
        speed.append(kernel_seconds(5))

    parts = []
    for i in range(ops + 1):
        if i in errors:
            continue
        try:
            parts.append(workload.check(i, corrupt=negative_control and i == 1))
        except Exception as error:  # a malformed output fails its check too
            errors[i] = f"op {i} output check: {type(error).__name__}: {error}"

    layers: dict[str, dict] = {}
    if tracer is not None:
        points = sum(workload.points(i) for i in range(1, ops + 1))
        layers = _layer_metrics(tracer, workload, ops, points)
        traced_wall = (traced_phase[1] - traced_phase[0]) * REFERENCE_S / statistics.mean(speed)
        layers["trace.overhead_frac"] = {
            "value": traced_wall / sampler.scaled(*phase) - 1.0, "unit": "ratio", "n": ops
        }
        tracer.write(str(workdir / f"spans-{name}.npz"))

    attempted = ops + 1
    metrics = _timing_metrics(sampler, samples, phase, ops, workload.steps)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
    metrics["failed_frac"] = {"value": len(errors) / attempted, "unit": "ratio", "n": attempted}
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": [errors[i] for i in sorted(errors)][:5],
        "metrics": metrics,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
        "digest": digest_of(parts),
        "versions": {
            "spin_torus": spin_torus.__version__,
            "numpy": np.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    source = Path(spin_torus.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: spin_torus imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload,
        args.seed,
        args.ops,
        bool(args.trace),
        Path(args.workdir),
        negative_control=args.negative_control,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
