"""Benchmark of the spin-torus package: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  The load is a closed loop: one client in one process, each
operation starting when the previous one returns.  A run does a fixed
number of operations, ``S`` times the workload's nominal rate (its rate at
the commit that defined the benchmark), so every commit is timed on the
same work and ``wall_s`` stays comparable.

With ``--trace 0`` it measures ``setup_s`` as the median of several cold
interpreter starts, then starts the workload process and prints every
end-to-end metric.  With ``--trace 1`` it prints the per-layer metrics of
a traced run instead.  Every line before the last is for people: metric
name, value, unit and sample count, the environment stamp, and a sha256
over the results.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

#: Operations per second of each workload at the commit that defined the
#: benchmark (2-core x86-64 container, Python 3.11.7, numpy 2.4.6).
NOMINAL_RATE = {"torus_dense": 1 / 7.0, "config_sweep": 80.0, "verify_battery": 7.0}
#: Fewest timed operations a run does, whatever ``--seconds`` says.
MIN_OPS = {"torus_dense": 2, "config_sweep": 100, "verify_battery": 30}
#: Timed cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 7
#: The workload process is killed after this many seconds.
WORKER_TIMEOUT_S = 160.0

#: Numeric thread pools capped at one thread: the load is a single client.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_SETUP_PROBE = (
    "import time, spin_torus.cli\n"
    "ready = time.perf_counter()\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import reference\n"
    "print(repr(ready), repr(reference.kernel_seconds(5)), spin_torus.cli.__file__)\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _cold_start(env: dict[str, str]) -> tuple[float, float]:
    """Seconds from launching an interpreter until ``spin_torus.cli`` is
    imported, raw and scaled by the reference kernel run right after the
    import in the same process.  ``perf_counter`` reads the system-wide
    monotonic clock, so the child's reading and the parent's share one
    time base."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "perfbench")],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    ready, kernel_s, source = done.stdout.strip().split(maxsplit=2)
    if not Path(source).resolve().is_relative_to(SRC):
        raise RuntimeError(f"spin_torus.cli imported from {source}, not from {SRC}")
    raw = float(ready) - start
    return raw, raw * REFERENCE_S / float(kernel_s)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spin_torus").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _gated_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_RATE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="corrupt one checked output; it must be counted as failed",
    )
    args = parser.parse_args(argv)
    if not (SRC / "spin_torus" / "__init__.py").is_file():
        print(f"error: no spin_torus package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    ops = max(MIN_OPS[args.workload], round(args.seconds * NOMINAL_RATE[args.workload]))
    env = _child_env()
    setup = []
    if not trace:
        _cold_start(env)  # compiles bytecode and fills the file cache
        setup = [_cold_start(env) for _ in range(COLD_STARTS)]

    WORKDIR.mkdir(exist_ok=True)
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--ops", str(ops),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
    ] + (["--negative-control"] if args.negative_control else [])
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload process ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: workload process exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])

    metrics = dict(result["metrics"])
    if setup:
        raw, scaled = zip(*setup)
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s", "n": len(setup)}
        metrics["raw.setup_s"] = {"value": statistics.median(raw), "unit": "s", "n": len(setup)}
    shown = {**result["layers"], **metrics} if trace else metrics
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "trace": args.trace,
        "python": platform.python_version(),
        **result["versions"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"result_sha256 {result['digest']}")
    for name in sorted(shown):
        metric = shown[name]
        print(f"metric {name} {metric['value']!r} {metric['unit']} n={metric['n']}")
    for name in result["absent"]:
        print(f"absent {name}")
    for error in result["errors"]:
        print(f"failed {error}")

    gated = _gated_names(trace)
    source = result["layers"] if trace else metrics
    missing = [name for name in gated if name not in source]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": source[name]["value"], "unit": source[name]["unit"]}
                    for name in gated
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
