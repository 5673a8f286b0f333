"""Run-to-run spread of the end-to-end metrics, the figure the bounds rest on.

    python3 perfbench/spread.py --workloads torus_dense,config_sweep --seeds 1-10 \
        [--out perfbench/spread.json]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
for ``run_seconds`` from ``BENCHMARK.json``.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  A metric is steady when its spread is below a third of its bound;
``setup_s`` is reported but not held to that.  The unscaled ``raw.*``
figures are printed for comparison.  ``--out`` merges the
figures, per workload, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="JSON file to merge the figures into")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    figures = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            command = [
                sys.executable, "perfbench/run.py",
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for line in done.stdout.splitlines():
                if line.startswith("metric raw."):
                    _, name, value = line.split()[:3]
                    raw.setdefault(name, []).append(float(value))
        figures[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            figures[workload][name] = {
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bounds[name],
                "values": series,
            }
            print(
                f"{workload:15s} {name:12s} median {statistics.median(series):12.6g} "
                f"spread {spread:7.2%} bound {bounds[name]:.0%} {'ok' if ok else 'NOISY'}"
            )
        for name, series in raw.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            figures[workload][name] = {"median": median, "spread": (q3 - q1) / median, "values": series}
            print(f"{workload:15s} {name:16s} median {median:12.6g} spread {(q3 - q1) / median:7.2%} (unscaled)")
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        merged.setdefault("workloads", {}).update(figures)
        merged["seeds"] = args.seeds
        merged["run_seconds"] = spec["run_seconds"]
        merged["machine"] = f"{platform.machine()}, {platform.python_version()}"
        out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
