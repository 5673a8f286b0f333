"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Workloads run in-process at small sizes (a 12 x 12 torus grid, a few
operations); the command-line tests run ``perfbench/run.py`` for about a
second per workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spin_torus  # noqa: E402
from spin_torus import qstate, scenario  # noqa: E402
from tracer import TARGETS  # noqa: E402
from worker import run_workload  # noqa: E402
from workloads import WORKLOADS, ConfigSweep, TorusDense  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Small sizes per workload: timed operations and constructor arguments.
SMALL = {
    "torus_dense": (2, {"grid": 12}),
    "config_sweep": (30, {}),
    "verify_battery": (5, {}),
}


def _inputs(workload) -> str:
    if isinstance(workload, TorusDense):
        return json.dumps([workload.configs, workload.run_seeds])
    if isinstance(workload, ConfigSweep):
        return json.dumps([workload.texts, workload.run_seeds])
    return json.dumps(workload.calls)


def _small_run(name: str, tmp_path: Path, **options) -> dict:
    ops, sizes = SMALL[name]
    return run_workload(name, 11, ops, workdir=tmp_path, **options, **sizes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    cls = WORKLOADS[name]
    first = _inputs(cls(5, 40, tmp_path))
    assert first == _inputs(cls(5, 40, tmp_path))
    assert first != _inputs(cls(6, 40, tmp_path))


def test_every_sweep_config_validates_and_degenerate_ones_warn(tmp_path):
    sweep = ConfigSweep(3, 200, tmp_path)
    assert set(sweep.expect) == {"generic", "flat", "polarized", "shear_warning"}
    for text, expect in zip(sweep.texts, sweep.expect):
        config = scenario.config_from_dict(json.loads(text))
        if expect == "shear_warning":
            results = scenario.run_scenario(config).results
            assert "warning" in results["metric"] and "warning" in results["classify"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_pass_and_a_corrupted_output_is_counted(name, tmp_path):
    clean = _small_run(name, tmp_path, trace=False)
    assert clean["failed"] == 0, clean["errors"]
    assert clean["attempted"] == SMALL[name][0] + 1
    broken = _small_run(name, tmp_path, trace=False, negative_control=True)
    assert broken["failed"] == 1
    assert "output check" in broken["errors"][0]


def _bindings() -> dict[tuple[str, str], object]:
    modules = [m for n, m in sys.modules.items() if n == "spin_torus" or n.startswith("spin_torus.")]
    found = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    found[("PureState2Q", "__init__")] = qstate.PureState2Q.__dict__["__init__"]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_calls_repeat_and_originals_come_back(name, tmp_path):
    before = _bindings()
    first = _small_run(name, tmp_path, trace=True)
    second = _small_run(name, tmp_path, trace=True)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    calls = {k: v["value"] for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: second["layers"][k]["value"] for k in calls}
    assert len(calls) == len(TARGETS)
    assert first["absent"] == []
    assert first["digest"] == second["digest"]


def test_metric_names_are_well_formed_and_declared():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    tabled = [name for row in layers["rows"] for name in row["metrics"]]
    assert sorted(tabled) == sorted(m["name"] for m in SPEC["per_layer"])
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "config_sweep",
             "--seed", "2", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        printed = [line.split()[1] for line in lines if line.startswith("metric ")]
        assert set(result["metrics"]) <= set(printed)
        assert all(NAME.fullmatch(name) for name in printed)


def test_negative_control_from_the_command_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config_sweep",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--negative-control"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    assert "metric failed_frac " in done.stdout


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_package_under_test_is_the_checkout():
    assert Path(spin_torus.__file__).resolve().is_relative_to(ROOT / "src")
