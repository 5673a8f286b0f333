import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spin_torus.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    main,
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
                "params": {"coupling": 1.0, "field": 0.5},
                "grid": {"theta_steps": 5, "phi_steps": 4},
                "outputs": ["metric", "concurrence_profile", "evolved_states"],
            }
        )
    )
    return path


class TestRunCommand:
    def test_writes_default_record_path(self, config_file, capsys):
        assert main(["run", str(config_file)]) == EXIT_OK
        record_path = config_file.with_name("scenario.record.json")
        assert record_path.exists()
        body = json.loads(record_path.read_text())
        assert body["schema_version"] == "1"
        assert "metric" in body["results"]
        assert str(record_path) in capsys.readouterr().out

    def test_explicit_out_path(self, config_file, tmp_path):
        out = tmp_path / "elsewhere.json"
        assert main(["run", str(config_file), "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_gamma_override_scales_metric(self, config_file, tmp_path):
        out = tmp_path / "scaled.json"
        assert (
            main(["run", str(config_file), "--gamma", "2.0", "--out", str(out)])
            == EXIT_OK
        )
        body = json.loads(out.read_text())
        assert body["config"]["params"]["gamma"] == 2.0
        assert body["results"]["metric"]["g_theta_theta"] == pytest.approx(4.0)

    def test_invalid_gamma_rejected(self, config_file):
        assert main(["run", str(config_file), "--gamma", "-1"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_rejected(self, config_file, gamma, capsys):
        assert main(["run", str(config_file), f"--gamma={gamma}"]) == EXIT_CONFIG_ERROR
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "initial",
        [
            {"product_state": {"kind": "pm", "chi": float("nan")}},
            {"product_state": {"kind": "pp", "chi": float("inf")}},
            {"product_state": {"kind": "mm", "chi": 0.4, "gamma_az": float("nan")}},
            {"product_state": {"kind": "pm", "chi": 0.4, "gamma_az": float("-inf")}},
            {"amplitudes": [[float("nan"), 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
            {"amplitudes": [[1.0, 0.0], [0.0, float("inf")], [0.0, 0.0], [0.0, 0.0]]},
        ],
    )
    def test_non_finite_initial_state_rejected(self, tmp_path, initial, capsys):
        bad = tmp_path / "nonfinite.json"
        bad.write_text(
            json.dumps(
                {
                    "initial": initial,
                    "params": {"coupling": 1.0, "field": 0.5},
                    "grid": {"theta_steps": 3, "phi_steps": 3},
                    "outputs": ["metric"],
                }
            )
        )
        assert main(["run", str(bad)]) == EXIT_CONFIG_ERROR
        assert "must be finite" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_IO_ERROR

    def test_malformed_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["run", str(bad)]) == EXIT_CONFIG_ERROR

    def test_unknown_field_is_config_error(self, tmp_path):
        bad = tmp_path / "typo.json"
        bad.write_text(
            json.dumps(
                {
                    "initial": {"product_state": {"kind": "updown"}},
                    "params": {"coupling": 1.0, "field": 0.0},
                    "grid": {"theta_steps": 3, "phi_steps": 3},
                    "outputs": ["metric"],
                    "outpots": ["metric"],
                }
            )
        )
        assert main(["run", str(bad)]) == EXIT_CONFIG_ERROR

    def test_rerun_reproduces_results_block(self, config_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["run", str(config_file), "--out", str(first)]) == EXIT_OK
        assert main(["run", str(config_file), "--out", str(second)]) == EXIT_OK
        body_a = json.loads(first.read_text())
        body_b = json.loads(second.read_text())
        assert body_a["results"] == body_b["results"]
        assert body_a["config"] == body_b["config"]


HUGE = 10**400  # an integer literal beyond the float range


def overflow_configs():
    def config(initial=None, params=None, grid=None):
        return {
            "initial": initial or {"product_state": {"kind": "pm", "chi": 0.9}},
            "params": {"coupling": 1.0, "field": 0.5, **(params or {})},
            "grid": grid or {"theta_steps": 3, "phi_steps": 3},
            "outputs": ["metric", "concurrence_profile", "evolved_states"],
        }

    time_grid = {"time": {"t0": 0.0, "t1": 10.0, "steps": 3}}
    return {
        "coupling_int": config(params={"coupling": HUGE}),
        "field_int": config(params={"field": -HUGE}),
        "gamma_int": config(params={"gamma": HUGE}),
        "chi_int": config(initial={"product_state": {"kind": "pm", "chi": HUGE}}),
        "gamma_az_int": config(
            initial={"product_state": {"kind": "pp", "chi": 0.4, "gamma_az": HUGE}}
        ),
        "amplitude_int": config(
            initial={"amplitudes": [[HUGE, 0], [0, 0], [0, 0], [0, 0]]}
        ),
        "t1_int": config(grid={"time": {"t0": 0.0, "t1": HUGE, "steps": 3}}),
        "field_override_int": config(grid={**time_grid, "field_override": HUGE}),
        "coupling_angle": config(params={"coupling": 1e308}, grid=time_grid),
        "doubled_angle": config(
            params={"coupling": 4e307}, grid={"time": {"t0": 0.0, "t1": 2.0, "steps": 3}}
        ),
        "field_angle": config(params={"field": -1e308}, grid=time_grid),
        "field_override_angle": config(grid={**time_grid, "field_override": 1e308}),
        "time_span": config(grid={"time": {"t0": -1e308, "t1": 1e308, "steps": 3}}),
        "grid_points": config(grid={"theta_steps": 10**6, "phi_steps": 10**6}),
        "time_steps": config(grid={"time": {"t0": 0.0, "t1": 1.0, "steps": 10**12}}),
    }


OVERFLOW_CONFIGS = overflow_configs()


@pytest.mark.parametrize("name", sorted(OVERFLOW_CONFIGS))
def test_overflowing_config_exits_two_with_one_line(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(OVERFLOW_CONFIGS[name]))
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid config: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not path.with_name(f"{name}.record.json").exists()


def test_undecodable_config_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: not valid JSON")
    assert err.count("\n") == 1


def test_integer_literal_too_long_to_parse_exits_two(tmp_path, capsys):
    path = tmp_path / "digits.json"
    text = json.dumps(OVERFLOW_CONFIGS["coupling_int"]).replace(str(HUGE), "7" * 5000)
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: not valid JSON")
    assert err.count("\n") == 1


class TestVerifyCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out
        assert "FAIL" not in out

    def test_seed_option_accepted(self):
        assert main(["verify", "--seed", "5"]) == EXIT_OK

    def test_negative_control_fails(self, capsys):
        assert main(["verify", "--negative-control"]) == EXIT_CHECK_FAILURE
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "propagator_unitarity" in out


class TestExportCommand:
    def test_csv_from_record(self, config_file, tmp_path, capsys):
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        out = tmp_path / "data.csv"
        assert (
            main(["export", str(record), "--format", "csv", "--out", str(out)])
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("theta,phi,")
        assert len(lines) == 1 + 5 * 4

    def test_json_reexport_round_trips(self, config_file, tmp_path):
        record = tmp_path / "r.json"
        main(["run", str(config_file), "--out", str(record)])
        out = tmp_path / "copy.json"
        assert (
            main(["export", str(record), "--format", "json", "--out", str(out)])
            == EXIT_OK
        )
        assert record.read_bytes() == out.read_bytes()

    def test_missing_record_is_io_error(self, tmp_path):
        assert (
            main(["export", str(tmp_path / "nope.json"), "--format", "csv", "--out", "x"])
            == EXIT_IO_ERROR
        )

    def test_corrupt_record_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        out = tmp_path / "never.csv"
        assert (
            main(["export", str(bad), "--format", "csv", "--out", str(out)])
            == EXIT_CONFIG_ERROR
        )

    def test_row_without_concurrence_is_config_error(self, config_file, tmp_path, capsys):
        record = tmp_path / "r.json"
        main(["run", str(config_file), "--out", str(record)])
        body = json.loads(record.read_text())
        del body["results"]["evolved_states"][0]["concurrence"]
        record.write_text(json.dumps(body))
        out = tmp_path / "never.csv"
        assert (
            main(["export", str(record), "--format", "csv", "--out", str(out)])
            == EXIT_CONFIG_ERROR
        )
        assert "evolved_states[0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b'{"schema_version": ' + b"9" * 5000 + b"}"]
    )
    def test_unparsable_record_is_config_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "never.csv"
        assert (
            main(["export", str(bad), "--format", "csv", "--out", str(out)])
            == EXIT_CONFIG_ERROR
        )
        assert capsys.readouterr().err.startswith("error: record is not valid JSON")
        assert not out.exists()

    def test_unwritable_target_is_io_error(self, config_file, tmp_path):
        record = tmp_path / "r.json"
        main(["run", str(config_file), "--out", str(record)])
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert (
            main(["export", str(record), "--format", "csv", "--out", str(target)])
            == EXIT_IO_ERROR
        )


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["export", "only-a-record"])
    assert excinfo.value.code == 2


class TestRuntimeWithoutJsonschema:
    """jsonschema is a test-only dependency: the CLI must import and run
    where it is not installed."""

    REPO = Path(__file__).resolve().parent.parent

    def run_python(self, code, cwd):
        env = {**os.environ, "PYTHONPATH": str(self.REPO / "src")}
        return subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
        )

    def test_import_leaves_jsonschema_unloaded(self, tmp_path):
        code = (
            "import sys, spin_torus.cli\n"
            "loaded = {'jsonschema', 'referencing', 'attrs', 'rpds'} & set(sys.modules)\n"
            "sys.exit(sorted(loaded) or 0)\n"
        )
        result = self.run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr

    def test_readme_demo_runs_exports_and_verifies(self, tmp_path):
        readme = (self.REPO / "README.md").read_text(encoding="utf-8")
        demo = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        (tmp_path / "demo.json").write_text(demo)
        code = (
            "import sys\n"
            "sys.modules['jsonschema'] = None  # any import of it now fails\n"
            "from spin_torus.cli import main\n"
            "for argv in (['run', 'demo.json'],\n"
            "             ['export', 'demo.record.json', '--format', 'csv', '--out', 'demo.csv'],\n"
            "             ['verify', '--seed', '0']):\n"
            "    code = main(argv)\n"
            "    if code:\n"
            "        sys.exit(f'{argv[0]} exited {code}')\n"
        )
        result = self.run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "demo.csv").read_text().startswith("theta,phi,")
        assert "all 27 checks passed" in result.stdout
