import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spin_torus import scenario
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

    def test_overflowing_amplitude_norm_prints_one_line(self, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text(
            json.dumps(
                {
                    "initial": {"amplitudes": [[1e308, 1e308], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                    "params": {"coupling": 1.0, "field": 0.5},
                    "grid": {"theta_steps": 3, "phi_steps": 3},
                    "outputs": ["metric"],
                }
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(config)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: invalid config: initial.amplitudes: |amplitudes|^2 sums to inf, "
        )
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [config]

    def test_degenerate_outputs_warn_and_exit_zero(self, tmp_path, capsys):
        """A near-polarized state, |b|^2 = |c|^2 = 4e-13 with b = -c, whose
        metric and classify blocks are warnings: one line for each, then
        the record's path."""
        eps, config, out = 4e-13, tmp_path / "polar.json", tmp_path / "polar.record.json"
        root = math.sqrt(eps)
        config.write_text(
            json.dumps(
                {
                    "initial": {"amplitudes": [[math.sqrt(1 - 2 * eps), 0.0], [root, 0.0],
                                               [-root, 0.0], [0.0, 0.0]]},
                    "params": {"coupling": 1.0, "field": 0.5},
                    "grid": {"theta_steps": 3, "phi_steps": 3},
                    "outputs": ["metric", "classify"],
                }
            )
        )
        assert main(["run", str(config), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "warning: output 'metric' degenerate -- see record annotation\n"
            "warning: output 'classify' degenerate -- see record annotation\n"
            f"wrote {out}\n"
        )

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


def large_configs():
    """Configs whose schema errors quote a value of about a megabyte."""
    base = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 3, "phi_steps": 3},
        "outputs": ["metric"],
    }
    extras = {f"key{i}": 0 for i in range(100_000)}
    return {
        "repeated_output": {**base, "outputs": ["metric"] * 100_000},
        "extra_keys": {**base, **extras},
        "mixed_initial": {**base, "initial": {"amplitudes": [[1, 0]] * 4, "product_state": extras}},
    }


@pytest.mark.parametrize("name, data", sorted(large_configs().items()))
def test_large_config_error_is_one_short_line(tmp_path, capsys, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid config: ")
    assert captured.err.count("\n") == 1
    assert "…" in captured.err
    assert len(captured.err) < 500
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


#: JSON nested far deeper than the interpreter's recursion limit.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def deep_outputs_config():
    """A config valid but for its outputs, two lists nested 950 deep."""
    nest = "[" * 950 + "1" + "]" * 950
    body = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 3, "phi_steps": 3},
        "outputs": None,
    }
    return json.dumps(body).replace("null", f"[{nest}, {nest}]")


@pytest.mark.parametrize(
    "command, text",
    [("run", DEEP_ARRAY), ("export", DEEP_ARRAY), ("run", deep_outputs_config())],
    ids=["run_deep_array", "export_deep_array", "run_deep_outputs"],
)
def test_over_deep_json_exits_two_with_one_line(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    out = tmp_path / "out.csv"
    if command == "run":
        argv = ["run", str(path), "--out", str(out)]
    else:
        argv = ["export", str(path), "--format", "csv", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_exits_two_with_one_line(tmp_path, capsys, command):
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
                "params": {"coupling": 1.0, "field": 0.5},
                "grid": {"theta_steps": 3, "phi_steps": 3},
                "outputs": ["metric", "classify"],
            }
        )
    )
    argv = ["run", str(config)] if command == "run" else ["verify"]
    assert main([*argv, "--seed", "-1"]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative\n"
    assert sorted(tmp_path.iterdir()) == [config]


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "version", [[1, 2], "2", 2, None], ids=["list", "string_2", "int_2", "null"]
    )
    def test_schema_version_other_than_one_is_config_error(
        self, config_file, tmp_path, capsys, version, fmt
    ):
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        body = json.loads(record.read_text())
        body["schema_version"] = version
        record.write_text(json.dumps(body))
        capsys.readouterr()
        out = tmp_path / f"never.{fmt}"
        assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        assert capsys.readouterr().err == (
            "error: invalid record: schema_version: must be the string '1'\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([config_file, record])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_block_is_config_error(self, config_file, tmp_path, capsys, fmt):
        """A record without a block its config names is refused, whatever
        other blocks it holds."""
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        body = json.loads(record.read_text())
        del body["results"]["evolved_states"]
        body["results"]["bogus"] = {"x": 1.0}
        record.write_text(json.dumps(body))
        capsys.readouterr()
        out = tmp_path / f"never.{fmt}"
        assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        assert capsys.readouterr().err == (
            "error: invalid record: results: lacks 'evolved_states'\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([config_file, record])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda body: body["results"].update(notes={"x": 1.0}),
                "results: has the unknown key 'notes'",
            ),
            (
                lambda body: body["results"].update({"n" * 10**5: {}}),
                f"results: has the unknown key '{'n' * 199}…",
            ),
            (lambda body: body.update(bogus_root=1), "record: has the unknown key 'bogus_root'"),
        ],
        ids=["extra_block", "long_block_name", "root_key"],
    )
    def test_field_run_never_writes_is_config_error(
        self, config_file, tmp_path, capsys, edit, message, fmt
    ):
        """A results block that config.outputs does not name, or a root key
        other than a record's four, is refused with one line."""
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        body = json.loads(record.read_text())
        edit(body)
        record.write_text(json.dumps(body))
        capsys.readouterr()
        out = tmp_path / f"never.{fmt}"
        assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        assert capsys.readouterr().err == f"error: invalid record: {message}\n"
        assert sorted(tmp_path.iterdir()) == sorted([config_file, record])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "profile, message",
        [
            ([1, 2], "must be an object"),
            ({"c_max": 1.0}, "lacks 'samples'"),
            ("x", "must be an object"),
        ],
        ids=["list", "no_samples", "string"],
    )
    def test_profile_without_samples_is_config_error(
        self, config_file, tmp_path, capsys, profile, message, fmt
    ):
        """A profile block that is no object holding samples is refused; the
        CSV of a profile-only record must not come out as a bare header."""
        config = json.loads(config_file.read_text())
        config_file.write_text(json.dumps({**config, "outputs": ["metric", "concurrence_profile"]}))
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        body = json.loads(record.read_text())
        body["results"]["concurrence_profile"] = profile
        record.write_text(json.dumps(body))
        capsys.readouterr()
        out = tmp_path / f"never.{fmt}"
        assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        assert capsys.readouterr().err == (
            f"error: invalid record: results.concurrence_profile: {message}\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([config_file, record])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("lacking", [True, False], ids=["missing", "unknown"])
    @pytest.mark.parametrize(
        "keys, key",
        [
            ((), "provenance"),
            (("results",), "classify"),
            (("results", "metric"), "g_phi_phi"),
            (("results", "classify"), "flatness_residual"),
            (("results", "classify", "invariants"), "mismatch"),
            (("results", "classify", "metric"), "shear"),
            (("results", "concurrence_profile"), "c_max"),
            (("provenance",), "seed"),
        ],
        ids=lambda value: ".".join(value) or "record" if isinstance(value, tuple) else None,
    )
    def test_each_level_has_exactly_the_keys_run_writes(
        self, config_file, tmp_path, capsys, keys, key, lacking, fmt
    ):
        """Every object of a record holds exactly the keys run writes there:
        one it lacks or one it should not have is refused with one line
        naming the level and the key, and nothing is written."""
        config = json.loads(config_file.read_text())
        outputs = ["metric", "classify", "concurrence_profile", "evolved_states"]
        config_file.write_text(json.dumps({**config, "outputs": outputs}))
        record = tmp_path / "r.json"
        assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
        body = json.loads(record.read_text())
        level = body
        for name in keys:
            level = level[name]
        assert key in level
        if lacking:
            del level[key]
        else:
            key = "bogus"
            level[key] = 1.0
        record.write_text(json.dumps(body))
        capsys.readouterr()
        out = tmp_path / f"never.{fmt}"
        assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        problem = "lacks" if lacking else "has the unknown key"
        where = ".".join(keys) or "record"
        assert capsys.readouterr().err == f"error: invalid record: {where}: {problem} {key!r}\n"
        assert sorted(tmp_path.iterdir()) == sorted([config_file, record])

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


REPO = Path(__file__).resolve().parent.parent


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )


class TestRuntimeWithoutJsonschema:
    """jsonschema is a test-only dependency: the CLI must import and run
    where it is not installed."""

    def test_import_leaves_jsonschema_unloaded(self, tmp_path):
        code = (
            "import sys, spin_torus.cli\n"
            "loaded = {'jsonschema', 'referencing', 'attrs', 'rpds'} & set(sys.modules)\n"
            "sys.exit(sorted(loaded) or 0)\n"
        )
        result = run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr

    def test_readme_demo_runs_exports_and_verifies(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
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
        result = run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "demo.csv").read_text().startswith("theta,phi,")
        assert "all 26 checks passed" in result.stdout


def test_import_leaves_multiprocessing_unloaded(config_file, tmp_path):
    """Nothing imports multiprocessing: not importing the CLI, not a run and
    a read of a config-sized record, whose rows are one range, parsed
    in-process, and not a write and a read, at two CPUs, of a record whose
    rows are several blocks and ranges, made in forked workers."""
    long_config = json.loads(config_file.read_text())
    long_config["grid"] = {"time": {"t0": 0.0, "t1": 30.0, "steps": 2 * scenario._BLOCK_ROWS + 1}}
    (tmp_path / "long.json").write_text(json.dumps(long_config))
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import spin_torus.cli\n"
        "if 'multiprocessing' in sys.modules:\n"
        "    sys.exit('imported')\n"
        "from spin_torus import scenario\n"
        "ranges, real = [], scenario._range_rows\n"
        "scenario._range_rows = lambda *args: ranges.append(real(*args)) or ranges[-1]\n"
        f"spin_torus.cli.main(['run', {str(config_file)!r}, '--out', 'small.record.json'])\n"
        "record = scenario.read_record('small.record.json')\n"
        "if len(ranges) != 1 or len(ranges[0]) != record.results['evolved_states'].nbytes:\n"
        "    sys.exit(f'{len(ranges)} ranges')\n"
        "maps, forked_map = [], scenario._forked_map\n"
        "scenario._forked_map = lambda *args: maps.append(len(args[1])) or forked_map(*args)\n"
        "if spin_torus.cli.main(['run', 'long.json', '--out', 'long.record.json']):\n"
        "    sys.exit('run failed')\n"
        "record = scenario.read_record('long.record.json')\n"
        "if len(record.results['evolved_states']) != 2 * scenario._BLOCK_ROWS + 1:\n"
        "    sys.exit('rows lost')\n"
        "if len(maps) != 3 or min(maps) < 2 or ranges[1:]:\n"
        "    sys.exit(f'maps over {maps}, {len(ranges) - 1} ranges in-process')\n"
        "sys.exit('multiprocessing' in sys.modules)\n"
    )
    result = run_python(code, tmp_path)
    assert (result.returncode, result.stderr) == (0, "")


def test_no_command_loads_numpy_random(config_file, tmp_path):
    """classify draws its torus points and verify its batteries without
    numpy.random, so no command imports it: a run with every output, its
    export, verify and its negative control."""
    torus = json.loads(config_file.read_text())
    torus["outputs"] = ["metric", "classify", "concurrence_profile", "evolved_states"]
    timed = {**torus, "grid": {"time": {"t0": 0.0, "t1": 3.0, "steps": 40}, "field_override": 0.7}}
    (tmp_path / "torus.json").write_text(json.dumps(torus))
    (tmp_path / "timed.json").write_text(json.dumps(timed))
    code = (
        "import sys\n"
        "from spin_torus.cli import main\n"
        "for name in ('torus', 'timed'):\n"
        "    for argv in (['run', f'{name}.json', '--seed', '3'],\n"
        "                 ['export', f'{name}.record.json', '--format', 'csv',\n"
        "                  '--out', f'{name}.csv']):\n"
        "        if main(argv):\n"
        "            sys.exit(f'{argv} failed')\n"
        "if main(['verify', '--seed', '0']) or main(['verify', '--negative-control']) != 1:\n"
        "    sys.exit('verify gave the wrong verdict')\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit('a command imported numpy.random')\n"
    )
    result = run_python(code, tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    for name in ("torus", "timed"):
        record = json.loads((tmp_path / f"{name}.record.json").read_text())
        assert record["results"]["classify"]["flatness_residual"] >= 0.0
        assert (tmp_path / f"{name}.csv").read_text().startswith("theta,phi,")


NON_FINITE_PLACES = {
    "results.metric.g_phi_phi": ("results", "metric", "g_phi_phi"),
    "results.concurrence_profile.c_max": ("results", "concurrence_profile", "c_max"),
    "provenance.seed": ("provenance", "seed"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("place", sorted(NON_FINITE_PLACES))
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_record_value_exits_two_and_writes_nothing(
    config_file, tmp_path, capsys, literal, place, fmt
):
    """json reads these literals as floats that are not finite, outside the
    evolved rows and profile samples too; neither format writes them."""
    record = tmp_path / "r.json"
    assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
    body = json.loads(record.read_text())
    *parents, key = NON_FINITE_PLACES[place]
    block = body
    for name in parents:
        block = block[name]
    block[key] = "@@"
    record.write_text(json.dumps(body, indent=2).replace('"@@"', literal))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    out = tmp_path / f"never.{fmt}"
    assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid record: {place}: must be finite\n"
    assert sorted(tmp_path.iterdir()) == before


UNENCODABLE_PLACES = {
    "results.classify.kind": ("results", "classify", "kind"),
    "provenance.created_utc": ("provenance", "created_utc"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("place", sorted(UNENCODABLE_PLACES))
def test_unencodable_record_string_exits_two_and_writes_nothing(
    config_file, tmp_path, capsys, place, fmt
):
    """A lone surrogate is valid JSON but no text UTF-8 can encode, so the
    CSV sidecar could not hold it; neither format writes a record that
    holds one."""
    config = json.loads(config_file.read_text())
    config_file.write_text(json.dumps({**config, "outputs": [*config["outputs"], "classify"]}))
    record = tmp_path / "r.json"
    assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
    body = json.loads(record.read_text())
    *parents, key = UNENCODABLE_PLACES[place]
    block = body
    for name in parents:
        block = block[name]
    block[key] = "flat_\ud800torus"
    record.write_text(json.dumps(body, indent=2))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    out = tmp_path / f"never.{fmt}"
    assert main(["export", str(record), "--format", fmt, "--out", str(out)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid record: {place}: must be text that UTF-8 can encode\n"
    assert sorted(tmp_path.iterdir()) == before


def test_config_with_a_bom_runs(config_file, tmp_path):
    plain = tmp_path / "plain.record.json"
    assert main(["run", str(config_file), "--out", str(plain)]) == EXIT_OK
    config_file.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
    marked = tmp_path / "marked.record.json"
    assert main(["run", str(config_file), "--out", str(marked)]) == EXIT_OK
    assert json.loads(marked.read_text())["results"] == json.loads(plain.read_text())["results"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_record_with_a_bom_exports_as_without(config_file, tmp_path, fmt):
    record = tmp_path / "r.json"
    assert main(["run", str(config_file), "--out", str(record)]) == EXIT_OK
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + record.read_bytes())
    outputs = []
    for source in (record, marked):
        out = tmp_path / f"{source.stem}.{fmt}"
        assert main(["export", str(source), "--format", fmt, "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    if fmt == "json":
        assert outputs[0] == record.read_bytes()
