import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spin_torus.scenario
from spin_torus.entanglement import concurrence, concurrence_profile
from spin_torus.manifold import TorusPoint, classify, evolve_family, metric_analytic
from spin_torus.qstate import basis_state, plus_plus_state, random_state, random_states, up_down
from spin_torus.scenario import (
    AMPLITUDE_NORM_TOL,
    CSV_COLUMNS,
    MAX_GRID_POINTS,
    MAX_NESTING,
    SCENARIO_SCHEMA,
    ConfigInvalid,
    canonical_result_bytes,
    config_from_dict,
    config_from_json,
    export_record,
    read_record,
    record_from_dict,
    record_to_json,
    run_scenario,
)

from reference import record_to_dict

SCHEMA_FILE = Path(spin_torus.scenario.__file__).with_name("scenario.schema.json")


def base_config_dict(**overrides):
    data = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9, "gamma_az": 0.0}},
        "params": {"coupling": 1.0, "field": 0.5, "gamma": 1.0},
        "grid": {"theta_steps": 9, "phi_steps": 5},
        "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
    }
    data.update(overrides)
    return data


def point_rows(initial, points):
    """The evolved-states rows of the points (theta, phi) one point at a
    time: evolve_family, then the scalar concurrence of the state."""
    rows = []
    for theta, phi in points:
        state = evolve_family(initial, TorusPoint(theta, phi))
        parts = [part for z in state.vector.tolist() for part in (z.real, z.imag)]
        rows.append((theta, phi, *parts, concurrence(state)))
    return rows


def assert_row_array(rows, expected):
    """``rows`` is a record's float block, a read-only float64 array with a
    row per sample or point, and holds the bits of the rows ``expected``:
    11-value rows for the evolved states, (theta, C) ones for the profile."""
    expected = np.array(expected, dtype=np.float64)
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == expected.shape
    assert not rows.flags.writeable
    np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))


class TestConfigValidation:
    def test_minimal_valid(self):
        config = config_from_dict(base_config_dict())
        assert config.params.coupling == 1.0
        assert config.outputs[0] == "metric"

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigInvalid, match="bogus"):
            config_from_dict(base_config_dict(bogus=1))

    def test_unknown_nested_field_rejected(self):
        data = base_config_dict()
        data["params"]["J"] = 2.0
        with pytest.raises(ConfigInvalid):
            config_from_dict(data)

    def test_missing_section_rejected(self):
        data = base_config_dict()
        del data["grid"]
        with pytest.raises(ConfigInvalid, match="grid"):
            config_from_dict(data)

    def test_updown_takes_no_angles(self):
        data = base_config_dict(
            initial={"product_state": {"kind": "updown", "chi": 0.4}}
        )
        with pytest.raises(ConfigInvalid, match="updown"):
            config_from_dict(data)

    def test_bloch_kinds_require_chi(self):
        data = base_config_dict(initial={"product_state": {"kind": "pp"}})
        with pytest.raises(ConfigInvalid, match="chi"):
            config_from_dict(data)

    def test_amplitudes_norm_checked(self):
        data = base_config_dict(
            initial={"amplitudes": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        )
        with pytest.raises(ConfigInvalid, match="amplitudes"):
            config_from_dict(data)

    def test_slightly_off_amplitudes_renormalized(self):
        wobble = np.sqrt(0.5) * (1.0 + 0.4 * AMPLITUDE_NORM_TOL)
        data = base_config_dict(
            initial={"amplitudes": [[wobble, 0.0], [0.0, 0.0], [0.0, 0.0], [wobble, 0.0]]}
        )
        config = config_from_dict(data)
        state = config.initial.build()
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12

    def test_single_step_grid_rejected(self):
        data = base_config_dict(grid={"theta_steps": 1, "phi_steps": 5})
        with pytest.raises(ConfigInvalid, match="theta_steps"):
            config_from_dict(data)

    def test_empty_outputs_rejected(self):
        with pytest.raises(ConfigInvalid, match="outputs"):
            config_from_dict(base_config_dict(outputs=[]))

    def test_duplicate_outputs_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict(base_config_dict(outputs=["metric", "metric"]))

    def test_unknown_output_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict(base_config_dict(outputs=["curvature"]))

    def test_non_positive_gamma_rejected(self):
        data = base_config_dict()
        data["params"]["gamma"] = 0.0
        with pytest.raises(ConfigInvalid):
            config_from_dict(data)

    def test_non_finite_params_rejected(self):
        data = base_config_dict()
        data["params"]["field"] = float("inf")
        with pytest.raises(ConfigInvalid, match="params"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "grid",
        [
            {"theta_steps": 1000, "phi_steps": MAX_GRID_POINTS // 1000},
            {"time": {"t0": 0.0, "t1": 1.0, "steps": MAX_GRID_POINTS}},
        ],
    )
    def test_grid_at_the_point_cap_accepted(self, grid):
        config_from_dict(base_config_dict(grid=grid))

    @pytest.mark.parametrize(
        "grid",
        [
            {"theta_steps": 10**6, "phi_steps": 10**6},
            {"theta_steps": MAX_GRID_POINTS // 2 + 1, "phi_steps": 2},
            {"time": {"t0": 0.0, "t1": 1.0, "steps": MAX_GRID_POINTS + 1}},
        ],
    )
    def test_grid_above_the_point_cap_rejected(self, grid):
        with pytest.raises(ConfigInvalid, match="limit"):
            config_from_dict(base_config_dict(grid=grid))

    def test_time_grid_with_angles_near_float_max_runs(self):
        data = base_config_dict(grid={"time": {"t0": -2.0, "t1": 2.0, "steps": 3}})
        data["params"]["coupling"] = 2e307
        data["params"]["field"] = -2e307
        record = run_scenario(config_from_dict(data))
        assert record.results["evolved_states"][-1][0] == 2.0 * 2e307 * 2.0

    def test_mixed_grid_fields_rejected(self):
        data = base_config_dict(
            grid={"theta_steps": 4, "time": {"t0": 0.0, "t1": 1.0, "steps": 3}}
        )
        with pytest.raises(ConfigInvalid):
            config_from_dict(data)

    def test_time_grid_accepted(self):
        data = base_config_dict(
            grid={"time": {"t0": 0.0, "t1": 2.0, "steps": 6}, "field_override": 0.0}
        )
        config = config_from_dict(data)
        assert config.grid.field_override == 0.0

    def test_malformed_json_text(self):
        with pytest.raises(ConfigInvalid, match="JSON"):
            config_from_json("{not json")

    def test_over_deep_json_text(self):
        with pytest.raises(ConfigInvalid, match="^not valid JSON: maximum recursion depth"):
            config_from_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("field", ["outputs", "params", "grid"])
    def test_over_deep_document(self, field):
        deep = []
        for _ in range(5000):
            deep = [deep]
        message = rf"^{field}(\[0\])+: nested more than {MAX_NESTING} levels deep$"
        with pytest.raises(ConfigInvalid, match=message):
            config_from_dict(base_config_dict(**{field: [deep, deep]}))

    def test_error_message_carries_field_path(self):
        data = base_config_dict()
        data["grid"]["theta_steps"] = "nine"
        with pytest.raises(ConfigInvalid, match="grid"):
            config_from_dict(data)


class TestConfigRoundTrip:
    def test_product_config_round_trips(self):
        config = config_from_dict(base_config_dict())
        assert config_from_dict(config.to_jsonable()) == config

    def test_amplitude_config_round_trips(self):
        half = 0.5
        data = base_config_dict(
            initial={
                "amplitudes": [[half, 0.0], [0.0, half], [-half, 0.0], [0.0, -half]]
            }
        )
        config = config_from_dict(data)
        assert config_from_dict(config.to_jsonable()) == config

    def test_defaults_are_made_explicit(self):
        data = base_config_dict()
        del data["params"]["gamma"]
        data["initial"]["product_state"].pop("gamma_az")
        config = config_from_dict(data)
        echoed = config.to_jsonable()
        assert echoed["params"]["gamma"] == 1.0
        assert echoed["initial"]["product_state"]["gamma_az"] == 0.0

    def test_time_config_round_trips(self):
        data = base_config_dict(grid={"time": {"t0": 0.0, "t1": 1.5, "steps": 4}})
        config = config_from_dict(data)
        assert config_from_dict(config.to_jsonable()) == config


class TestRunScenario:
    def test_updown_classifies_as_unit_circle(self):
        config = config_from_dict(
            base_config_dict(
                initial={"product_state": {"kind": "updown"}},
                outputs=["classify"],
            )
        )
        record = run_scenario(config)
        block = record.results["classify"]
        assert block["kind"] == "circle"
        assert block["circle_radius"] == pytest.approx(1.0, abs=1e-12)

    def test_pm_metric_reference_values(self):
        config = config_from_dict(
            base_config_dict(
                initial={"product_state": {"kind": "pm", "chi": np.pi / 3}},
                outputs=["metric"],
            )
        )
        block = run_scenario(config).results["metric"]
        assert block["g_theta_theta"] == pytest.approx(1.0, abs=1e-12)
        assert block["g_theta_phi"] == pytest.approx(0.0, abs=1e-12)
        assert block["g_phi_phi"] == pytest.approx(0.375, abs=1e-12)

    def test_profile_grid_values(self):
        config = config_from_dict(base_config_dict(outputs=["concurrence_profile"]))
        block = run_scenario(config).results["concurrence_profile"]
        assert len(block["samples"]) == 9
        for theta, value in block["samples"]:
            assert value == pytest.approx(abs(np.sin(2 * theta)), abs=1e-12)

    def test_evolved_states_cover_grid(self):
        config = config_from_dict(base_config_dict(outputs=["evolved_states"]))
        rows = run_scenario(config).results["evolved_states"]
        thetas = np.linspace(0.0, np.pi, 9).tolist()
        phis = np.linspace(0.0, 2.0 * np.pi, 5).tolist()
        points = [(theta, phi) for theta in thetas for phi in phis]
        assert_row_array(rows, point_rows(config.initial.build(), points))

    def test_time_grid_points(self):
        config = config_from_dict(
            base_config_dict(
                grid={"time": {"t0": 0.0, "t1": 1.0, "steps": 3}},
                outputs=["evolved_states"],
            )
        )
        rows = run_scenario(config).results["evolved_states"]
        assert [row[0] for row in rows] == pytest.approx([0.0, 1.0, 2.0])
        assert [row[1] for row in rows] == pytest.approx([0.0, 0.5, 1.0])

    def test_time_grid_angles_are_the_per_point_products(self):
        """theta = 2 J t and phi = 2 h t taken on the whole time array give
        the bits of the products taken one time at a time."""
        t0, t1, steps, coupling, override = -0.3, 7.1, 999, 0.37, -1.7
        config = config_from_dict(
            base_config_dict(
                params={"coupling": coupling, "field": 0.5},
                grid={"time": {"t0": t0, "t1": t1, "steps": steps}, "field_override": override},
                outputs=["concurrence_profile", "evolved_states"],
            )
        )
        results = run_scenario(config).results
        times = np.linspace(t0, t1, steps)
        thetas = [repr(float(2.0 * coupling * t)) for t in times]
        phis = [repr(float(2.0 * override * t)) for t in times]
        rows = results["evolved_states"]
        assert list(map(repr, rows[:, 0].tolist())) == thetas
        assert list(map(repr, rows[:, 1].tolist())) == phis
        samples = results["concurrence_profile"]["samples"]
        assert list(map(repr, samples[:, 0].tolist())) == thetas
        points = zip(rows[:, 0].tolist(), rows[:, 1].tolist())
        assert_row_array(rows, point_rows(config.initial.build(), points))

    def test_output_order_respected(self):
        config = config_from_dict(
            base_config_dict(outputs=["concurrence_profile", "metric"])
        )
        record = run_scenario(config)
        assert list(record.results) == ["concurrence_profile", "metric"]

    def test_degenerate_geometry_becomes_warning(self):
        eps = 4e-13
        data = base_config_dict(
            initial={
                "amplitudes": [
                    [float(np.sqrt(1 - 2 * eps)), 0.0],
                    [float(np.sqrt(eps)), 0.0],
                    [-float(np.sqrt(eps)), 0.0],
                    [0.0, 0.0],
                ]
            },
            outputs=["metric", "classify"],
        )
        record = run_scenario(config_from_dict(data))
        assert "warning" in record.results["metric"]
        assert "warning" in record.results["classify"]

    @pytest.mark.parametrize(
        "initial",
        [
            {"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
            {"amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]},
            {"product_state": {"kind": "pp", "chi": 0.0, "gamma_az": 0.5}},
            {"product_state": {"kind": "mm", "chi": 0.0, "gamma_az": 2.0}},
        ],
    )
    def test_polarized_state_classifies_as_a_point(self, initial):
        config = config_from_dict(
            base_config_dict(initial=initial, outputs=["metric", "classify"])
        )
        for seed in range(10):
            results = run_scenario(config, seed=seed).results
            assert "warning" not in results["metric"]
            assert "warning" not in results["classify"]
            assert results["classify"]["kind"] == "point"
            assert results["classify"]["dimension"] == 0

    def test_rerun_is_byte_identical(self):
        config = config_from_dict(base_config_dict())
        first = canonical_result_bytes(run_scenario(config, seed=3))
        second = canonical_result_bytes(run_scenario(config, seed=3))
        assert first == second

    @pytest.mark.parametrize(
        "seed", [1, 7, 2**32, 2**64 + 1, 10**40, -1], ids=["1", "7", "2^32", "2^64+1", "10^40", "-1"]
    )
    def test_the_seed_is_recorded_and_changes_no_result(self, seed):
        config = config_from_dict(base_config_dict())
        record = run_scenario(config, seed=seed)
        assert record.provenance["seed"] == seed
        as_seed_0 = dataclasses.replace(record, provenance={**record.provenance, "seed": 0})
        assert canonical_result_bytes(as_seed_0) == canonical_result_bytes(run_scenario(config))

    def test_config_echo_parses_back_equal(self):
        config = config_from_dict(base_config_dict())
        record = run_scenario(config)
        echoed = record_to_dict(record)["config"]
        assert config_from_dict(echoed) == config


class TestExport:
    def make_record(self, **config_overrides):
        return run_scenario(config_from_dict(base_config_dict(**config_overrides)))

    def test_json_round_trip_is_byte_identical(self, tmp_path):
        record = self.make_record()
        out = tmp_path / "run.record.json"
        export_record(record, "json", str(out))
        parsed = record_from_dict(json.loads(out.read_text()))
        again = tmp_path / "again.json"
        export_record(parsed, "json", str(again))
        assert out.read_bytes() == again.read_bytes()

    def test_csv_layout(self, tmp_path):
        record = self.make_record(outputs=["evolved_states"])
        out = tmp_path / "run.csv"
        export_record(record, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 9 * 5
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        float(cells[0])  # every cell must parse as a number

    def test_csv_uses_lf_only(self, tmp_path):
        record = self.make_record(outputs=["evolved_states"])
        out = tmp_path / "run.csv"
        export_record(record, "csv", str(out))
        assert b"\r" not in out.read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        record = self.make_record(outputs=["evolved_states"])
        out = tmp_path / "run.csv"
        export_record(record, "csv", str(out))
        lines = out.read_text().splitlines()[1:]
        assert_row_array(
            record.results["evolved_states"], [list(map(float, line.split(","))) for line in lines]
        )

    def test_profile_only_record_still_exports_rows(self, tmp_path):
        record = self.make_record(
            initial={"product_state": {"kind": "updown"}},
            outputs=["concurrence_profile"],
        )
        out = tmp_path / "profile.csv"
        export_record(record, "csv", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9
        c_column = [float(line.split(",")[-1]) for line in lines[1:]]
        thetas = [float(line.split(",")[0]) for line in lines[1:]]
        best = int(np.argmax(c_column))
        assert thetas[best] == pytest.approx(np.pi / 4, abs=1e-12)
        assert c_column[best] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_only_record_gives_header_plus_sidecar(self, tmp_path):
        record = self.make_record(outputs=["metric", "classify"])
        out = tmp_path / "scalars.csv"
        export_record(record, "csv", str(out))
        assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]
        sidecar = tmp_path / "scalars.csv.meta.csv"
        assert sidecar.exists()
        meta = sidecar.read_text().splitlines()
        assert meta[0] == "key,value"
        keys = {line.split(",")[0] for line in meta[1:]}
        assert "metric.g_theta_theta" in keys
        assert "classify.kind" in keys

    def test_no_sidecar_without_scalar_blocks(self, tmp_path):
        record = self.make_record(outputs=["evolved_states"])
        out = tmp_path / "plain.csv"
        export_record(record, "csv", str(out))
        assert not (tmp_path / "plain.csv.meta.csv").exists()

    @pytest.mark.parametrize(
        "format, error", [("json", RecursionError), ("csv", ConfigInvalid)]
    )
    def test_results_too_deep_to_write_leave_no_file(self, tmp_path, format, error):
        """record_from_dict refuses such a record; one built by hand fails
        to write before its file opens: json's encoder overflows the stack,
        and the sidecar's flattening refuses nesting beyond MAX_NESTING."""
        deep = 1.0
        for _ in range(5000):
            deep = [deep]
        record = self.make_record(outputs=["metric", "evolved_states"])
        data = record_to_dict(record)
        data["results"]["metric"]["shear"] = deep
        with pytest.raises(ConfigInvalid, match="^results.metric.shear"):
            record_from_dict(data)
        metric = {**record.results["metric"], "shear": deep}
        record = dataclasses.replace(record, results={**record.results, "metric": metric})
        with pytest.raises(error):
            export_record(record, format, str(tmp_path / "deep.out"))
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept.out"
        kept.write_text("kept")
        with pytest.raises(error):
            export_record(record, format, str(kept))
        assert kept.read_text() == "kept"

    def test_unknown_format_rejected(self, tmp_path):
        record = self.make_record(outputs=["metric"])
        with pytest.raises(ValueError, match="format"):
            export_record(record, "yaml", str(tmp_path / "x"))


def leaves(value):
    if isinstance(value, dict):
        for child in value.values():
            yield from leaves(child)
    elif isinstance(value, (list, tuple)):
        for child in value:
            yield from leaves(child)
    else:
        yield value


@pytest.mark.parametrize(
    "initial",
    [
        {"product_state": {"kind": "updown"}},
        {"product_state": {"kind": "pp", "chi": 0.7}},
        {"product_state": {"kind": "pm", "chi": 0.9, "gamma_az": 0.3}},
        {"amplitudes": [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, -0.5]]},
    ],
)
def test_results_hold_plain_json_types_and_two_float_blocks(initial):
    """No numpy scalar reaches a record's results, whatever the state's
    classification (a circle's radius once came out of np.sqrt); the two
    arrays are the float blocks: the profile samples, with the bits of
    ``concurrence_profile``'s, and the evolved states, with the bits of the
    rows evolved one point at a time."""
    config = config_from_dict(base_config_dict(initial=initial))
    results = dict(run_scenario(config).results)
    rows = results.pop("evolved_states")
    profile = results["concurrence_profile"] = dict(results["concurrence_profile"])
    samples = profile.pop("samples")
    kinds = {type(leaf) for leaf in leaves(results)}
    assert kinds <= {float, int, bool, str, type(None)}
    thetas = np.linspace(0.0, np.pi, 9).tolist()
    phis = np.linspace(0.0, 2.0 * np.pi, 5).tolist()
    points = [(theta, phi) for theta in thetas for phi in phis]
    assert_row_array(samples, concurrence_profile(config.initial.build(), thetas).samples)
    assert_row_array(rows, point_rows(config.initial.build(), points))


def literal_metric_block(metric):
    """A result block's metric, as the field-by-field builder wrote it."""
    return {
        "g_theta_theta": metric.g_theta_theta,
        "g_theta_phi": metric.g_theta_phi,
        "g_phi_phi": metric.g_phi_phi,
        "shear": metric.shear,
        "g_theta_theta_diag": metric.g_theta_theta_diag,
        "g_phi_phi_diag": metric.g_phi_phi_diag,
    }


def literal_classify_block(report):
    """The classify result block, as the field-by-field builder wrote it."""
    return {
        "kind": report.kind.value,
        "dimension": report.dimension,
        "invariants": {
            "aligned": report.invariants.aligned,
            "mismatch": report.invariants.mismatch,
            "imbalance": report.invariants.imbalance,
        },
        "metric": literal_metric_block(report.metric),
        "circle_radius": report.circle_radius,
        "radius_phi_circle": report.radius_phi_circle,
        "radius_theta_circle": report.radius_theta_circle,
        "radius_extrapolated": report.radius_extrapolated,
        "flatness_residual": report.flatness_residual,
    }


def test_metric_and_classify_blocks_match_the_literal_builders():
    # json.dumps without sort_keys keeps key order, and writes each float's repr.
    rng = np.random.default_rng(17)
    states = [random_state(rng) for _ in range(20)]
    states += [up_down(), plus_plus_state(1.1), basis_state(0), basis_state(3), plus_plus_state(0.0)]
    config = config_from_dict(base_config_dict(params={"coupling": 1.0, "field": 0.5, "gamma": 0.7}))
    plain, runners = spin_torus.scenario._plain, spin_torus.scenario._RUNNERS
    for state in states:
        metric_block = plain(runners["metric"](state, config))
        expected = literal_metric_block(metric_analytic(state, 0.7))
        assert json.dumps(metric_block) == json.dumps(expected)
        classify_block = plain(runners["classify"](state, config))
        expected = literal_classify_block(classify(state, gamma=0.7))
        assert json.dumps(classify_block) == json.dumps(expected)


def test_config_echo_keeps_its_key_order():
    config = config_from_dict(base_config_dict())
    echoed = config.to_jsonable()
    assert list(echoed["params"].items()) == [("coupling", 1.0), ("field", 0.5), ("gamma", 1.0)]
    assert list(echoed["grid"].items()) == [("theta_steps", 9), ("phi_steps", 5)]


class TestRecordSerialization:
    def test_schema_version_present(self):
        record = run_scenario(config_from_dict(base_config_dict()))
        body = record_to_dict(record)
        assert body["schema_version"] == "1"
        assert body["provenance"]["seed"] == 0
        assert "library_version" in body["provenance"]

    def test_timestamp_excluded_from_canonical_bytes(self):
        record = run_scenario(config_from_dict(base_config_dict()))
        assert b"created_utc" not in canonical_result_bytes(record)
        assert "created_utc" in record.provenance

    def test_record_json_ends_with_newline(self):
        record = run_scenario(config_from_dict(base_config_dict()))
        assert record_to_json(record).endswith("\n")

    def test_records_compare_by_identity(self):
        """A record holds an array, whose == is elementwise: records compare
        as objects, their results through canonical_result_bytes."""
        config = config_from_dict(base_config_dict())
        first, second = run_scenario(config), run_scenario(config)
        assert first == first and first != second
        assert canonical_result_bytes(first) == canonical_result_bytes(second)

    def test_record_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigInvalid, match="^record: lacks 'config'$"):
            record_from_dict({"schema_version": "1"})


def test_shipped_schema_file_matches_embedded_schema():
    """The shipped file is the one schema: config_from_dict checks against
    the dict loaded from it, in the file's key order, which sets the order
    errors are found in."""
    on_disk = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))
    assert on_disk == SCENARIO_SCHEMA
    assert json.dumps(on_disk) == json.dumps(SCENARIO_SCHEMA)
    bogus = base_config_dict(bogus=1)
    with pytest.raises(ConfigInvalid) as excinfo:
        config_from_dict(bogus)
    assert str(excinfo.value) == spin_torus.scenario._schema_error(on_disk, bogus)


#: Prints the sha256 of the canonical bytes of Haar and pm records, on a
#: 40 x 40 torus grid and a 500-step time grid, with all four outputs.
DISPATCH_RECORDS = """\
import hashlib
import numpy as np
from spin_torus.qstate import random_states
from spin_torus.scenario import canonical_result_bytes, config_from_dict, run_scenario
haar = [{"amplitudes": [[z.real, z.imag] for z in row]}
        for row in random_states(np.random.default_rng(17), 3).tolist()]
pm = {"product_state": {"kind": "pm", "chi": 0.9, "gamma_az": 0.3}}
for initial in haar + [pm]:
    for grid in ({"theta_steps": 40, "phi_steps": 40}, {"time": {"t0": 0.0, "t1": 7.0, "steps": 500}}):
        config = config_from_dict({
            "initial": initial,
            "params": {"coupling": 1.0, "field": 0.5},
            "grid": grid,
            "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
        })
        print(hashlib.sha256(canonical_result_bytes(run_scenario(config, seed=1))).hexdigest())
"""


def test_record_bytes_do_not_rest_on_numpy_cpu_dispatch():
    """Records made with every numpy dispatch target disabled, as on a CPU
    with only numpy's baseline features, have the default path's bytes.
    The targets are numpy's own list: it refuses any other name with an
    ImportWarning, which -W error makes fatal."""
    from numpy._core import _multiarray_umath

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    baseline = {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)}
    digests = []
    for path_env in (env, baseline):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", DISPATCH_RECORDS],
            env=path_env, capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        digests.append(result.stdout.split())
    assert len(digests[0]) == 8
    assert digests[1] == digests[0]


#: OpenBLAS kernels to force, each with the CPU flag (as /proc/cpuinfo names
#: it) that the kernel needs.
BLAS_KERNELS = {
    "SkylakeX": "avx512f",
    "Haswell": "avx2",
    "Sandybridge": "avx",
    "Nehalem": "sse4_2",
    "Prescott": "pni",
}


def test_record_bytes_do_not_rest_on_the_blas_kernel(tmp_path):
    """`spin-torus run` of a 20 x 20 config with classify writes records of
    one canonical digest under every OpenBLAS kernel this CPU can run:
    no record float comes from a BLAS call."""
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        pytest.skip("no /proc/cpuinfo to tell which BLAS kernels the CPU runs")
    kernels = [kernel for kernel, flag in BLAS_KERNELS.items() if flag in flags]
    if len(kernels) < 2:
        pytest.skip("fewer than two forceable BLAS kernels on this CPU")
    (row,) = random_states(np.random.default_rng(17), 1).tolist()
    config = tmp_path / "haar.json"
    config.write_text(json.dumps(base_config_dict(
        initial={"amplitudes": [[z.real, z.imag] for z in row]},
        grid={"theta_steps": 20, "phi_steps": 20},
        outputs=["metric", "classify", "evolved_states"],
    )))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    digests = set()
    for kernel in kernels:
        out = tmp_path / f"{kernel}.record.json"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "spin_torus.cli", "run", str(config),
             "--seed", "3", "--out", str(out)],
            env={**env, "OPENBLAS_CORETYPE": kernel}, capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        digests.add(hashlib.sha256(canonical_result_bytes(read_record(str(out)))).hexdigest())
    assert len(digests) == 1
