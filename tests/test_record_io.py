"""Record JSON and CSV writers against the plain json/csv reference routes,
and the checks on records read back from outside."""

import json
import math

import jsonschema
import numpy as np
import pytest

from spin_torus.manifold import TorusPoint, evolve_family
from spin_torus.scenario import (
    CSV_COLUMNS,
    SCENARIO_SCHEMA,
    ConfigInvalid,
    _format_cell,
    config_from_dict,
    export_record,
    record_from_dict,
    record_to_dict,
    record_to_json,
    run_scenario,
)

ALL_OUTPUTS = ["metric", "classify", "concurrence_profile", "evolved_states"]


def make_config(**overrides):
    data = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9, "gamma_az": 0.3}},
        "params": {"coupling": 1.0, "field": 0.5, "gamma": 1.0},
        "grid": {"theta_steps": 9, "phi_steps": 5},
        "outputs": ALL_OUTPUTS,
    }
    data.update(overrides)
    return data


def make_record(**overrides):
    return run_scenario(config_from_dict(make_config(**overrides)), seed=4)


def reference_json(record):
    return json.dumps(record_to_dict(record), sort_keys=True, indent=2) + "\n"


def reference_csv(record):
    """The CSV as a list of cells per row, each cell through _format_cell."""
    results = record.results
    rows = []
    if "evolved_states" in results:
        for row in results["evolved_states"]:
            parts = [part for pair in row["amplitudes"] for part in pair]
            rows.append([row["theta"], row["phi"], *parts, row["concurrence"]])
    elif "concurrence_profile" in results:
        initial = record.config.initial.build()
        for theta, value in results["concurrence_profile"]["samples"]:
            state = evolve_family(initial, TorusPoint(theta, 0.0))
            parts = [float(part) for z in state.vector for part in (z.real, z.imag)]
            rows.append([theta, 0.0, *parts, value])
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def written_csv(record, tmp_path):
    path = tmp_path / "out.csv"
    export_record(record, "csv", str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def dense_record():
    amplitudes = np.array([0.5 + 0.1j, 0.3 - 0.4j, 0.2 + 0.5j, -0.3 + 0.3j])
    amplitudes /= np.linalg.norm(amplitudes)
    initial = {"amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}
    return make_record(initial=initial, grid={"theta_steps": 300, "phi_steps": 300})


def degenerate_record():
    eps = 4e-13
    root = math.sqrt(eps)
    initial = {
        "amplitudes": [[math.sqrt(1 - 2 * eps), 0.0], [root, 0.0], [-root, 0.0], [0.0, 0.0]]
    }
    return make_record(initial=initial)


class TestJsonWriter:
    def test_dense_torus_record(self, dense_record):
        assert len(dense_record.results["evolved_states"]) == 300 * 300
        assert record_to_json(dense_record) == reference_json(dense_record)

    def test_dense_export_written_in_slices(self, dense_record, tmp_path):
        path = tmp_path / "record.json"
        export_record(dense_record, "json", str(path))
        text = record_to_json(dense_record)
        assert len(text) > 10 * 2**20
        assert path.read_bytes() == text.encode()

    def test_time_grid_with_field_override(self):
        grid = {"time": {"t0": -3.0, "t1": 40.0, "steps": 57}, "field_override": -2.5}
        record = make_record(grid=grid)
        assert record_to_json(record) == reference_json(record)

    def test_degenerate_shear_warning_blocks(self):
        record = degenerate_record()
        assert "warning" in record.results["metric"]
        assert "warning" in record.results["classify"]
        assert record_to_json(record) == reference_json(record)

    @pytest.mark.parametrize(
        "outputs", [["metric", "classify", "concurrence_profile"], ["metric"]]
    )
    def test_record_without_evolved_states(self, outputs):
        record = make_record(outputs=outputs)
        assert record_to_json(record) == reference_json(record)

    def test_record_read_back(self):
        loaded = record_from_dict(json.loads(record_to_json(make_record())))
        assert record_to_json(loaded) == reference_json(loaded)

    def test_empty_results(self):
        record = record_from_dict({**record_to_dict(make_record()), "results": {}})
        assert record_to_json(record) == reference_json(record)


class TestCsvWriter:
    def test_dense_evolved_rows(self, dense_record, tmp_path):
        expected = reference_csv(dense_record).encode()
        assert written_csv(dense_record, tmp_path) == expected

    def test_profile_only_route(self, tmp_path):
        record = make_record(outputs=["metric", "concurrence_profile"])
        expected = reference_csv(record).encode()
        assert expected.count(b"\n") == 1 + 9
        assert written_csv(record, tmp_path) == expected

    def test_time_grid_rows(self, tmp_path):
        grid = {"time": {"t0": 0.0, "t1": 5.0, "steps": 11}, "field_override": 1.5}
        record = make_record(grid=grid, outputs=["evolved_states"])
        assert written_csv(record, tmp_path) == reference_csv(record).encode()


def record_body(**results):
    body = json.loads(record_to_json(make_record(outputs=["evolved_states"])))
    body["results"].update(results)
    return body


def with_row_change(change):
    body = record_body()
    change(body["results"]["evolved_states"][3])
    return body


class TestRecordChecks:
    @pytest.mark.parametrize(
        "change",
        [
            lambda row: row.pop("concurrence"),
            lambda row: row.update(extra=1.0),
            lambda row: row["amplitudes"].pop(),
            lambda row: row["amplitudes"][1].append(0.0),
            lambda row: row.update(amplitudes="abcd"),
            lambda row: row.update(theta=float("nan")),
            lambda row: row.update(phi=float("inf")),
            lambda row: row["amplitudes"][2].__setitem__(0, float("-inf")),
            lambda row: row.update(concurrence=True),
            lambda row: row.update(concurrence="0.5"),
            lambda row: row.update(concurrence=None),
            lambda row: row.update(theta=10**400),
        ],
    )
    def test_malformed_row_rejected(self, change):
        with pytest.raises(ConfigInvalid, match=r"results\.evolved_states\[3\]"):
            record_from_dict(with_row_change(change))

    @pytest.mark.parametrize("block", [{"warning": "x"}, "rows", None, 3])
    def test_block_must_be_a_list(self, block):
        with pytest.raises(ConfigInvalid, match="evolved_states"):
            record_from_dict(record_body(evolved_states=block))

    def test_int_values_become_floats(self):
        def integral(row):
            row["theta"] = 0
            row["amplitudes"][0] = [1, 0]
        record = record_from_dict(with_row_change(integral))
        row = record.results["evolved_states"][3]
        assert type(row["theta"]) is float and row["theta"] == 0.0
        assert row["amplitudes"][0] == [1.0, 0.0]
        assert all(type(part) is float for pair in row["amplitudes"] for part in pair)
        assert record_to_json(record) == reference_json(record)

    def test_valid_rows_pass_unchanged(self):
        body = record_body()
        record = record_from_dict(body)
        assert record.results["evolved_states"] == body["results"]["evolved_states"]

    @pytest.mark.parametrize(
        "samples", [[[0.1, float("nan")]], [[0.1]], [[None, 0.2]], "none"]
    )
    def test_malformed_profile_samples_rejected(self, samples):
        body = record_body()
        body["results"]["concurrence_profile"] = {"samples": samples}
        with pytest.raises(ConfigInvalid, match="concurrence_profile"):
            record_from_dict(body)

    @pytest.mark.parametrize("field", ["results", "provenance"])
    def test_results_and_provenance_must_be_objects(self, field):
        body = record_body()
        body[field] = [["a", 1]]
        with pytest.raises(ConfigInvalid, match="objects"):
            record_from_dict(body)


def reference_schema_message(data):
    """The message config_from_dict gave when it called jsonschema.validate."""
    try:
        jsonschema.validate(instance=data, schema=SCENARIO_SCHEMA)
    except jsonschema.ValidationError as error:
        path = ".".join(str(part) for part in error.absolute_path) or "<root>"
        return f"{path}: {error.message}"
    return None


def invalid_configs():
    yield make_config(bogus=1)
    yield make_config(outputs=[])
    yield make_config(outputs=["metric", "metric"])
    yield make_config(outputs=["curvature"])
    yield make_config(grid={"theta_steps": 1, "phi_steps": 5})
    yield make_config(grid={"theta_steps": "nine", "phi_steps": 5})
    yield make_config(grid={"theta_steps": 4, "time": {"t0": 0.0, "t1": 1.0, "steps": 3}})
    yield make_config(grid={"time": {"t0": 0.0, "steps": 3}})
    yield make_config(params={"coupling": 1.0, "field": 0.5, "gamma": 0.0})
    yield make_config(params={"coupling": True, "field": 0.5})
    yield make_config(initial={"product_state": {"kind": "zz", "chi": 0.1}})
    yield make_config(initial={"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    yield make_config(initial={"amplitudes": [[1.0, 0.0]] * 3 + [[0.0]]})
    yield make_config(initial={})
    data = make_config()
    del data["grid"]
    yield data
    yield []


class TestSchemaMessages:
    def test_embedded_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("data", list(invalid_configs()))
    def test_messages_unchanged(self, data):
        expected = reference_schema_message(data)
        assert expected is not None
        with pytest.raises(ConfigInvalid) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == expected
