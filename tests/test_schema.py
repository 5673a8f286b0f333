"""The in-package schema validator against jsonschema as an oracle, and the
failure boundary of config and record input under generated mutants.

Each mutant starts from a valid, runnable config and changes it the ways a
hand-edited config goes wrong: a key dropped or added, a number swapped for
a bool, string or integral float, a value pushed out of range, an output
repeated, the two branches of ``initial`` or ``grid`` mixed.  The mutations
are chosen so that a mutant the schema accepts is also sound physics, so
``config_from_dict`` must accept exactly the mutants jsonschema accepts.
"""

import copy
import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import spin_torus.scenario as scenario
from spin_torus.cli import EXIT_CONFIG_ERROR, EXIT_IO_ERROR, EXIT_OK, main
from spin_torus.scenario import (
    SCENARIO_SCHEMA,
    ConfigInvalid,
    config_from_dict,
    record_from_dict,
    run_scenario,
)

from reference import record_to_dict

SHIPPED_SCHEMA = Path(scenario.__file__).with_name("scenario.schema.json")
#: The output blocks a config may ask for, as the schema lists them.
OUTPUT_KINDS = tuple(SCENARIO_SCHEMA["properties"]["outputs"]["items"]["enum"])

#: Keys a mutation may add; none is an optional property where the mutant
#: would then pass the schema but fail a semantic check.
ADDED_KEYS = ["bogus", "J", "amplitudes", "product_state", "theta_steps",
              "phi_steps", "time", "field_override", "kind", "steps"]
#: Values that match no number, integer or enum slot of the schema.
NON_NUMBERS = [None, True, False, "x", "", [], {}, [[1]], {"kind": "zz"}]
RANGED_KEYS = {"gamma", "theta_steps", "phi_steps", "steps"}


def oracle_message(data, schema=SCENARIO_SCHEMA):
    """jsonschema's message, with the value it quotes cut as the package
    cuts it: the repr of the failing value that opens the message, or the
    list of unexpected properties."""
    error = best_match(Draft202012Validator(schema).iter_errors(data))
    if error is None:
        return None
    message, quoted = error.message, repr(error.instance)
    extras = re.fullmatch(
        r"(Additional properties are not allowed \()(.*)( were? unexpected\))", message, re.S
    )
    if message.startswith(quoted):
        message = scenario._cut(quoted) + message[len(quoted):]
    elif extras:
        message = extras[1] + scenario._cut(extras[2]) + extras[3]
    return f"{'.'.join(map(str, error.absolute_path)) or '<root>'}: {message}"


small = st.floats(-3.0, 3.0, allow_nan=False) | st.integers(-3, 3)
steps = st.integers(2, 4)

initials = st.sampled_from([
    {"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0, 0], [0.0, -0.0]]},
    {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
    {"product_state": {"kind": "updown"}},
]) | st.builds(
    lambda kind, chi, extra: {"product_state": {"kind": kind, "chi": chi, **extra}},
    st.sampled_from(["pm", "pp", "mm"]),
    small,
    st.fixed_dictionaries({}, optional={"gamma_az": small}),
)
params = st.fixed_dictionaries(
    {"coupling": small, "field": small},
    optional={"gamma": st.sampled_from([0.5, 1, 2.0])},
)
grids = st.fixed_dictionaries({"theta_steps": steps, "phi_steps": steps}) | st.fixed_dictionaries(
    {"time": st.fixed_dictionaries({"t0": small, "t1": small, "steps": steps})},
    optional={"field_override": small},
)
outputs = st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1, unique=True)
valid_configs = st.fixed_dictionaries(
    {"initial": initials, "params": params, "grid": grids, "outputs": outputs}
)


def nodes(value, path=()):
    """(path, value) for ``value`` and everything inside it."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, (*path, key))


def at(data, path):
    for key in path:
        data = data[key]
    return data


def mutate(draw, data):
    """One mutation of ``data``, a config or a record, made in place."""
    places = list(nodes(data))
    dicts = [(path, node) for path, node in places if isinstance(node, dict)]
    numbers = [(path, node) for path, node in places
               if isinstance(node, (int, float)) and not isinstance(node, bool)]
    lists = [node for _, node in places if isinstance(node, list) and node]
    kind = draw(st.sampled_from(["drop", "add", "swap", "range", "replace", "list", "output", "mix"]))
    if kind == "drop" and (droppable := [(p, d) for p, d in dicts if set(d) - {"chi"}]):
        _, node = draw(st.sampled_from(droppable))
        del node[draw(st.sampled_from(sorted(set(node) - {"chi"})))]
    elif kind == "add" and dicts:
        _, node = draw(st.sampled_from(dicts))
        key = draw(st.sampled_from(ADDED_KEYS))
        node.setdefault(key, copy.deepcopy(draw(st.sampled_from(NON_NUMBERS) | steps)))
    elif kind == "swap" and numbers:
        # Several at once, so that errors at sibling paths compete.
        for path, value in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=3)):
            swaps = [True, False, str(value), None]
            if float(value).is_integer():
                swaps += [float(value), int(value)]
            at(data, path[:-1])[path[-1]] = draw(st.sampled_from(swaps))
    elif kind == "range" and (ranged := [(p, d) for p, d in dicts if set(d) & RANGED_KEYS]):
        _, node = draw(st.sampled_from(ranged))
        key = draw(st.sampled_from(sorted(set(node) & RANGED_KEYS)))
        node[key] = draw(st.sampled_from([-1, 0, 1, 0.0, 1.0, -0.5, 1e-300, 2, 2.0, 3.5]))
    elif kind == "replace" and len(places) > 1:
        path, _ = draw(st.sampled_from(places[1:]))
        at(data, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(NON_NUMBERS)))
    elif kind == "list" and lists:
        node = draw(st.sampled_from(lists))
        index = draw(st.integers(0, len(node) - 1))
        if draw(st.booleans()):
            del node[index]
        else:
            node.append(copy.deepcopy(node[index]))
    elif kind == "output" and isinstance(data.get("outputs"), list):
        pool = [*data["outputs"], 1, 1.0, True, "metric", "curvature"]
        data["outputs"].append(draw(st.sampled_from(pool)))
    elif kind == "mix" and isinstance(data.get("initial"), dict) and isinstance(data.get("grid"), dict):
        branch = draw(st.sampled_from([initials, grids]))
        data[draw(st.sampled_from(["initial", "grid"]))].update(copy.deepcopy(draw(branch)))


@st.composite
def mutants(draw, base=valid_configs):
    data = copy.deepcopy(draw(base))
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, data)
    return data


class TestShippedSchema:
    def test_is_a_valid_draft_2020_12_schema(self):
        Draft202012Validator.check_schema(json.loads(SHIPPED_SCHEMA.read_text(encoding="utf-8")))

    def test_output_kinds_are_the_schema_enum_and_the_runners(self):
        assert set(OUTPUT_KINDS) == set(scenario._RUNNERS)

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: s["properties"]["params"]["properties"]["field"].update(pattern="x"),
            lambda s: s["properties"]["grid"]["oneOf"][0].update(anyOf=[]),
            lambda s: s["properties"]["outputs"]["items"].update(type="string"),
            lambda s: s["properties"]["outputs"].update(items={"const": "metric"}),
            lambda s: s.update(additionalProperties={"type": "number"}),
        ],
    )
    def test_unknown_keywords_refused_at_load(self, change):
        schema = copy.deepcopy(SCENARIO_SCHEMA)
        change(schema)
        with pytest.raises(ValueError, match="does not know"):
            scenario._checked_schema(schema)


class TestParityWithJsonschema:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mutants())
    def test_config_from_dict_matches_oracle(self, data):
        expected = oracle_message(data)
        if expected is None:
            config_from_dict(data)
            return
        with pytest.raises(ConfigInvalid) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == expected

    @pytest.mark.parametrize(
        "data",
        [[1, True], [1, 1.0], [0, False], [[1], [True]], [[1], [1.0]], ["a", 1, "a"],
         [{"a": 1}, {"a": 1.0}], [{"a": True}, {"a": 1}], [None, None], [1, "1"]],
    )
    def test_unique_items_semantics(self, data):
        schema = {"type": "array", "uniqueItems": True}
        assert scenario._schema_error(schema, data) == oracle_message(data, schema)

    @pytest.mark.parametrize(
        "outputs",
        [[1, 1.0], [1, True], [[1], [1]], [{}, {}], [[True], [1], [True]],
         [{"a": 1}, {"a": 1.0}], [None, None], [[], []]],
    )
    def test_repeated_outputs_match_oracle(self, outputs):
        """Outputs whose items repeat, or only seem to, under the shipped
        schema, where each item also fails the enum: equal numbers of two
        types, equal lists and objects, and ``[[True], [1], [True]]``, which
        sorts so that its equal items are not neighbours."""
        data = {
            "initial": {"product_state": {"kind": "updown"}},
            "params": {"coupling": 1.0, "field": 0.5},
            "grid": {"theta_steps": 2, "phi_steps": 2},
            "outputs": outputs,
        }
        with pytest.raises(ConfigInvalid) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == oracle_message(data)

    @pytest.mark.parametrize(
        "schema, data",
        [
            # Valid under both branches, or under one.
            *[({"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 0}]}, data)
              for data in (3, 3.0, -3, 2.5, "x")],
            # Branch errors at one path, of a value that has or lacks each
            # branch's type: the one that lacks it is the more relevant.
            *[({"oneOf": [{"type": "object", "required": ["a"]}, {"type": "array", "minItems": 1}]}, data)
              for data in ({}, [], 1)],
            ({"oneOf": [{"type": "array", "minItems": 1}, {"type": "object", "required": ["a"]}]}, {}),
            # A oneOf inside a oneOf branch: context paths chain.
            ({"type": "object", "properties": {"a": {"oneOf": [
                {"type": "object", "properties": {"b": {"oneOf": [{"type": "integer"}, {"enum": [1.5]}]}}},
                {"type": "array"}]}}}, {"a": {"b": "x"}}),
            ({"type": "array", "items": {"type": "number"}}, [1, "a", True, None]),
        ],
    )
    def test_other_schemas(self, schema, data):
        assert scenario._schema_error(schema, data) == oracle_message(data, schema)

    @pytest.mark.parametrize(
        "schema, data",
        [
            ({"type": "array", "maxItems": 2}, list(range(1000))),
            ({"type": "array", "uniqueItems": True}, ["metric"] * 1000),
            ({"type": "array"}, {f"k{i}": i for i in range(1000)}),
            ({"enum": ["metric"]}, "x" * 1000),
            ({"type": "object", "additionalProperties": False}, {f"k{i}": i for i in range(1000)}),
            ({"oneOf": [{"type": "number"}, {"type": "object"}]}, list(range(1000))),
            ({"oneOf": [{"type": "array"}, {"type": "array"}]}, list(range(1000))),
            # At the cut and one past it.
            ({"type": "object"}, "x" * 198),
            ({"type": "object"}, "x" * 199),
        ],
    )
    def test_long_values_cut_as_the_oracle_is_cut(self, schema, data):
        message = scenario._schema_error(schema, data)
        assert message == oracle_message(data, schema)
        assert len(message) < 300


@functools.cache
def record_text():
    config = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 3, "phi_steps": 2},
        "outputs": list(OUTPUT_KINDS),
    }
    return json.dumps(record_to_dict(run_scenario(config_from_dict(config))))


def record_body():
    return json.loads(record_text())


class TestFailureBoundary:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(mutants(st.builds(record_body)), mutants())
    def test_record_from_dict_raises_only_config_invalid(self, record, config):
        for body in (record, {**record, "config": config}):
            try:
                record_from_dict(body)
            except ConfigInvalid:
                pass

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(mutants(), mutants(st.builds(record_body)))
    def test_cli_exit_codes(self, tmp_path_factory, config, record):
        folder = tmp_path_factory.mktemp("cli")
        config_path, record_path = folder / "config.json", folder / "record.json"
        config_path.write_text(json.dumps(config))
        code = main(["run", str(config_path), "--out", str(folder / "run.json")])
        assert code == (EXIT_OK if oracle_message(config) is None else EXIT_CONFIG_ERROR)
        record_path.write_text(json.dumps(record))
        for source in (folder / "run.json", record_path):
            for form in ("csv", "json"):
                args = ["export", str(source), "--format", form, "--out", str(folder / f"out.{form}")]
                assert main(args) in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_IO_ERROR)
