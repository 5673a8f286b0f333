"""Each input limit is one fact, decided where input enters: the gamma rule
of ``qstate.check_gamma`` at every entry point that takes a gamma, the
spectrum bound of ``SystemParams`` at every function that takes one, and
``MAX_NESTING`` for every config and record document."""

import ast
import dataclasses
import enum
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_torus
from spin_torus import (
    SystemParams,
    TorusPoint,
    build_h_int,
    build_h_mf,
    build_hamiltonian,
    classify,
    config_from_dict,
    constant_entanglement_circle,
    diagonalize_check,
    eigensystem,
    evolve_family,
    fs_distance_sq,
    max_entanglement_time,
    metric_analytic,
    metric_numeric,
    plus_minus_state,
    plus_plus_state,
    propagator_analytic,
    propagator_factored,
    propagator_spectral,
    random_state,
    up_down,
)
from spin_torus.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from spin_torus.entanglement import ConcurrenceRangeError
from spin_torus.qstate import MAX_GAMMA, basis_state
from spin_torus.scenario import (
    MAX_NESTING,
    ConfigInvalid,
    ScenarioConfig,
    TimeGrid,
    record_from_dict,
    run_scenario,
)

from reference import record_to_dict

SOURCES = sorted(Path(spin_torus.__file__).parent.glob("*.py"))


def base_config():
    return {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 3, "phi_steps": 3},
        "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
    }


# --- gamma -------------------------------------------------------------------

PROBE = TorusPoint(0.3, 1.1)

#: How to call each entry point that takes a gamma, on one state.
CALLERS = {
    "SystemParams": lambda state, gamma: SystemParams(1.0, 0.5, gamma),
    "ScenarioConfig.with_gamma": lambda state, gamma: config_from_dict(base_config()).with_gamma(
        gamma
    ),
    "classify": lambda state, gamma: classify(state, gamma),
    "constant_entanglement_circle": lambda state, gamma: constant_entanglement_circle(
        state, 0.4, gamma
    ),
    "diagonalize_check": lambda state, gamma: diagonalize_check(state, gamma),
    "fs_distance_sq": lambda state, gamma: fs_distance_sq(
        state, evolve_family(state, PROBE), gamma
    ),
    "metric_analytic": lambda state, gamma: metric_analytic(state, gamma),
    "metric_numeric": lambda state, gamma: metric_numeric(state, PROBE, gamma),
}

BAD_GAMMAS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0.0,
    "negative": -1.0,
    "above_max": math.nextafter(MAX_GAMMA, math.inf),
}

STATES = [
    *(random_state(np.random.default_rng(seed)) for seed in range(50)),
    basis_state(0),
    up_down(),
    plus_plus_state(0.01),
]


def finite_leaves(value):
    """Every number in a result, descending into dataclasses and tuples."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(finite_leaves(item) for item in value)
    if value is None or isinstance(value, (bool, str, enum.Enum)):
        return True
    return math.isfinite(value)


def test_every_entry_point_that_takes_gamma_is_called():
    """A new public callable with a gamma parameter must join CALLERS, so
    no entry point can skip the rule."""
    takes_gamma = set()
    for name in spin_torus.__all__:
        value = getattr(spin_torus, name)
        if callable(value) and "gamma" in inspect.signature(value).parameters:
            takes_gamma.add(name)
    assert takes_gamma | {"ScenarioConfig.with_gamma"} == set(CALLERS)


@pytest.mark.parametrize("entry", sorted(CALLERS))
@pytest.mark.parametrize("bad", sorted(BAD_GAMMAS))
def test_bad_gamma_raises_the_one_error(entry, bad):
    message = r"^gamma must be finite and in \(0, 1e\+150\]$"
    with pytest.raises(ValueError, match=message):
        CALLERS[entry](STATES[0], BAD_GAMMAS[bad])


@pytest.mark.parametrize("entry", sorted(CALLERS))
@pytest.mark.parametrize("gamma", [1e-300, 1.0, MAX_GAMMA])
def test_gamma_in_range_gives_finite_results(entry, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in STATES:
            assert finite_leaves(CALLERS[entry](state, gamma))


def test_tiny_gamma_underflows_the_numeric_metric_to_zero():
    metric = metric_numeric(STATES[0], PROBE, 1e-300)
    assert (metric.g_theta_theta, metric.g_theta_phi, metric.g_phi_phi) == (0.0, 0.0, 0.0)
    assert metric.shear is None


def test_no_gamma_comparison_outside_the_rule():
    """Only ``check_gamma`` orders gamma against a bound."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = [node for node in ast.walk(tree) if getattr(node, "name", None) == "check_gamma"]
        inside = {id(node) for function in rule for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in inside:
                names = {
                    getattr(operand, "id", getattr(operand, "attr", None))
                    for operand in (node.left, *node.comparators)
                }
                if "gamma" in names and any(isinstance(op, ordering) for op in node.ops):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def write_config(tmp_path, **params):
    body = base_config()
    body["params"].update(params)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(body))
    return path


def assert_one_error_line(capsys, tmp_path, config, start="error: "):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start)
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [config]
    return captured.err


def test_config_gamma_above_the_bound_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, gamma=1e200)
    assert main(["run", str(config)]) == EXIT_CONFIG_ERROR
    err = assert_one_error_line(capsys, tmp_path, config)
    assert err.startswith("error: invalid config: params.gamma: gamma must be finite and in ")


@pytest.mark.parametrize("gamma", ["1e200", "nan", "inf", "-inf", "0", "-1"])
def test_gamma_option_outside_the_rule_exits_two(tmp_path, capsys, gamma):
    config = write_config(tmp_path)
    assert main(["run", str(config), f"--gamma={gamma}"]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capsys, tmp_path, config, start="error: --gamma: ")


def test_config_gamma_zero_keeps_the_schema_message(tmp_path, capsys):
    config = write_config(tmp_path, gamma=0)
    assert main(["run", str(config)]) == EXIT_CONFIG_ERROR
    err = assert_one_error_line(capsys, tmp_path, config)
    assert err == (
        "error: invalid config: params.gamma: 0 is less than or equal to the minimum of 0\n"
    )


@pytest.mark.parametrize("gamma", [1e-300, MAX_GAMMA])
def test_config_gamma_at_the_ends_runs(tmp_path, capsys, gamma):
    config = write_config(tmp_path, gamma=gamma)
    out = tmp_path / "record.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(config), "--out", str(out)]) == EXIT_OK
    assert "NaN" not in out.read_text() and "Infinity" not in out.read_text()


# --- the spectrum bound of SystemParams --------------------------------------

#: How to call each public function that takes a SystemParams; each returns
#: the arrays it computed.
PARAMS_CALLERS = {
    "build_h_int": lambda params: (build_h_int(params).matrix,),
    "build_h_mf": lambda params: (build_h_mf(params).matrix,),
    "build_hamiltonian": lambda params: (build_hamiltonian(params).matrix,),
    "eigensystem": lambda params: tuple(eigensystem(params)),
    "propagator_analytic": lambda params: (propagator_analytic(params, 0.7).matrix,),
    "propagator_factored": lambda params: (propagator_factored(params, 0.7).matrix,),
    "propagator_spectral": lambda params: (propagator_spectral(params, 0.7).matrix,),
    "max_entanglement_time": lambda params: tuple(
        max_entanglement_time(plus_minus_state(0.7, 0.2), params)
    ),
    "run_scenario": lambda params: tuple(
        run_scenario(
            ScenarioConfig(
                initial=config_from_dict(base_config()).initial,
                params=params,
                grid=TimeGrid(t0=0.0, t1=1e-300, steps=3),
                outputs=("metric", "concurrence_profile", "evolved_states"),
            )
        ).results["evolved_states"]
    ),
}

#: Magnitudes at and past the spectrum bound's overflow, and down to the
#: smallest subnormal.
EXTREMES = [1e308, -1e308, 8.99e307, 1e200, 1e16, 5e-324, -0.0, 1e-300]

#: The errors a package function raises for inputs outside its domain.
PACKAGE_ERRORS = (ValueError, ConcurrenceRangeError)


def test_every_function_that_takes_system_params_is_called():
    """A new public callable with a SystemParams parameter must join
    PARAMS_CALLERS, so none can skip the spectrum bound."""
    takes_params = set()
    for name in spin_torus.__all__:
        value = getattr(spin_torus, name)
        if inspect.isfunction(value):
            annotations = [p.annotation for p in inspect.signature(value).parameters.values()]
            if "SystemParams" in annotations:
                takes_params.add(name)
    assert takes_params | {"run_scenario"} == set(PARAMS_CALLERS)


def assert_finite_or_refused(coupling, field, entry):
    """The call gives finite arrays, or SystemParams or the call raises a
    package error; a numpy warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            arrays = PARAMS_CALLERS[entry](SystemParams(coupling, field))
        except PACKAGE_ERRORS:
            return
        assert all(np.isfinite(np.asarray(array)).all() for array in arrays)


@pytest.mark.parametrize("entry", sorted(PARAMS_CALLERS))
@pytest.mark.parametrize("value", EXTREMES)
def test_extreme_params_give_finite_values_or_a_package_error(entry, value):
    """J and h_z at the edges of the float range, alone, together and with
    an ordinary partner."""
    for coupling, field in ((value, 0.5), (0.5, value), (value, value), (value, -value)):
        assert_finite_or_refused(coupling, field, entry)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100)
@given(FINITE_FLOATS, FINITE_FLOATS)
def test_any_finite_params_give_finite_values_or_a_package_error(coupling, field):
    for entry in sorted(PARAMS_CALLERS):
        assert_finite_or_refused(coupling, field, entry)


@pytest.mark.parametrize(
    "coupling, field, name",
    [
        (8.99e307, 0.5, "coupling"),
        (0.5, -1e308, "field"),
        (4.5e307, -4.5e307, "coupling"),
        (10**308, -(10**308), "coupling"),
    ],
)
def test_an_overflowing_spectrum_bound_is_refused(coupling, field, name):
    with pytest.raises(ValueError, match=rf"^{name} is too large: the spectrum bound "):
        SystemParams(coupling, field)
    SystemParams(coupling / 4.0, field / 4.0)


@pytest.mark.parametrize(
    "params, where",
    [
        ({"coupling": 1e308, "field": 1e308}, "coupling"),
        ({"coupling": 8.99e307}, "coupling"),
        ({"field": -1e308}, "field"),
    ],
)
def test_config_with_an_overflowing_spectrum_exits_two(tmp_path, capsys, params, where):
    with pytest.raises(ConfigInvalid, match=rf"^params\.{where}: {where} is too large: "):
        config_from_dict({**base_config(), "params": {**base_config()["params"], **params}})
    config = write_config(tmp_path, **params)
    assert main(["run", str(config)]) == EXIT_CONFIG_ERROR
    err = assert_one_error_line(capsys, tmp_path, config)
    assert err.startswith(f"error: invalid config: params.{where}: {where} is too large: ")


# --- nesting -----------------------------------------------------------------


def nested(depth, leaf=1.0):
    """``leaf`` inside ``depth`` lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def depth_of(value):
    """How many lists and objects nest in ``value``, itself counting."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(depth_of, value), default=0)
    return 0


def deep_config(depth):
    """A config ``depth`` lists and objects deep, its outputs the deepest."""
    body = base_config()
    body["outputs"] = nested(depth - 1, "metric")
    assert depth_of(body) == depth
    return body


def deep_record(where, depth):
    """A record ``depth`` lists and objects deep, counted from its root,
    whose deepest value sits in ``where``."""
    body = record_to_dict(run_scenario(config_from_dict(base_config()), seed=1))
    if where == "results":
        body["results"]["metric"]["shear"] = nested(depth - 3)
    elif where == "provenance":
        body["provenance"]["seed"] = nested(depth - 2)
    else:
        body["config"] = deep_config(depth - 1)
    assert depth_of(body) == depth
    return body


def at_stack_depth(frames, call):
    """``call()`` from ``frames`` more frames down the stack."""
    return call() if frames == 0 else at_stack_depth(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 400])
def test_config_at_the_limit_meets_the_schema_one_more_is_refused(frames):
    with pytest.raises(ConfigInvalid, match=r"^outputs\.0: .* is not one of \["):
        at_stack_depth(frames, lambda: config_from_dict(deep_config(MAX_NESTING)))
    message = rf"^outputs(\[0\])+: nested more than {MAX_NESTING} levels deep$"
    with pytest.raises(ConfigInvalid, match=message):
        at_stack_depth(frames, lambda: config_from_dict(deep_config(MAX_NESTING + 1)))


@pytest.mark.parametrize("frames", [0, 400])
@pytest.mark.parametrize("where", ["results", "provenance"])
def test_record_at_the_limit_exports_one_more_is_refused(tmp_path, capsys, where, frames):
    path = tmp_path / "record.json"
    for depth, expected in ((MAX_NESTING, EXIT_OK), (MAX_NESTING + 1, EXIT_CONFIG_ERROR)):
        body = deep_record(where, depth)
        if expected == EXIT_OK:
            at_stack_depth(frames, lambda: record_from_dict(body))
        else:
            with pytest.raises(ConfigInvalid, match=f"nested more than {MAX_NESTING}"):
                at_stack_depth(frames, lambda: record_from_dict(body))
        path.write_text(json.dumps(body, indent=2))
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            argv = ["export", str(path), "--format", fmt, "--out", str(out)]
            assert at_stack_depth(frames, lambda: main(argv)) == expected
            captured = capsys.readouterr()
            if expected == EXIT_OK:
                assert captured.err == ""
                assert out.exists()
                if fmt == "json":
                    assert json.loads(out.read_text()) == body
            else:
                assert captured.err.startswith(f"error: invalid record: {where}.")
                assert captured.err.count("\n") == 1
                assert not out.exists()
        for written in tmp_path.iterdir():
            if written != path:
                written.unlink()


@pytest.mark.parametrize("frames", [0, 400])
@pytest.mark.parametrize("empty", [[], {}], ids=["list", "object"])
def test_an_empty_container_one_level_past_the_limit_is_refused(frames, empty):
    """An empty list or object counts as a level: at the limit it passes
    the nesting check, one level past it is refused with its path."""
    config = deep_config(MAX_NESTING)
    config["outputs"] = nested(MAX_NESTING - 2, empty)
    with pytest.raises(ConfigInvalid, match=r"^outputs\.0: .* is not one of \["):
        at_stack_depth(frames, lambda: config_from_dict(config))
    config["outputs"] = nested(MAX_NESTING - 1, empty)
    message = f"outputs{'[0]' * (MAX_NESTING - 1)}: nested more than {MAX_NESTING} levels deep"
    with pytest.raises(ConfigInvalid) as refused:
        at_stack_depth(frames, lambda: config_from_dict(config))
    assert str(refused.value) == message

    record = deep_record("results", MAX_NESTING)
    record["results"]["metric"]["shear"] = nested(MAX_NESTING - 4, empty)
    at_stack_depth(frames, lambda: record_from_dict(record))
    record["results"]["metric"]["shear"] = nested(MAX_NESTING - 3, empty)
    where = f"results.metric.shear{'[0]' * (MAX_NESTING - 3)}"
    with pytest.raises(ConfigInvalid) as refused:
        at_stack_depth(frames, lambda: record_from_dict(record))
    assert str(refused.value) == f"{where}: nested more than {MAX_NESTING} levels deep"


@pytest.mark.parametrize("frames", [0, 400])
def test_record_config_at_the_limit_meets_the_schema(tmp_path, capsys, frames):
    """A record's config counts its depth from its own root, as a config does."""
    path = tmp_path / "record.json"
    kinds = ["metric", "classify", "concurrence_profile", "evolved_states"]
    for depth, message in (
        (MAX_NESTING, f"is not one of {kinds!r}"),
        (MAX_NESTING + 1, f"nested more than {MAX_NESTING} levels deep"),
    ):
        path.write_text(json.dumps(deep_record("config", depth + 1)))
        argv = ["export", str(path), "--format", "json", "--out", str(tmp_path / "out.json")]
        assert at_stack_depth(frames, lambda: main(argv)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: invalid record: outputs")
        assert err.endswith(f"{message}\n") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [path]


def test_only_json_parse_errors_meet_the_recursion_limit():
    """The package decides nesting itself; the one RecursionError it maps
    is json's own, while parsing, in config_from_json and in export, where
    read_record also meets it around the rows and reads the text whole, as
    it does when _range_rows meets it in a range."""
    handlers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and "RecursionError" in ast.unparse(node.type):
                handlers.append((path.stem, ast.unparse(node.type)))
    assert sorted(handlers) == [
        ("cli", "(ValueError, RecursionError)"),
        ("scenario", "(ValueError, RecursionError)"),
        ("scenario", "(ValueError, RecursionError)"),
        ("scenario", "(ValueError, RecursionError)"),
    ]
