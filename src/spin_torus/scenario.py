"""Config-driven scenario runs and their exportable records.

A scenario names an initial state, the physical parameters, an evaluation
grid (either directly on the torus angles or along a time interval), and
which outputs to compute.  Configs are JSON with a strict schema -- unknown
fields are rejected, because a silently ignored typo in a physics config is
the most expensive kind of user error.  All angles are radians; there is no
degree mode.

Running a scenario yields a :class:`RunRecord` whose results block is a
pure function of (config, seed); the only nondeterministic field is the
creation timestamp, which is excluded from the canonical byte form used
for reproducibility comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import numbers
import os
from array import array
from collections.abc import Callable, Generator, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, NamedTuple, TextIO

import numpy as np

from . import __version__
from .entanglement import concurrence_profile, concurrence_stack
from .hamiltonian import SystemParams
from .manifold import (
    DegenerateShear,
    TorusPoint,
    classify,
    evolve_family,
    evolve_grid,
    metric_analytic,
)
from .qstate import (
    PureState2Q,
    all_finite,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    up_down,
)

SCHEMA_VERSION = "1"

#: Largest tolerated deviation of |amplitudes|^2 from one before rejection.
AMPLITUDE_NORM_TOL = 1e-9
#: Most evaluation points one config may ask for, which bounds a run's memory.
MAX_GRID_POINTS = 1_000_000
#: Most lists and objects a config or record may nest, counted from its
#: root; the records this package writes nest 6 deep.
MAX_NESTING = 32


# --- schema ------------------------------------------------------------------
#
# The config schema ships once, as package data, and a small interpreter of
# the keywords it uses checks configs against it.  Errors come out as
# jsonschema's Draft 2020-12 validator (4.26) yields them, in the schema's
# key order with its paths and wording, and one is picked as its
# ``best_match`` picks, so each message reads exactly as jsonschema's would,
# up to the cut of a long quoted value.

#: The keywords the interpreter knows; ``$schema`` and ``title`` annotate.
_SCHEMA_KEYWORDS = frozenset({
    "$schema", "title", "type", "enum", "required", "properties",
    "additionalProperties", "items", "minItems", "maxItems", "minimum",
    "exclusiveMinimum", "uniqueItems", "oneOf",
})


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_IS_TYPE = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    # A bool is no integer, an integral float such as 4.0 is one.
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool))
    or (isinstance(value, float) and value.is_integer()),
}

_TRUE, _FALSE = object(), object()


def _unbool(value: Any) -> Any:
    """True and False as tokens that equal neither 1 nor 0."""
    return _TRUE if value is True else _FALSE if value is False else value


def _equal(one: Any, two: Any) -> bool:
    """JSON equality as jsonschema has it: 1 equals 1.0 but not True, and
    containers compare item by item."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(
            key in two and _equal(value, two[key]) for key, value in one.items()
        )
    return _unbool(one) == _unbool(two)


def _unique(items: list[Any]) -> bool:
    """Whether no two items are :func:`_equal`, checked as jsonschema checks
    it: neighbours once sorted, or every pair when the items do not sort."""
    try:
        ordered = sorted(map(_unbool, items))
        return not any(map(_equal, ordered, ordered[1:]))
    except (NotImplementedError, TypeError):
        seen: list[Any] = []
        for item in map(_unbool, items):
            if any(_equal(other, item) for other in seen):
                return False
            seen.append(item)
        return True


#: Most characters of the input a schema error quotes; a longer repr is cut
#: there and ends in "…", so a message stays short however large the input.
_QUOTE_CHARS = 200


def _cut(text: str) -> str:
    return text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS] + "…"


#: Per keyword that yields at most one error: the message for ``value``
#: under the keyword's argument, or a false value if ``value`` passes.
_MESSAGES = {
    "type": lambda arg, value: not _IS_TYPE[arg](value)
    and f"{_cut(repr(value))} is not of type {arg!r}",
    "enum": lambda arg, value: not any(_equal(each, value) for each in arg)
    and f"{_cut(repr(value))} is not one of {arg!r}",
    "minItems": lambda arg, value: isinstance(value, list) and len(value) < arg
    and f"{_cut(repr(value))} " + ("should be non-empty" if arg == 1 else "is too short"),
    "maxItems": lambda arg, value: isinstance(value, list) and len(value) > arg
    and f"{_cut(repr(value))} " + ("is expected to be empty" if arg == 0 else "is too long"),
    "uniqueItems": lambda arg, value: arg and isinstance(value, list)
    and not _unique(value) and f"{_cut(repr(value))} has non-unique elements",
    "minimum": lambda arg, value: _is_number(value) and value < arg
    and f"{_cut(repr(value))} is less than the minimum of {arg!r}",
    "exclusiveMinimum": lambda arg, value: _is_number(value) and value <= arg
    and f"{_cut(repr(value))} is less than or equal to the minimum of {arg!r}",
}


class _SchemaError(NamedTuple):
    path: tuple[str | int, ...]  # from the parent error's value, else the root
    keyword: str
    message: str
    typed: bool  # whether the value has its subschema's "type"
    context: tuple[_SchemaError, ...] = ()  # a oneOf error's branch errors


def _checked_schema(schema: dict[str, Any]) -> dict[str, Any]:
    """``schema``, or ``ValueError`` if it or a subschema uses a keyword the
    interpreter does not know, an unknown type, or additionalProperties
    other than false."""
    unknown = schema.keys() - _SCHEMA_KEYWORDS
    if "type" in schema and schema["type"] not in list(_IS_TYPE):  # lists don't hash
        unknown.add(f"type {schema['type']!r}")
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties other than false")
    if unknown:
        raise ValueError(f"schema uses what the validator does not know: {sorted(unknown)}")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    if "items" in schema:
        subschemas.append(schema["items"])
    for subschema in subschemas:
        _checked_schema(subschema)
    return schema


def _schema_errors(schema: Mapping[str, Any], value: Any, path: tuple = ()) -> Iterator[_SchemaError]:
    """Every error of ``value`` under ``schema``: its keywords in order,
    descending into properties and items where the value has them."""
    typed = "type" in schema and _IS_TYPE[schema["type"]](value)
    for keyword, arg in schema.items():
        if keyword in _MESSAGES:
            message = _MESSAGES[keyword](arg, value)
            if message:
                yield _SchemaError(path, keyword, message, typed)
        elif keyword == "properties" and isinstance(value, dict):
            for key, subschema in arg.items():
                if key in value:
                    yield from _schema_errors(subschema, value[key], (*path, key))
        elif keyword == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _schema_errors(arg, item, (*path, index))
        elif keyword == "required" and isinstance(value, dict):
            for key in arg:
                if key not in value:
                    yield _SchemaError(path, keyword, f"{key!r} is a required property", typed)
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extras = sorted(value.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                names = _cut(", ".join(map(repr, extras)))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield _SchemaError(path, keyword, message, typed)
        elif keyword == "oneOf":
            # Branch errors are relative to this value, as in jsonschema.
            branch_errors = [tuple(_schema_errors(branch, value)) for branch in arg]
            valid = [branch for branch, errors in zip(arg, branch_errors) if not errors]
            if not valid:
                context = sum(branch_errors, ())
                message = f"{_cut(repr(value))} is not valid under any of the given schemas"
                yield _SchemaError(path, keyword, message, typed, context)
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                message = f"{_cut(repr(value))} is valid under each of {reprs}"
                yield _SchemaError(path, keyword, message, typed)


def _relevance(error: _SchemaError) -> tuple:
    """jsonschema's ``relevance`` key, which ranks higher: a shallower path,
    then a later one, then a keyword other than oneOf, then a value that
    does not have its subschema's type."""
    return (-len(error.path), error.path, error.keyword != "oneOf", not error.typed)


def _schema_error(schema: Mapping[str, Any], data: Any) -> str | None:
    """``"<path>: <message>"`` for the error jsonschema's ``best_match``
    picks, or None if ``data`` is valid under ``schema``.

    The most relevant error wins, the first of a tie.  A oneOf error gives
    way to the least relevant of its branch errors, the deepest, unless the
    two least relevant tie.
    """
    best = max(_schema_errors(schema, data), key=_relevance, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            break
        best = least[0]
        path += best.path
    return f"{'.'.join(map(str, path)) or '<root>'}: {best.message}"


SCENARIO_SCHEMA: dict[str, Any] = _checked_schema(
    json.loads(Path(__file__).with_name("scenario.schema.json").read_text(encoding="utf-8"))
)


class ConfigInvalid(ValueError):
    """A scenario config failed schema or semantic validation."""


@dataclass(frozen=True)
class AmplitudesInitial:
    """Initial state given directly as four complex amplitudes."""

    amplitudes: tuple[complex, complex, complex, complex]

    def build(self) -> PureState2Q:
        return PureState2Q.from_amplitudes(*self.amplitudes)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes]
        }


_PRODUCT_BUILDERS = {
    "pm": plus_minus_state,
    "pp": plus_plus_state,
    "mm": minus_minus_state,
}


@dataclass(frozen=True)
class ProductInitial:
    """Initial product state named by Bloch angles, or the bare |up down>."""

    kind: str
    chi: float | None = None
    gamma_az: float | None = None

    def build(self) -> PureState2Q:
        if self.kind == "updown":
            return up_down()
        assert self.chi is not None and self.gamma_az is not None
        return _PRODUCT_BUILDERS[self.kind](self.chi, self.gamma_az)

    def to_jsonable(self) -> dict[str, Any]:
        body: dict[str, Any] = {"kind": self.kind}
        if self.kind != "updown":
            body["chi"] = self.chi
            body["gamma_az"] = self.gamma_az
        return {"product_state": body}


@dataclass(frozen=True)
class TorusGrid:
    """Inclusive uniform grid over one theta period and one phi period."""

    theta_steps: int
    phi_steps: int

    def to_jsonable(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass(frozen=True)
class TimeGrid:
    """Inclusive uniform grid of evolution times, with an optional field
    strength override for sweeping phi at fixed coupling."""

    t0: float
    t1: float
    steps: int
    field_override: float | None = None

    def to_jsonable(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "time": {"t0": self.t0, "t1": self.t1, "steps": self.steps}
        }
        if self.field_override is not None:
            body["field_override"] = self.field_override
        return body


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, canonical form of one scenario config."""

    initial: AmplitudesInitial | ProductInitial
    params: SystemParams
    grid: TorusGrid | TimeGrid
    outputs: tuple[str, ...]

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "initial": self.initial.to_jsonable(),
            "params": dict(vars(self.params)),
            "grid": self.grid.to_jsonable(),
            "outputs": list(self.outputs),
        }

    def with_gamma(self, gamma: float) -> ScenarioConfig:
        return replace(self, params=replace(self.params, gamma=gamma))


def _finite_float(value: Any, where: str) -> float:
    """A config number as a float, or :class:`ConfigInvalid` unless finite."""
    if not all_finite(value):
        raise ConfigInvalid(f"{where}: must be finite")
    return float(value)


def _leaves(root: Any, sort: bool = False) -> Iterator[tuple[list[Any], Any]]:
    """(path, value) for each value in ``root`` that is no list or object,
    in document order or, if ``sort``, by sorted keys; the path of keys and
    indices is live.  :class:`ConfigInvalid` at a list or object more than
    ``MAX_NESTING`` deep, ``root`` counting as one.  The walk keeps its own
    stack, so how deep a document may nest does not rest on Python's."""
    def items(value: Any) -> Iterator[tuple[Any, Any]]:
        pairs = value.items() if isinstance(value, dict) else enumerate(value)
        return iter(sorted(pairs) if sort and isinstance(value, dict) else pairs)

    open_items = [items(root)] if isinstance(root, (dict, list)) else []
    path: list[Any] = []
    while open_items:
        for key, value in open_items[-1]:
            path.append(key)
            if not isinstance(value, (dict, list)):
                yield path, value
                path.pop()
            elif len(open_items) >= MAX_NESTING:
                raise ConfigInvalid(f"{_where(path)}: nested more than {MAX_NESTING} levels deep")
            else:
                open_items.append(items(value))
                break
        else:
            open_items.pop()
            del path[-1:]


def _where(path: list[Any]) -> str:
    """A path of keys and indices as ``a.b[0].c``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")


def _parse_initial(body: Mapping[str, Any]) -> AmplitudesInitial | ProductInitial:
    if "amplitudes" in body:
        pairs = [[_finite_float(x, "initial.amplitudes") for x in xs] for xs in body["amplitudes"]]
        raw = np.array([complex(re, im) for re, im in pairs])
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norm_sq = float(np.sum(np.abs(raw) ** 2))
        if abs(norm_sq - 1.0) > AMPLITUDE_NORM_TOL:
            raise ConfigInvalid(
                f"initial.amplitudes: |amplitudes|^2 sums to {norm_sq!r}, "
                f"more than {AMPLITUDE_NORM_TOL} away from 1"
            )
        if abs(norm_sq - 1.0) > 1e-12:
            raw = raw / np.sqrt(norm_sq)
        return AmplitudesInitial(amplitudes=tuple(complex(z) for z in raw))
    block = body["product_state"]
    kind = block["kind"]
    if kind == "updown":
        if "chi" in block or "gamma_az" in block:
            raise ConfigInvalid(
                "initial.product_state: kind 'updown' takes no Bloch angles; "
                "remove chi/gamma_az"
            )
        return ProductInitial(kind="updown")
    if "chi" not in block:
        raise ConfigInvalid(
            f"initial.product_state: kind {kind!r} requires chi"
        )
    chi = _finite_float(block["chi"], "initial.product_state.chi")
    gamma_az = _finite_float(block.get("gamma_az", 0.0), "initial.product_state.gamma_az")
    return ProductInitial(kind=kind, chi=chi, gamma_az=gamma_az)


def config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed JSON document and build the canonical config.

    Raises :class:`ConfigInvalid` with the offending field path for nesting
    beyond ``MAX_NESTING``, checked first, for schema violations and for the
    semantic checks the schema cannot express (amplitude normalization,
    Bloch-angle applicability, finiteness, ``qstate.check_gamma``, time grids
    whose angles overflow, grids above ``MAX_GRID_POINTS``).
    """
    for _ in _leaves(data):  # refuses nesting beyond MAX_NESTING
        pass
    message = _schema_error(SCENARIO_SCHEMA, data)
    if message is not None:
        raise ConfigInvalid(message)

    initial = _parse_initial(data["initial"])
    params_body = data["params"]
    coupling = _finite_float(params_body["coupling"], "params.coupling")
    field = _finite_float(params_body["field"], "params.field")
    gamma = _finite_float(params_body.get("gamma", 1.0), "params.gamma")
    try:
        params = SystemParams(coupling=coupling, field=field, gamma=gamma)
    except ValueError as error:  # coupling and field are finite: gamma broke its rule
        raise ConfigInvalid(f"params.gamma: {error}") from None

    grid_body = data["grid"]
    grid: TorusGrid | TimeGrid
    if "time" in grid_body:
        time_body = grid_body["time"]
        t0 = _finite_float(time_body["t0"], "grid.time.t0")
        t1 = _finite_float(time_body["t1"], "grid.time.t1")
        override = grid_body.get("field_override")
        if override is not None:
            override = _finite_float(override, "grid.field_override")
        field = params.field if override is None else override
        # Times run monotonically from t0 to t1, so each angle, and the double
        # of it that the evolution takes, is finite if the span and ends are.
        ends = [2.0 * (2.0 * rate * t) for rate in (params.coupling, field) for t in (t0, t1)]
        if not all_finite(t1 - t0, *ends):
            raise ConfigInvalid("grid.time: the angles 2 J t and 2 h_z t overflow")
        grid = TimeGrid(t0=t0, t1=t1, steps=int(time_body["steps"]), field_override=override)
        points = grid.steps
    else:
        grid = TorusGrid(
            theta_steps=int(grid_body["theta_steps"]),
            phi_steps=int(grid_body["phi_steps"]),
        )
        points = grid.theta_steps * grid.phi_steps
    if points > MAX_GRID_POINTS:
        raise ConfigInvalid(f"grid: {points} points, more than the limit {MAX_GRID_POINTS}")

    return ScenarioConfig(
        initial=initial,
        params=params,
        grid=grid,
        outputs=tuple(data["outputs"]),
    )


def config_from_json(text: str | bytes) -> ScenarioConfig:
    try:
        data = json.loads(text)
    # ValueError also covers undecodable bytes and an overlong integer, and
    # RecursionError over-deep nesting.
    except (ValueError, RecursionError) as error:
        raise ConfigInvalid(f"not valid JSON: {error}") from error
    return config_from_dict(data)  # the schema refuses a root that is no object


# --- running -----------------------------------------------------------------

CSV_COLUMNS = (
    "theta",
    "phi",
    "a_re",
    "a_im",
    "b_re",
    "b_im",
    "c_re",
    "c_im",
    "d_re",
    "d_im",
    "C",
)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Results of one scenario run plus enough context to reproduce it.

    Its float blocks are read-only float64 arrays:
    ``results["concurrence_profile"]["samples"]`` (n, 2), a (theta, C) row
    per exchange angle, 16 bytes each, and ``results["evolved_states"]``
    (n, 11), 88 bytes per grid point, a row's columns in ``CSV_COLUMNS``
    order (theta, phi, the real and imaginary parts of the four amplitudes,
    and the concurrence C).  The record's JSON writes a sample as a [theta,
    C] list and a row as an object with theta, phi, four [re, im] amplitude
    pairs and concurrence.  Records compare by identity; compare
    :func:`canonical_result_bytes` to compare results.
    """

    schema_version: str
    config: ScenarioConfig
    results: dict[str, Any]
    provenance: dict[str, Any]


def _grid_angles(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The grid's theta and phi values: the two axes of a torus grid, or
    theta = 2 J t and phi = 2 h_z t at each time of a time grid."""
    grid = config.grid
    if isinstance(grid, TorusGrid):
        thetas = np.linspace(0.0, np.pi, grid.theta_steps)
        return thetas, np.linspace(0.0, 2.0 * np.pi, grid.phi_steps)
    times = np.linspace(grid.t0, grid.t1, grid.steps)
    field = config.params.field if grid.field_override is None else grid.field_override
    return 2.0 * config.params.coupling * times, 2.0 * field * times


def _run_metric(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    return dict(vars(metric_analytic(initial, config.params.gamma)))


def _run_classify(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    # vars, not dataclasses.asdict: the fields are flat, and asdict's deep
    # copy costs ~20 times as much.
    report = classify(initial, gamma=config.params.gamma, seed=seed)
    return {
        **vars(report),
        "kind": report.kind.value,
        "invariants": dict(vars(report.invariants)),
        "metric": dict(vars(report.metric)),
    }


def _run_profile(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    return dict(vars(concurrence_profile(initial, _grid_angles(config)[0])))


def _frozen_rows(values: array, width: int) -> np.ndarray:
    """The float array ``values`` as read-only rows of ``width`` values,
    without a copy."""
    rows = np.frombuffer(values).reshape(-1, width)
    rows.setflags(write=False)
    return rows


def _run_evolved(initial: PureState2Q, config: ScenarioConfig, seed: int) -> np.ndarray:
    """One row of ``CSV_COLUMNS`` values per grid point, theta varying
    slowest on a torus grid.  Each point's angles and amplitudes come from
    :func:`evolve_family`, then the concurrence column from one
    :func:`concurrence_stack` over the amplitude columns."""
    pair = itertools.product if isinstance(config.grid, TorusGrid) else zip
    values = array("d")
    for theta, phi in pair(*(angles.tolist() for angles in _grid_angles(config))):
        values.extend((theta, phi))
        # A complex128 vector's bytes are its parts, re and im in turn.
        values.frombytes(evolve_family(initial, TorusPoint(theta, phi)).vector.tobytes())
        values.append(0.0)
    rows = np.frombuffer(values).reshape(-1, len(CSV_COLUMNS))
    rows[:, -1] = concurrence_stack(rows[:, 2:-1].view(np.complex128))
    return _frozen_rows(values, len(CSV_COLUMNS))


_RUNNERS = {
    "metric": _run_metric,
    "classify": _run_classify,
    "concurrence_profile": _run_profile,
    "evolved_states": _run_evolved,
}


def run_scenario(config: ScenarioConfig, seed: int = 0) -> RunRecord:
    """Execute the requested outputs in their declared order.

    A :class:`DegenerateShear` raised by the closed-form metric turns the
    ``metric`` or ``classify`` block into a warning annotation instead of
    failing the run.  That happens only near a fully polarized state with an
    antisymmetric admixture, where the phi direction is frozen but the
    cross term is not; a fully polarized state itself classifies as a point.
    """
    initial = config.initial.build()
    results: dict[str, Any] = {}
    for kind in config.outputs:
        try:
            results[kind] = _RUNNERS[kind](initial, config, seed)
        except DegenerateShear as error:
            results[kind] = {"warning": str(error)}
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        config=config,
        results=results,
        provenance={
            "library_version": __version__,
            "seed": seed,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
    )


# --- serialization -----------------------------------------------------------

#: Each float block of a record, in text order: its keys under results, its width.
_FLOAT_BLOCKS = ((("concurrence_profile", "samples"), 2), (("evolved_states",), len(CSV_COLUMNS)))
#: The keys of one evolved-states row in a record's JSON.
_ROW_KEYS = frozenset({"theta", "phi", "amplitudes", "concurrence"})
_FLOAT_ONLY = frozenset({float})
#: The keys at a record's root.
_RECORD_FIELDS = frozenset(field.name for field in fields(RunRecord))


def _block_holder(results: dict[str, Any], keys: tuple[str, ...]) -> dict[str, Any]:
    """The object in ``results`` that holds the float block at ``keys``,
    each object on the way copied into its parent, so a change to it
    changes no object that ``results`` shares.  :class:`ConfigInvalid` at
    one that is no object holding the next key."""
    for depth, key in enumerate(keys[:-1], 1):
        inner = results[key]
        if not isinstance(inner, Mapping) or keys[depth] not in inner:
            where = ".".join(keys[:depth])
            raise ConfigInvalid(f"results.{where}: must be an object holding {keys[depth]}")
        results[key] = dict(inner)
        results = results[key]
    return results


def _record_body(record: RunRecord) -> tuple[dict[str, Any], list[tuple[tuple[str, ...], Any]]]:
    """The record as plain JSON values with each float block as ``[]``, and
    (keys, rows) for each block it holds, in text order."""
    results = dict(record.results)
    blocks = []
    for keys, _ in _FLOAT_BLOCKS:
        if keys[0] in results:
            holder = _block_holder(results, keys)
            blocks.append((keys, holder[keys[-1]]))
            holder[keys[-1]] = []
    return {
        "schema_version": record.schema_version,
        "config": record.config.to_jsonable(),
        "results": results,
        "provenance": record.provenance,
    }, blocks


def _finite_reals(values: Sequence[Any]) -> bool:
    """Whether each value is a finite real number; a bool is not one here."""
    real = _FLOAT_ONLY.issuperset(map(type, values)) or all(
        isinstance(value, (int, float)) and not isinstance(value, bool) for value in values
    )
    return real and all_finite(*values)


def _packed_row(row: Any) -> Any:
    """``row`` as a tuple of its values in ``CSV_COLUMNS`` order if it is an
    object with exactly a row's keys and four [re, im] amplitude pairs, else
    ``row`` itself.  The values are not checked here."""
    if isinstance(row, dict) and row.keys() == _ROW_KEYS:
        pairs = row["amplitudes"]
        if isinstance(pairs, list) and len(pairs) == 4 and all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            (a_re, a_im), (b_re, b_im), (c_re, c_im), (d_re, d_im) = pairs
            return (row["theta"], row["phi"], a_re, a_im, b_re, b_im, c_re, c_im,
                    d_re, d_im, row["concurrence"])
    return row


def _packed_floats(rows: list[Any]) -> bool:
    """Whether every row is a tuple of ``CSV_COLUMNS`` floats, as
    :func:`_packed_row` packs a row of floats."""
    return (
        {tuple}.issuperset(map(type, rows))
        and {len(CSV_COLUMNS)}.issuperset(map(len, rows))
        and _FLOAT_ONLY.issuperset(map(type, itertools.chain.from_iterable(rows)))
    )


def _checked_block(block: Any, keys: tuple[str, ...], width: int) -> np.ndarray:
    """A record's float block at ``results.<keys>`` as checked rows: the
    read-only float64 (n, ``width``) array of :class:`RunRecord`.

    The block is such an array, or a list of rows: (theta, C) lists or
    tuples for the samples, and for the evolved rows objects that
    :func:`_packed_row` packs or tuples it packed.  Every value must be a
    finite real number.  These are the rows :func:`record_to_json` and the CSV writer
    format without further checks.
    """
    where = "results." + ".".join(keys)
    if isinstance(block, np.ndarray) and block.dtype == np.float64 and block.shape[1:] == (width,):
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ConfigInvalid(
                f"{where}[{finite.argmin()}]: every value must be a finite real number"
            )
        if block.flags.writeable:
            block = block.copy()
            block.setflags(write=False)
        return block
    if not isinstance(block, list):
        raise ConfigInvalid(f"{where}: must be a list of rows")
    values = array("d")
    for index, row in enumerate(block):
        row = tuple(row) if width == 2 and type(row) is list else _packed_row(row)
        if type(row) is not tuple or len(row) != width:
            if width == 2:
                raise ConfigInvalid(f"{where}[{index}]: a sample is a [theta, C] pair")
            if isinstance(row, dict) and row.keys() == _ROW_KEYS:
                raise ConfigInvalid(f"{where}[{index}].amplitudes: must be 4 [re, im] pairs")
            raise ConfigInvalid(
                f"{where}[{index}]: a row has exactly the keys "
                "amplitudes, concurrence, phi and theta"
            )
        if not _finite_reals(row):
            raise ConfigInvalid(f"{where}[{index}]: every value must be a finite real number")
        values.extend(row)  # an int becomes the float it names
    return _frozen_rows(values, width)


def record_from_dict(data: Mapping[str, Any]) -> RunRecord:
    """Rebuild a record read from outside, raising :class:`ConfigInvalid`
    for anything malformed: a root key but :class:`RunRecord`'s fields, a
    ``schema_version`` but ``SCHEMA_VERSION``, results without a block that
    ``config.outputs`` names or with one it does not name, a profile block
    that is no object holding samples, evolved rows or profile samples that
    are not finite real numbers, and in the results or the provenance any
    float that is not finite or nesting beyond ``MAX_NESTING``.  Each float
    block becomes :class:`RunRecord`'s array; it may be one already, or a
    list of rows as the record's JSON writes them, evolved rows also as
    the tuples they pack into."""
    if not isinstance(data, Mapping):
        raise ConfigInvalid("record must be a JSON object")
    try:
        if data["schema_version"] != SCHEMA_VERSION:  # no repr: the value may nest deep
            raise ConfigInvalid(f"schema_version: must be the string {SCHEMA_VERSION!r}")
        config = config_from_dict(data["config"])
        results = data["results"]
        provenance = data["provenance"]
    except KeyError as error:
        raise ConfigInvalid(f"record is missing field {error}") from error
    for key in data:
        if key not in _RECORD_FIELDS:
            raise ConfigInvalid(f"record has unknown field {_cut(repr(key))}")
    if not isinstance(results, Mapping) or not isinstance(provenance, Mapping):
        raise ConfigInvalid("record results and provenance must be JSON objects")
    results = dict(results)
    provenance = dict(provenance)
    for kind in (*config.outputs, *results):  # a lacking block is reported first
        if kind not in results:
            raise ConfigInvalid(f"results: lacks the {kind!r} block that config.outputs names")
        if kind not in config.outputs:
            raise ConfigInvalid(f"results: {_cut(repr(kind))} is not a block config.outputs names")
    for keys, width in _FLOAT_BLOCKS:
        if keys[0] in results:
            holder = _block_holder(results, keys)
            holder[keys[-1]] = _checked_block(holder[keys[-1]], keys, width)
    # The record's root, its float blocks arrays that the walk does not enter.
    for path, value in _leaves({"results": results, "provenance": provenance}):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigInvalid(f"{_where(path)}: must be finite")
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        config=config,
        results=results,
        provenance=provenance,
    )


def _block_at(text: str, keys: tuple[str, ...]) -> int:
    """Where the items of the float block at ``results.<keys>`` begin in a
    record's json text.  Each key on the way is found after a newline at
    its depth's indentation, and only json's indentation puts a raw newline
    in that text, so no key or string in the record can read as one."""
    at = 0
    for depth, key in enumerate(("results", *keys), 1):
        marker = f'\n{"  " * depth}"{key}": ' + ("[" if depth > len(keys) else "{")
        at = text.index(marker, at) + len(marker)
    return at


def _row_layout(keys: tuple[str, ...], width: int) -> tuple[str, list[int], str]:
    """One row of the float block at ``results.<keys>`` as json lays it out
    in a record (an evolved row's object, a sample's list), the columns of
    a row's values in the order they appear there, and the text between the
    last row and the list's closing bracket.  The row starts with the comma
    that separates it from the row before, then has a %r slot for each value."""
    slots = [f"@{i}@" for i in range(width)]
    row: Any = slots
    if width == len(CSV_COLUMNS):
        theta, phi, *parts, value = slots
        pairs = [parts[i : i + 2] for i in range(0, len(parts), 2)]
        row = {"theta": theta, "phi": phi, "amplitudes": pairs, "concurrence": value}
    body: Any = [row]
    for key in reversed(("results", *keys)):
        body = {key: body}
    text = json.dumps(body, sort_keys=True, indent=2)
    start, end = _block_at(text, keys), text.rindex("]")
    row_text = text[start:end].rstrip()
    close = text[start + len(row_text) : end]
    order = sorted(range(width), key=lambda i: row_text.index(f'"{slots[i]}"'))
    for slot in slots:
        row_text = row_text.replace(f'"{slot}"', "%r")
    return "," + row_text, order, close


#: Each float block's :func:`_row_layout`, by its keys.
_LAYOUTS = {keys: _row_layout(keys, width) for keys, width in _FLOAT_BLOCKS}
#: What json writes between two evolved-states rows: the comma, then the
#: next row up to its opening brace.
_ROW_SEPARATOR = _LAYOUTS[("evolved_states",)][0].partition("{")[0] + "{"
#: Characters of a record file read at a time while its rows are parsed.
_READ_CHARS = 2**16


def _streamed_body(handle: TextIO) -> Any:
    """The JSON value of a record laid out as :func:`record_to_json` lays
    it out, read from ``handle`` with only its rows' float array and one
    block of text held at a time, or None if the text is not in that layout
    or a row is not an object of floats.  A text without the rows' marker,
    read to its end in the search for it, is returned whole, a str, for
    plain json to parse, so it is read once whether or not it parses.

    The rows are parsed in blocks, each cut at the last row separator and
    parsed as a list, and each block's packed rows are added to the array;
    a block with any other row sends the record to the whole-text read,
    whose check finds the first bad row.  A raw newline in JSON is
    whitespace, so a cut never falls inside a string; one inside a row
    leaves the block's brackets unbalanced and its parse fails.  The text
    around the rows is parsed with a placeholder list in their place, once
    as [] and once as [0], and results.evolved_states must read as each:
    else the rows were not that key's one value.  Raises ``ValueError`` or ``RecursionError`` where the
    text does not decode or parse.
    """
    head = ""
    while True:
        try:
            at = _block_at(head, ("evolved_states",))
            break
        except ValueError:
            # The head doubles, so a record without the rows' marker is
            # searched in linear time.
            block = handle.read(max(_READ_CHARS, len(head)))
            if not block:
                return head
            head += block
    values = array("d")
    pending = ""
    blocks = iter(lambda: handle.read(_READ_CHARS), "")
    for block in itertools.chain([head[at:]], blocks):
        pending += block
        start = max(0, len(pending) - len(block) - len(_ROW_SEPARATOR))
        cut = pending.rfind(_ROW_SEPARATOR, start)
        if cut >= 0:
            parsed = json.loads("[" + pending[:cut] + "]", object_hook=_packed_row)
            # [] is a separator with no row before it.
            if not parsed or not _packed_floats(parsed):
                return None
            values.extend(itertools.chain.from_iterable(parsed))
            pending = pending[cut + 1 :]
    last, end = json.JSONDecoder(object_hook=_packed_row).raw_decode("[" + pending)
    if not _packed_floats(last):
        return None
    values.extend(itertools.chain.from_iterable(last))
    head, tail = head[:at], pending[end - 1 :]
    for inner, placeholder in (("", []), ("0", [0])):
        data = json.loads(f"{head}{inner}]{tail}")
        results = data.get("results") if isinstance(data, dict) else None
        if not isinstance(results, dict) or results.get("evolved_states") != placeholder:
            return None
    results["evolved_states"] = _frozen_rows(values, len(CSV_COLUMNS))
    return data


def read_record(path: str) -> RunRecord:
    """Read a record file and check it as :func:`record_from_dict` does.

    The text is UTF-8, after a BOM if one leads it.  A record in the layout
    :func:`record_to_json` writes is read from a file in blocks: each
    evolved row is packed by :func:`_packed_row` as json's scanner finishes
    it and its block goes into one float array, so neither the whole text
    nor a tree of row objects is ever held; a text without evolved rows is
    read once, whole, and parsed once, even where the parse fails.  Any
    other text, one with rows that fails to decode or parse, or one read
    from a pipe, is read whole and parsed by plain json, so it reads and
    fails exactly as plain json reads it.

    Raises ``OSError`` if the file cannot be read, ``ValueError`` or
    ``RecursionError`` if its text is not JSON, and :class:`ConfigInvalid`
    if the record is malformed.
    """
    with Path(path).open(encoding="utf-8-sig") as handle:
        data = None
        if handle.seekable():  # else a pipe, which can be read only once
            try:
                data = _streamed_body(handle)
            # Undecodable text or json's own parse error: the whole-text
            # parse below raises it again, at the positions of the whole text.
            except (ValueError, RecursionError):
                pass
            handle.seek(0)
        if data is None:
            data = handle.read()
    return record_from_dict(json.loads(data) if isinstance(data, str) else data)


def _record_pieces(record: RunRecord) -> Generator[str, None, None]:
    """The text of :func:`record_to_json` in pieces: json's text around the
    float blocks, and one piece per ``_BLOCK_ROWS`` rows of each.

    json lays out the record with each float block replaced by an empty
    list, and the blocks' rows are spliced into those lists from
    ``_LAYOUTS``.  json drops to its pure-Python encoder whenever ``indent``
    is set, which takes seconds over a dense grid's rows; the templates
    write the same text, because the blocks hold only finite floats
    (:func:`run_scenario` makes them so and :func:`record_from_dict` checks
    it), and json writes a finite float as its repr.
    """
    body, blocks = _record_body(record)
    text = json.dumps(body, sort_keys=True, indent=2)
    done = 0
    for keys, rows in blocks:
        if len(rows):
            row_json, columns, close = _LAYOUTS[keys]
            at = _block_at(text, keys)
            yield text[done:at]

            def block_text(block: slice) -> str:
                filled = _filled(row_json, rows[block, columns])
                return filled[1:] if block.start == 0 else filled  # no comma before the first row

            yield from _block_texts(block_text, len(rows))
            yield close
            done = at
    yield text[done:] + "\n"


def record_to_json(record: RunRecord) -> str:
    """Serialize with sorted keys and shortest round-trip float format, so
    equal records produce identical bytes.

    The text is json's ``sort_keys=True, indent=2`` layout of the record,
    plus a final newline, each evolved row an object with theta, phi, four
    [re, im] amplitude pairs and concurrence.  It is joined from the pieces
    that :func:`export_record` writes, so a float block past ``_BLOCK_ROWS``
    rows is formatted in forked workers here too, to the same text.
    """
    return "".join(_record_pieces(record))


def canonical_result_bytes(record: RunRecord) -> bytes:
    """Byte form used for determinism comparisons: everything except the
    creation timestamp, which is honest provenance but not a result.  The
    compact JSON of the record with its float blocks as ``[]``, then per
    block in text order its row count, 8 bytes, and its float64 bits, all
    little-endian, in one copy.  A finite float's repr and its bits
    determine each other, and the counts say where each block ends, so the
    bytes are equal exactly when the JSON is; no row becomes an object."""
    body, blocks = _record_body(record)
    body["provenance"] = {k: v for k, v in record.provenance.items() if k != "created_utc"}
    pieces = [json.dumps(body, sort_keys=True, separators=(",", ":")).encode()]
    for _, rows in blocks:
        pieces += [len(rows).to_bytes(8, "little"), np.ascontiguousarray(rows, dtype="<f8")]
    return b"".join(pieces)


# --- export ------------------------------------------------------------------

#: One CSV row, a %r slot per column.
_CSV_ROW = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
#: Rows of a float block formatted as one piece of text, so no copy of a
#: whole dense record, joined or encoded, is ever held at once.
_BLOCK_ROWS = 4096


def _filled(template: str, rows: np.ndarray) -> str:
    """``template`` once per row, filled with the rows' values as Python
    floats: the %r of numpy's scalars is no float repr."""
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def _block_texts(block_text: Callable[[slice], str], rows: int) -> Iterator[str]:
    """``block_text`` of each slice of ``_BLOCK_ROWS`` of ``rows`` rows, in
    order, made past one block by forked workers, one per CPU: worker k makes
    blocks k, k + W, ... of the rows it inherited and sends each as UTF-8 over
    its own pipe, whose backpressure bounds what the parent holds.  They are
    made in-process, to the same text, with one CPU, in a daemonic process
    (which may start none) or without Linux's ``sched_getaffinity``.  Raises
    ``OSError`` if a worker ends before it has sent its blocks."""
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, rows, _BLOCK_ROWS)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(blocks))
    if workers > 1:
        import multiprocessing  # here, so that importing the package imports none of it
        workers = 1 if multiprocessing.current_process().daemon else workers
    if workers < 2:
        yield from map(block_text, blocks)
        return

    def work(mine: list[slice], sender: Any) -> None:
        try:
            for block in mine:
                sender.send_bytes(block_text(block).encode())
        finally:
            # Silent, and flushing no copy of the parent's buffers, on any exit
            # (multiprocessing flushes stdout and stderr before it forks).
            os._exit(0)

    # fork, not spawn: a worker reads the rows it inherits, so none is pickled.
    context = multiprocessing.get_context("fork")
    running = []
    try:
        for k in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=work, args=(blocks[k::workers], sender), daemon=True)
            process.start()
            running.append((process, receiver))
            sender.close()  # so the worker's end is the receiver's end of file
        for i in range(len(blocks)):
            yield running[i % workers][1].recv_bytes().decode()
    except EOFError:
        raise OSError("a worker formatting rows ended before it sent them all") from None
    finally:
        for process, receiver in running:
            process.terminate()  # one the consumer left blocked on a full pipe
            process.join()
            receiver.close()


def _write_pieces(pieces: Generator[str, None, None], path: str) -> None:
    """Write the pieces to ``path`` as UTF-8 with LF line endings, each as it
    comes, and close them on every exit, which ends any worker making them.
    The first piece is made before the file opens, so an error in making it
    (json's RecursionError on a hand-built record too deep) leaves no file."""
    with contextlib.closing(pieces):
        first = next(pieces, "")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(first)
            handle.writelines(pieces)


def _csv_lines(record: RunRecord) -> Generator[str, None, None]:
    """Header plus one row per grid point: angles, amplitudes, concurrence.

    Prefers the evolved-states block; a record holding only a concurrence
    profile still exports, its states at phi = 0 from :func:`evolve_grid` on
    the config echo, so the file is self-contained either way.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    results = record.results
    rows = results.get("evolved_states", ())
    profile_only = "evolved_states" not in results and "concurrence_profile" in results
    if profile_only:
        rows = results["concurrence_profile"]["samples"]
        vector = record.config.initial.build().vector

    def block_text(block: slice) -> str:
        part = rows[block]
        if profile_only:
            theta, value = part.T
            phi = np.zeros_like(theta)
            amplitudes = evolve_grid(vector, theta, phi).view(np.float64)
            part = np.column_stack((theta, phi, amplitudes, value))
        return _filled(_CSV_ROW, part)

    yield from _block_texts(block_text, len(rows))


def export_record(record: RunRecord, format: str, path: str) -> None:
    """Write a record to disk as JSON (the whole record) or CSV (grid data).

    CSV uses a dot decimal separator, comma delimiter, and LF line endings.
    Each block of grid rows is one %-template of float reprs: the rows hold
    only finite floats, for the reason :func:`record_to_json` gives, so it
    writes what per-cell formatting would, in a fraction of the time.  Both
    formats go through one writer, the JSON from the pieces that
    :func:`record_to_json` joins, so no whole-record string is ever held.
    Past ``_BLOCK_ROWS`` rows, forked workers, one per CPU, format the
    blocks (:func:`_block_texts`); the bytes are those made in-process.
    Scalar blocks (metric, classification) do not fit a per-point table;
    they go to a key,value sidecar at ``<path>.meta.csv`` when present,
    which csv writes, quoting a cell that holds a comma, a quote or a
    newline, and a whole row that holds a carriage return, which csv would
    leave bare.  They are flattened first, so one too deep leaves no file.
    """
    if format == "json":
        _write_pieces(_record_pieces(record), path)
        return
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}")
    results = record.results
    scalar_blocks = {kind: results[kind] for kind in ("metric", "classify") if kind in results}
    flat = [(_where(keys), value) for keys, value in _leaves(scalar_blocks, sort=True)]
    _write_pieces(_csv_lines(record), path)

    if scalar_blocks:
        with open(f"{path}.meta.csv", "w", encoding="utf-8", newline="") as handle:
            for key, value in [("key", "value"), *flat]:
                quoting = csv.QUOTE_ALL if "\r" in f"{key}{value}" else csv.QUOTE_MINIMAL
                csv.writer(handle, lineterminator="\n", quoting=quoting).writerow((key, value))
