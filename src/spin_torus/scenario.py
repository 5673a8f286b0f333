"""Config-driven scenario runs and their exportable records.

A scenario names an initial state, the physical parameters, an evaluation
grid (either directly on the torus angles or along a time interval), and
which outputs to compute.  Configs are JSON with a strict schema -- unknown
fields are rejected, because a silently ignored typo in a physics config is
the most expensive kind of user error.  All angles are radians; there is no
degree mode.

Running a scenario yields a :class:`RunRecord` whose results block is a
pure function of the config; the only nondeterministic field is the
creation timestamp, which is excluded from the canonical byte form used
for reproducibility comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import io
import itertools
import json
import math
import numbers
import os
import stat
import struct
from array import array
from collections.abc import Callable, Generator, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .entanglement import ConcurrenceProfile, concurrence_profile, concurrence_stack
from .hamiltonian import SystemParams
from .manifold import (
    DegenerateShear,
    ManifoldReport,
    MetricTensor2,
    TorusPoint,
    classify,
    evolve_family,
    evolve_grid,
    metric_analytic,
)
from .qstate import (
    NORM_TOL,
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


def _leaves(root: Any, path: list[Any] | None = None) -> Iterator[tuple[list[Any], Any]]:
    """(path, value) for each value in ``root`` that is no list or object,
    in document order; the path of keys and indices is live.
    :class:`ConfigInvalid` at a list or object more than ``MAX_NESTING``
    deep, ``root`` counting as one.  The walk recurses once per level, so
    that bound also bounds its stack: no deeper than json's encoder goes
    when it writes a record."""
    path = [] if path is None else path
    children = (root.items() if isinstance(root, dict)
                else enumerate(root) if isinstance(root, list) else ())
    for key, value in children:
        path.append(key)
        if not isinstance(value, (dict, list)):
            yield path, value
        elif len(path) >= MAX_NESTING:
            raise ConfigInvalid(f"{_where(path)}: nested more than {MAX_NESTING} levels deep")
        else:
            yield from _leaves(value, path)
        path.pop()


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
        if abs(norm_sq - 1.0) > NORM_TOL:
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
    except ValueError as error:  # each message of SystemParams begins with its field
        raise ConfigInvalid(f"params.{str(error).split(' ', 1)[0]}: {error}") from None

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

    Its fields are a record's root keys; ``results`` holds a block per name
    in ``config.outputs``, :func:`_plain` of its runner's value (or a
    warning), and ``provenance`` the keys ``_PROVENANCE``.  Its float
    blocks are read-only float64 arrays:
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


def _frozen_rows(values: array, width: int) -> np.ndarray:
    """The float array ``values`` as read-only rows of ``width`` values,
    without a copy."""
    rows = np.frombuffer(values).reshape(-1, width)
    rows.setflags(write=False)
    return rows


def _run_evolved(initial: PureState2Q, config: ScenarioConfig) -> np.ndarray:
    """One row of ``CSV_COLUMNS`` values per grid point, theta varying
    slowest on a torus grid.  Each point's angles and amplitudes come from
    :func:`evolve_family`, then the concurrence column from
    :func:`concurrence_stack`, one ``_BLOCK_ROWS`` block of rows at a time."""
    pair = itertools.product if isinstance(config.grid, TorusGrid) else zip
    values = array("d")
    for theta, phi in pair(*(angles.tolist() for angles in _grid_angles(config))):
        values.extend((theta, phi))
        # A complex128 vector's bytes are its parts, re and im in turn.
        values.frombytes(evolve_family(initial, TorusPoint(theta, phi)).vector.tobytes())
        values.append(0.0)
    rows = np.frombuffer(values).reshape(-1, len(CSV_COLUMNS))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        block[:, -1] = concurrence_stack(block[:, 2:-1].view(np.complex128))
    return _frozen_rows(values, len(CSV_COLUMNS))


#: Each output's value; the lambdas look their functions up when called.
_RUNNERS = {
    "metric": lambda initial, config: metric_analytic(initial, config.params.gamma),
    "classify": lambda initial, config: classify(initial, gamma=config.params.gamma),
    "concurrence_profile": lambda initial, config: concurrence_profile(
        initial, _grid_angles(config)[0]
    ),
    "evolved_states": _run_evolved,
}
#: The keys of a record's provenance, in the order :func:`run_scenario` writes them.
_PROVENANCE = ("library_version", "seed", "created_utc")


def _plain(value: Any) -> Any:
    """A runner's value as its block holds it: a dataclass as the dict of
    its fields made plain, through vars (asdict's deep copy costs ~20 times
    as much), an enum as its value, anything else as it is."""
    if hasattr(value, "__dataclass_fields__"):  # is_dataclass, whose miss on a type is slow
        return {name: _plain(field) for name, field in vars(value).items()}
    return value.value if isinstance(value, enum.Enum) else value


def run_scenario(config: ScenarioConfig, seed: int = 0) -> RunRecord:
    """Execute the requested outputs in their declared order.  ``seed`` is
    recorded in the provenance; no result depends on it.

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
            results[kind] = _plain(_RUNNERS[kind](initial, config))
        except DegenerateShear as error:
            results[kind] = {"warning": str(error)}
    created = datetime.now(timezone.utc).isoformat()
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        config=config,
        results=results,
        provenance=dict(zip(_PROVENANCE, (__version__, seed, created))),
    )


# --- serialization -----------------------------------------------------------

#: Each float block of a record, in text order: its keys under results, its width.
_FLOAT_BLOCKS = ((("concurrence_profile", "samples"), 2), (("evolved_states",), len(CSV_COLUMNS)))
#: The keys of one evolved-states row in a record's JSON.
_ROW_KEYS = frozenset({"theta", "phi", "amplitudes", "concurrence"})
_FLOAT_ONLY = frozenset({float})
#: The value type of each output whose block is an object, whose keys are its fields.
_TYPES = {"metric": MetricTensor2, "classify": ManifoldReport,
          "concurrence_profile": ConcurrenceProfile}
#: The outputs whose block run_scenario writes as {"warning": ...} on DegenerateShear.
_WARNED = frozenset({"metric", "classify"})
_hints = functools.cache(get_type_hints)


def _exact(value: Any, shape: Any, where: str) -> None:
    """:class:`ConfigInvalid` unless ``value`` is an object holding exactly
    the keys of ``shape``, a dataclass's fields or a collection of keys,
    naming the first it lacks, else the first it should not have.  The
    value of a field whose type is a dataclass too is checked in turn."""
    keys = _hints(shape) if is_dataclass(shape) else dict.fromkeys(shape)
    if not isinstance(value, Mapping):
        raise ConfigInvalid(f"{where}: must be an object")
    for key in itertools.chain(keys, value):  # the keys it lacks come first
        if key not in value or key not in keys:
            problem = "lacks" if key not in value else "has the unknown key"
            raise ConfigInvalid(f"{where}: {problem} {_cut(repr(key))}")
    for key, hint in keys.items():
        if is_dataclass(hint):
            _exact(value[key], hint, f"{where}.{key}")


def _block_holder(results: dict[str, Any], keys: tuple[str, ...]) -> dict[str, Any]:
    """The object in ``results`` that holds the float block at ``keys``,
    each object on the way copied into its parent, so a change to it
    changes no object that ``results`` shares."""
    for key in keys[:-1]:
        results[key] = dict(results[key])
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
    return {**vars(record), "config": record.config.to_jsonable(), "results": results}, blocks


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
        if isinstance(pairs, list) and len(pairs) == 4:
            a, b, c, d = pairs
            if (isinstance(a, list) and isinstance(b, list) and isinstance(c, list)
                    and isinstance(d, list) and len(a) == len(b) == len(c) == len(d) == 2):
                return (row["theta"], row["phi"], *a, *b, *c, *d, row["concurrence"])
    return row


def _packed_floats(rows: list[Any]) -> bool:
    """Whether every row is a tuple of floats: :func:`_packed_row` makes
    the only tuples json's parse holds, each of ``CSV_COLUMNS`` values."""
    return (
        {tuple}.issuperset(map(type, rows))
        and _FLOAT_ONLY.issuperset(map(type, itertools.chain.from_iterable(rows)))
    )


def _checked_block(block: Any, keys: tuple[str, ...], width: int) -> np.ndarray:
    """A record's float block at ``results.<keys>`` as checked rows: the
    read-only float64 (n, ``width``) array of :class:`RunRecord`.

    The block is such an array, or a list of rows: (theta, C) lists or
    tuples for the samples, and for the evolved rows objects that
    :func:`_packed_row` packs or tuples it packed.  Every value must be a
    finite real number, an array's checked ``_BLOCK_ROWS`` rows at a time.
    These are the rows :func:`record_to_json` and the CSV writer format
    without further checks.
    """
    where = "results." + ".".join(keys)
    if isinstance(block, np.ndarray) and block.dtype == np.float64 and block.shape[1:] == (width,):
        for start in range(0, len(block), _BLOCK_ROWS):
            finite = np.isfinite(block[start : start + _BLOCK_ROWS]).all(axis=1)
            if not finite.all():
                raise ConfigInvalid(
                    f"{where}[{start + finite.argmin()}]: every value must be a finite real number"
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
    for anything malformed: an object without exactly the keys ``run``
    writes there (:class:`RunRecord`), a ``schema_version`` but
    ``SCHEMA_VERSION``, evolved rows or profile samples that are not finite
    real numbers, and in the results or the provenance any float that is
    not finite, any string UTF-8 cannot encode (a lone surrogate) or nesting
    beyond ``MAX_NESTING``.  Each float block becomes
    :class:`RunRecord`'s array; it may be one already, or a list of rows as
    the record's JSON writes them, evolved rows also as the tuples they
    pack into."""
    _exact(data, [field.name for field in fields(RunRecord)], "record")
    if data["schema_version"] != SCHEMA_VERSION:  # no repr: the value may nest deep
        raise ConfigInvalid(f"schema_version: must be the string {SCHEMA_VERSION!r}")
    config = config_from_dict(data["config"])
    results = data["results"]
    _exact(results, config.outputs, "results")
    for kind in config.outputs:  # in order, so the first error does not rest on hash order
        warned = kind in _WARNED and isinstance(results[kind], Mapping) and "warning" in results[kind]
        if kind in _TYPES:
            _exact(results[kind], ("warning",) if warned else _TYPES[kind], f"results.{kind}")
    _exact(data["provenance"], _PROVENANCE, "provenance")
    results = dict(results)
    provenance = dict(data["provenance"])
    for keys, width in _FLOAT_BLOCKS:
        if keys[0] in results:
            holder = _block_holder(results, keys)
            holder[keys[-1]] = _checked_block(holder[keys[-1]], keys, width)
    # The record's root, its float blocks arrays that the walk does not enter.
    for path, value in _leaves({"results": results, "provenance": provenance}):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigInvalid(f"{_where(path)}: must be finite")
        if isinstance(value, str) and value.encode(errors="replace").decode() != value:
            raise ConfigInvalid(f"{_where(path)}: must be text that UTF-8 can encode")
    return RunRecord(SCHEMA_VERSION, config, results, provenance)


def _block_at(text: bytes, keys: tuple[str, ...]) -> int:
    """Where the items of the float block at ``results.<keys>`` begin in a
    record's json bytes.  Each key on the way is found after a newline at
    its depth's indentation, and only json's indentation puts a raw newline
    in that text, so no key or string in the record can read as one.  A
    marker begins with LF, which a CRLF line end holds too."""
    at = 0
    for depth, key in enumerate(("results", *keys), 1):
        marker = (f'\n{"  " * depth}"{key}": ' + ("[" if depth > len(keys) else "{")).encode()
        at = text.index(marker, at) + len(marker)
    return at


def _row_layout(keys: tuple[str, ...], width: int) -> tuple[str, list[int], str]:
    """One row of the float block at ``results.<keys>`` as json lays it out
    in a record (an evolved row's object, a sample's list), the columns of
    a row's values in the order they appear there, and the text between the
    last row and the list's closing bracket.  The row starts with the comma
    that separates it from the row before, then has a %s slot for each value:
    json's dump of one row, each line indented to the row's depth in the
    record, below the root, ``results``, each key and the list."""
    slots = [f"@{i}@" for i in range(width)]
    row: Any = slots
    if width == len(CSV_COLUMNS):
        theta, phi, *parts, value = slots
        pairs = [parts[i : i + 2] for i in range(0, len(parts), 2)]
        row = {"theta": theta, "phi": phi, "amplitudes": pairs, "concurrence": value}
    newline = "\n" + "  " * (len(keys) + 2)
    row_text = newline + json.dumps(row, sort_keys=True, indent=2).replace("\n", newline)
    order = sorted(range(width), key=lambda i: row_text.index(f'"{slots[i]}"'))
    for slot in slots:
        row_text = row_text.replace(f'"{slot}"', "%s")
    return "," + row_text, order, newline[:-2]


#: Each float block's :func:`_row_layout`, by its keys.
_LAYOUTS = {keys: _row_layout(keys, width) for keys, width in _FLOAT_BLOCKS}
#: Bytes of a record's text read at a time, of rows a range holds before it ends
#: at the next row separator, and of a worker's result held at once.
_READ_CHARS = 2**16
#: Bytes :func:`_streamed_body` reads at a time in search of a row separator:
#: more than a row of run's layout (~600 bytes) holds, so one read finds it.
_PROBE_CHARS = 2**10


def _range_rows(fd: int, span: tuple[int, int]) -> bytes | None:
    """The float64 bytes, in native byte order, of the rows whose text
    spans bytes [first, last) of the file open at ``fd``, read with one
    pread, or None if that text does not decode or parse into rows of
    floats.  It is parsed as one list whose rows :func:`_packed_row` packs.
    A raw newline in JSON is whitespace, so an edge never falls inside a
    string; one inside a row leaves the list's brackets unbalanced."""
    first, last = span
    try:
        parsed = json.loads("[" + os.pread(fd, last - first, first).decode() + "]",
                            object_hook=_packed_row)
    except (ValueError, RecursionError):
        return None
    # Text of only whitespace parses as no row, where plain json fails.
    if not parsed or not _packed_floats(parsed):
        return None
    return struct.pack(f"{len(parsed) * len(CSV_COLUMNS)}d", *itertools.chain.from_iterable(parsed))


def _streamed_body(handle: BinaryIO) -> Any:
    """The JSON value of a record laid out as :func:`record_to_json` lays
    it out, read from ``handle``, opened for bytes, holding its rows' float
    array and one range of their text at a time; else the file's bytes, for
    plain json to parse.  A text without the rows' marker, read to its end
    in the search for it, is returned whole: it is read once, parsed or not.

    Every position is a byte offset.  The rows are walked forward once from
    the marker, with its line's line end, LF or CRLF: each range ends at the
    first row separator at least ``_READ_CHARS`` bytes past its start, found
    by preads of ``_PROBE_CHARS`` bytes, until none follows.  One pread then
    takes the rest: the last range, the list's close, the last in that read,
    and the text after it.  :func:`_range_rows` parses each range from the
    descriptor of ``handle`` (:func:`_forked_map`).  The text around the
    rows is parsed once, with NaN in their place, which must be its one
    constant and results.evolved_states' one item: else the rows were not
    that key's one value.  Without a close, where that text does not decode
    or parse, or a range is not rows of floats, the file is read again,
    whole; so a head that does not parse pays for the walk's probes first.
    """
    head = b""
    while True:
        try:
            start = _block_at(head, ("evolved_states",))
            break
        except ValueError:
            # The head doubles, so a record without the rows' marker is
            # searched in linear time.
            size = len(head)
            head += handle.read(max(_READ_CHARS, size))
            if len(head) == size:
                return head
    fd = handle.fileno()
    newline = b"\r\n" if os.pread(fd, 1, start) == b"\r" else b"\n"
    row_json, _, close = _LAYOUTS[("evolved_states",)]
    close = (close + "]").encode().replace(b"\n", newline)
    # json writes the comma, then the next row up to its opening brace.
    separator = (row_json.partition("{")[0] + "{").encode().replace(b"\n", newline)
    size = os.fstat(fd).st_size

    def edge(at: int) -> int | None:  # the first separator at or after ``at``, if any
        for at in range(at, size, _PROBE_CHARS - len(separator) + 1):
            if (found := os.pread(fd, _PROBE_CHARS, at).find(separator)) >= 0:
                return at + found
        return None

    def whole() -> bytes:  # read, not one pread, which Linux cuts short past ~2 GiB
        handle.seek(0)
        return handle.read()

    spans, first = [], start
    while (last := edge(first + _READ_CHARS)) is not None:
        spans.append((first, last))
        first = last + 1  # past the separator's comma
    rest = os.pread(fd, size - first, first)
    constants: list[object] = []  # a new object per constant met: the rows' NaN must be the one
    try:
        end = rest.rindex(close)
        data = json.loads((head[:start] + b"NaN]" + rest[end + len(close) :]).decode("utf-8-sig"),
                          parse_constant=lambda _: constants.append(object()) or constants[-1])
    except (ValueError, RecursionError):  # plain json raises it again, at the whole text's positions
        return whole()
    results = data.get("results") if isinstance(data, dict) else None
    if not isinstance(results, dict) or results.get("evolved_states") != constants:
        return whole()
    spans.append((first, first + end))
    values = array("d")
    with contextlib.closing(_forked_map(functools.partial(_range_rows, fd), spans)) as ranges:
        for rows in ranges:
            if rows is None:
                return whole()
            values.frombytes(rows)
    results["evolved_states"] = _frozen_rows(values, len(CSV_COLUMNS))
    return data


def read_record(path: str) -> RunRecord:
    """Read a record file and check it as :func:`record_from_dict` does.

    The text is UTF-8, after a BOM if one leads it.  A record in the layout
    :func:`record_to_json` writes is read from a file without its whole
    text or a tree of row objects ever held: its rows are parsed in 64 KiB
    ranges into one float array, past one range by forked workers
    (:func:`_streamed_body`); a text without evolved rows is read once,
    whole, and parsed once, even where the parse fails.  Any other text,
    or one with rows that fails to decode or parse, comes back as the
    file's bytes, and a pipe is read whole, once; both read and fail
    exactly as plain json reads them, line ends read as a text file's.

    Raises ``OSError`` if the file cannot be read or a worker dies,
    ``ValueError`` or ``RecursionError`` if its text is not JSON, and
    :class:`ConfigInvalid` if the record is malformed.
    """
    with Path(path).open("rb") as handle:  # a pipe can be read only once, whole
        data = _streamed_body(handle) if handle.seekable() else handle.read()
    if isinstance(data, bytes):  # decoded first, so the bytes go before json parses
        data = data.decode("utf-8-sig")
        data = json.loads(data.replace("\r\n", "\n").replace("\r", "\n"))  # universal newlines
    return record_from_dict(data)


def _record_pieces(record: RunRecord) -> Generator[bytes, None, None]:
    """The text of :func:`record_to_json` as ASCII bytes in pieces: json's
    text around the float blocks, and each ``_BLOCK_ROWS`` rows' text, whole
    or in pieces where forked workers make it (:func:`_forked_map`).

    json lays out the record with each float block replaced by an empty
    list, and the blocks' rows are spliced into those lists from
    ``_LAYOUTS`` (:func:`_filled`).  json drops to its pure-Python encoder
    whenever ``indent`` is set, which takes seconds over a dense grid's
    rows; the templates write the same text, because the blocks hold only
    finite floats (:func:`run_scenario` makes them so and
    :func:`record_from_dict` checks it), and json writes a finite float as
    its repr.  The blocks of the call share one cache of reprs: a forked
    worker fills its own copy, an in-process call the one made here.
    """
    body, blocks = _record_body(record)
    text = json.dumps(body, sort_keys=True, indent=2).encode()
    reprs: dict[int, str] = {}
    done = 0
    for keys, rows in blocks:
        if len(rows):
            row_json, columns, close = _LAYOUTS[keys]
            at = _block_at(text, keys)
            yield text[done:at]

            def block_text(start: int) -> bytes:
                filled = _filled(row_json, rows[start : start + _BLOCK_ROWS, columns], reprs).encode()
                return filled if start else filled[1:]  # no comma before the first row

            yield from _forked_map(block_text, range(0, len(rows), _BLOCK_ROWS))
            yield close.encode()
            done = at
    yield text[done:] + b"\n"


def record_to_json(record: RunRecord) -> str:
    """Serialize with sorted keys and shortest round-trip float format, so
    equal records produce identical bytes.

    The text is json's ``sort_keys=True, indent=2`` layout of the record,
    plus a final newline, each evolved row an object with theta, phi, four
    [re, im] amplitude pairs and concurrence.  It is joined from the pieces
    that :func:`export_record` writes, so a float block past ``_BLOCK_ROWS``
    rows is formatted in forked workers here too, to the same text.
    """
    return b"".join(_record_pieces(record)).decode()


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

#: One CSV row, a %s slot per column.
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"
#: Rows of a float block formatted as one piece of text, so no copy of a
#: whole dense record, joined or encoded, is ever held at once.
_BLOCK_ROWS = 4096
#: Rows from which :func:`_filled` takes a column's reprs from its cache;
#: a process's first sort and unique add ~0.8 MB, which small records never pay.
_SHARED_ROWS = 1024
#: Most reprs one writer's cache holds, ``_BLOCK_ROWS`` per column of an
#: evolved row: ~160 bytes each with its key, so at most ~7 MB.
_CACHED_REPRS = _BLOCK_ROWS * len(CSV_COLUMNS)


def _filled(template: str, rows: np.ndarray, reprs: dict[int, str]) -> str:
    """``template`` once per row, its %s slots filled with the reprs of the
    rows' values.

    A block whose first ``_SHARED_ROWS`` rows, if it has that many, repeat
    a float64 bit pattern in some column is made by one join of the cells
    and the template's literal pieces, each repeating column's reprs taken
    from the cache ``reprs`` (:func:`_cached_reprs`), every other cell's
    made here.  Any other block fills the template with Python floats,
    whose str is their repr: its cells share no repr, and ``%`` makes their
    text without a str held per cell, which a join holds all at once.
    """
    count, width = rows.shape
    if count >= _SHARED_ROWS:
        ordered = np.sort((bits := rows.view(np.uint64))[:_SHARED_ROWS], axis=0)
        shared = (ordered[1:] == ordered[:-1]).any(axis=0)
    if count < _SHARED_ROWS or not shared.any():
        return (template * count) % tuple(rows.ravel().tolist())
    first, *pieces, last = template.split("%s")
    text: list[Any] = [None] * (2 * count * width)
    text[::2] = [last + first, *pieces] * count
    text[0] = first
    for j in range(width):
        cells = _cached_reprs(bits[:, j], reprs) if shared[j] else map(repr, rows[:, j].tolist())
        text[2 * j + 1 :: 2 * width] = cells
    text.append(last)
    return "".join(text)


def _cached_reprs(bits: np.ndarray, reprs: dict[int, str]) -> list[str]:
    """The repr of each float64 whose bits are ``bits``, each distinct
    value's taken from ``reprs``, keyed by the bits, so 0.0 is not -0.0, and
    made and added where it lacks one.  Where they would take ``reprs`` past
    ``_CACHED_REPRS`` entries it is emptied first, so values that repeat in
    a block's first rows but are mostly distinct do not grow it without
    bound."""
    values, inverse = np.unique(bits, return_inverse=True)
    keys = values.tolist()
    missing = [key for key in keys if key not in reprs]
    if len(reprs) + len(missing) > _CACHED_REPRS:
        reprs.clear()
        missing = keys
    reprs.update(zip(missing, map(repr, np.array(missing, np.uint64).view(np.float64).tolist())))
    return np.array(list(map(reprs.__getitem__, keys)), dtype=object)[inverse].tolist()


def _forked_map(function: Callable[[Any], Any], items: Sequence[Any]) -> Generator[Any, None, None]:
    """``function`` of each item, bytes or None, in order, made past one item
    by W forked workers, one per CPU, one too with one CPU, and no more than
    the items: worker k makes items k, k + W, ... from what it inherited and
    writes each result to its own pipe, an 8-byte signed length (-1 for
    None), then the bytes, which it drops before it makes the next.  The
    parent yields None, or the bytes in pieces of at most ``_READ_CHARS`` as
    they come, so the pipe's backpressure bounds what it holds.  One item,
    or any number without Linux's ``sched_getaffinity``, is made in-process,
    whole, to the same bytes.  Closing the generator ends the workers;
    ``OSError`` if one ends early."""
    if len(items) < 2 or not hasattr(os, "sched_getaffinity"):
        yield from map(function, items)
        return
    workers = min(len(os.sched_getaffinity(0)), len(items))
    import signal  # here, so that importing the package does not build signal's enums

    def read(pipe: BinaryIO, size: int) -> bytes:
        if len(data := pipe.read(size)) < size:
            raise OSError("a worker process ended before it sent all its results")
        return data

    running = []
    try:
        for k in range(workers):
            reader, writer = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(writer, "wb") as pipe:
                        for item in items[k::workers]:
                            result = function(item)
                            size = -1 if result is None else len(result)
                            pipe.write(size.to_bytes(8, "little", signed=True))
                            pipe.write(result or b"")
                            del result  # not held while the next item is made
                finally:
                    os._exit(0)  # silent, and flushing no copy of the parent's buffers
            os.close(writer)  # so the worker's end is the pipe's end of file
            running.append((pid, open(reader, "rb")))
        for i in range(len(items)):
            pipe = running[i % workers][1]
            size = int.from_bytes(read(pipe, 8), "little", signed=True)
            if size < 0:
                yield None
            for at in range(0, size, _READ_CHARS):
                yield read(pipe, min(_READ_CHARS, size - at))
    finally:
        for pid, pipe in running:
            os.kill(pid, signal.SIGTERM)  # one the consumer left blocked on a full pipe
            os.waitpid(pid, 0)
            pipe.close()


def _write_pieces(*files: tuple[str, Generator[bytes, None, None]]) -> None:
    """Write each file's pieces to its path, in turn, each piece as it comes,
    and close the pieces on every exit, which ends any worker making them.
    A file's first piece is made before it opens, so an error in making it
    (json's RecursionError on a hand-built record too deep) leaves no new
    file; a later error removes every regular file this call began."""
    begun = []
    try:
        for path, pieces in files:
            with contextlib.closing(pieces):
                first = next(pieces, b"")
                with open(path, "wb") as handle:
                    if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                        begun.append(path)
                    handle.writelines(itertools.chain([first], pieces))
    except BaseException:
        for path in begun:
            os.unlink(path)
        raise


def _csv_lines(record: RunRecord) -> Generator[bytes, None, None]:
    """Header plus one row per grid point: angles, amplitudes, concurrence.

    Prefers the evolved-states block; a record holding only a concurrence
    profile still exports, its states at phi = 0 from :func:`evolve_grid` on
    the config echo, so the file is self-contained either way.
    """
    yield (",".join(CSV_COLUMNS) + "\n").encode()
    results = record.results
    reprs: dict[int, str] = {}  # as in _record_pieces
    rows = results.get("evolved_states", ())
    profile_only = "evolved_states" not in results and "concurrence_profile" in results
    if profile_only:
        rows = results["concurrence_profile"]["samples"]
        vector = record.config.initial.build().vector

    def block_text(start: int) -> bytes:
        part = rows[start : start + _BLOCK_ROWS]
        if profile_only:
            theta, value = part.T
            phi = np.zeros_like(theta)
            amplitudes = evolve_grid(vector, theta, phi).view(np.float64)
            part = np.column_stack((theta, phi, amplitudes, value))
        return _filled(_CSV_ROW, part, reprs).encode()

    yield from _forked_map(block_text, range(0, len(rows), _BLOCK_ROWS))


def _meta_lines(flat: list[tuple[tuple[Any, ...], Any]]) -> Generator[bytes, None, None]:
    """The sidecar's text: a key,value header, then each flattened value."""
    text = io.StringIO(newline="")
    for key, value in [("key", "value"), *((_where(keys), value) for keys, value in flat)]:
        quoting = csv.QUOTE_ALL if "\r" in f"{key}{value}" else csv.QUOTE_MINIMAL
        csv.writer(text, lineterminator="\n", quoting=quoting).writerow((key, value))
    yield text.getvalue().encode()


def export_record(record: RunRecord, format: str, path: str) -> None:
    """Write a record to disk as JSON (the whole record) or CSV (grid data).

    CSV uses a dot decimal separator, comma delimiter, and LF line endings.
    Each block of grid rows fills a template with float reprs, a repeating
    column's made once per writing process in a cache of at most
    ``_CACHED_REPRS`` (:func:`_filled`): the rows hold only finite floats,
    for the reason :func:`record_to_json` gives, so it writes what per-cell
    repr would, in a fraction of the time.  Both formats go through
    :func:`_write_pieces`, the JSON as the pieces that :func:`record_to_json`
    joins.  Past ``_BLOCK_ROWS`` rows forked workers make the blocks
    (:func:`_forked_map`), and the writing process then holds the rows and
    one piece of text, never a whole block.  Scalar
    blocks (metric, classification) do not fit a per-point table; they go
    to a key,value sidecar at ``<path>.meta.csv`` when present, which csv
    writes, quoting a cell that holds a comma, a quote or a newline, and a
    whole row that holds a carriage return, which csv would leave bare.
    They are flattened first, so one too deep leaves no file, and a failed
    write of either file removes each regular file the export began.
    """
    if format == "json":
        _write_pieces((path, _record_pieces(record)))
        return
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}")
    results = record.results
    scalar_blocks = {kind: results[kind] for kind in ("metric", "classify") if kind in results}
    # Paths are unique, and under one parent all keys or all indices.
    flat = sorted((tuple(keys), value) for keys, value in _leaves(scalar_blocks))
    meta = [(f"{path}.meta.csv", _meta_lines(flat))] if scalar_blocks else []
    _write_pieces((path, _csv_lines(record)), *meta)

