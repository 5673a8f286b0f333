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

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator, Mapping

import jsonschema
import numpy as np

from . import __version__
from .entanglement import concurrence, concurrence_profile
from .hamiltonian import SystemParams
from .manifold import (
    DegenerateShear,
    MetricTensor2,
    TorusPoint,
    classify,
    evolve_family,
    metric_analytic,
)
from .qstate import (
    PureState2Q,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    up_down,
)

SCHEMA_VERSION = "1"

OUTPUT_KINDS = ("metric", "classify", "concurrence_profile", "evolved_states")

#: Largest tolerated deviation of |amplitudes|^2 from one before rejection.
AMPLITUDE_NORM_TOL = 1e-9

SCENARIO_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "spin-torus scenario config",
    "type": "object",
    "additionalProperties": False,
    "required": ["initial", "params", "grid", "outputs"],
    "properties": {
        "initial": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["amplitudes"],
                    "properties": {
                        "amplitudes": {
                            "type": "array",
                            "minItems": 4,
                            "maxItems": 4,
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        }
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["product_state"],
                    "properties": {
                        "product_state": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kind"],
                            "properties": {
                                "kind": {"enum": ["pm", "pp", "mm", "updown"]},
                                "chi": {"type": "number"},
                                "gamma_az": {"type": "number"},
                            },
                        }
                    },
                },
            ]
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coupling", "field"],
            "properties": {
                "coupling": {"type": "number"},
                "field": {"type": "number"},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "grid": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["theta_steps", "phi_steps"],
                    "properties": {
                        "theta_steps": {"type": "integer", "minimum": 2},
                        "phi_steps": {"type": "integer", "minimum": 2},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["time"],
                    "properties": {
                        "time": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["t0", "t1", "steps"],
                            "properties": {
                                "t0": {"type": "number"},
                                "t1": {"type": "number"},
                                "steps": {"type": "integer", "minimum": 2},
                            },
                        },
                        "field_override": {"type": "number"},
                    },
                },
            ]
        },
        "outputs": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"enum": list(OUTPUT_KINDS)},
        },
    },
}


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
        return {"theta_steps": self.theta_steps, "phi_steps": self.phi_steps}


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
            "params": {
                "coupling": self.params.coupling,
                "field": self.params.field,
                "gamma": self.params.gamma,
            },
            "grid": self.grid.to_jsonable(),
            "outputs": list(self.outputs),
        }

    def with_gamma(self, gamma: float) -> ScenarioConfig:
        return replace(self, params=replace(self.params, gamma=gamma))


@functools.cache
def _scenario_validator() -> jsonschema.Draft202012Validator:
    """The schema validator, built on first use rather than at import.

    ``jsonschema.validate`` re-checks the schema itself on every call; the
    embedded schema is a constant, so one validator serves every config.
    """
    return jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def _schema_error_path(error: jsonschema.ValidationError) -> str:
    path = ".".join(str(part) for part in error.absolute_path)
    return path or "<root>"


def _parse_initial(body: Mapping[str, Any]) -> AmplitudesInitial | ProductInitial:
    if "amplitudes" in body:
        pairs = body["amplitudes"]
        if not all(math.isfinite(part) for pair in pairs for part in pair):
            raise ConfigInvalid("initial.amplitudes: all values must be finite")
        raw = np.array([complex(re, im) for re, im in pairs])
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
    chi = float(block["chi"])
    gamma_az = float(block.get("gamma_az", 0.0))
    if not (math.isfinite(chi) and math.isfinite(gamma_az)):
        raise ConfigInvalid(
            "initial.product_state: chi and gamma_az must be finite"
        )
    return ProductInitial(kind=kind, chi=chi, gamma_az=gamma_az)


def config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed JSON document and build the canonical config.

    Raises :class:`ConfigInvalid` with the offending field path for schema
    violations and for the semantic checks the schema cannot express
    (amplitude normalization, Bloch-angle applicability, finiteness).
    """
    error = jsonschema.exceptions.best_match(_scenario_validator().iter_errors(data))
    if error is not None:
        raise ConfigInvalid(
            f"{_schema_error_path(error)}: {error.message}"
        ) from error

    initial = _parse_initial(data["initial"])
    params_body = data["params"]
    try:
        params = SystemParams(
            coupling=float(params_body["coupling"]),
            field=float(params_body["field"]),
            gamma=float(params_body.get("gamma", 1.0)),
        )
    except ValueError as error:
        raise ConfigInvalid(f"params: {error}") from error

    grid_body = data["grid"]
    grid: TorusGrid | TimeGrid
    if "time" in grid_body:
        time_body = grid_body["time"]
        values = [time_body["t0"], time_body["t1"]]
        override = grid_body.get("field_override")
        if override is not None:
            values.append(override)
        if not all(np.isfinite(v) for v in values):
            raise ConfigInvalid("grid.time: all values must be finite")
        grid = TimeGrid(
            t0=float(time_body["t0"]),
            t1=float(time_body["t1"]),
            steps=int(time_body["steps"]),
            field_override=None if override is None else float(override),
        )
    else:
        grid = TorusGrid(
            theta_steps=int(grid_body["theta_steps"]),
            phi_steps=int(grid_body["phi_steps"]),
        )

    return ScenarioConfig(
        initial=initial,
        params=params,
        grid=grid,
        outputs=tuple(data["outputs"]),
    )


def config_from_json(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigInvalid(f"not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ConfigInvalid("<root>: config must be a JSON object")
    return config_from_dict(data)


# --- running -----------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """Results of one scenario run plus enough context to reproduce it."""

    schema_version: str
    config: ScenarioConfig
    results: dict[str, Any]
    provenance: dict[str, Any]


def _grid_points(config: ScenarioConfig) -> list[tuple[float, float]]:
    """The (theta, phi) evaluation points, theta varying slowest."""
    if isinstance(config.grid, TorusGrid):
        thetas = np.linspace(0.0, np.pi, config.grid.theta_steps)
        phis = np.linspace(0.0, 2.0 * np.pi, config.grid.phi_steps)
        return [(float(th), float(ph)) for th in thetas for ph in phis]
    times = np.linspace(config.grid.t0, config.grid.t1, config.grid.steps)
    field = (
        config.grid.field_override
        if config.grid.field_override is not None
        else config.params.field
    )
    j = config.params.coupling
    return [(float(2.0 * j * t), float(2.0 * field * t)) for t in times]


def _profile_thetas(config: ScenarioConfig) -> np.ndarray:
    if isinstance(config.grid, TorusGrid):
        return np.linspace(0.0, np.pi, config.grid.theta_steps)
    times = np.linspace(config.grid.t0, config.grid.t1, config.grid.steps)
    return 2.0 * config.params.coupling * times


def _metric_jsonable(metric: MetricTensor2) -> dict[str, Any]:
    return {
        "g_theta_theta": metric.g_theta_theta,
        "g_theta_phi": metric.g_theta_phi,
        "g_phi_phi": metric.g_phi_phi,
        "shear": metric.shear,
        "g_theta_theta_diag": metric.g_theta_theta_diag,
        "g_phi_phi_diag": metric.g_phi_phi_diag,
    }


def _run_metric(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    return _metric_jsonable(metric_analytic(initial, config.params.gamma))


def _run_classify(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    report = classify(initial, gamma=config.params.gamma, seed=seed)
    return {
        "kind": report.kind.value,
        "dimension": report.dimension,
        "invariants": {
            "aligned": report.invariants.aligned,
            "mismatch": report.invariants.mismatch,
            "imbalance": report.invariants.imbalance,
        },
        "metric": _metric_jsonable(report.metric),
        "circle_radius": report.circle_radius,
        "radius_phi_circle": report.radius_phi_circle,
        "radius_theta_circle": report.radius_theta_circle,
        "radius_extrapolated": report.radius_extrapolated,
        "flatness_residual": report.flatness_residual,
    }


def _run_profile(initial: PureState2Q, config: ScenarioConfig, seed: int) -> dict:
    profile = concurrence_profile(initial, _profile_thetas(config))
    return {
        "samples": [[theta, value] for theta, value in profile.samples],
        "theta_max": profile.theta_max,
        "c_max": profile.c_max,
        "is_constant": profile.is_constant,
    }


def _run_evolved(initial: PureState2Q, config: ScenarioConfig, seed: int) -> list:
    rows = []
    for theta, phi in _grid_points(config):
        state = evolve_family(initial, TorusPoint(theta, phi))
        rows.append(
            {
                "theta": theta,
                "phi": phi,
                "amplitudes": [[z.real, z.imag] for z in state.vector.tolist()],
                "concurrence": concurrence(state),
            }
        )
    return rows


_RUNNERS = {
    "metric": _run_metric,
    "classify": _run_classify,
    "concurrence_profile": _run_profile,
    "evolved_states": _run_evolved,
}


def run_scenario(config: ScenarioConfig, seed: int = 0) -> RunRecord:
    """Execute the requested outputs in their declared order.

    A :class:`DegenerateShear` raised by the geometry (possible for initial
    states numerically indistinguishable from a fully polarized one) turns
    that output block into a warning annotation instead of failing the run.
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

_JSON_INDENT = "  "
#: The keys of one evolved-states row.
_ROW_KEYS = frozenset({"theta", "phi", "amplitudes", "concurrence"})
_FLOAT_ONLY = frozenset({float})


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    return {
        "schema_version": record.schema_version,
        "config": record.config.to_jsonable(),
        "results": record.results,
        "provenance": record.provenance,
    }


def _finite_floats(values: list[Any]) -> list[float] | None:
    """The values as floats, or None unless each is a finite real number.

    A bool is not a number here.  Returns ``values`` itself when it already
    holds only finite floats, which is every record this package writes.
    """
    if _FLOAT_ONLY.issuperset(map(type, values)) and all(map(math.isfinite, values)):
        return values
    if not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in values
    ):
        return None
    try:
        floats = [float(value) for value in values]
    except OverflowError:  # an int beyond the float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _is_pair_list(value: Any) -> bool:
    """Whether ``value`` is a list of two-element lists."""
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    )


def _checked_rows(block: Any) -> list[dict[str, Any]]:
    """A record's evolved-states block, checked row by row.

    Each row must hold exactly theta, phi, four [re, im] amplitude pairs and
    the concurrence, every value a finite real number; ints become floats.
    These are the rows :func:`record_to_json` and the CSV writer format
    without further checks.
    """
    where = "results.evolved_states"
    if not isinstance(block, list):
        raise ConfigInvalid(f"{where}: must be a list of rows")
    rows = []
    for index, row in enumerate(block):
        if not isinstance(row, dict) or row.keys() != _ROW_KEYS:
            raise ConfigInvalid(
                f"{where}[{index}]: a row has exactly the keys "
                "amplitudes, concurrence, phi and theta"
            )
        pairs = row["amplitudes"]
        if not (_is_pair_list(pairs) and len(pairs) == 4):
            raise ConfigInvalid(
                f"{where}[{index}].amplitudes: must be 4 [re, im] pairs"
            )
        values = [row["theta"], row["phi"], row["concurrence"], *pairs[0],
                  *pairs[1], *pairs[2], *pairs[3]]
        floats = _finite_floats(values)
        if floats is None:
            raise ConfigInvalid(
                f"{where}[{index}]: every value must be a finite real number"
            )
        if floats is not values:
            row = {
                "theta": floats[0],
                "phi": floats[1],
                "amplitudes": [floats[3:5], floats[5:7], floats[7:9], floats[9:11]],
                "concurrence": floats[2],
            }
        rows.append(row)
    return rows


def _checked_samples(block: dict[str, Any]) -> dict[str, Any]:
    """A concurrence-profile block whose samples are [theta, C] pairs of
    finite reals, ints made floats; the CSV export evolves and writes them."""
    samples = block["samples"]
    where = "results.concurrence_profile.samples"
    if not _is_pair_list(samples):
        raise ConfigInvalid(f"{where}: must be a list of [theta, C] pairs")
    values = [value for sample in samples for value in sample]
    floats = _finite_floats(values)
    if floats is None:
        raise ConfigInvalid(f"{where}: every value must be a finite real number")
    if floats is values:
        return block
    pairs = [floats[i : i + 2] for i in range(0, len(floats), 2)]
    return {**block, "samples": pairs}


def record_from_dict(data: Mapping[str, Any]) -> RunRecord:
    """Rebuild a record read from outside, raising :class:`ConfigInvalid`
    for anything malformed, including evolved rows or profile samples that
    are not finite real numbers."""
    if not isinstance(data, Mapping):
        raise ConfigInvalid("record must be a JSON object")
    try:
        schema_version = str(data["schema_version"])
        config = config_from_dict(data["config"])
        results = data["results"]
        provenance = data["provenance"]
    except KeyError as error:
        raise ConfigInvalid(f"record is missing field {error}") from error
    if not isinstance(results, Mapping) or not isinstance(provenance, Mapping):
        raise ConfigInvalid("record results and provenance must be JSON objects")
    results = dict(results)
    if "evolved_states" in results:
        results["evolved_states"] = _checked_rows(results["evolved_states"])
    profile = results.get("concurrence_profile")
    if isinstance(profile, dict) and "samples" in profile:
        results["concurrence_profile"] = _checked_samples(profile)
    return RunRecord(
        schema_version=schema_version,
        config=config,
        results=results,
        provenance=dict(provenance),
    )


def _json_at(value: Any, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` as it reads when
    nested ``depth`` levels deep."""
    text = json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + _JSON_INDENT * depth)


def _container(brackets: str, items: Iterable[list[str]], depth: int) -> list[str]:
    """A JSON array or object, as text chunks, laid out as ``_json_at``
    lays it out ``depth`` levels deep, from items already in chunks."""
    pad = "\n" + _JSON_INDENT * (depth + 1)
    chunks = [brackets[0]]
    for item in items:
        chunks += (pad, *item, ",")
    if len(chunks) == 1:
        return [brackets]
    chunks[-1] = "\n" + _JSON_INDENT * depth + brackets[1]
    return chunks


def _object(members: Mapping[str, list[str]], depth: int) -> list[str]:
    items = ([json.dumps(key), ": ", *members[key]] for key in sorted(members))
    return _container("{}", items, depth)


#: One evolved-states row as it reads inside a record, three levels deep,
#: with a %r slot for each float: a_re, a_im, ..., d_im, concurrence, phi,
#: theta.  Derived from json.dumps so the layout cannot drift from it.
_ROW_JSON = _json_at(
    {"amplitudes": [["%r", "%r"]] * 4, "concurrence": "%r", "phi": "%r", "theta": "%r"},
    3,
).replace('"%r"', "%r")


def _row_json(row: dict[str, Any]) -> list[str]:
    a, b, c, d = row["amplitudes"]
    return [_ROW_JSON % (*a, *b, *c, *d, row["concurrence"], row["phi"], row["theta"])]


def record_to_json(record: RunRecord) -> str:
    """Serialize with sorted keys and shortest round-trip float format, so
    equal records produce identical bytes.

    The text equals ``json.dumps(record_to_dict(record), sort_keys=True,
    indent=2) + "\\n"``.  json drops to its pure-Python encoder whenever
    ``indent`` is set, which takes seconds over a dense grid's evolved rows,
    so those rows are written from a %-template instead: they hold only
    finite floats (:func:`run_scenario` makes them so and
    :func:`record_from_dict` checks it), and json writes a finite float as
    its repr.  json.dumps writes every other block.  The text is joined
    once from its chunks, so the rows are not copied block by block.
    """
    results = {
        kind: _container("[]", map(_row_json, block), 2)
        if kind == "evolved_states"
        else [_json_at(block, 2)]
        for kind, block in record.results.items()
    }
    members = {
        key: [_json_at(value, 1)]
        for key, value in record_to_dict(record).items()
        if key != "results"
    }
    members["results"] = _object(results, 1)
    return "".join([*_object(members, 0), "\n"])


def canonical_result_bytes(record: RunRecord) -> bytes:
    """Byte form used for determinism comparisons: everything except the
    creation timestamp, which is honest provenance but not a result."""
    body = record_to_dict(record)
    body["provenance"] = {
        k: v for k, v in body["provenance"].items() if k != "created_utc"
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


# --- export ------------------------------------------------------------------

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

#: One CSV row, a %r slot per column.
_CSV_ROW = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
#: Export text goes to disk in pieces of about this many characters (CSV
#: rows are joined in blocks of ``_CSV_BLOCK_ROWS``), so no copy of a whole
#: dense record, joined or encoded, is ever held at once.
_WRITE_CHARS = 1 << 20
_CSV_BLOCK_ROWS = 4096


def _csv_lines(record: RunRecord) -> Iterator[str]:
    """Header plus one row per grid point: angles, amplitudes, concurrence.

    Prefers the evolved-states block; a record holding only a concurrence
    profile still exports, with the states recomputed at phi = 0 from the
    config echo so the file is self-contained either way.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    if "evolved_states" in record.results:
        for row in record.results["evolved_states"]:
            a, b, c, d = row["amplitudes"]
            yield _CSV_ROW % (row["theta"], row["phi"], *a, *b, *c, *d, row["concurrence"])
    elif "concurrence_profile" in record.results:
        block = record.results["concurrence_profile"]
        if isinstance(block, dict) and "samples" in block:
            initial = record.config.initial.build()
            for theta, value in block["samples"]:
                state = evolve_family(initial, TorusPoint(theta, 0.0))
                parts = [part for z in state.vector.tolist() for part in (z.real, z.imag)]
                yield _CSV_ROW % (theta, 0.0, *parts, value)


def _flatten_for_meta(prefix: str, value: Any, into: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten_for_meta(f"{prefix}.{key}" if prefix else key, value[key], into)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten_for_meta(f"{prefix}[{i}]", item, into)
    else:
        into.append((prefix, value))


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # Cast guards against numpy scalars, whose repr is not a bare number.
        return repr(float(value))
    return str(value)


def export_record(record: RunRecord, format: str, path: str) -> None:
    """Write a record to disk as JSON (the whole record) or CSV (grid data).

    CSV uses a dot decimal separator, comma delimiter, and LF line endings.
    Each grid row is one %-template of float reprs rather than a join of
    per-cell strings: the rows hold only finite floats, for the reason
    :func:`record_to_json` gives, so the template writes what per-cell
    formatting would, in a fraction of the time.  Both formats reach the
    file in pieces of about a megabyte: a dense record written in one call
    is first copied whole by the encoder, and that copy set the peak memory
    of a run, by an amount that varied from one run to the next.
    Scalar blocks (metric, classification) do not fit a per-point table;
    they go to a key,value sidecar at ``<path>.meta.csv`` when present.
    """
    if format == "json":
        text = record_to_json(record)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for start in range(0, len(text), _WRITE_CHARS):
                handle.write(text[start : start + _WRITE_CHARS])
        return
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}")

    lines = _csv_lines(record)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            handle.write("".join(block))

    scalar_blocks = {
        kind: record.results[kind]
        for kind in ("metric", "classify")
        if kind in record.results
    }
    if scalar_blocks:
        flat: list[tuple[str, Any]] = []
        _flatten_for_meta("", scalar_blocks, flat)
        meta_lines = ["key,value"]
        meta_lines += [f"{key},{_format_cell(value)}" for key, value in flat]
        with open(f"{path}.meta.csv", "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(meta_lines) + "\n")
