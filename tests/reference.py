"""Plain reference routes, kept in the tests only: the package computes the
same bits, text and bytes by faster routes, and the tests compare the two."""

import cmath
import json
import math

import numpy as np

from spin_torus.entanglement import _clamp_unit
from spin_torus.scenario import CSV_COLUMNS


def concurrence(vector):
    """C = 2|ad - bc| of the amplitudes ``vector``, in CPython complex
    arithmetic, clamped as the package clamps."""
    a, b, c, d = vector
    return _clamp_unit(2.0 * abs(a * d - b * c))


def concurrence_evolved(vector, theta):
    """C = 2|w(theta)| of the amplitudes ``vector`` evolved to exchange
    angle ``theta``, in CPython complex arithmetic, clamped as the package
    clamps: w = ad e^{-2i theta} - bc cos 2theta + (i/2)(b^2+c^2) sin 2theta."""
    a, b, c, d = vector
    w = (
        a * d * cmath.exp(-2j * theta)
        - b * c * math.cos(2.0 * theta)
        + 0.5j * (b * b + c * c) * math.sin(2.0 * theta)
    )
    return _clamp_unit(2.0 * abs(w))


def row_object(row):
    """An evolved-states row as the record's JSON writes it."""
    theta, phi, a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im, value = row
    return {
        "theta": theta,
        "phi": phi,
        "amplitudes": [[a_re, a_im], [b_re, b_im], [c_re, c_im], [d_re, d_im]],
        "concurrence": value,
    }


def record_to_dict(record):
    """The record as plain JSON values, each profile sample a [theta, C]
    list and each evolved row an object."""
    results = record.results
    if "concurrence_profile" in results:
        profile = results["concurrence_profile"]
        samples = np.asarray(profile["samples"], dtype=np.float64).tolist()
        results = {**results, "concurrence_profile": {**profile, "samples": samples}}
    if "evolved_states" in results:
        rows = np.asarray(results["evolved_states"], dtype=np.float64)
        rows = rows.reshape(-1, len(CSV_COLUMNS)).tolist()
        results = {**results, "evolved_states": list(map(row_object, rows))}
    return {
        "schema_version": record.schema_version,
        "config": record.config.to_jsonable(),
        "results": results,
        "provenance": record.provenance,
    }


def compact_result_text(record):
    """The record's compact JSON, each evolved row an object and the
    creation timestamp left out: the byte form results were compared by
    before it took the rows' own bits."""
    body = record_to_dict(record)
    body["provenance"] = {k: v for k, v in body["provenance"].items() if k != "created_utc"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))
