"""Two-spin Heisenberg Hamiltonian with a mean-field z term, and its exact
time-evolution operator.

The interaction part couples the spins isotropically with strength J and
carries a constant energy offset so its spectrum is {2J, 2J, 2J, -2J}; the
mean-field part is a uniform z field of strength h_z acting on both spins.
The two parts commute, which is what makes the propagator factorize and the
whole problem exactly solvable.  Planck's constant is set to 1 throughout,
so time carries units of inverse energy.

Three independent routes to the propagator are provided (closed form,
squared-interaction expansion times z rotations, spectral resolution); the
verification suite insists they agree rather than letting one definition
vouch for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import Operator4, all_finite, check_gamma, check_operator_stack

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)

#: sigma^1 . sigma^2 + 1, the interaction Hamiltonian per unit J, from the
#: isotropic exchange operator sigma^1 . sigma^2 (first spin slowest).
_EXCHANGE = (
    np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
) + np.eye(4)

#: sigma_z^1 + sigma_z^2, the total z spin doubled.
_SZ_TOTAL = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)

#: The eigenvectors of every (J, h_z), as columns in the fixed order
#: |up up>, |down down>, triplet-zero, singlet.
_R = 1.0 / np.sqrt(2.0)
_EIGENVECTORS = np.array(
    [[1, 0, 0, 0], [0, 0, _R, _R], [0, 0, _R, -_R], [0, 1, 0, 0]], dtype=np.complex128
)

#: Below this value of |2 J t| the sin(2Jt)/(2J) ratio switches to its
#: Taylor series, which also covers J = 0 exactly.
_SMALL_PHASE = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters: exchange strength J, field h_z, length scale gamma.

    gamma only scales distances on the state manifold; it never enters the
    dynamics.  J and h_z may take any finite real value, including zero,
    whose spectrum bound 2(|J| + |h_z|) is finite too.  Each ``ValueError``
    begins with the name of the field it refuses.
    """

    coupling: float
    field: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("coupling", "field"):
            value = getattr(self, name)
            if not all_finite(value):
                got = "an integer beyond the float range" if isinstance(value, int) else repr(value)
                raise ValueError(f"{name} must be finite, got {got}")
        if not math.isfinite(2.0 * (abs(float(self.coupling)) + abs(float(self.field)))):
            name = "coupling" if abs(self.coupling) >= abs(self.field) else "field"
            raise ValueError(
                f"{name} is too large: the spectrum bound 2(|J| + |h_z|) of "
                f"J = {self.coupling!r}, h_z = {self.field!r} overflows"
            )
        check_gamma(self.gamma)


class EigenSystem(NamedTuple):
    """Eigenvalues and eigenvectors of the full Hamiltonian, in the fixed
    order: |up up>, |down down>, triplet-zero, singlet."""

    values: np.ndarray
    vectors: np.ndarray  # columns are the eigenvectors, same order as values


def build_h_int(params: SystemParams) -> Operator4:
    """Interaction Hamiltonian J (sigma^1 . sigma^2 + 1)."""
    return Operator4(params.coupling * _EXCHANGE)


def build_h_mf(params: SystemParams) -> Operator4:
    """Mean-field Hamiltonian h_z (sigma_z^1 + sigma_z^2)."""
    return Operator4(params.field * _SZ_TOTAL)


def build_hamiltonian(params: SystemParams) -> Operator4:
    """Full Hamiltonian, the sum of the interaction and mean-field parts."""
    return build_h_int(params) + build_h_mf(params)


def _eigenvalues(j, h) -> np.ndarray:
    """The closed-form eigenvalues in the order of ``_EIGENVECTORS``, over a
    trailing axis of 4."""
    return np.stack((2.0 * (j + h), 2.0 * (j - h), 2.0 * j, -2.0 * j), axis=-1)


def eigensystem(params: SystemParams) -> EigenSystem:
    """Closed-form spectrum in the fixed order |up up>, |down down>,
    triplet-zero, singlet.

    No numerical diagonalization is involved: the eigenvectors are the same
    for every (J, h_z) and only the eigenvalues move.
    """
    values, vectors = _eigenvalues(params.coupling, params.field), _EIGENVECTORS.copy()
    vectors.setflags(write=False)
    values.setflags(write=False)
    return EigenSystem(values=values, vectors=vectors)


# --- propagators -------------------------------------------------------------
#
# Each route is a kernel over arrays (J, h_z, t) of one shape, returning the
# stack (..., 4, 4) under one Operator4 guard; the public (params, t)
# function is its call on one element, as 0-d arrays.  Its arithmetic is
# elementwise and BLAS runs once per matrix, so each matrix has the bits of
# its own call wherever numpy's sin, cos and exp do, as the tests check.

def propagator_analytic_stack(coupling, field, t) -> np.ndarray:
    """Exact propagators e^{-i H t} written out entry by entry.

    The outer corners pick up pure phases from the fully polarized states;
    the central block mixes |up down> and |down up> through a rotation by
    the accumulated exchange angle 2 J t.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the operator guard refuses inf and NaN
        j, h, t = np.asarray((coupling, field, t), dtype=np.float64)
        theta = 2.0 * j * t
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        mat = np.zeros(theta.shape + (4, 4), dtype=np.complex128)
        mat[..., 0, 0] = np.exp(-2j * (h + j) * t)
        mat[..., 3, 3] = np.exp(2j * (h - j) * t)
        mat[..., 1, 1] = cos_t
        mat[..., 2, 2] = cos_t
        mat[..., 1, 2] = -1j * sin_t
        mat[..., 2, 1] = -1j * sin_t
        return check_operator_stack(mat)


def propagator_factored_stack(coupling, field, t) -> np.ndarray:
    """Propagators as e^{-i H_int t} times the two single-spin z rotations.

    Valid because the interaction and mean-field parts commute; the factors
    themselves also commute with each other so the order is irrelevant.
    H_int^2 = (2J)^2 I truncates the first to cos(2Jt) I - i sin(2Jt)/(2J)
    H_int; the rotations e^{-i h sigma_z^1 t} (first spin, the slow index)
    and e^{-i h sigma_z^2 t} are diagonal.
    """
    # The branch not taken may divide by zero; the operator guard refuses inf and NaN.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j, h, t = np.asarray((coupling, field, t), dtype=np.float64)
        x = 2.0 * j * t
        # sin(x)/(2J) by the Taylor series of sin(x)/x for |x| < 1e-6, which covers
        # J = 0; its x^4 term, below 8.4e-27, is under half an ulp of 1 - x^2/6.
        ratio = np.where(
            np.abs(x) < _SMALL_PHASE,
            t * (1.0 - x * x / 6.0),
            np.sin(x) / (2.0 * j),
        )
        h_int = j[..., None, None] * _EXCHANGE
        interaction = np.cos(x)[..., None, None] * np.eye(4) - (1j * ratio)[..., None, None] * h_int
        down, up = np.exp(-1j * h * t), np.exp(1j * h * t)
        phases = np.moveaxis(np.array([[down, down, up, up], [down, up, down, up]]), 1, -1)
        rotations = np.zeros(phases.shape + (4,), dtype=np.complex128)
        rotations[..., range(4), range(4)] = phases
        return check_operator_stack(interaction @ rotations[0] @ rotations[1])


def propagator_spectral_stack(coupling, field, t) -> np.ndarray:
    """Propagators assembled from the spectral resolution sum_k
    e^{-i lambda_k t} |v_k><v_k|, with the spectrum of :func:`eigensystem`.

    This is the reference route used to cross-check the closed forms; it
    touches none of their trigonometry.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the operator guard refuses inf and NaN
        j, h, t = np.asarray((coupling, field, t), dtype=np.float64)
        phases = np.exp(-1j * _eigenvalues(j, h) * t[..., None])
        mat = np.zeros(t.shape + (4, 4), dtype=np.complex128)
        for k, vec in enumerate(_EIGENVECTORS.T):
            mat += phases[..., k, None, None] * np.outer(vec, vec.conj())
        return check_operator_stack(mat)


def propagator_analytic(params: SystemParams, t: float) -> Operator4:
    """e^{-i H t} in closed form: the one-element call of :func:`propagator_analytic_stack`."""
    return Operator4(propagator_analytic_stack(params.coupling, params.field, t))


def propagator_factored(params: SystemParams, t: float) -> Operator4:
    """e^{-i H_int t} times z rotations: the one-element call of :func:`propagator_factored_stack`."""
    return Operator4(propagator_factored_stack(params.coupling, params.field, t))


def propagator_spectral(params: SystemParams, t: float) -> Operator4:
    """e^{-i H t} from the spectrum: the one-element call of :func:`propagator_spectral_stack`."""
    return Operator4(propagator_spectral_stack(params.coupling, params.field, t))
