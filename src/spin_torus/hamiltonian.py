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

from dataclasses import dataclass

import numpy as np

from .qstate import Operator4, all_finite, check_gamma

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)

#: sigma^1 . sigma^2, the isotropic exchange operator (first spin slowest).
_SIGMA_DOT_SIGMA = (
    np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
)

#: sigma_z^1 + sigma_z^2, the total z spin doubled.
_SZ_TOTAL = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)

#: Below this value of |2 J t| the sin(2Jt)/(2J) ratio switches to its
#: Taylor series, which also covers J = 0 exactly.
_SMALL_PHASE = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters: exchange strength J, field h_z, length scale gamma.

    gamma only scales distances on the state manifold; it never enters the
    dynamics.  J and h_z may take any finite real value, including zero.
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
        check_gamma(self.gamma)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenvectors of the full Hamiltonian, in the fixed
    order: |up up>, |down down>, triplet-zero, singlet."""

    values: np.ndarray
    vectors: np.ndarray  # columns are the eigenvectors, same order as values

    def __iter__(self):
        return iter((self.values, self.vectors))


def build_h_int(params: SystemParams) -> Operator4:
    """Interaction Hamiltonian J (sigma^1 . sigma^2 + 1)."""
    return Operator4(params.coupling * (_SIGMA_DOT_SIGMA + np.eye(4)))


def build_h_mf(params: SystemParams) -> Operator4:
    """Mean-field Hamiltonian h_z (sigma_z^1 + sigma_z^2)."""
    return Operator4(params.field * _SZ_TOTAL)


def build_hamiltonian(params: SystemParams) -> Operator4:
    """Full Hamiltonian, the sum of the interaction and mean-field parts."""
    return build_h_int(params) + build_h_mf(params)


def eigensystem(params: SystemParams) -> EigenSystem:
    """Closed-form spectrum in the fixed order |up up>, |down down>,
    triplet-zero, singlet.

    No numerical diagonalization is involved: the eigenvectors are the same
    for every (J, h_z) and only the eigenvalues move.
    """
    j, h = params.coupling, params.field
    values = np.array(
        [2.0 * (j + h), 2.0 * (j - h), 2.0 * j, -2.0 * j], dtype=np.float64
    )
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    vectors = np.zeros((4, 4), dtype=np.complex128)
    vectors[0, 0] = 1.0
    vectors[3, 1] = 1.0
    vectors[1, 2] = inv_sqrt2
    vectors[2, 2] = inv_sqrt2
    vectors[1, 3] = inv_sqrt2
    vectors[2, 3] = -inv_sqrt2
    vectors.setflags(write=False)
    values.setflags(write=False)
    return EigenSystem(values=values, vectors=vectors)


def propagator_analytic(params: SystemParams, t: float) -> Operator4:
    """Exact propagator e^{-i H t} written out entry by entry.

    The outer corners pick up pure phases from the fully polarized states;
    the central block mixes |up down> and |down up> through a rotation by
    the accumulated exchange angle 2 J t.
    """
    j, h = params.coupling, params.field
    theta = 2.0 * j * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = np.exp(-2j * (h + j) * t)
    mat[3, 3] = np.exp(2j * (h - j) * t)
    mat[1, 1] = cos_t
    mat[2, 2] = cos_t
    mat[1, 2] = -1j * sin_t
    mat[2, 1] = -1j * sin_t
    return Operator4(mat)


def _phase_ratio(j: float, t: float) -> float:
    """sin(2 J t) / (2 J), continued through J = 0 by its Taylor series."""
    x = 2.0 * j * t
    if abs(x) < _SMALL_PHASE:
        # sin(x)/x expanded; the x^4 term is already below double rounding
        # at the switchover but costs nothing.
        return t * (1.0 - x * x / 6.0 + x ** 4 / 120.0)
    return np.sin(x) / (2.0 * j)


def interaction_propagator(params: SystemParams, t: float) -> Operator4:
    """e^{-i H_int t} via the algebraic identity H_int^2 = (2J)^2 I.

    Because the square of the interaction Hamiltonian is a multiple of the
    identity, the exponential truncates to cos(2Jt) I - i sin(2Jt)/(2J) H_int.
    """
    h_int = build_h_int(params).matrix
    x = 2.0 * params.coupling * t
    return Operator4(
        np.cos(x) * np.eye(4) - 1j * _phase_ratio(params.coupling, t) * h_int
    )


def _z_rotation_first(h: float, t: float) -> np.ndarray:
    """e^{-i h sigma_z^1 t} acting on the first spin, the slow index."""
    return np.diag(np.exp([-1j * h * t] * 2 + [1j * h * t] * 2))


def _z_rotation_second(h: float, t: float) -> np.ndarray:
    """e^{-i h sigma_z^2 t} acting on the second spin, the fast index."""
    return np.diag(np.exp([-1j * h * t, 1j * h * t] * 2))


def propagator_factored(params: SystemParams, t: float) -> Operator4:
    """Propagator as e^{-i H_int t} times the two single-spin z rotations.

    Valid because the interaction and mean-field parts commute; the factors
    themselves also commute with each other so the order is irrelevant.
    """
    h = params.field
    product = (
        interaction_propagator(params, t).matrix
        @ _z_rotation_first(h, t)
        @ _z_rotation_second(h, t)
    )
    return Operator4(product)


def propagator_spectral(params: SystemParams, t: float) -> Operator4:
    """Propagator assembled from the spectral resolution sum_k
    e^{-i lambda_k t} |v_k><v_k|.

    This is the reference implementation used to cross-check the closed
    forms; it touches none of their trigonometry.
    """
    eig = eigensystem(params)
    mat = np.zeros((4, 4), dtype=np.complex128)
    for value, vec in zip(eig.values, eig.vectors.T):
        mat += np.exp(-1j * value * t) * np.outer(vec, vec.conj())
    return Operator4(mat)
