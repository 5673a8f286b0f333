"""Pure two-qubit states and elementary ray-space operations.

Amplitudes (a, b, c, d) are always ordered over the product basis
|up up>, |up down>, |down up>, |down down>.  Every module in the package
uses this single ordering.

All objects here are immutable values and all functions are pure, so
everything may be called concurrently without locking.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance on the squared norm for assert-normalized constructors.
NORM_TOL = 1e-12


def all_finite(*values: float) -> bool:
    """Whether every value is a finite number within the float range.  An
    integer beyond that range counts as infinite rather than raising."""
    try:
        for value in values:  # a loop costs less than all(map(...)) on a few values
            if not math.isfinite(value):
                return False
    except OverflowError:
        return False
    return True


def check_state_rows(rows: Iterable[Sequence[complex]]) -> None:
    """The :class:`PureState2Q` guard: ``ValueError`` unless each row of
    amplitudes is finite and normalized within ``NORM_TOL``."""
    # Plain Python: numpy's per-call overhead dwarfs the arithmetic on a
    # 4-vector, checked once per evolved point.  abs() is hypot, summed in order.
    # A non-finite amplitude makes the sum NaN or inf, so finiteness is asked
    # only of a row that fails the norm.
    for amplitudes in rows:
        try:
            m0, m1, m2, m3 = map(abs, amplitudes)
            norm_sq = m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3
        except OverflowError:  # a finite amplitude whose modulus overflows
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            if not all(map(cmath.isfinite, amplitudes)):
                raise ValueError("state amplitudes must be finite")
            raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {norm_sq!r}")


def _amplitude_vector(values: object) -> np.ndarray:
    """``values`` as a new complex 4-vector.  An integer beyond the float
    range stands for a non-finite amplitude and is refused as one."""
    try:
        return np.array(values, dtype=np.complex128).reshape(4)
    except OverflowError:
        raise ValueError("state amplitudes must be finite") from None


def _check_bloch_angles(chi: float, gamma_az: float) -> None:
    if not all_finite(chi, gamma_az):
        raise ValueError("Bloch angles must be finite")


@dataclass(frozen=True, eq=False)
class PureState2Q:
    """Normalized pure state of two spin-1/2 particles.

    Wraps a read-only complex 4-vector.  The plain constructor asserts
    normalization within ``NORM_TOL``; use :meth:`normalized` to rescale
    arbitrary amplitudes instead.  Explicit failure is preferred over
    silent rescaling so unnormalized input never slips through a test.
    """

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = _amplitude_vector(self.vector)
        check_state_rows((vec.tolist(),))
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_amplitudes(cls, a: complex, b: complex, c: complex, d: complex) -> PureState2Q:
        """Assert-normalized constructor from the four basis amplitudes."""
        return cls([a, b, c, d])

    @classmethod
    def normalized(cls, a: complex, b: complex, c: complex, d: complex) -> PureState2Q:
        """Normalize-for-me constructor; rejects only the zero vector."""
        vec = _amplitude_vector([a, b, c, d])
        if not np.isfinite(vec).all():
            raise ValueError("state amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if not 1e-15 <= norm < math.inf:
            # The squares overflow or lose their bits to underflow: scale the
            # parts by a power of two first, which is exact, so the largest
            # lies in [0.5, 1).
            parts = vec.view(np.float64)
            largest = float(np.abs(parts).max())
            if largest == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = np.ldexp(parts, -math.frexp(largest)[1]).view(np.complex128)
            norm = float(np.linalg.norm(vec))
        return cls(vec / norm)

    @property
    def a(self) -> complex:
        return complex(self.vector[0])

    @property
    def b(self) -> complex:
        return complex(self.vector[1])

    @property
    def c(self) -> complex:
        return complex(self.vector[2])

    @property
    def d(self) -> complex:
        return complex(self.vector[3])

    def __repr__(self) -> str:
        amps = ", ".join(f"({z.real:+.6g}{z.imag:+.6g}j)" for z in self.vector)
        return f"PureState2Q[{amps}]"


@dataclass(frozen=True, eq=False)
class Operator4:
    """Dense 4x4 complex operator on the two-spin Hilbert space."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128).reshape(4, 4).copy()
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls) -> Operator4:
        return cls(np.eye(4, dtype=np.complex128))

    def adjoint(self) -> Operator4:
        return Operator4(self.matrix.conj().T)

    def __matmul__(self, other: Operator4) -> Operator4:
        return Operator4(self.matrix @ other.matrix)

    def __add__(self, other: Operator4) -> Operator4:
        return Operator4(self.matrix + other.matrix)

    def unitarity_residual(self) -> float:
        """Entrywise max-abs deviation of U^dagger U from the identity."""
        delta = self.matrix.conj().T @ self.matrix - np.eye(4)
        return float(np.max(np.abs(delta)))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        return self.unitarity_residual() <= tol

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) <= tol


# --- operations --------------------------------------------------------------

def inner(lhs: PureState2Q, rhs: PureState2Q) -> complex:
    """Hilbert-space inner product <lhs|rhs>, conjugating the left argument."""
    return complex(np.vdot(lhs.vector, rhs.vector))


def apply(op: Operator4, state: PureState2Q) -> PureState2Q:
    """Apply a norm-preserving operator to a state.

    The result goes through the assert-normalized constructor, so applying
    an operator that does not preserve the norm raises ``ValueError``.  Use
    ``op.matrix @ state.vector`` for raw matrix-vector products (for example
    eigen-residual checks with a Hamiltonian).
    """
    return PureState2Q(op.matrix @ state.vector)


def fs_distance_sq(x: PureState2Q, y: PureState2Q, gamma: float = 1.0) -> float:
    """Squared Fubini-Study distance gamma^2 (1 - |<x|y>|^2).

    Symmetric, invariant under independent global phases on either argument,
    and bounded by [0, gamma^2].
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return overlap_distance_sq(inner(x, y), gamma)


def overlap_distance_sq(overlap: complex, gamma: float) -> float:
    """Squared Fubini-Study distance of two states from their overlap."""
    # Rounding can push |<x|y>|^2 a hair past 1 for identical rays.
    return gamma * gamma * min(max(1.0 - abs(overlap) ** 2, 0.0), 1.0)


def ray_equal(x: PureState2Q, y: PureState2Q, tol: float = 1e-12) -> bool:
    """Whether the two states coincide as rays (equal modulo a global phase)."""
    return abs(inner(x, y)) ** 2 >= 1.0 - tol


# --- basis and named states --------------------------------------------------

def basis_state(index: int) -> PureState2Q:
    """The computational basis state at ``index`` in the canonical ordering."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[index] = 1.0
    return PureState2Q(vec)


def up_up() -> PureState2Q:
    return basis_state(0)


def up_down() -> PureState2Q:
    return basis_state(1)


def down_up() -> PureState2Q:
    return basis_state(2)


def down_down() -> PureState2Q:
    return basis_state(3)


def triplet_zero() -> PureState2Q:
    """The symmetric combination (|up down> + |down up>)/sqrt(2)."""
    return PureState2Q.normalized(0.0, 1.0, 1.0, 0.0)


def singlet() -> PureState2Q:
    """The antisymmetric combination (|up down> - |down up>)/sqrt(2)."""
    return PureState2Q.normalized(0.0, 1.0, -1.0, 0.0)


def bloch_plus(chi: float, gamma_az: float) -> np.ndarray:
    """Single-qubit state along the Bloch direction (chi, gamma_az).

    cos(chi/2)|up> + sin(chi/2) e^{i gamma_az}|down>, with the azimuthal
    phase carried by the |down> component.
    """
    _check_bloch_angles(chi, gamma_az)
    return np.array(
        [np.cos(chi / 2), np.sin(chi / 2) * np.exp(1j * gamma_az)],
        dtype=np.complex128,
    )


def bloch_minus(chi: float, gamma_az: float) -> np.ndarray:
    """Single-qubit state opposite to the Bloch direction (chi, gamma_az)."""
    _check_bloch_angles(chi, gamma_az)
    return np.array(
        [-np.sin(chi / 2), np.cos(chi / 2) * np.exp(1j * gamma_az)],
        dtype=np.complex128,
    )


def product_state(first: np.ndarray, second: np.ndarray) -> PureState2Q:
    """Tensor product of two single-qubit states, first spin slowest."""
    return PureState2Q(np.kron(first, second))


def plus_minus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |+ -> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_plus(chi, gamma_az), bloch_minus(chi, gamma_az))


def plus_plus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |+ +> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_plus(chi, gamma_az), bloch_plus(chi, gamma_az))


def minus_minus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |- -> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_minus(chi, gamma_az), bloch_minus(chi, gamma_az))


def random_state(rng: np.random.Generator) -> PureState2Q:
    """Haar-random pure state drawn from the given generator."""
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState2Q(raw / np.linalg.norm(raw))
