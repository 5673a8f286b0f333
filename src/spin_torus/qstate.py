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
from typing import NoReturn, Sequence

import numpy as np

#: Absolute tolerance on the squared norm for assert-normalized constructors.
NORM_TOL = 1e-12
#: Largest length scale gamma; gamma^2 and every metric form it scales stay finite.
MAX_GAMMA = 1e150


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


def check_gamma(gamma: float) -> None:
    """The one rule for the length scale gamma, wherever it enters:
    ``ValueError`` unless it is a finite real with 0 < gamma <= ``MAX_GAMMA``.
    A tiny gamma is allowed; the metric it scales may underflow to 0."""
    if not 0 < gamma <= MAX_GAMMA:  # NaN fails both comparisons
        raise ValueError(f"gamma must be finite and in (0, {MAX_GAMMA!r}]")


def check_state_row(amplitudes: Sequence[complex]) -> None:
    """The :class:`PureState2Q` guard: ``ValueError`` unless the row of
    amplitudes is finite and normalized within ``NORM_TOL``.
    :func:`check_state_array` guards many rows at once."""
    # Plain Python: numpy's per-call overhead dwarfs the arithmetic on a
    # 4-vector, checked once per evolved point.  abs() is hypot, summed in order.
    # A non-finite amplitude makes the sum NaN or inf, so finiteness is asked
    # only of a row that fails the norm.
    try:
        m0, m1, m2, m3 = map(abs, amplitudes)
        norm_sq = m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3
    except OverflowError:  # a finite amplitude whose modulus overflows
        norm_sq = math.inf
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        _refuse_row(amplitudes, norm_sq)


def _refuse_row(amplitudes: Sequence[complex], norm_sq: float) -> NoReturn:
    """The guard's error for a row whose squared norm ``norm_sq`` failed."""
    if not all(map(cmath.isfinite, amplitudes)):
        raise ValueError("state amplitudes must be finite")
    raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {norm_sq!r}")


def _sum4(m: np.ndarray) -> np.ndarray:
    """The four entries of each row of an array (..., 4), added in order."""
    return m[..., 0] + m[..., 1] + m[..., 2] + m[..., 3]


def _norms_sq(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of an array (..., 4), with the bits of
    :func:`check_state_row`: np.hypot is the C library's hypot, as abs()
    of a Python complex is, and the squares are summed in the same order.
    A modulus or a square that overflows is inf, as there."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.hypot(rows.real, rows.imag)
        m *= m
        return _sum4(m)


def check_state_array(rows: np.ndarray) -> np.ndarray:
    """:func:`check_state_row` on each row of an array (..., 4) at once:
    ``rows``, or its ``ValueError`` for the first row that fails."""
    norms_sq = _norms_sq(rows)
    bad = ~(np.abs(norms_sq - 1.0) <= NORM_TOL)
    if bad.any():
        first = np.unravel_index(bad.argmax(), bad.shape)
        _refuse_row(rows[first].tolist(), float(norms_sq[first]))
    return rows


def check_operator_stack(matrices: np.ndarray) -> np.ndarray:
    """The :class:`Operator4` guard on a stack of operators (..., 4, 4):
    ``matrices``, or ``ValueError`` unless every entry is finite."""
    if not np.isfinite(matrices).all():
        raise ValueError("operator entries must be finite")
    return matrices


def unitarity_residuals(matrices: np.ndarray) -> np.ndarray:
    """Entrywise max-abs deviation of U^dagger U from the identity for each
    matrix of a stack (..., 4, 4), with the bits of a one-matrix call."""
    delta = np.swapaxes(matrices.conj(), -1, -2) @ matrices - np.eye(4)
    return np.abs(delta).max(axis=(-2, -1))


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

    Wraps a read-only complex 4-vector, whose amplitudes :meth:`a`,
    :meth:`b`, :meth:`c` and :meth:`d` give one by one.  The plain
    constructor asserts normalization within ``NORM_TOL``; use
    :meth:`normalized` to rescale arbitrary amplitudes instead.  Explicit
    failure is preferred over silent rescaling so unnormalized input never
    slips through a test.
    """

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = _amplitude_vector(self.vector)
        check_state_row(vec.tolist())
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
    """Dense 4x4 complex operator on the two-spin Hilbert space;
    :meth:`unitarity_residual` measures how far it is from unitary."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128).reshape(4, 4).copy()
        check_operator_stack(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __add__(self, other: Operator4) -> Operator4:
        return Operator4(self.matrix + other.matrix)

    def unitarity_residual(self) -> float:
        """Entrywise max-abs deviation of U^dagger U from the identity: the
        one-matrix call of :func:`unitarity_residuals`."""
        return float(unitarity_residuals(self.matrix))


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


def ray_distances_sq(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """1 - |<x|y>|^2 / (|x|^2 |y|^2) for each pair of rows of two complex
    arrays (..., 4), which broadcast: |y_perp|^2 / |y|^2, with y_perp =
    y - (<x|y>/<x|x>) x, so no two numbers near 1 are subtracted.  Every
    real part and four-term sum is one elementwise operation in a fixed
    order, with no BLAS call, so a row has the bits of Python's float
    arithmetic in that order on every CPU.
    """
    xr, xi, yr, yi = xs.real, xs.imag, ys.real, ys.imag
    xx = _sum4(xr * xr + xi * xi)
    # <x|y>/<x|x>, conjugating x
    cr = (_sum4(xr * yr + xi * yi) / xx)[..., None]
    ci = (_sum4(xr * yi - xi * yr) / xx)[..., None]
    pr = yr - (cr * xr - ci * xi)
    pi = yi - (cr * xi + ci * xr)
    return _sum4(pr * pr + pi * pi) / _sum4(yr * yr + yi * yi)


def fs_distance_sq(x: PureState2Q, y: PureState2Q, gamma: float = 1.0) -> float:
    """Squared Fubini-Study distance gamma^2 (1 - |<x|y>|^2): the one-pair
    call of :func:`ray_distances_sq`.

    Symmetric and invariant under independent global phases on either
    argument, to rounding; it is never negative, and exceeds gamma^2 by
    rounding at most.
    """
    check_gamma(gamma)
    return gamma * gamma * float(ray_distances_sq(x.vector, y.vector))


def ray_equal(x: PureState2Q, y: PureState2Q, tol: float = 1e-12) -> bool:
    """Whether the two states coincide as rays (equal modulo a global phase):
    whether their :func:`ray_distances_sq` is at most ``tol``."""
    return bool(ray_distances_sq(x.vector, y.vector) <= tol)


# --- basis and named states --------------------------------------------------

def basis_state(index: int) -> PureState2Q:
    """The computational basis state at ``index`` in the canonical ordering."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[index] = 1.0
    return PureState2Q(vec)


def up_down() -> PureState2Q:
    return basis_state(1)


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
    """Tensor product of two single-qubit states, first spin slowest, in
    CPython's complex products (np.kron's round apart where numpy uses FMA)."""
    seconds = np.asarray(second).tolist()
    return PureState2Q([x * y for x in np.asarray(first).tolist() for y in seconds])


def plus_minus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |+ -> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_plus(chi, gamma_az), bloch_minus(chi, gamma_az))


def plus_plus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |+ +> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_plus(chi, gamma_az), bloch_plus(chi, gamma_az))


def minus_minus_state(chi: float, gamma_az: float = 0.0) -> PureState2Q:
    """Product state |- -> for the Bloch direction (chi, gamma_az)."""
    return product_state(bloch_minus(chi, gamma_az), bloch_minus(chi, gamma_az))


def random_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-random pure states drawn from the given generator, any
    object with numpy's ``standard_normal(size)``, as the rows of an (n, 4)
    array under the state guard.

    Each state takes 8 normals in turn, the real parts of its amplitudes
    and then the imaginary ones.  The norm is np.linalg.norm's, two dot
    products of the strided real and imaginary parts, so a row has the
    bits of that state drawn alone.
    """
    raw = rng.standard_normal((n, 2, 4))
    vectors = raw[:, 0] + 1j * raw[:, 1]
    norms = np.sqrt(np.vecdot(vectors.real, vectors.real) + np.vecdot(vectors.imag, vectors.imag))
    vectors /= norms[:, None]
    return check_state_array(vectors)


def random_state(rng: np.random.Generator) -> PureState2Q:
    """Haar-random pure state drawn from the given generator: the one-state
    call of :func:`random_states`."""
    return PureState2Q(random_states(rng, 1)[0])
