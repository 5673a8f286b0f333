"""Concurrence of two-qubit pure states along the Heisenberg evolution.

For amplitudes (a, b, c, d) the concurrence is 2|ad - bc|.  Under the
evolution it depends only on the exchange angle theta, never on the field
angle phi, and admits a closed form; an independent spin-flip
(rho rho-tilde eigenvalue) oracle is provided so the closed form never has
to vouch for itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hamiltonian import SystemParams
from .manifold import _complex_product, _phi_circle_radius, evolve_grid, family_invariants
from .qstate import PureState2Q, check_gamma

#: Excursions beyond [0, 1] larger than this are treated as bugs, not noise.
_RANGE_SLACK = 1e-9
#: A state counts as a product state when its concurrence is below this.
DISENTANGLED_TOL = 1e-10

#: The spin-flip operator sigma_y (x) sigma_y, which happens to be real.
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

#: The concurrence profile's period in theta.
_QUARTER_TURN = 0.5 * math.pi


class ConcurrenceRangeError(ArithmeticError):
    """A computed concurrence fell outside [0, 1] by more than rounding."""


class NotDisentangled(ValueError):
    """The short product-state formula was asked for an entangled state."""


class ZeroCoupling(ValueError):
    """J = 0 freezes the exchange angle, so no time maximizes anything."""


class MaxEntanglement(NamedTuple):
    """Earliest positive time of maximal concurrence and the value reached."""

    time: float
    theta: float
    concurrence: float


@dataclass(frozen=True)
class ConcurrenceProfile:
    """Concurrence sampled along the exchange angle for one initial state.

    theta_max is the first location of the global maximum, in [0, pi/2) --
    taken from the closed form, not read off the samples -- and is_constant
    records whether the profile is flat (the orbit of a Hamiltonian
    eigenstate, where the evolution only turns phases).
    """

    initial: PureState2Q
    samples: tuple[tuple[float, float], ...]
    theta_max: float
    c_max: float
    is_constant: bool


def _clamp_unit(value: float) -> float:
    """Clamp to [0, 1], refusing excursions too large to be rounding and NaN."""
    if not -_RANGE_SLACK <= value <= 1.0 + _RANGE_SLACK:
        raise ConcurrenceRangeError(f"concurrence {value!r} is outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _clamp_unit_array(values: np.ndarray) -> np.ndarray:
    """:func:`_clamp_unit` on a whole array, in place: the first value out
    of range, or NaN, raises as it would alone; the rest clip to the same
    bits."""
    outside = ~((values >= -_RANGE_SLACK) & (values <= 1.0 + _RANGE_SLACK))
    if outside.any():
        _clamp_unit(float(values.flat[outside.argmax()]))
    return np.clip(values, 0.0, 1.0, out=values)


def concurrence(state: PureState2Q) -> float:
    """Concurrence 2|ad - bc| of a pure two-qubit state, in CPython complex
    arithmetic."""
    a, b, c, d = state.vector.tolist()
    return _clamp_unit(2.0 * abs(a * d - b * c))


def concurrence_stack(vectors: np.ndarray) -> np.ndarray:
    """:func:`concurrence` of each state vector of a stack (..., 4), with
    its bits: ad - bc is formed part by part as CPython's complex product
    and difference form it, and np.hypot is the C library's hypot, as abs()
    of a Python complex is."""
    vecs = np.asarray(vectors, dtype=np.complex128)
    a, b, c, d = vecs.reshape(-1, 4).T
    re, im = _complex_product(a.real, a.imag, d.real, d.imag)
    bc_re, bc_im = _complex_product(b.real, b.imag, c.real, c.imag)
    re -= bc_re
    im -= bc_im
    values = np.hypot(re, im, out=re)
    values *= 2.0
    return _clamp_unit_array(values).reshape(vecs.shape[:-1])


def concurrence_wootters_oracle(state: PureState2Q) -> float:
    """The one-state call of :func:`concurrence_wootters_oracle_stack`."""
    return float(concurrence_wootters_oracle_stack(state.vector))


def concurrence_wootters_oracle_stack(vectors: np.ndarray) -> np.ndarray:
    """Concurrence via the spin-flip density-matrix route, one value per
    state vector of a stack (..., 4).

    Forms rho = |psi><psi| and the flipped rho-tilde, then takes
    C = max(0, r1 - r2 - r3 - r4) over the decreasing square roots of the
    eigenvalues of rho rho-tilde.  Those roots are the singular values of
    sqrt(rho) sqrt(rho-tilde), and are taken that way: an eigenvalue route
    yields r^2 with an absolute error of eps, so a concurrence below
    sqrt(eps) ~ 1e-8 would drown in noise, while the singular values carry
    an absolute error of eps themselves.  sqrt(rho-tilde) is the spin flip
    of sqrt(rho), since the flip is a real orthogonal involution.

    Shares no algebra with :func:`concurrence`; exists purely to check it.

    Eigenvalues of rho at machine-noise scale (below 1e-14 for this
    trace-one matrix) are restored to the exact zeros they represent before
    the square roots are taken; without that, sqrt turns +eps noise into
    1e-8 artifacts in sqrt(rho).  numpy runs LAPACK and BLAS once per
    matrix of a stack, so each value has the bits of a one-state call.
    """
    vecs = np.asarray(vectors, dtype=np.complex128)
    rho = vecs[..., :, None] * vecs.conj()[..., None, :]
    evals, evecs = np.linalg.eigh(rho)
    evals = np.where(evals < 1e-14, 0.0, evals)
    sqrt_rho = (evecs * np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)
    sqrt_rho_tilde = _SPIN_FLIP @ sqrt_rho.conj() @ _SPIN_FLIP
    roots = np.linalg.svd(sqrt_rho @ sqrt_rho_tilde, compute_uv=False)
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(value > 0.0, value, 0.0)


def _w(initial: PureState2Q, theta: float | np.ndarray) -> complex | np.ndarray:
    """The complex amplitude w(theta) with C = 2|w|.

    w collects how the evolution mixes the outer product ad and the inner
    products: w = ad e^{-2i theta} - bc cos 2theta + (i/2)(b^2+c^2) sin 2theta.
    A scalar theta takes ``cmath``/``math``: numpy's 0-d bits, minus its overhead.
    """
    a, b, c, d = initial.vector.tolist()
    ad = a * d
    bc = b * c
    sq = b * b + c * c
    scalar = isinstance(theta, (int, float))
    exp, cos, sin = (cmath.exp, math.cos, math.sin) if scalar else (np.exp, np.cos, np.sin)
    return ad * exp(-2j * theta) - bc * cos(2.0 * theta) + 0.5j * sq * sin(2.0 * theta)


def concurrence_evolved(initial: PureState2Q, theta: float) -> float:
    """Closed-form concurrence of the evolved state at exchange angle theta.

    Independent of the field angle phi, which only turns phases on the outer
    amplitudes.
    """
    return _clamp_unit(2.0 * abs(complex(_w(initial, theta))))


def concurrence_disentangled(initial: PureState2Q, theta: float) -> float:
    """Concurrence growth formula |b - c|^2 |sin 2 theta|, valid only when
    the initial state is a product state (so that ad = bc)."""
    initial_c = concurrence(initial)
    if initial_c >= DISENTANGLED_TOL:
        raise NotDisentangled(
            f"initial concurrence {initial_c!r} is not zero; "
            "the product-state formula does not apply"
        )
    return _clamp_unit(abs(initial.b - initial.c) ** 2 * abs(np.sin(2.0 * theta)))


def constant_entanglement_circle(
    initial: PureState2Q, theta: float, gamma: float = 1.0
) -> tuple[float, float]:
    """The phi circle through exchange angle theta: every state on it has
    the same concurrence.  Returns (that concurrence, the circle's radius
    gamma sqrt(aligned - imbalance^2))."""
    check_gamma(gamma)
    radius = _phi_circle_radius(family_invariants(initial), gamma)
    return concurrence_evolved(initial, theta), float(radius)


# --- maximization ------------------------------------------------------------

def _closed_form_maximum(initial: PureState2Q) -> tuple[float, float, bool]:
    """Location in [0, pi/2) and value of the concurrence maximum, and
    whether the profile is flat.

    w(theta) = alpha e^{2i theta} + beta e^{-2i theta} with
    alpha = (b - c)^2 / 4 and beta = ad - (b + c)^2 / 4, so C = 2|w| swings
    between 2||alpha| - |beta|| and 2(|alpha| + |beta|), peaking where the
    two terms align: theta* = -arg(alpha conj(beta)) / 4, with period pi/2.
    """
    a, b, c, d = initial.vector.tolist()
    alpha = 0.25 * (b - c) * (b - c)
    beta = a * d - 0.25 * (b + c) * (b + c)
    c_max = _clamp_unit(2.0 * (abs(alpha) + abs(beta)))
    if 4.0 * min(abs(alpha), abs(beta)) < 1e-13:
        return 0.0, c_max, True
    theta = (-cmath.phase(alpha * beta.conjugate()) / 4.0) % _QUARTER_TURN
    # A tiny negative angle rounds up to pi/2 itself, the image of 0.
    return (theta if theta < _QUARTER_TURN else 0.0), c_max, False


def concurrence_profile(
    initial: PureState2Q,
    thetas: Sequence[float] | np.ndarray,
) -> ConcurrenceProfile:
    """Sample the concurrence at the exchange angles ``thetas``.

    The maximum reported alongside the samples is the closed form of
    :func:`_closed_form_maximum`, so coarse sampling grids do not degrade it.
    """
    grid = np.asarray(thetas, dtype=np.float64)
    values = _clamp_unit_array(2.0 * np.abs(np.atleast_1d(_w(initial, grid))))
    samples = tuple(zip(np.atleast_1d(grid).tolist(), values.tolist()))
    theta_max, c_max, flat = _closed_form_maximum(initial)
    return ConcurrenceProfile(
        initial=initial,
        samples=samples,
        theta_max=theta_max,
        c_max=c_max,
        is_constant=flat,
    )


def max_entanglement_time(
    initial: PureState2Q, params: SystemParams
) -> MaxEntanglement:
    """Earliest positive time at which the evolution reaches its maximal
    concurrence, together with the exchange angle (in [0, pi)) and value there.

    The concurrence is pi/2-periodic in theta = 2 J t, so the maximizing
    angle recurs; the first recurrence after t = 0 is returned.  A flat
    profile attains its maximum at every time, reported as t = 0.
    """
    coupling = params.coupling
    if coupling == 0.0:
        raise ZeroCoupling("J = 0 leaves the exchange angle frozen at zero")
    theta_star, c_max, flat = _closed_form_maximum(initial)
    if flat:
        return MaxEntanglement(time=0.0, theta=0.0, concurrence=c_max)
    # theta = 2 J t runs up from 0 for J > 0 and down from pi, its image, for
    # J < 0; a peak within 1e-12 of the start is met at t = 0, not after it.
    if coupling > 0:
        theta = theta_star if theta_star > 1e-12 else theta_star + _QUARTER_TURN
        time = theta / (2.0 * coupling)
    else:
        theta = theta_star + _QUARTER_TURN if theta_star < _QUARTER_TURN - 1e-12 else theta_star
        time = (theta - np.pi) / (2.0 * coupling)
    return MaxEntanglement(time=float(time), theta=theta, concurrence=c_max)


def entanglement_along_orbit(
    initials: Sequence[PureState2Q], thetas: Sequence[float], phis: np.ndarray
) -> np.ndarray:
    """Concurrence of initial state n at (thetas[n], phis[n, k]) for every
    k, shaped like ``phis``: the exchange angle fixed, the field angle moved.

    The values along a row are all equal -- the field only turns phases --
    and this helper exists so that claim can be tested against the actual
    evolution, one :func:`evolve_grid` call that guards every row, rather
    than against the closed form that already assumes it.
    """
    phi = np.asarray(phis, dtype=np.float64)
    theta = np.broadcast_to(np.asarray(thetas, dtype=np.float64)[:, None], phi.shape)
    amplitudes = np.array([state.vector for state in initials]).reshape(-1, 1, 4)
    return concurrence_stack(evolve_grid(amplitudes, theta, phi))
