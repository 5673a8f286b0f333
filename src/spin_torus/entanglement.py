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
from .manifold import TorusPoint, evolve_family, family_invariants
from .qstate import PureState2Q

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

_MAX_GRID = 4096


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

    theta_max is the location of the global maximum over [0, pi) -- found by
    its own dense search, not read off the samples -- and is_constant records
    whether the profile is flat (the orbit of a Hamiltonian eigenstate, where
    the evolution only turns phases).
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


def concurrence(state: PureState2Q) -> float:
    """Concurrence 2|ad - bc| of a pure two-qubit state."""
    a, b, c, d = state.vector.tolist()
    return _clamp_unit(2.0 * abs(a * d - b * c))


def concurrence_wootters_oracle(state: PureState2Q) -> float:
    """Concurrence via the spin-flip density-matrix route.

    Forms rho = |psi><psi| and the flipped rho-tilde, then takes
    C = max(0, r1 - r2 - r3 - r4) over the decreasing square roots of the
    eigenvalues of rho rho-tilde.  Those eigenvalues are obtained from the
    Hermitian product sqrt(rho) rho-tilde sqrt(rho), which is similar to
    rho rho-tilde but safe to hand to a symmetric eigensolver.

    Shares no algebra with :func:`concurrence`; exists purely to check it.

    Eigenvalues at machine-noise scale (below 1e-13 for these trace-one
    matrices) are restored to the exact zeros they represent before the
    square roots are taken; without that, sqrt turns +eps noise into 1e-8
    artifacts, two orders above the agreement tolerance with the closed
    form.
    """
    vec = state.vector
    rho = np.outer(vec, vec.conj())
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals, evecs = np.linalg.eigh(rho)
    evals = np.where(evals < 1e-14, 0.0, evals)
    sqrt_rho = (evecs * np.sqrt(evals)) @ evecs.conj().T
    product_evals = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    product_evals = np.where(product_evals < 1e-13, 0.0, product_evals)
    roots = np.sqrt(product_evals)[::-1]
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def _w_and_derivatives(
    initial: PureState2Q, theta: float | np.ndarray
) -> tuple[complex | np.ndarray, complex | np.ndarray, complex | np.ndarray]:
    """The complex amplitude w(theta) with C = 2|w|, plus its first two
    theta derivatives.

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
    phase = exp(-2j * theta)
    cos2 = cos(2.0 * theta)
    sin2 = sin(2.0 * theta)
    w = ad * phase - bc * cos2 + 0.5j * sq * sin2
    w1 = -2j * ad * phase + 2.0 * bc * sin2 + 1j * sq * cos2
    w2 = -4.0 * ad * phase + 4.0 * bc * cos2 - 2j * sq * sin2
    return w, w1, w2


def concurrence_evolved(initial: PureState2Q, theta: float) -> float:
    """Closed-form concurrence of the evolved state at exchange angle theta.

    Independent of the field angle phi, which only turns phases on the outer
    amplitudes.
    """
    w, _, _ = _w_and_derivatives(initial, theta)
    return _clamp_unit(2.0 * abs(complex(w)))


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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    inv = family_invariants(initial)
    radius = gamma * np.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0))
    return concurrence_evolved(initial, theta), float(radius)


# --- maximization ------------------------------------------------------------

def _golden_shrink(
    initial: PureState2Q, lo: float, hi: float, width: float
) -> tuple[float, float]:
    """Shrink [lo, hi] around a maximum of C^2 by golden-section search."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0

    def value(theta: float) -> float:
        w, _, _ = _w_and_derivatives(initial, theta)
        return abs(complex(w)) ** 2

    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = value(x1), value(x2)
    while hi - lo > width:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = value(x1)
    return lo, hi


def _polish_maximum(initial: PureState2Q, lo: float, hi: float) -> float:
    """Refine a bracketed maximum of C^2 to machine precision.

    Golden-section comparisons alone stall around sqrt(eps) in theta because
    the function is flat at a smooth peak, so after an initial shrink the
    location is polished by Newton iteration on the analytic derivative.
    Falls back to the golden-section midpoint if the peak is too degenerate
    for Newton (vanishing curvature).
    """
    lo, hi = _golden_shrink(initial, lo, hi, 1e-6)
    theta = 0.5 * (lo + hi)
    span = hi - lo
    for _ in range(40):
        w, w1, w2 = _w_and_derivatives(initial, theta)
        w, w1, w2 = complex(w), complex(w1), complex(w2)
        slope = 2.0 * (w.conjugate() * w1).real
        curvature = 2.0 * (abs(w1) ** 2 + (w.conjugate() * w2).real)
        if curvature >= 0.0:
            break
        step = -slope / curvature
        if abs(step) > 10.0 * span:
            break
        theta += step
        if abs(step) < 1e-14:
            return theta
    # Degenerate peak: keep shrinking by comparisons and accept the floor.
    lo, hi = _golden_shrink(initial, lo, hi, 1e-11)
    return 0.5 * (lo + hi)


def _argmax_concurrence(initial: PureState2Q) -> tuple[list[float], float, bool]:
    """All global-maximum locations of the concurrence over [0, pi).

    Returns (sorted theta values, the maximum, whether the profile is flat).
    The profile is a degree-two trigonometric polynomial under the absolute
    value, so a 4096-point grid brackets every peak with a huge margin; each
    candidate bracket is then polished independently.
    """
    grid = np.linspace(0.0, np.pi, _MAX_GRID, endpoint=False)
    w, _, _ = _w_and_derivatives(initial, grid)
    values = 2.0 * np.abs(w)
    top = float(values.max())
    if top - float(values.min()) < 1e-13:
        return [0.0], _clamp_unit(top), True

    left = np.roll(values, 1)
    right = np.roll(values, -1)
    is_peak = (values >= left) & (values >= right) & (values > top - 1e-4)
    peak_indices = np.flatnonzero(is_peak)

    candidates: list[tuple[float, float]] = []
    step = np.pi / _MAX_GRID
    for idx in peak_indices:
        # Skip the right half of a flat-top plateau; one polish per bracket.
        if (idx - 1) % _MAX_GRID in peak_indices and idx != 0:
            continue
        theta = _polish_maximum(initial, grid[idx] - step, grid[idx] + step)
        w_at, _, _ = _w_and_derivatives(initial, theta)
        candidates.append((float(theta % np.pi), 2.0 * abs(complex(w_at))))

    best = max(value for _, value in candidates)
    winners = sorted(
        theta for theta, value in candidates if value >= best - 1e-11
    )
    # Merge duplicates, treating theta ~ pi as the wrapped image of 0.
    merged: list[float] = []
    for theta in winners:
        if theta > np.pi - 1e-9:
            theta = 0.0
        if all(abs(theta - seen) > 1e-9 for seen in merged):
            merged.append(theta)
    return sorted(merged), _clamp_unit(best), False


def concurrence_profile(
    initial: PureState2Q,
    thetas: Sequence[float] | np.ndarray | None = None,
) -> ConcurrenceProfile:
    """Sample the concurrence along the exchange angle.

    The maximum reported alongside the samples comes from a dense search of
    its own, so coarse sampling grids do not degrade it.
    """
    if thetas is None:
        thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
    grid = np.asarray(thetas, dtype=np.float64)
    w, _, _ = _w_and_derivatives(initial, grid)
    values = 2.0 * np.abs(np.atleast_1d(w))
    samples = tuple(
        (float(theta), _clamp_unit(float(value)))
        for theta, value in zip(np.atleast_1d(grid), values)
    )
    winners, c_max, flat = _argmax_concurrence(initial)
    return ConcurrenceProfile(
        initial=initial,
        samples=samples,
        theta_max=winners[0],
        c_max=c_max,
        is_constant=flat,
    )


def max_entanglement_time(
    initial: PureState2Q, params: SystemParams
) -> MaxEntanglement:
    """Earliest positive time at which the evolution reaches its maximal
    concurrence, together with the exchange angle and value there.

    The concurrence is pi-periodic in theta = 2 J t, so every maximizing
    angle recurs; among all of them the smallest positive time is returned.
    A flat profile attains its maximum at every time, reported as t = 0.
    """
    coupling = params.coupling
    if coupling == 0.0:
        raise ZeroCoupling("J = 0 leaves the exchange angle frozen at zero")
    winners, c_max, flat = _argmax_concurrence(initial)
    if flat:
        return MaxEntanglement(time=0.0, theta=0.0, concurrence=c_max)
    best: tuple[float, float] | None = None
    for theta in winners:
        if coupling > 0:
            t = theta / (2.0 * coupling) if theta > 1e-12 else np.pi / (2.0 * coupling)
        else:
            t = (theta - np.pi) / (2.0 * coupling)
        if best is None or t < best[0]:
            best = (t, theta)
    assert best is not None
    return MaxEntanglement(time=float(best[0]), theta=float(best[1]), concurrence=c_max)


def entanglement_along_orbit(
    initial: PureState2Q, theta: float, phis: Sequence[float]
) -> list[float]:
    """Concurrence at several field angles with the exchange angle fixed.

    The values are all equal -- the field only turns phases -- and this
    helper exists so that claim can be tested against the actual evolution
    rather than against the closed form that already assumes it.
    """
    return [
        concurrence(evolve_family(initial, TorusPoint(theta, phi))) for phi in phis
    ]
