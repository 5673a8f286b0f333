"""Geometry of the two-parameter family swept out by Heisenberg evolution.

Evolving any fixed initial state under the two-spin Hamiltonian traces a
surface parametrized by the exchange angle theta = 2 J t and the field angle
phi = 2 h_z t.  As rays, the states are pi-periodic in theta and 2 pi-periodic
in phi, so the parameter space is a torus.  This module computes the
Fubini-Study metric on that torus three ways (closed form, finite
differences, and a shear substitution that kills the off-diagonal term) and
classifies the surface as a flat torus, a circle, or a single point.

The closed-form metric is *constant* over the torus -- the surface is flat --
and the finite-difference route exists precisely to check that claim without
reusing the closed form's algebra.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .qstate import PureState2Q, all_finite, check_state_rows, overlap_distance_sq

#: Steps below this make the quadratic finite-difference loss catastrophic.
MIN_STEP = 1e-6
#: Steps above this leave the small-displacement regime.
MAX_STEP = 1e-2
#: Default finite-difference step; about the sweet spot between truncation
#: O(h^4) after Richardson and rounding noise O(eps / h^2).
DEFAULT_STEP = 1e-4
#: Unit steps along theta and phi, the directions of the plain metric.
_AXES = ((1.0, 0.0), (0.0, 1.0))


class DegenerateShear(ValueError):
    """The phi direction is metrically null but the cross term is not,
    so no shear substitution can diagonalize the metric."""


class StepTooSmall(ValueError):
    """Finite-difference step so small the estimate would be pure noise."""


class TorusPoint:
    """A point (theta, phi) on the parameter torus, in radians."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float) -> None:
        if not all_finite(theta, phi):
            raise ValueError("torus coordinates must be finite")
        self.theta = float(theta)
        self.phi = float(phi)

    def canonical(self) -> TorusPoint:
        """Wrap into the fundamental cell [0, pi) x [0, 2 pi)."""
        return TorusPoint(self.theta % np.pi, self.phi % (2.0 * np.pi))

    def __repr__(self) -> str:
        return f"TorusPoint(theta={self.theta!r}, phi={self.phi!r})"


@dataclass(frozen=True)
class FamilyInvariants:
    """The three real combinations of initial amplitudes that fix the metric.

    aligned   -- total weight |a|^2 + |d|^2 in the fully polarized sector
    mismatch  -- |b - c|^2, the singlet weight doubled
    imbalance -- |a|^2 - |d|^2, polarization of the outer sector
    """

    aligned: float
    mismatch: float
    imbalance: float


@dataclass(frozen=True)
class MetricTensor2:
    """Fubini-Study metric of the torus family at a point, plus the sheared
    coordinates that diagonalize it.

    ``shear`` is the coefficient k of the substitution phi = phi' - k theta'
    that removes the cross term; it is None when the phi direction is
    degenerate and no substitution is needed.
    """

    g_theta_theta: float
    g_theta_phi: float
    g_phi_phi: float
    shear: float | None
    g_theta_theta_diag: float
    g_phi_phi_diag: float

    def determinant(self) -> float:
        return self.g_theta_theta * self.g_phi_phi - self.g_theta_phi ** 2


class ManifoldKind(enum.Enum):
    FLAT_TORUS = "flat_torus"
    CIRCLE = "circle"
    POINT = "point"


@dataclass(frozen=True)
class ManifoldReport:
    """Classification of the evolution surface for one initial state.

    Both one-dimensional radius candidates are always reported: the phi
    circle has circumference-radius gamma sqrt(aligned - imbalance^2), the
    theta circle gamma sqrt(mismatch (2 - mismatch)).  ``circle_radius``
    holds whichever applies when kind is CIRCLE (None otherwise), and
    ``radius_extrapolated`` flags the theta case, whose radius is read off
    the metric rather than from a closed curve of constant distance.
    """

    kind: ManifoldKind
    dimension: int
    invariants: FamilyInvariants
    metric: MetricTensor2
    circle_radius: float | None
    radius_phi_circle: float
    radius_theta_circle: float
    radius_extrapolated: bool
    flatness_residual: float


# --- the evolved family ------------------------------------------------------

def _family_amplitudes(vec: list[complex], theta: float, phi: float) -> tuple[complex, ...]:
    """The initial amplitudes ``vec`` evolved to torus coordinates (theta, phi).

    Component by component: the outer amplitudes pick up phases
    e^{-i(phi + theta)} and e^{i(phi - theta)}, while the inner pair rotates
    by theta with an extra factor -i on the swapped parts.
    """
    a, b, c, d = vec
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (
        a * cmath.exp(-1j * (phi + theta)),
        b * cos_t - 1j * c * sin_t,
        -1j * b * sin_t + c * cos_t,
        d * cmath.exp(1j * (phi - theta)),
    )


def evolve_family(initial: PureState2Q, point: TorusPoint) -> PureState2Q:
    """The evolved state at torus coordinates (theta, phi)."""
    return PureState2Q.from_amplitudes(
        *_family_amplitudes(initial.vector.tolist(), point.theta, point.phi)
    )


def evolve_family_sheared(initial: PureState2Q, point: TorusPoint, k: float) -> PureState2Q:
    """Evolved family in sheared coordinates (theta', phi') with
    phi = phi' - k theta'."""
    plain = TorusPoint(point.theta, point.phi - k * point.theta)
    return evolve_family(initial, plain)


def params_to_point(coupling: float, field: float, t: float) -> TorusPoint:
    """Map physical parameters and time to torus coordinates
    theta = 2 J t, phi = 2 h_z t."""
    return TorusPoint(2.0 * coupling * t, 2.0 * field * t)


def family_invariants(initial: PureState2Q) -> FamilyInvariants:
    """The three amplitude combinations that determine the whole geometry."""
    a, b, c, d = initial.a, initial.b, initial.c, initial.d
    return FamilyInvariants(
        aligned=abs(a) ** 2 + abs(d) ** 2,
        mismatch=abs(b - c) ** 2,
        imbalance=abs(a) ** 2 - abs(d) ** 2,
    )


# --- metric: closed form -----------------------------------------------------

def metric_analytic(initial: PureState2Q, gamma: float = 1.0) -> MetricTensor2:
    """Closed-form Fubini-Study metric of the torus family.

    With A = aligned, B = mismatch, D = imbalance:

        g_theta_theta = gamma^2 B (2 - B)
        g_phi_phi     = gamma^2 (A - D^2)
        g_theta_phi   = gamma^2 B D

    The substitution phi = phi' - k theta' with k = B D / (A - D^2) removes
    the cross term, leaving gamma^2 B (2A - 2D^2 - AB)/(A - D^2) along
    theta' and the unchanged gamma^2 (A - D^2) along phi'.  When the phi
    direction is degenerate (A = D^2, which forces B D = 0 for normalized
    amplitudes) there is nothing to diagonalize and shear is None.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    inv = family_invariants(initial)
    aligned, mismatch, imbalance = inv.aligned, inv.mismatch, inv.imbalance
    g2 = gamma * gamma
    g_tt = g2 * mismatch * (2.0 - mismatch)
    g_pp = g2 * (aligned - imbalance ** 2)
    g_tp = g2 * mismatch * imbalance
    phi_weight = aligned - imbalance ** 2
    if phi_weight <= 1e-12:
        if abs(mismatch * imbalance) > 1e-12:
            raise DegenerateShear(
                "phi direction is degenerate but the cross term "
                f"{g_tp!r} is not; no shear can diagonalize"
            )
        shear, g_tt_diag = None, g_tt
    else:
        shear = mismatch * imbalance / phi_weight
        g_tt_diag = (
            g2
            * mismatch
            * (2.0 * aligned - 2.0 * imbalance ** 2 - aligned * mismatch)
            / phi_weight
        )
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=shear,
        g_theta_theta_diag=g_tt_diag,
        g_phi_phi_diag=g_pp,
    )


# --- metric: finite differences ----------------------------------------------

def _direction_forms(
    initial: PureState2Q,
    point: TorusPoint,
    gamma: float,
    h: float,
    directions: tuple[tuple[float, float], tuple[float, float]],
) -> tuple[float, float, float]:
    """Metric components g(u, u), g(u, v), g(v, v) for the directions
    ``(u, v)``, each (d_theta, d_phi), by polarization of the quadratic forms
    along u, v and u + v.

    Each form is a symmetric finite difference with one Richardson step:
    the squared Fubini-Study distance is even in the displacement, so the
    truncation error O(h^2) becomes O(h^4).  The centre and the twelve
    probes are evolved as one stack under one guard, because numpy's
    per-call overhead, not the arithmetic, is the cost of a 4-vector.
    """
    (u_theta, u_phi), (v_theta, v_phi) = directions
    vec = initial.vector.tolist()
    rows = [_family_amplitudes(vec, point.theta, point.phi)]
    for d_theta, d_phi in (*directions, (u_theta + v_theta, u_phi + v_phi)):
        for step in (h, -h, h / 2.0, -h / 2.0):
            probe = TorusPoint(point.theta + step * d_theta, point.phi + step * d_phi)
            rows.append(_family_amplitudes(vec, probe.theta, probe.phi))
    check_state_rows(rows)
    center, *probes = np.array(rows, dtype=np.complex128)
    # One vdot per probe: a single matrix-vector product sums in another
    # order and changes the last bits of the estimate.
    dist = [overlap_distance_sq(complex(np.vdot(center, row)), gamma) for row in probes]
    half = h / 2.0
    forms = []
    for i in range(0, len(dist), 4):
        coarse = (dist[i] + dist[i + 1]) / (2.0 * h * h)
        fine = (dist[i + 2] + dist[i + 3]) / (2.0 * half * half)
        forms.append((4.0 * fine - coarse) / 3.0)
    g_u, g_v, g_sum = forms
    return g_u, (g_sum - g_u - g_v) / 2.0, g_v


def metric_numeric(
    initial: PureState2Q,
    point: TorusPoint,
    gamma: float = 1.0,
    h: float = DEFAULT_STEP,
) -> MetricTensor2:
    """Fubini-Study metric estimated purely from squared distances.

    Probes the theta direction, the phi direction, and the diagonal; the
    cross term follows by polarization.  Shares no algebra with
    :func:`metric_analytic` beyond the family map itself, which is what
    makes the agreement between the two a meaningful check.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if h < MIN_STEP:
        raise StepTooSmall(f"step {h!r} is below the noise floor {MIN_STEP!r}")
    if h > MAX_STEP:
        raise ValueError(f"step {h!r} is too coarse; maximum is {MAX_STEP!r}")
    g_tt, g_tp, g_pp = _direction_forms(initial, point, gamma, h, _AXES)
    degenerate = g_pp / (gamma * gamma) <= 1e-8
    if degenerate and abs(g_tp) / (gamma * gamma) > 1e-8:
        raise DegenerateShear(
            "phi direction is numerically degenerate but the measured "
            f"cross term {g_tp!r} is not"
        )
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=None if degenerate else g_tp / g_pp,
        g_theta_theta_diag=g_tt if degenerate else g_tt - g_tp * g_tp / g_pp,
        g_phi_phi_diag=g_pp,
    )


def diagonalize_check(
    initial: PureState2Q, gamma: float = 1.0, h: float = 2e-3
) -> MetricTensor2:
    """Measure the metric in the sheared coordinates and confirm the cross
    term vanishes there.

    Uses the closed-form shear coefficient but measures every component by
    finite differences, at a probe point away from any symmetry.  The step
    defaults coarser than :data:`DEFAULT_STEP` because the interesting
    signal here is a cancellation near zero, where the 1/h^2 rounding noise
    of a fine step would drown the answer.
    """
    analytic = metric_analytic(initial, gamma)
    k = analytic.shear if analytic.shear is not None else 0.0
    sheared = ((1.0, -k), (0.0, 1.0))  # unit steps in theta', phi' = phi + k theta'
    g_tt, g_tp, g_pp = _direction_forms(initial, TorusPoint(0.3, 1.1), gamma, h, sheared)
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=analytic.shear,
        g_theta_theta_diag=g_tt,
        g_phi_phi_diag=g_pp,
    )


# --- classification ----------------------------------------------------------

#: Diagonalized metric weight above which a direction counts as live.
_LIVE_TOL = 1e-10
#: Random torus points at which :func:`classify` measures flatness.
_FLATNESS_SAMPLES = 5


def _phi_circle_radius(inv: FamilyInvariants, gamma: float) -> float:
    """Radius gamma sqrt(aligned - imbalance^2) of the phi circle."""
    # math.sqrt rounds as np.sqrt does, and keeps the radius a plain float.
    return gamma * math.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0))


def classify(initial: PureState2Q, gamma: float = 1.0, seed: int = 0) -> ManifoldReport:
    """Decide whether the evolution surface is a flat torus, a circle, or a
    point, and report both candidate circle radii.

    The decision is made by the closed-form metric alone, on its
    *diagonalized* components, so a sheared rank-one metric (nonzero in both
    raw diagonal entries but with vanishing determinant) is correctly
    recognized as one-dimensional, and a fully polarized state is a point.
    ``flatness_residual`` is the worst spread of any finite-difference
    metric component across a handful of random torus points -- direct
    evidence that the metric really is constant; it never overrides the
    decision.  Only :func:`metric_analytic` can raise
    :class:`DegenerateShear` here.
    """
    metric = metric_analytic(initial, gamma)
    inv = family_invariants(initial)
    theta_live = metric.g_theta_theta_diag > _LIVE_TOL
    phi_live = metric.g_phi_phi_diag > _LIVE_TOL
    dimension = theta_live + phi_live
    radius_phi = _phi_circle_radius(inv, gamma)
    radius_theta = gamma * math.sqrt(max(inv.mismatch * (2.0 - inv.mismatch), 0.0))

    rng = np.random.default_rng(seed)
    components = np.array([
        _direction_forms(
            initial,
            TorusPoint(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)),
            gamma,
            DEFAULT_STEP,
            _AXES,
        )
        for _ in range(_FLATNESS_SAMPLES)
    ])

    return ManifoldReport(
        kind=(ManifoldKind.POINT, ManifoldKind.CIRCLE, ManifoldKind.FLAT_TORUS)[dimension],
        dimension=dimension,
        invariants=inv,
        metric=metric,
        circle_radius=(radius_theta if theta_live else radius_phi) if dimension == 1 else None,
        radius_phi_circle=radius_phi,
        radius_theta_circle=radius_theta,
        radius_extrapolated=theta_live and not phi_live,
        flatness_residual=float(np.max(np.abs(components - components.mean(axis=0)))),
    )
