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

from .qstate import PureState2Q, fs_distance_sq

#: Steps below this make the quadratic finite-difference loss catastrophic.
MIN_STEP = 1e-6
#: Steps above this leave the small-displacement regime.
MAX_STEP = 1e-2
#: Default finite-difference step; about the sweet spot between truncation
#: O(h^4) after Richardson and rounding noise O(eps / h^2).
DEFAULT_STEP = 1e-4


class DegenerateShear(ValueError):
    """The phi direction is metrically null but the cross term is not,
    so no shear substitution can diagonalize the metric."""


class StepTooSmall(ValueError):
    """Finite-difference step so small the estimate would be pure noise."""


class TorusPoint:
    """A point (theta, phi) on the parameter torus, in radians."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float) -> None:
        if not (math.isfinite(theta) and math.isfinite(phi)):
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

def evolve_family(initial: PureState2Q, point: TorusPoint) -> PureState2Q:
    """The evolved state at torus coordinates (theta, phi).

    Component by component: the outer amplitudes pick up phases
    e^{-i(phi + theta)} and e^{i(phi - theta)}, while the inner pair rotates
    by theta with an extra factor -i on the swapped parts.
    """
    a, b, c, d = initial.vector.tolist()
    th, ph = point.theta, point.phi
    cos_t, sin_t = math.cos(th), math.sin(th)
    return PureState2Q.from_amplitudes(
        a * cmath.exp(-1j * (ph + th)),
        b * cos_t - 1j * c * sin_t,
        -1j * b * sin_t + c * cos_t,
        d * cmath.exp(1j * (ph - th)),
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
        return MetricTensor2(
            g_theta_theta=g_tt,
            g_theta_phi=g_tp,
            g_phi_phi=g_pp,
            shear=None,
            g_theta_theta_diag=g_tt,
            g_phi_phi_diag=g_pp,
        )
    k = mismatch * imbalance / phi_weight
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
        shear=k,
        g_theta_theta_diag=g_tt_diag,
        g_phi_phi_diag=g_pp,
    )


# --- metric: finite differences ----------------------------------------------

def _direction_form(
    initial: PureState2Q,
    point: TorusPoint,
    gamma: float,
    h: float,
    d_theta: float,
    d_phi: float,
) -> float:
    """Quadratic form g(v, v) along the direction v = (d_theta, d_phi),
    estimated by symmetric finite differences with Richardson extrapolation.

    The squared Fubini-Study distance to a displaced point is even in the
    displacement, so the symmetric average cancels nothing but noise and the
    leading truncation error is O(h^2); one Richardson step pushes it to
    O(h^4).
    """
    center = evolve_family(initial, point)

    def estimate(step: float) -> float:
        plus = evolve_family(
            initial, TorusPoint(point.theta + step * d_theta, point.phi + step * d_phi)
        )
        minus = evolve_family(
            initial, TorusPoint(point.theta - step * d_theta, point.phi - step * d_phi)
        )
        return (
            fs_distance_sq(center, plus, gamma) + fs_distance_sq(center, minus, gamma)
        ) / (2.0 * step * step)

    coarse = estimate(h)
    fine = estimate(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


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
    g_tt = _direction_form(initial, point, gamma, h, 1.0, 0.0)
    g_pp = _direction_form(initial, point, gamma, h, 0.0, 1.0)
    g_diag = _direction_form(initial, point, gamma, h, 1.0, 1.0)
    g_tp = (g_diag - g_tt - g_pp) / 2.0
    phi_weight = g_pp / (gamma * gamma)
    if phi_weight <= 1e-8:
        if abs(g_tp) / (gamma * gamma) > 1e-8:
            raise DegenerateShear(
                "phi direction is numerically degenerate but the measured "
                f"cross term {g_tp!r} is not"
            )
        return MetricTensor2(
            g_theta_theta=g_tt,
            g_theta_phi=g_tp,
            g_phi_phi=g_pp,
            shear=None,
            g_theta_theta_diag=g_tt,
            g_phi_phi_diag=g_pp,
        )
    k = g_tp / g_pp
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=k,
        g_theta_theta_diag=g_tt - g_tp * g_tp / g_pp,
        g_phi_phi_diag=g_pp,
    )


def _sheared_direction_form(
    initial: PureState2Q,
    point: TorusPoint,
    gamma: float,
    h: float,
    k: float,
    d_theta: float,
    d_phi: float,
) -> float:
    """Same estimator as :func:`_direction_form` but displacing in the
    sheared coordinates (theta', phi')."""
    return _direction_form(initial, point, gamma, h, d_theta, d_phi - k * d_theta)


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
    point = TorusPoint(0.3, 1.1)
    g_tt = _sheared_direction_form(initial, point, gamma, h, k, 1.0, 0.0)
    g_pp = _sheared_direction_form(initial, point, gamma, h, k, 0.0, 1.0)
    g_diag = _sheared_direction_form(initial, point, gamma, h, k, 1.0, 1.0)
    g_tp = (g_diag - g_tt - g_pp) / 2.0
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=analytic.shear,
        g_theta_theta_diag=g_tt,
        g_phi_phi_diag=g_pp,
    )


# --- classification ----------------------------------------------------------

def classify(
    initial: PureState2Q,
    gamma: float = 1.0,
    tol: float = 1e-10,
    samples: int = 5,
    seed: int = 0,
) -> ManifoldReport:
    """Decide whether the evolution surface is a flat torus, a circle, or a
    point, and report both candidate circle radii.

    The decision is made on the *diagonalized* metric components, so a
    sheared rank-one metric (nonzero in both raw diagonal entries but with
    vanishing determinant) is correctly recognized as one-dimensional.
    ``flatness_residual`` is the worst spread of any finite-difference
    metric component across a handful of random torus points -- direct
    evidence that the metric really is constant.
    """
    metric = metric_analytic(initial, gamma)
    inv = family_invariants(initial)
    theta_weight = metric.g_theta_theta_diag
    phi_weight = metric.g_phi_phi_diag
    theta_live = theta_weight > tol
    phi_live = phi_weight > tol

    radius_phi = gamma * np.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0))
    radius_theta = gamma * np.sqrt(max(inv.mismatch * (2.0 - inv.mismatch), 0.0))

    if theta_live and phi_live:
        kind, dimension = ManifoldKind.FLAT_TORUS, 2
        circle_radius = None
        extrapolated = False
    elif theta_live or phi_live:
        kind, dimension = ManifoldKind.CIRCLE, 1
        extrapolated = theta_live
        circle_radius = radius_theta if theta_live else radius_phi
    else:
        kind, dimension = ManifoldKind.POINT, 0
        circle_radius = None
        extrapolated = False

    rng = np.random.default_rng(seed)
    components = np.empty((samples, 3))
    for i in range(samples):
        pt = TorusPoint(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        sampled = metric_numeric(initial, pt, gamma)
        components[i] = (
            sampled.g_theta_theta,
            sampled.g_theta_phi,
            sampled.g_phi_phi,
        )
    flatness = float(np.max(np.abs(components - components.mean(axis=0))))

    return ManifoldReport(
        kind=kind,
        dimension=dimension,
        invariants=inv,
        metric=metric,
        circle_radius=circle_radius,
        radius_phi_circle=float(radius_phi),
        radius_theta_circle=float(radius_theta),
        radius_extrapolated=extrapolated,
        flatness_residual=flatness,
    )
