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

from .qstate import PureState2Q, all_finite, check_gamma, check_state_array, ray_distances_sq

#: Finite-difference step: truncation O(h^4) after Richardson, and rounding
#: noise O(eps / h) from the cancellation-free distances, ~1e-11 here.
DEFAULT_STEP = 1e-4
#: Unit steps along theta and phi, the directions of the plain metric.
_AXES = ((1.0, 0.0), (0.0, 1.0))
#: Metric weight at gamma = 1 at or below which a direction is degenerate:
#: :func:`metric_analytic` gives it no shear, and :func:`classify` no extent.
_DEGENERATE_TOL = 1e-12


class DegenerateShear(ValueError):
    """The phi direction is metrically null but the cross term is not,
    so no shear substitution can diagonalize the metric."""


class TorusPoint:
    """A point (theta, phi) on the parameter torus, in radians."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float) -> None:
        if not all_finite(theta, phi):
            raise ValueError("torus coordinates must be finite")
        self.theta = float(theta)
        self.phi = float(phi)

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


class ManifoldKind(enum.Enum):
    FLAT_TORUS = "flat_torus"
    CIRCLE = "circle"
    POINT = "point"


@dataclass(frozen=True)
class ManifoldReport:
    """Classification of the evolution surface for one initial state.

    Both one-dimensional radius candidates are always reported: the loop
    phi in [0, 2 pi) has circumference-radius gamma sqrt(aligned -
    imbalance^2); the theta value, gamma sqrt(mismatch (2 - mismatch)) =
    sqrt(g_theta_theta), is the radius of the loop theta in [0, 2 pi), which
    covers the ray circle (theta period pi) twice, so for |up down> it reads
    1.0 while the ray loop has length pi.  ``circle_radius`` holds whichever
    applies when kind is CIRCLE (None otherwise), and ``radius_extrapolated``
    flags the theta case, whose radius is that of the 2 pi loop, read off the
    metric rather than from a closed curve of constant distance.
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


def _complex_product(xr, xi, yr, yi):
    """CPython's complex product (xr + i xi)(yr + i yi), part by part."""
    return xr * yr - xi * yi, xr * yi + xi * yr


#: Columns of (cos down, cos theta, cos up, sin down, sin theta, sin up, 0.0)
#: that make the real and the imaginary parts of the right factors of the
#: six products in :func:`evolve_grid`.
_RIGHT_FACTORS = [[0, 1, 1, 2, 4, 4], [3, 6, 6, 5, 6, 6]]


def evolve_grid(amplitudes: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The family map of :func:`_family_amplitudes` over arrays of angles,
    with the same bits.

    ``thetas`` and ``phis`` share one shape.  ``amplitudes`` is one initial
    state, shape (4,), or one per row, shape (..., 4), broadcasting against
    the angles; the evolved amplitudes come back with a trailing axis of 4.
    The arithmetic repeats CPython's complex operations term by term in
    real numpy arithmetic: a float is promoted to complex(f, 0.0), which
    keeps signed zeros, and cmath.exp(+-1j s) is cos and sin of the
    imaginary part of +-1j s.  The bits then rest on numpy's cos and sin
    matching the platform's math.cos and math.sin, which ``verify`` checks.
    Like :func:`evolve_family`, it raises :class:`TorusPoint`'s error for a
    non-finite angle and :class:`PureState2Q`'s for a row that fails its guard.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    theta = np.asarray(thetas, dtype=np.float64)
    phi = np.asarray(phis, dtype=np.float64)
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("torus coordinates must be finite")
    # The left factors a, b, c, d, 1j * c, -1j * b of six complex products,
    # each state's own made by CPython itself ...
    left = np.array(
        [(a, b, c, d, 1j * c, -1j * b) for a, b, c, d in amps.reshape(-1, 4).tolist()]
    ).reshape(amps.shape[:-1] + (6,))
    # ... and the right ones e^{-i(phi + theta)}, cos_t, cos_t, e^{i(phi - theta)},
    # sin_t, sin_t.  -1j * s has imaginary part -0.0 + -s, that is -s, and
    # 1j * s has 0.0 + s.
    angles = np.empty(theta.shape + (3,))
    trig = np.empty(theta.shape + (7,))
    with np.errstate(over="ignore", invalid="ignore"):  # the state guard refuses NaN
        np.negative(phi + theta, out=angles[..., 0])
        angles[..., 1] = theta
        np.add(0.0, phi - theta, out=angles[..., 2])
        np.cos(angles, out=trig[..., :3])
        np.sin(angles, out=trig[..., 3:6])
    trig[..., 6] = 0.0
    right = trig[..., _RIGHT_FACTORS]
    re, im = _complex_product(left.real, left.imag, right[..., 0, :], right[..., 1, :])
    # b * cos_t - 1j * c * sin_t and -1j * b * sin_t + c * cos_t
    re[..., 1] -= re[..., 4]
    im[..., 1] -= im[..., 4]
    re[..., 2] += re[..., 5]
    im[..., 2] += im[..., 5]
    out = np.empty(re.shape[:-1] + (4,), dtype=np.complex128)
    out.real, out.imag = re[..., :4], im[..., :4]
    return check_state_array(out)


def evolve_family(initial: PureState2Q, point: TorusPoint) -> PureState2Q:
    """The evolved state at torus coordinates (theta, phi)."""
    return PureState2Q(_family_amplitudes(initial.vector.tolist(), point.theta, point.phi))


def evolve_family_sheared(initial: PureState2Q, point: TorusPoint, k: float) -> PureState2Q:
    """Evolved family in sheared coordinates (theta', phi') with
    phi = phi' - k theta'."""
    return evolve_family(initial, TorusPoint(point.theta, point.phi - k * point.theta))


def params_to_point(coupling: float, field: float, t: float) -> TorusPoint:
    """Map physical parameters and time to torus coordinates
    theta = 2 J t, phi = 2 h_z t."""
    return TorusPoint(2.0 * coupling * t, 2.0 * field * t)


def family_invariants(initial: PureState2Q) -> FamilyInvariants:
    """The three amplitude combinations that determine the whole geometry."""
    a, b, c, d = initial.vector.tolist()
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
    check_gamma(gamma)
    inv = family_invariants(initial)
    aligned, mismatch, imbalance = inv.aligned, inv.mismatch, inv.imbalance
    g2 = gamma * gamma
    g_tt = g2 * mismatch * (2.0 - mismatch)
    g_pp = g2 * (aligned - imbalance ** 2)
    g_tp = g2 * mismatch * imbalance
    phi_weight = aligned - imbalance ** 2
    if phi_weight <= _DEGENERATE_TOL:
        if abs(mismatch * imbalance) > _DEGENERATE_TOL:
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
    amplitudes: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
    gamma: float,
    directions: np.ndarray,
) -> np.ndarray:
    """Metric components g(u, u), g(u, v), g(v, v) at each centre
    (thetas[m], phis[m]), one row per centre, for the directions ``(u, v)``,
    each (d_theta, d_phi), by polarization of the quadratic forms along u,
    v and u + v, with step :data:`DEFAULT_STEP`.

    ``amplitudes`` is one initial state, shape (4,), or one per centre,
    shape (m, 4); ``directions`` is one pair (u, v), or one per centre,
    shape (m, 2, 2).  Each form is a symmetric finite difference with one
    Richardson step: the squared Fubini-Study distance is even in the
    displacement, so the truncation error O(h^2) becomes O(h^4).

    Every centre and its twelve probes are one stacked evaluation: one
    :func:`evolve_grid` call, which guards every row, then one
    :func:`qstate.ray_distances_sq` call, whose distances carry no
    cancellation.  It and the Richardson and polarization arithmetic run
    elementwise in the scalar order, so the estimate has the bits of the
    per-probe :func:`qstate.fs_distance_sq` route wherever numpy's sin and
    cos agree with the scalar ones, which ``verify`` checks.
    """
    h = DEFAULT_STEP
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 2, 2)
    d = np.concatenate((d, d[:, :1] + d[:, 1:]), axis=1)[:, :, None]  # u, v, u + v
    centres = np.array((thetas, phis), dtype=np.float64).T[:, None]
    # Each centre, then its probes centre + step * d for d in u, v and u + v.
    with np.errstate(over="ignore", invalid="ignore"):  # evolve_grid refuses inf and NaN
        probes = centres[:, None] + np.array((h, -h, h / 2.0, -h / 2.0))[:, None] * d
    points = np.concatenate((centres, probes.reshape(len(centres), 12, 2)), axis=1)
    rows = evolve_grid(np.asarray(amplitudes)[..., None, :], points[..., 0], points[..., 1])
    dist = gamma * gamma * ray_distances_sq(rows[:, :1], rows[:, 1:]).reshape(-1, 3, 2, 2)
    half = h / 2.0
    coarse_fine = (dist[..., 0] + dist[..., 1]) / np.array((2.0 * h * h, 2.0 * half * half))
    forms = (4.0 * coarse_fine[..., 1] - coarse_fine[..., 0]) / 3.0  # along u, v, u + v
    components = forms[:, [0, 2, 1]]
    components[:, 1] = (forms[:, 2] - forms[:, 0] - forms[:, 1]) / 2.0
    return components


def metric_numeric(
    initial: PureState2Q,
    point: TorusPoint,
    gamma: float = 1.0,
) -> MetricTensor2:
    """Fubini-Study metric estimated purely from squared distances.

    Probes the theta direction, the phi direction, and the diagonal, with
    step :data:`DEFAULT_STEP`; the cross term follows by polarization.
    Shares no algebra with :func:`metric_analytic` beyond the family map
    itself, which is what makes the agreement between the two a meaningful
    check.  This is the one-centre form of :func:`_direction_forms`: the
    centre and its twelve probes are one stacked evaluation.  The shear is
    None when g_phi_phi is at most ``_DEGENERATE_TOL`` gamma^2, the
    tolerance :func:`metric_analytic` uses; the cross term is then reported
    as measured.  A tiny gamma underflows the metric to 0, which is
    degenerate.
    """
    check_gamma(gamma)
    g_tt, g_tp, g_pp = _direction_forms(
        initial.vector, [point.theta], [point.phi], gamma, _AXES
    )[0].tolist()
    degenerate = g_pp <= _DEGENERATE_TOL * (gamma * gamma)
    # An exact power-of-two scale keeps g_tp^2 / g_pp finite at large gamma.
    s = 2.0 ** -512 if abs(g_tp) > 2.0 ** 511 else 1.0
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=None if degenerate else g_tp / g_pp,
        g_theta_theta_diag=g_tt if degenerate else g_tt - (g_tp * s) * (g_tp * s) / (g_pp * s) / s,
        g_phi_phi_diag=g_pp,
    )


def _sheared_forms(
    amplitudes: np.ndarray, shears: list[float | None], gamma: float
) -> np.ndarray:
    """Metric components in the sheared coordinates (theta', phi'), with
    phi = phi' - k theta', at the probe point (0.3, 1.1): one row per state
    of ``amplitudes`` and its closed-form shear k, None standing for 0."""
    k = np.array([0.0 if shear is None else shear for shear in shears])
    sheared = np.empty(k.shape + (2, 2))  # unit steps in theta', phi' = phi + k theta'
    sheared[:, 0, 0], sheared[:, 0, 1], sheared[:, 1] = 1.0, -k, (0.0, 1.0)
    thetas, phis = np.full(k.shape, 0.3), np.full(k.shape, 1.1)
    return _direction_forms(amplitudes, thetas, phis, gamma, sheared)


def diagonalize_check(
    initial: PureState2Q, gamma: float = 1.0
) -> MetricTensor2:
    """Measure the metric in the sheared coordinates and confirm the cross
    term vanishes there.

    Uses the closed-form shear coefficient but measures every component by
    finite differences, with step :data:`DEFAULT_STEP`, at a probe point
    away from any symmetry.  This is the one-state form of the stacked
    estimate ``verify`` runs over many states at once.
    """
    analytic = metric_analytic(initial, gamma)
    g_tt, g_tp, g_pp = _sheared_forms(initial.vector, [analytic.shear], gamma)[0].tolist()
    return MetricTensor2(
        g_theta_theta=g_tt,
        g_theta_phi=g_tp,
        g_phi_phi=g_pp,
        shear=analytic.shear,
        g_theta_theta_diag=g_tt,
        g_phi_phi_diag=g_pp,
    )


# --- classification ----------------------------------------------------------

#: The torus points at which :func:`classify` measures flatness: the rank-1
#: lattice (k, 2k)/5 on [0, pi) x [0, 2 pi), shifted off the symmetry lines
#: theta in {0, pi/2} and phi in {0, pi}.
_FLATNESS_THETAS, _FLATNESS_PHIS = zip(
    *[(math.pi * (k + 0.3) / 5.0, 2.0 * math.pi * ((2 * k + 0.7) / 5.0 % 1.0)) for k in range(5)]
)


def _phi_circle_radius(inv: FamilyInvariants, gamma: float) -> float:
    """Radius gamma sqrt(aligned - imbalance^2) of the phi circle."""
    # math.sqrt rounds as np.sqrt does, and keeps the radius a plain float.
    return gamma * math.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0))


def classify(initial: PureState2Q, gamma: float = 1.0) -> ManifoldReport:
    """Decide whether the evolution surface is a flat torus, a circle, or a
    point, and report both candidate circle radii.

    The decision is made by the closed-form metric alone, on its
    *diagonalized* components at gamma = 1, so a sheared rank-one metric
    (nonzero in both raw diagonal entries but with vanishing determinant) is
    correctly recognized as one-dimensional, a fully polarized state is a
    point, and the kind does not depend on the length scale gamma.
    ``flatness_residual`` is the worst spread of any finite-difference
    metric component across five fixed generic torus points -- direct
    evidence that the metric really is constant, at the level of rounding;
    it never overrides the decision.  The samples are one stacked
    :func:`_direction_forms` call.  Only :func:`metric_analytic` can raise
    :class:`DegenerateShear` here.
    """
    metric = metric_analytic(initial, gamma)
    unscaled = metric_analytic(initial)
    inv = family_invariants(initial)
    theta_live = unscaled.g_theta_theta_diag > _DEGENERATE_TOL
    phi_live = unscaled.g_phi_phi_diag > _DEGENERATE_TOL
    dimension = theta_live + phi_live
    radius_phi = _phi_circle_radius(inv, gamma)
    radius_theta = gamma * math.sqrt(max(inv.mismatch * (2.0 - inv.mismatch), 0.0))

    components = _direction_forms(initial.vector, _FLATNESS_THETAS, _FLATNESS_PHIS, gamma, _AXES)
    spread = components - components.sum(axis=0) / len(components)  # the mean's bits

    return ManifoldReport(
        kind=(ManifoldKind.POINT, ManifoldKind.CIRCLE, ManifoldKind.FLAT_TORUS)[dimension],
        dimension=dimension,
        invariants=inv,
        metric=metric,
        circle_radius=(radius_theta if theta_live else radius_phi) if dimension == 1 else None,
        radius_phi_circle=radius_phi,
        radius_theta_circle=radius_theta,
        radius_extrapolated=theta_live and not phi_live,
        flatness_residual=float(np.abs(spread).max()),
    )
