import math

import numpy as np
import pytest

import reference
from spin_torus import manifold
from spin_torus.hamiltonian import SystemParams, propagator_analytic
from spin_torus.manifold import (
    DEFAULT_STEP,
    DegenerateShear,
    ManifoldKind,
    MetricTensor2,
    TorusPoint,
    classify,
    diagonalize_check,
    evolve_family,
    evolve_family_sheared,
    family_invariants,
    metric_analytic,
    metric_numeric,
    params_to_point,
)
from spin_torus.qstate import (
    PureState2Q,
    apply,
    basis_state,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    random_state,
    up_down,
)


def near_polarized_state(eps: float) -> PureState2Q:
    """Almost all weight on |up up>, with the small remainder split so the
    metric cross term survives while the phi direction collapses."""
    return PureState2Q.from_amplitudes(
        np.sqrt(1.0 - 2.0 * eps), np.sqrt(eps), -np.sqrt(eps), 0.0
    )


def reference_direction_form(initial, point, gamma, h, d_theta, d_phi):
    """The per-direction estimator the stacked probes replaced: one
    evolve_family state per probe, one Python-float distance per pair."""
    center = evolve_family(initial, point).vector.tolist()

    def distance_sq(step):
        probe = TorusPoint(point.theta + step * d_theta, point.phi + step * d_phi)
        return gamma * gamma * reference.ray_distance_sq(
            center, evolve_family(initial, probe).vector.tolist()
        )

    def estimate(step):
        return (distance_sq(step) + distance_sq(-step)) / (2.0 * step * step)

    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0


def reference_components(initial, point, gamma, h, k=0.0):
    """(g_tt, g_tp, g_pp) from the three direction forms by polarization,
    displacing phi by d_phi - k d_theta as the sheared estimator did."""
    g_tt = reference_direction_form(initial, point, gamma, h, 1.0, 0.0 - k * 1.0)
    g_pp = reference_direction_form(initial, point, gamma, h, 0.0, 1.0 - k * 0.0)
    g_diag = reference_direction_form(initial, point, gamma, h, 1.0, 1.0 - k * 1.0)
    return g_tt, (g_diag - g_tt - g_pp) / 2.0, g_pp


def reference_metric_numeric(initial, point, gamma, h):
    g_tt, g_tp, g_pp = reference_components(initial, point, gamma, h)
    if g_pp <= 1e-12 * (gamma * gamma):
        return MetricTensor2(g_tt, g_tp, g_pp, None, g_tt, g_pp)
    return MetricTensor2(g_tt, g_tp, g_pp, g_tp / g_pp, g_tt - g_tp * g_tp / g_pp, g_pp)


def bits(values):
    """The 64-bit patterns of complex or float values, so that == tells
    0.0 from -0.0."""
    return np.asarray(values).view(np.uint64)


#: The five points classify measures flatness at: the rank-1 lattice (k, 2k)/5
#: on [0, pi) x [0, 2 pi), shifted by (0.3, 0.7)/5.
FLATNESS_POINTS = [
    TorusPoint(math.pi * (k + 0.3) / 5.0, 2.0 * math.pi * ((2 * k + 0.7) / 5.0 % 1.0))
    for k in range(5)
]


def reference_flatness_per_direction(initial, gamma):
    """``flatness_residual`` from the per-direction estimator, at the five
    points classify measures."""
    components = np.array(
        [reference_components(initial, pt, gamma, DEFAULT_STEP) for pt in FLATNESS_POINTS]
    )
    return float(np.max(np.abs(components - components.mean(axis=0))))


def reference_flatness(initial, gamma):
    """``flatness_residual`` as classify measured it through
    metric_numeric."""
    components = np.empty((5, 3))
    for i, pt in enumerate(FLATNESS_POINTS):
        sampled = metric_numeric(initial, pt, gamma)
        components[i] = (sampled.g_theta_theta, sampled.g_theta_phi, sampled.g_phi_phi)
    return float(np.max(np.abs(components - components.mean(axis=0))))


class TestTorusPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TorusPoint(np.nan, 0.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]
    )
    @pytest.mark.parametrize("argument", [0, 1])
    def test_non_finite_and_huge_coordinates_on_every_argument(self, argument, bad):
        coordinates = [0.3, 0.7]
        coordinates[argument] = bad
        with pytest.raises(ValueError, match="^torus coordinates must be finite$"):
            TorusPoint(*coordinates)

    def test_params_to_point(self):
        point = params_to_point(coupling=1.5, field=-0.25, t=2.0)
        assert point.theta == pytest.approx(6.0)
        assert point.phi == pytest.approx(-1.0)


class TestEvolveFamily:
    def test_matches_propagator(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            state = random_state(rng)
            coupling, field = rng.uniform(-3, 3, size=2)
            t = float(rng.uniform(0, 6))
            params = SystemParams(float(coupling), float(field))
            via_u = apply(propagator_analytic(params, t), state)
            via_family = evolve_family(state, params_to_point(coupling, field, t))
            np.testing.assert_allclose(
                via_family.vector, via_u.vector, atol=1e-12
            )

    def test_theta_antiperiod_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            state = random_state(rng)
            point = TorusPoint(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            base = evolve_family(state, point).vector
            shifted = evolve_family(
                state, TorusPoint(point.theta + np.pi, point.phi)
            ).vector
            np.testing.assert_allclose(shifted, -base, atol=1e-12)

    def test_phi_period_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            state = random_state(rng)
            point = TorusPoint(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            base = evolve_family(state, point).vector
            wrapped = evolve_family(
                state, TorusPoint(point.theta, point.phi + 2 * np.pi)
            ).vector
            np.testing.assert_allclose(wrapped, base, atol=1e-12)

    def test_sheared_family_unshears(self):
        state = PureState2Q.normalized(0.4, 0.7, -0.2j, 0.5)
        k = metric_analytic(state).shear
        point = TorusPoint(0.8, 1.9)
        sheared = evolve_family_sheared(state, point, k)
        plain = evolve_family(state, TorusPoint(0.8, 1.9 - k * 0.8))
        np.testing.assert_allclose(sheared.vector, plain.vector, atol=1e-15)


class TestEvolveGrid:
    """The stacked family map against the scalar one, bit for bit."""

    @staticmethod
    def scalar(vectors, thetas, phis):
        return np.array([
            [manifold._family_amplitudes(vec, th, ph) for th, ph in zip(row_t, row_p)]
            for vec, row_t, row_p in zip(vectors, thetas.tolist(), phis.tolist())
        ])

    def test_haar_states_at_small_and_large_angles(self):
        rng = np.random.default_rng(91)
        vectors = np.array([random_state(rng).vector for _ in range(200)])
        small, large = rng.uniform(-7.0, 7.0, (200, 6)), rng.uniform(-1e6, 1e6, (200, 4))
        thetas = np.concatenate((small, large), axis=1)
        phis = np.concatenate((large[:, ::-1], small[:, ::-1]), axis=1)
        grid = manifold.evolve_grid(vectors[:, None, :], thetas, phis)
        assert grid.shape == (200, 10, 4)
        assert np.array_equal(bits(grid), bits(self.scalar(vectors.tolist(), thetas, phis)))

    def test_basis_states_with_signed_zero_parts_at_signed_zero_angles(self):
        rng = np.random.default_rng(92)
        vectors = []
        for index in range(4):
            for unit in (1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(-0.0, 1.0)):
                for _ in range(4):
                    # complex parts throughout, as state.vector.tolist() gives
                    signs = rng.choice([0.0, -0.0], size=8)
                    vec = [complex(signs[2 * k], signs[2 * k + 1]) for k in range(4)]
                    vec[index] = complex(unit)
                    vectors.append(vec)
        angles = np.array([0.0, -0.0, 0.0, -0.0, 1e-300, -0.7, 3.1, 1e6, -1e6])
        thetas = np.tile(angles, (len(vectors), 1))
        phis = np.tile(np.roll(angles, 1), (len(vectors), 1))
        grid = manifold.evolve_grid(np.array(vectors)[:, None, :], thetas, phis)
        assert np.array_equal(bits(grid), bits(self.scalar(vectors, thetas, phis)))

    def test_one_state_broadcasts_over_every_angle(self):
        rng = np.random.default_rng(94)
        state = random_state(rng)
        thetas, phis = rng.uniform(-7.0, 7.0, (2, 3, 5))
        grid = manifold.evolve_grid(state.vector, thetas, phis)
        assert grid.shape == (3, 5, 4)
        expected = self.scalar([state.vector.tolist()] * 3, thetas, phis)
        assert np.array_equal(bits(grid), bits(expected))

    @pytest.mark.parametrize(
        "initial, message",
        [
            ([2.0, 0.0, 0.0, 0.0], r"^state is not normalized: \|amplitudes\|\^2 sums to 4\.0$"),
            ([complex(np.nan, 0.0), 0.0, 0.0, 0.0], "^state amplitudes must be finite$"),
        ],
    )
    def test_refuses_rows_as_the_state_guard_does(self, initial, message):
        with pytest.raises(ValueError, match=message):
            PureState2Q(initial)
        with pytest.raises(ValueError, match=message):
            manifold.evolve_grid(np.array([up_down().vector, initial]), [0.3, 0.4], [1.1, 1.2])


class TestInvariants:
    def test_reference_values(self):
        inv = family_invariants(up_down())
        assert (inv.aligned, inv.mismatch, inv.imbalance) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("chi", [0.3, np.pi / 3, np.pi / 2, 2.0])
    def test_plus_minus_family(self, chi):
        inv = family_invariants(plus_minus_state(chi, 0.9))
        assert inv.aligned == pytest.approx(np.sin(chi) ** 2 / 2, abs=1e-14)
        assert inv.mismatch == pytest.approx(1.0, abs=1e-14)
        assert inv.imbalance == pytest.approx(0.0, abs=1e-14)

    def test_constant_along_the_family(self):
        rng = np.random.default_rng(31)
        state = random_state(rng)
        reference = family_invariants(state)
        for _ in range(10):
            moved = evolve_family(
                state, TorusPoint(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            )
            inv = family_invariants(moved)
            assert inv.aligned == pytest.approx(reference.aligned, abs=1e-13)
            assert inv.mismatch == pytest.approx(reference.mismatch, abs=1e-13)
            assert inv.imbalance == pytest.approx(reference.imbalance, abs=1e-13)


class TestMetricAnalytic:
    def test_component_formulas(self):
        state = PureState2Q.normalized(0.5, 0.6, -0.3j, 0.2)
        inv = family_invariants(state)
        metric = metric_analytic(state, gamma=1.5)
        g2 = 1.5 ** 2
        assert metric.g_theta_theta == pytest.approx(
            g2 * inv.mismatch * (2 - inv.mismatch)
        )
        assert metric.g_phi_phi == pytest.approx(
            g2 * (inv.aligned - inv.imbalance ** 2)
        )
        assert metric.g_theta_phi == pytest.approx(
            g2 * inv.mismatch * inv.imbalance
        )

    def test_shear_removes_cross_term_in_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            metric = metric_analytic(random_state(rng))
            assert metric.shear is not None
            # Diagonalized determinant must match the raw determinant.
            raw_det = metric.g_theta_theta * metric.g_phi_phi - metric.g_theta_phi ** 2
            diag_det = metric.g_theta_theta_diag * metric.g_phi_phi_diag
            assert diag_det == pytest.approx(raw_det, abs=1e-13)

    def test_diagonal_components_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            metric = metric_analytic(random_state(rng))
            assert metric.g_theta_theta_diag >= -1e-13
            assert metric.g_phi_phi_diag >= -1e-13

    def test_degenerate_phi_direction_has_no_shear(self):
        metric = metric_analytic(up_down())
        assert metric.shear is None
        assert metric.g_phi_phi == 0.0
        assert metric.g_theta_theta == pytest.approx(1.0)

    def test_unresolvable_shear_raises(self):
        with pytest.raises(DegenerateShear):
            metric_analytic(near_polarized_state(4e-13))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            metric_analytic(up_down(), gamma=-2.0)


class TestMetricNumeric:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            state = random_state(rng)
            expected = metric_analytic(state)
            point = TorusPoint(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            measured = metric_numeric(state, point)
            assert measured.g_theta_theta == pytest.approx(
                expected.g_theta_theta, abs=1e-10
            )
            assert measured.g_theta_phi == pytest.approx(
                expected.g_theta_phi, abs=1e-10
            )
            assert measured.g_phi_phi == pytest.approx(
                expected.g_phi_phi, abs=1e-10
            )

    def test_gamma_scales_quadratically(self):
        state = plus_minus_state(1.1, 0.0)
        point = TorusPoint(0.4, 0.9)
        unit = metric_numeric(state, point, gamma=1.0)
        scaled = metric_numeric(state, point, gamma=3.0)
        assert scaled.g_theta_theta == pytest.approx(
            9.0 * unit.g_theta_theta, abs=1e-9
        )

    def test_the_step_is_not_a_parameter(self):
        state = plus_minus_state(1.0, 0.0)
        with pytest.raises(TypeError):
            metric_numeric(state, TorusPoint(0.1, 0.1), 1.0, DEFAULT_STEP)
        with pytest.raises(TypeError):
            diagonalize_check(state, 1.0, DEFAULT_STEP)

    def test_degenerate_phi_direction_measured(self):
        measured = metric_numeric(up_down(), TorusPoint(0.7, 1.3))
        assert measured.shear is None
        assert measured.g_phi_phi == pytest.approx(0.0, abs=1e-10)
        assert measured.g_theta_theta == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("point", [(0.7, 1.3), (0.3, 1.1), (2.0, 4.0)])
    def test_degenerate_phi_direction_reports_the_measured_cross_term(self, point):
        # At 4e-13 the closed form raises DegenerateShear; the estimate
        # does not, and reports its cross term B D = 1.6e-12 as measured.
        state = near_polarized_state(4e-13)
        measured = metric_numeric(state, TorusPoint(*point))
        assert measured.shear is None
        assert measured.g_theta_phi == pytest.approx(1.6e-12, rel=1e-9)
        assert measured.g_theta_theta_diag == measured.g_theta_theta
        assert measured == reference_metric_numeric(
            state, TorusPoint(*point), 1.0, DEFAULT_STEP
        )

    def test_bit_identical_to_per_direction_estimator(self):
        rng = np.random.default_rng(71)
        for i in range(200):
            state = random_state(rng)
            gamma = (1.0, 0.6, 2.3)[i % 3]
            point = TorusPoint(rng.uniform(-4.0, 4.0), rng.uniform(-7.0, 7.0))
            measured = metric_numeric(state, point, gamma)
            assert measured == reference_metric_numeric(state, point, gamma, DEFAULT_STEP)

    @pytest.mark.parametrize("h", [1e-6, DEFAULT_STEP])
    def test_direction_forms_bit_identical_to_per_direction_estimator(self, h):
        rng = np.random.default_rng(71)
        for i in range(200):
            state = random_state(rng)
            gamma = (1.0, 0.6, 2.3)[i % 3]
            point = TorusPoint(rng.uniform(-4.0, 4.0), rng.uniform(-7.0, 7.0))
            measured = manifold._direction_forms(
                state.vector, [point.theta], [point.phi], gamma, h, manifold._AXES
            )
            assert measured[0].tolist() == list(reference_components(state, point, gamma, h))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda z: complex(np.nan, 0.0), "^state amplitudes must be finite$"),
            (lambda z: 2.0 * z, "^state is not normalized"),
        ],
    )
    @pytest.mark.parametrize(
        "estimate, row",
        [
            (lambda state: metric_numeric(state, TorusPoint(0.4, 0.9)), (0, 7)),
            (lambda state: classify(state, gamma=1.3), (4, 12)),
        ],
        ids=["metric_numeric", "classify"],
    )
    def test_stacked_probes_pass_the_state_guard(
        self, monkeypatch, corrupt, message, estimate, row
    ):
        # One probe row of one centre is spoiled on its way into the guard
        # inside the kernel; the guard must still see it.
        guard = manifold.check_state_array

        def poisoned(rows):
            rows[row][0] = corrupt(rows[row][0])
            return guard(rows)

        monkeypatch.setattr(manifold, "check_state_array", poisoned)
        with pytest.raises(ValueError, match=message):
            estimate(plus_minus_state(0.8, 0.3))

    @pytest.mark.filterwarnings("error")
    def test_probe_coordinates_must_be_finite(self):
        # The centre is finite, but a probe one step away overflows.
        top = np.finfo(np.float64).max
        with pytest.raises(ValueError, match="^torus coordinates must be finite$"):
            manifold._direction_forms(
                up_down().vector, [top], [0.0], 1.0, DEFAULT_STEP, ((1e308, 0.0), (0.0, 1.0))
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coordinate", [1e308, -1.7e308])
    def test_overflowing_phase_is_refused_by_the_state_guard(self, coordinate):
        # theta + phi overflows inside the family map, as it did in cmath.exp.
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            metric_numeric(plus_minus_state(0.8, 0.3), TorusPoint(coordinate, coordinate))

    def test_degenerate_branch_bit_identical(self):
        point = TorusPoint(0.7, 1.3)
        for gamma in (1.0, 1.7):
            measured = metric_numeric(up_down(), point, gamma)
            assert measured.shear is None
            assert measured == reference_metric_numeric(up_down(), point, gamma, DEFAULT_STEP)


class TestDiagonalizeCheck:
    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    def test_bit_identical_to_per_direction_estimator(self, gamma):
        rng = np.random.default_rng(81)
        sheared = 0
        for _ in range(200):
            state = random_state(rng)
            analytic = metric_analytic(state, gamma)
            k = analytic.shear if analytic.shear is not None else 0.0
            sheared += k != 0.0
            g_tt, g_tp, g_pp = reference_components(
                state, TorusPoint(0.3, 1.1), gamma, DEFAULT_STEP, k
            )
            expected = MetricTensor2(g_tt, g_tp, g_pp, analytic.shear, g_tt, g_pp)
            assert diagonalize_check(state, gamma) == expected
        assert sheared == 200

    def test_cross_term_vanishes_in_sheared_coordinates(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            sheared = diagonalize_check(random_state(rng))
            assert abs(sheared.g_theta_phi) < 1e-10

    def test_diagonal_entries_match_closed_form(self):
        state = PureState2Q.normalized(0.7, 0.1, 0.5j, -0.4)
        expected = metric_analytic(state)
        sheared = diagonalize_check(state)
        assert sheared.g_theta_theta == pytest.approx(
            expected.g_theta_theta_diag, abs=1e-10
        )
        assert sheared.g_phi_phi == pytest.approx(
            expected.g_phi_phi_diag, abs=1e-10
        )


class TestClassify:
    def test_generic_state_is_flat_torus(self):
        report = classify(PureState2Q.normalized(0.5, 0.6, -0.3j, 0.2))
        assert report.kind is ManifoldKind.FLAT_TORUS
        assert report.dimension == 2
        assert report.circle_radius is None
        assert report.flatness_residual < 1e-10

    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    def test_flatness_residual_of_haar_states_is_rounding(self, gamma):
        # ~1e-7 when 1 - |<x|y>|^2 was formed as a difference near 1.
        rng = np.random.default_rng(31)
        worst = max(classify(random_state(rng), gamma=gamma).flatness_residual for _ in range(40))
        assert worst < 1e-10 * gamma * gamma

    def test_classify_takes_no_seed(self):
        with pytest.raises(TypeError):
            classify(up_down(), seed=0)

    def test_up_down_is_theta_circle_with_unit_radius(self):
        report = classify(up_down(), gamma=1.0)
        assert report.kind is ManifoldKind.CIRCLE
        assert report.dimension == 1
        assert report.circle_radius == pytest.approx(1.0, abs=1e-12)
        assert report.radius_extrapolated is True

    @pytest.mark.parametrize("chi", [0.4, 1.1, 2.3])
    def test_radii_are_plain_floats_with_the_bits_of_np_sqrt(self, chi):
        for state, gamma in [(up_down(), 1.0), (plus_plus_state(chi, 0.6), 0.7),
                             (plus_minus_state(chi, 0.2), 2.3)]:
            report = classify(state, gamma=gamma)
            inv = family_invariants(state)
            radii = [report.radius_phi_circle, report.radius_theta_circle]
            assert all(type(radius) is float for radius in radii)
            assert radii == [
                float(gamma * np.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0))),
                float(gamma * np.sqrt(max(inv.mismatch * (2.0 - inv.mismatch), 0.0))),
            ]
            assert report.circle_radius is None or type(report.circle_radius) is float

    @pytest.mark.parametrize("chi", [0.4, 1.1, 2.3])
    def test_plus_plus_is_phi_circle(self, chi):
        gamma = 1.3
        report = classify(plus_plus_state(chi, 0.6), gamma=gamma)
        assert report.kind is ManifoldKind.CIRCLE
        assert report.circle_radius == pytest.approx(
            gamma * np.sin(chi) / np.sqrt(2.0), abs=1e-10
        )
        assert report.radius_extrapolated is False

    def test_polarized_state_is_point(self):
        report = classify(basis_state(0))
        assert report.kind is ManifoldKind.POINT
        assert report.dimension == 0
        assert report.radius_phi_circle == pytest.approx(0.0, abs=1e-12)
        assert report.radius_theta_circle == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    @pytest.mark.parametrize(
        "state",
        [basis_state(0), basis_state(3), plus_plus_state(0.0, 0.4), minus_minus_state(0.0, 1.7)],
        ids=["up_up", "down_down", "plus_plus_chi0", "minus_minus_chi0"],
    )
    def test_polarized_state_is_a_point(self, state, gamma):
        # The finite-difference cross term at these states is rounding
        # noise, which once vetoed the closed-form decision.
        report = classify(state, gamma=gamma)
        assert report.kind is ManifoldKind.POINT
        assert report.dimension == 0
        assert report.circle_radius is None
        assert report.radius_extrapolated is False

    @pytest.mark.parametrize("chi", [1e-7, 1e-6, 2e-6, 3e-6, 1e-5, 3e-5])
    def test_phi_is_live_exactly_when_the_closed_form_has_a_shear(self, chi):
        # The phi weight of |++> is sin(chi)^2 / 2: from 5e-15 to 4.5e-10
        # here, on both sides of the degeneracy tolerance.
        state = plus_plus_state(chi)
        has_shear = metric_analytic(state).shear is not None
        for gamma in (1e-3, 1.0, 1e3):
            report = classify(state, gamma=gamma)
            assert report.kind is (ManifoldKind.CIRCLE if has_shear else ManifoldKind.POINT)
        assert has_shear is (chi >= 2e-6)

    def test_only_the_closed_form_raises_degenerate_shear(self):
        with pytest.raises(DegenerateShear, match="phi direction is degenerate but the cross"):
            classify(near_polarized_state(4e-13))

    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    def test_flatness_residual_keeps_the_bits_of_metric_numeric(self, gamma):
        rng = np.random.default_rng(23)
        for _ in range(200):
            state = random_state(rng)
            report = classify(state, gamma=gamma)
            assert report.flatness_residual == reference_flatness(state, gamma)

    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    def test_flatness_residual_keeps_the_bits_of_the_per_direction_estimator(self, gamma):
        rng = np.random.default_rng(29)
        for _ in range(60):
            state = random_state(rng)
            report = classify(state, gamma=gamma)
            expected = reference_flatness_per_direction(state, gamma)
            assert bits(report.flatness_residual) == bits(expected)

    @pytest.mark.parametrize(
        "state, kind",
        [(plus_plus_state(0.01), ManifoldKind.CIRCLE), (up_down(), ManifoldKind.CIRCLE)],
        ids=["plus_plus_chi_0.01", "up_down"],
    )
    def test_kind_does_not_depend_on_gamma(self, state, kind):
        # At gamma = 1e-3 the scaled phi weight of |++> at chi = 0.01 is
        # 5e-11, under the liveness tolerance, though the orbit is a circle.
        for gamma in (1e-3, 1.0, 1e3):
            report = classify(state, gamma=gamma)
            assert (report.kind, report.dimension) == (kind, 1)

    @pytest.mark.parametrize(
        "state, kind, extrapolated",
        [
            (PureState2Q.normalized(0.5, 0.6, -0.3j, 0.2), ManifoldKind.FLAT_TORUS, False),
            (up_down(), ManifoldKind.CIRCLE, True),
            (plus_plus_state(1.1, 0.6), ManifoldKind.CIRCLE, False),
            (basis_state(0), ManifoldKind.POINT, False),
        ],
    )
    def test_dimension_is_an_int_and_the_flag_a_bool(self, state, kind, extrapolated):
        report = classify(state)
        assert report.kind is kind
        assert type(report.dimension) is int
        assert report.dimension == {"point": 0, "circle": 1, "flat_torus": 2}[kind.value]
        assert type(report.radius_extrapolated) is bool
        assert report.radius_extrapolated is extrapolated

    def test_sheared_rank_one_metric_is_still_a_circle(self):
        # Both raw diagonal entries are positive here, but the determinant
        # vanishes: the surface is a line in disguise, and only the
        # diagonalized components expose that.
        state = PureState2Q.from_amplitudes(np.sqrt(0.5), 0.5, -0.5, 0.0)
        metric = metric_analytic(state)
        assert metric.g_theta_theta > 0.1
        assert metric.g_phi_phi > 0.1
        report = classify(state)
        assert report.kind is ManifoldKind.CIRCLE
        assert report.circle_radius == pytest.approx(0.5, abs=1e-12)

    def test_both_radius_candidates_always_reported(self):
        report = classify(plus_minus_state(0.8, 0.0), gamma=2.0)
        assert report.kind is ManifoldKind.FLAT_TORUS
        assert report.radius_phi_circle == pytest.approx(
            2.0 * np.sin(0.8) / np.sqrt(2.0), abs=1e-12
        )
        assert report.radius_theta_circle == pytest.approx(2.0, abs=1e-12)

    def test_flatness_points_are_fixed_and_off_the_symmetry_lines(self):
        points = list(zip(manifold._FLATNESS_THETAS, manifold._FLATNESS_PHIS))
        assert points == [(pt.theta, pt.phi) for pt in FLATNESS_POINTS]
        thetas, phis = np.array(points).T
        assert len(set(thetas)) == len(set(phis)) == 5
        assert np.abs(thetas - np.pi / 2).min() > 0.1 and np.abs(phis - np.pi).min() > 0.1
        assert min(thetas.min(), np.pi - thetas.max(), phis.min(), 2 * np.pi - phis.max()) > 0.1

    def test_a_family_map_that_is_not_flat_shows_in_the_residual(self, monkeypatch):
        # The inner pair rotated by theta + 0.1 sin(phi) instead of theta: a
        # family whose metric varies over the torus, which the points see.
        family = manifold.evolve_grid

        def bent(amplitudes, thetas, phis):
            rows = family(amplitudes, thetas, phis).copy()
            inner = family(amplitudes, np.add(thetas, 0.1 * np.sin(phis)), phis)
            rows[..., 1:3] = inner[..., 1:3]
            return rows

        monkeypatch.setattr(manifold, "evolve_grid", bent)
        assert classify(PureState2Q.normalized(0.5, 0.6, -0.3j, 0.2)).flatness_residual > 1e-6
