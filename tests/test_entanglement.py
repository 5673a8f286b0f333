import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_torus.entanglement import (
    ConcurrenceRangeError,
    NotDisentangled,
    ZeroCoupling,
    _clamp_unit,
    _w_and_derivatives,
    concurrence,
    concurrence_disentangled,
    concurrence_evolved,
    concurrence_profile,
    concurrence_wootters_oracle,
    constant_entanglement_circle,
    entanglement_along_orbit,
    max_entanglement_time,
)
from spin_torus.hamiltonian import SystemParams
from spin_torus.manifold import TorusPoint, evolve_family
from spin_torus.qstate import (
    PureState2Q,
    plus_minus_state,
    plus_plus_state,
    random_state,
    singlet,
    up_down,
    up_up,
)


def haar_states(count, seed):
    rng = np.random.default_rng(seed)
    return [random_state(rng) for _ in range(count)]


def raw_amplitudes():
    finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return st.lists(finite, min_size=8, max_size=8).filter(
        lambda raw: np.linalg.norm(raw) > 0.1
    )


def state_from_raw(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    return PureState2Q(vec / np.linalg.norm(vec))


class TestScalarAmplitude:
    def test_scalar_path_matches_numpy_element_by_element(self):
        # A 0-d array takes numpy's route, which is how every scalar theta
        # was evaluated before the cmath/math path: that route is the
        # reference for the bits.  Over a whole array numpy's vectorized
        # complex arithmetic may round differently, so the array path is
        # held to a few ulps only.
        rng = np.random.default_rng(101)
        thetas = np.concatenate([[0.0, np.pi / 4, np.pi], rng.uniform(-20.0, 20.0, 300)])
        for state in haar_states(10, 102) + [up_down(), singlet()]:
            arrays = _w_and_derivatives(state, thetas)
            for i, theta in enumerate(thetas.tolist()):
                scalars = _w_and_derivatives(state, theta)
                assert all(type(value) is complex for value in scalars)
                zero_d = _w_and_derivatives(state, np.asarray(theta))
                assert scalars == tuple(complex(value) for value in zero_d)
                np.testing.assert_allclose(
                    scalars, [values[i] for values in arrays], rtol=0, atol=1e-14
                )

    def test_integer_and_numpy_scalar_angles(self):
        state = haar_states(1, 103)[0]
        expected = tuple(complex(value) for value in _w_and_derivatives(state, np.asarray(2.0)))
        assert _w_and_derivatives(state, 2) == expected
        assert _w_and_derivatives(state, np.float64(2.0)) == expected


class TestConcurrence:
    def test_product_states_have_zero(self):
        assert concurrence(up_up()) == 0.0
        assert concurrence(plus_minus_state(1.234, 0.77)) < 1e-15

    def test_singlet_is_maximal(self):
        assert concurrence(singlet()) == pytest.approx(1.0)

    def test_swapped_mix_is_maximal(self):
        state = PureState2Q.normalized(0.0, 1.0, -1.0j, 0.0)
        assert concurrence(state) == pytest.approx(1.0)

    def test_bell_like_outer_pair(self):
        state = PureState2Q.normalized(1.0, 0.0, 0.0, 1.0)
        assert concurrence(state) == pytest.approx(1.0)

    @settings(derandomize=True, max_examples=80)
    @given(raw_amplitudes())
    def test_range_and_oracle_agreement(self, raw):
        state = state_from_raw(raw)
        value = concurrence(state)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(
            concurrence_wootters_oracle(state), abs=1e-10
        )

    def test_clamp_raises_on_large_excursion(self):
        with pytest.raises(ConcurrenceRangeError):
            _clamp_unit(1.0 + 1e-6)

    def test_clamp_refuses_nan(self):
        with pytest.raises(ConcurrenceRangeError):
            _clamp_unit(float("nan"))

    def test_clamp_absorbs_rounding(self):
        assert _clamp_unit(1.0 + 1e-13) == 1.0
        assert _clamp_unit(-1e-13) == 0.0


class TestWoottersOracle:
    def test_known_states(self):
        assert concurrence_wootters_oracle(up_up()) == 0.0
        assert concurrence_wootters_oracle(singlet()) == pytest.approx(1.0)

    def test_agreement_on_many_draws(self):
        for state in haar_states(100, seed=17):
            assert concurrence_wootters_oracle(state) == pytest.approx(
                concurrence(state), abs=1e-10
            )


class TestEvolvedConcurrence:
    def test_theta_zero_recovers_initial(self):
        for state in haar_states(20, seed=23):
            assert concurrence_evolved(state, 0.0) == pytest.approx(
                concurrence(state), abs=1e-14
            )

    def test_matches_direct_evolution(self):
        rng = np.random.default_rng(29)
        for state in haar_states(50, seed=29):
            theta = float(rng.uniform(0, np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            direct = concurrence(evolve_family(state, TorusPoint(theta, phi)))
            assert concurrence_evolved(state, theta) == pytest.approx(
                direct, abs=1e-12
            )

    def test_field_angle_never_matters(self):
        rng = np.random.default_rng(31)
        for state in haar_states(25, seed=31):
            theta = float(rng.uniform(0, np.pi))
            values = entanglement_along_orbit(
                state, theta, rng.uniform(0, 2 * np.pi, size=6)
            )
            assert max(values) - min(values) < 1e-12

    def test_pi_periodic(self):
        rng = np.random.default_rng(37)
        for state in haar_states(25, seed=37):
            theta = float(rng.uniform(0, np.pi))
            assert concurrence_evolved(state, theta) == pytest.approx(
                concurrence_evolved(state, theta + np.pi), abs=1e-12
            )

    def test_up_down_reaches_maximal_at_quarter_turn(self):
        assert concurrence_evolved(up_down(), np.pi / 4) == pytest.approx(1.0)

    def test_symmetric_inner_pair_stays_constant(self):
        # b = c makes the state an eigenvector of the exchange part, so the
        # orbit only turns phases and the concurrence freezes at its initial
        # value -- entangled or not.
        state = PureState2Q.normalized(0.6, 0.4, 0.4, -0.3j)
        initial = concurrence(state)
        assert initial > 0.1
        for theta in np.linspace(0, np.pi, 9):
            assert concurrence_evolved(state, float(theta)) == pytest.approx(
                initial, abs=1e-13
            )


class TestDisentangledFormula:
    @pytest.mark.parametrize("chi", [0.2, 0.9, np.pi / 2, 2.8])
    def test_plus_minus_grows_as_sin(self, chi):
        state = plus_minus_state(chi, 0.5)
        for theta in np.linspace(0, np.pi, 13):
            expected = abs(np.sin(2 * theta))
            assert concurrence_disentangled(state, float(theta)) == pytest.approx(
                expected, abs=1e-12
            )
            assert concurrence_evolved(state, float(theta)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_up_down_is_the_extreme_case(self):
        assert concurrence_disentangled(up_down(), np.pi / 4) == pytest.approx(1.0)

    def test_any_product_state_vanishes_at_half_turn(self):
        assert concurrence_disentangled(
            plus_minus_state(1.1, 2.0), np.pi / 2
        ) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_entangled_input(self):
        with pytest.raises(NotDisentangled):
            concurrence_disentangled(singlet(), 0.3)


class TestConstantEntanglementCircle:
    def test_plus_minus_equator(self):
        for theta in (0.0, 0.4, 1.2):
            value, radius = constant_entanglement_circle(
                plus_minus_state(np.pi / 2, 0.0), theta
            )
            assert radius == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
            assert value == pytest.approx(abs(np.sin(2 * theta)), abs=1e-12)

    def test_up_down_circle_collapses(self):
        _, radius = constant_entanglement_circle(up_down(), 0.7)
        assert radius == 0.0

    @pytest.mark.parametrize("chi", [0.4, 1.0, 2.1])
    def test_plus_plus_circle_is_disentangled(self, chi):
        value, radius = constant_entanglement_circle(
            plus_plus_state(chi, 0.3), 0.9, gamma=2.0
        )
        assert radius == pytest.approx(2.0 * np.sin(chi) / np.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            constant_entanglement_circle(up_down(), 0.0, gamma=0.0)


class TestProfile:
    def test_samples_follow_closed_form(self):
        state = plus_minus_state(0.9, 0.0)
        thetas = np.linspace(0, np.pi, 9)
        profile = concurrence_profile(state, thetas)
        assert len(profile.samples) == 9
        for (theta, value), expected_theta in zip(profile.samples, thetas):
            assert theta == pytest.approx(float(expected_theta))
            assert value == pytest.approx(abs(np.sin(2 * theta)), abs=1e-12)

    def test_maximum_is_grid_independent(self):
        coarse = concurrence_profile(up_down(), np.linspace(0, np.pi, 5))
        assert coarse.theta_max == pytest.approx(np.pi / 4, abs=1e-10)
        assert coarse.c_max == pytest.approx(1.0, abs=1e-12)
        assert not coarse.is_constant

    def test_constant_profile_flagged(self):
        profile = concurrence_profile(singlet())
        assert profile.is_constant
        assert profile.c_max == pytest.approx(1.0)
        assert profile.theta_max == 0.0

    def test_values_stay_in_range(self):
        for state in haar_states(10, seed=43):
            profile = concurrence_profile(state)
            assert all(0.0 <= value <= 1.0 for _, value in profile.samples)


class TestMaxEntanglementTime:
    @pytest.mark.parametrize("coupling", [0.5, 1.0, 2.0])
    def test_up_down_reference(self, coupling):
        peak = max_entanglement_time(up_down(), SystemParams(coupling, 0.4))
        assert peak.time == pytest.approx(np.pi / (8 * coupling), abs=1e-10)
        assert peak.theta == pytest.approx(np.pi / 4, abs=1e-10)
        assert peak.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_state_peak(self):
        peak = max_entanglement_time(plus_minus_state(0.7, 0.0), SystemParams(2.0, 0.0))
        assert peak.time == pytest.approx(np.pi / 16, abs=1e-10)
        assert peak.theta == pytest.approx(np.pi / 4, abs=1e-10)
        assert peak.concurrence == pytest.approx(1.0, abs=1e-10)

    def test_negative_coupling_runs_backwards(self):
        peak = max_entanglement_time(up_down(), SystemParams(-1.0, 0.0))
        # theta(t) = -2t sweeps downward, so the first peak of |sin 2 theta|
        # it meets is the one at the wrapped angle 3 pi / 4.
        assert peak.theta == pytest.approx(3 * np.pi / 4, abs=1e-10)
        assert peak.time == pytest.approx(np.pi / 8, abs=1e-10)

    def test_twin_peak_state_takes_the_earlier_one(self):
        # C = |cos 2 theta| peaks equally at theta = 0 and theta = pi/2; the
        # smallest positive time comes from the pi/2 peak, not from waiting
        # a full half-period to revisit theta = 0.
        state = PureState2Q.from_amplitudes(0.5, -0.5, 0.5, 0.5)
        peak = max_entanglement_time(state, SystemParams(1.0, 0.0))
        assert peak.theta == pytest.approx(np.pi / 2, abs=1e-10)
        assert peak.time == pytest.approx(np.pi / 4, abs=1e-10)
        assert peak.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_constant_profile_peaks_immediately(self):
        peak = max_entanglement_time(singlet(), SystemParams(1.0, 0.7))
        assert peak.time == 0.0
        assert peak.concurrence == pytest.approx(1.0)

    def test_eigenstate_product_never_entangles(self):
        peak = max_entanglement_time(plus_plus_state(0.8, 0.2), SystemParams(1.0, 0.0))
        assert peak.concurrence == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            max_entanglement_time(up_down(), SystemParams(0.0, 1.0))

    def test_time_actually_achieves_the_maximum(self):
        rng = np.random.default_rng(47)
        for state in haar_states(15, seed=47):
            coupling = float(rng.choice([-2.0, -0.5, 0.5, 1.5]))
            peak = max_entanglement_time(state, SystemParams(coupling, 0.0))
            if peak.time == 0.0:
                continue
            assert peak.time > 0.0
            reached = concurrence_evolved(state, 2.0 * coupling * peak.time)
            assert reached == pytest.approx(peak.concurrence, abs=1e-10)
