import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_torus import entanglement
from spin_torus.entanglement import (
    ConcurrenceRangeError,
    NotDisentangled,
    ZeroCoupling,
    _clamp_unit,
    _closed_form_maximum,
    _w,
    concurrence,
    concurrence_disentangled,
    concurrence_evolved,
    concurrence_profile,
    concurrence_stack,
    concurrence_wootters_oracle,
    concurrence_wootters_oracle_stack,
    constant_entanglement_circle,
    entanglement_along_orbit,
    max_entanglement_time,
)
from spin_torus.hamiltonian import SystemParams
from spin_torus.manifold import (
    TorusPoint,
    classify,
    evolve_family,
    evolve_grid,
    family_invariants,
)
from spin_torus.qstate import (
    PureState2Q,
    basis_state,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    random_state,
    up_down,
)

UP_UP, DOWN_DOWN = basis_state(0), basis_state(3)
SINGLET = PureState2Q.normalized(0.0, 1.0, -1.0, 0.0)
TRIPLET_ZERO = PureState2Q.normalized(0.0, 1.0, 1.0, 0.0)
#: 256 exchange angles spanning [0, pi).
GRID = np.linspace(0.0, np.pi, 256, endpoint=False)


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


def loop_samples(grid, values):
    """The per-sample loop concurrence_profile built its samples with,
    kept as an oracle for the array route that replaced it."""
    return tuple(
        (float(theta), _clamp_unit(float(value)))
        for theta, value in zip(np.atleast_1d(grid), values)
    )


def edge_state(tilt):
    """A state whose concurrence peak sits at the edge of the pi/2 period:
    theta* = tilt/4 mod pi/2 (see test_peak_at_the_edge_of_the_period)."""
    return PureState2Q.from_amplitudes(complex(0.5, 0.5 * tilt), 0.5, -0.5, 0.5)


# --- the dense search the closed form replaced, kept as a test oracle --------

_MAX_GRID = 4096


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


def _quarter_turn_gap(x, y):
    """Distance between two angles on the circle of circumference pi/2."""
    gap = (x - y) % (np.pi / 2.0)
    return min(gap, np.pi / 2.0 - gap)


class TestScalarAmplitude:
    def test_scalar_path_matches_numpy_element_by_element(self):
        # A 0-d array takes numpy's route, which is how every scalar theta
        # was evaluated before the cmath/math path: that route is the
        # reference for the bits.  Over a whole array numpy's vectorized
        # complex arithmetic may round differently, so the array path is
        # held to a few ulps only.
        rng = np.random.default_rng(101)
        thetas = np.concatenate([[0.0, np.pi / 4, np.pi], rng.uniform(-20.0, 20.0, 300)])
        for state in haar_states(10, 102) + [up_down(), SINGLET]:
            array = _w(state, thetas)
            for i, theta in enumerate(thetas.tolist()):
                scalar = _w(state, theta)
                assert type(scalar) is complex
                assert scalar == complex(_w(state, np.asarray(theta)))
                assert abs(scalar - array[i]) <= 1e-14

    def test_integer_and_numpy_scalar_angles(self):
        state = haar_states(1, 103)[0]
        expected = complex(_w(state, np.asarray(2.0)))
        assert _w(state, 2) == expected
        assert _w(state, np.float64(2.0)) == expected


class TestConcurrence:
    def test_product_states_have_zero(self):
        assert concurrence(UP_UP) == 0.0
        assert concurrence(plus_minus_state(1.234, 0.77)) < 1e-15

    def test_singlet_is_maximal(self):
        assert concurrence(SINGLET) == pytest.approx(1.0)

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
        assert concurrence_wootters_oracle(UP_UP) == 0.0
        assert concurrence_wootters_oracle(SINGLET) == pytest.approx(1.0)

    @pytest.mark.parametrize("tiny", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_resolves_near_product_states(self, tiny):
        # C = 2 tiny / (1 + tiny^2): far below sqrt(eps), where an eigenvalue
        # route would read C^2 through noise of size eps.
        state = PureState2Q.normalized(0.0, 1j, tiny * 1j, 0.0)
        assert concurrence_wootters_oracle(state) == pytest.approx(
            concurrence(state), abs=1e-15
        )

    def test_agreement_on_many_draws(self):
        for state in haar_states(100, seed=17):
            assert concurrence_wootters_oracle(state) == pytest.approx(
                concurrence(state), abs=1e-10
            )


# --- the scalar routes the stacked kernels replaced, kept as references ------

def scalar_oracle(state):
    vec = state.vector
    rho = np.outer(vec, vec.conj())
    evals, evecs = np.linalg.eigh(rho)
    evals = np.where(evals < 1e-14, 0.0, evals)
    sqrt_rho = (evecs * np.sqrt(evals)) @ evecs.conj().T
    sqrt_rho_tilde = entanglement._SPIN_FLIP @ sqrt_rho.conj() @ entanglement._SPIN_FLIP
    roots = np.linalg.svd(sqrt_rho @ sqrt_rho_tilde, compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def scalar_orbit(initial, theta, phis):
    return [concurrence(evolve_family(initial, TorusPoint(theta, phi))) for phi in phis]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def stack_states():
    """1000 Haar states, the named states and product states, some a hair
    away from a product state."""
    rng = np.random.default_rng(53)
    named = [UP_UP, DOWN_DOWN, SINGLET, TRIPLET_ZERO, up_down()]
    angles = rng.uniform(0.0, np.pi, size=(60, 2)).tolist()
    products = [make(chi, gaz) for chi, gaz in angles for make in
                (plus_minus_state, plus_plus_state, minus_minus_state)]
    near = [PureState2Q.normalized(0.0, 1j, tiny * 1j, 0.0) for tiny in (1e-6, 1e-8, 1e-10, 1e-12)]
    return haar_states(1000, seed=53) + named + products + near


def loop_concurrences(vectors):
    """C = 2|ad - bc| of each row in CPython complex arithmetic, clamped
    row by row, so the first bad row raises."""
    return [_clamp_unit(2.0 * abs(a * d - b * c)) for a, b, c, d in vectors.tolist()]


class TestStackedRoutes:
    def test_concurrence_stack_bit_identical_to_scalar_route(self):
        states = stack_states()
        vectors = np.array([state.vector for state in states])
        # |down up> with a signed zero in every part
        signed = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0), -0.0j]
        vectors = np.concatenate((vectors, [signed]))
        reference = np.array(loop_concurrences(vectors))
        assert same_bits(concurrence_stack(vectors), reference)
        one = np.array([concurrence(PureState2Q(vector)) for vector in vectors])
        assert same_bits(one, reference)
        stacked = concurrence_stack(vectors[:1000].reshape(10, 100, 4))
        assert same_bits(stacked, reference[:1000].reshape(10, 100))
        assert same_bits(concurrence_stack(vectors[5]), reference[5])

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 0.0, 0.0, 0.5], [0.8, 0.0, 0.0, 0.8], [np.nan, 0.0, 0.0, 1.0]],
            [[0.5, 0.0, 0.0, 0.5], [np.nan, 0.0, 0.0, 1.0], [0.8, 0.0, 0.0, 0.8]],
            [[0.5, 0.3j, 0.3j, 0.5 + 1e-6], [1.0, 0.0, 0.0, 0.5]],
            [[0.5, 0.0, 0.0, 1.0 + 4e-10], [0.0, 1.0, -1e-10, 0.0], [0.0, 0.5, 0.5, 0.0]],
        ],
    )
    def test_concurrence_stack_clamps_as_the_loop_does(self, rows):
        """Out of range or NaN, the first bad row raises _clamp_unit's
        error; rounding excursions clip to the loop's bits."""
        vectors = np.array(rows, dtype=np.complex128)
        try:
            expected = loop_concurrences(vectors)
        except ConcurrenceRangeError as error:
            with pytest.raises(ConcurrenceRangeError) as excinfo:
                concurrence_stack(vectors)
            assert str(excinfo.value) == str(error)
        else:
            assert same_bits(concurrence_stack(vectors), np.array(expected))

    def test_oracle_bit_identical_to_scalar_route(self):
        states = stack_states()
        reference = np.array([scalar_oracle(state) for state in states])
        stack = concurrence_wootters_oracle_stack([state.vector for state in states])
        assert same_bits(stack, reference)
        one = np.array([concurrence_wootters_oracle(state) for state in states])
        assert same_bits(one, reference)

    def test_orbit_bit_identical_to_scalar_route(self):
        states = stack_states()
        rng = np.random.default_rng(59)
        thetas = rng.uniform(-7.0, 7.0, len(states))
        phis = rng.uniform(-7.0, 7.0, (len(states), 5))
        thetas[:3], phis[:3, 0] = [0.0, -0.0, np.pi], -0.0
        reference = [scalar_orbit(*args) for args in zip(states, thetas.tolist(), phis.tolist())]
        assert same_bits(entanglement_along_orbit(states, thetas, phis), np.array(reference))

    @pytest.mark.parametrize("theta, phi", [(np.inf, 0.0), (0.3, np.nan)])
    def test_orbit_refuses_non_finite_angles_as_torus_point_does(self, theta, phi):
        with pytest.raises(ValueError, match="^torus coordinates must be finite$"):
            TorusPoint(theta, phi)
        with pytest.raises(ValueError, match="^torus coordinates must be finite$"):
            entanglement_along_orbit([up_down()], [theta], [[phi, 1.0]])
        with pytest.raises(ValueError, match="^torus coordinates must be finite$"):
            evolve_grid(up_down().vector, [theta, 0.2], [phi, 1.0])

    def test_zero_length_stacks(self):
        assert concurrence_stack(np.zeros((0, 4))).shape == (0,)
        assert concurrence_wootters_oracle_stack(np.zeros((0, 4))).shape == (0,)
        assert entanglement_along_orbit([], [], np.zeros((0, 5))).shape == (0, 5)


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
        states = haar_states(25, seed=31)
        values = entanglement_along_orbit(
            states, rng.uniform(0, np.pi, 25), rng.uniform(0, 2 * np.pi, size=(25, 6))
        )
        assert values.shape == (25, 6)
        assert np.all(values.max(axis=1) - values.min(axis=1) < 1e-12)

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
            concurrence_disentangled(SINGLET, 0.3)


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

    @pytest.mark.parametrize("gamma", [1.0, 0.6, 2.3])
    def test_radius_keeps_its_bits_and_matches_classify(self, gamma):
        rng = np.random.default_rng(5)
        states = [random_state(rng) for _ in range(50)]
        states += [UP_UP, up_down(), plus_plus_state(0.7, 0.3), minus_minus_state(2.2)]
        for state in states:
            inv = family_invariants(state)
            _, radius = constant_entanglement_circle(state, 0.4, gamma=gamma)
            assert type(radius) is float
            assert radius == float(gamma * np.sqrt(max(inv.aligned - inv.imbalance ** 2, 0.0)))
            assert radius == classify(state, gamma=gamma).radius_phi_circle


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
        profile = concurrence_profile(SINGLET, GRID)
        assert profile.is_constant
        assert profile.c_max == pytest.approx(1.0)
        assert profile.theta_max == 0.0

    @pytest.mark.parametrize(
        "thetas",
        [GRID, np.linspace(-4.0, 9.0, 301), [0.0, np.pi / 4, np.pi / 2, 3], 0.7, []],
    )
    def test_samples_equal_the_per_sample_loop(self, thetas):
        specials = [UP_UP, SINGLET, TRIPLET_ZERO, up_down(), plus_minus_state(0.9, 0.4)]
        edges = [edge_state(tilt) for tilt in (1e-17, -1e-17, 5e-16, -5e-16)]
        for state in haar_states(200, seed=61) + specials + edges:
            grid = np.asarray(thetas, dtype=np.float64)
            expected = loop_samples(grid, 2.0 * np.abs(np.atleast_1d(_w(state, grid))))
            samples = concurrence_profile(state, thetas).samples
            # repr tells -0.0 from 0.0 and shows every bit of a float.
            assert repr(samples) == repr(expected)
            assert all(type(x) is float for sample in samples for x in sample)

    @pytest.mark.parametrize(
        "w",
        [
            [0.1, 0.6, float("nan"), 0.7],
            [0.1, float("nan"), 0.6],
            [-0.25, 0.5 + 2e-10, 0.5 + 6e-10],
            [0.5 + 4e-10, 0.0, 0.25],
        ],
    )
    def test_out_of_range_samples_raise_like_the_loop(self, monkeypatch, w):
        values = 2.0 * np.abs(np.array(w))
        grid = np.arange(len(w), dtype=np.float64)
        monkeypatch.setattr(entanglement, "_w", lambda initial, theta: np.array(w))
        try:
            expected = loop_samples(grid, values)
        except ConcurrenceRangeError as error:
            with pytest.raises(ConcurrenceRangeError) as excinfo:
                concurrence_profile(up_down(), grid)
            assert str(excinfo.value) == str(error)
        else:
            assert concurrence_profile(up_down(), grid).samples == expected

    def test_values_stay_in_range(self):
        for state in haar_states(10, seed=43):
            profile = concurrence_profile(state, GRID)
            assert all(0.0 <= value <= 1.0 for _, value in profile.samples)

    def test_the_grid_is_required(self):
        with pytest.raises(TypeError):
            concurrence_profile(up_down())


class TestClosedFormMaximum:
    def test_matches_the_dense_search(self):
        specials = [
            UP_UP,
            DOWN_DOWN,
            TRIPLET_ZERO,
            SINGLET,
            plus_minus_state(0.9, 0.4),
            plus_plus_state(0.8, 0.2),
            up_down(),
        ]
        for state in haar_states(2000, seed=53) + specials:
            winners, search_max, search_flat = _argmax_concurrence(state)
            theta_max, c_max, flat = _closed_form_maximum(state)
            assert abs(c_max - search_max) <= 1e-15
            assert flat == search_flat
            a, b, c, d = state.vector.tolist()
            alpha, beta = (b - c) ** 2 / 4.0, a * d - (b + c) ** 2 / 4.0
            # Near alpha beta = 0 the peak flattens and its location is
            # ill-conditioned, for the search and the closed form alike.
            if min(abs(alpha), abs(beta)) > 1e-6:
                assert _quarter_turn_gap(theta_max, winners[0]) <= 1e-6

    @pytest.mark.parametrize("tilt", [1e-17, -1e-17, 5e-16, -5e-16])
    def test_peak_at_the_edge_of_the_period(self, tilt):
        # b = -c gives alpha = 1/4 and beta = ad = (1 + i tilt)/4, so
        # arg(alpha conj(beta)) = -tilt and theta* = tilt/4 mod pi/2.  A
        # negative tilt puts theta* just below pi/2, where the mod can round
        # to pi/2 itself (-1e-17) or to the float just below it (-5e-16).
        state = edge_state(tilt)
        profile = concurrence_profile(state, GRID)
        assert 0.0 <= profile.theta_max < np.pi / 2
        assert _quarter_turn_gap(profile.theta_max, 0.0) <= 1e-15
        assert profile.c_max == 1.0
        assert abs(concurrence_evolved(state, profile.theta_max) - profile.c_max) <= 1e-14
        winners, search_max, _ = _argmax_concurrence(state)
        assert abs(profile.c_max - search_max) <= 1e-15
        assert _quarter_turn_gap(profile.theta_max, winners[0]) <= 1e-6
        for coupling in (1.0, -1.0):
            peak = max_entanglement_time(state, SystemParams(coupling, 0.0))
            assert peak.time > 0.0
            assert peak.time == pytest.approx(np.pi / 4, abs=1e-12)
            assert peak.theta == pytest.approx(np.pi / 2, abs=1e-12)

    @settings(derandomize=True, max_examples=200)
    @given(raw_amplitudes())
    def test_closed_form_bounds_and_attains_the_profile(self, raw):
        state = state_from_raw(raw)
        profile = concurrence_profile(state, GRID)
        assert 0.0 <= profile.theta_max < np.pi / 2
        assert all(value <= profile.c_max + 1e-12 for _, value in profile.samples)
        # A flat profile reports its top, which theta = 0 may miss by up to
        # the profile's range, below the 1e-13 flatness threshold.
        tol = 1e-13 if profile.is_constant else 1e-14
        assert abs(concurrence_evolved(state, profile.theta_max) - profile.c_max) <= tol


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
        peak = max_entanglement_time(SINGLET, SystemParams(1.0, 0.7))
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
