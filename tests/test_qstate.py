import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from spin_torus.qstate import (
    Operator4,
    PureState2Q,
    all_finite,
    apply,
    basis_state,
    bloch_minus,
    check_state_array,
    check_state_row,
    bloch_plus,
    fs_distance_sq,
    inner,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    product_state,
    random_state,
    random_states,
    ray_distances_sq,
    ray_equal,
    up_down,
)
from spin_torus.qstate import _norms_sq

INV_SQRT2 = 1.0 / np.sqrt(2.0)
#: Inputs that are not finite floats, including integers beyond the float range.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]


def amplitude_lists():
    finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return st.lists(finite, min_size=8, max_size=8).filter(
        lambda raw: np.linalg.norm(raw) > 0.1
    )


def state_from_raw(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    return PureState2Q(vec / np.linalg.norm(vec))


class TestConstruction:
    def test_basis_ordering(self):
        for index in range(4):
            assert basis_state(index).vector.tolist() == [float(i == index) for i in range(4)]
        assert up_down().vector.tolist() == basis_state(1).vector.tolist()

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState2Q.from_amplitudes(1.0, 1.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PureState2Q.from_amplitudes(np.nan, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "amplitudes",
        [
            (np.nan, 0.0, 0.0, 0.0),
            (complex(0.6, np.nan), 0.8, 0.0, 0.0),
            (0.6, 0.0, np.inf, 0.8),
            (0.0, 0.0, 0.0, complex(0.6, -np.inf)),
        ],
    )
    def test_non_finite_message(self, amplitudes):
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            PureState2Q.from_amplitudes(*amplitudes)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("constructor", ["from_amplitudes", "normalized", "vector"])
    def test_non_finite_and_huge_amplitudes_on_every_argument(self, constructor, bad, position):
        amplitudes = [0.0, 0.0, 0.0, 0.0]
        amplitudes[position - 1] = 1.0
        amplitudes[position] = bad
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            if constructor == "vector":
                PureState2Q(amplitudes)
            else:
                getattr(PureState2Q, constructor)(*amplitudes)

    def test_norm_off_by_2e_12_rejected_with_its_sum(self):
        big = np.sqrt(1.0 + 2e-12)
        norm_sq = float(np.sum(np.abs(np.array([big, 0.0, 0.0, 0.0])) ** 2))
        expected = f"state is not normalized: |amplitudes|^2 sums to {norm_sq!r}"
        with pytest.raises(ValueError) as excinfo:
            PureState2Q.from_amplitudes(big, 0.0, 0.0, 0.0)
        assert str(excinfo.value) == expected

    def test_norm_within_tolerance_accepted(self):
        PureState2Q.from_amplitudes(np.sqrt(1.0 + 5e-13), 0.0, 0.0, 0.0)

    def test_overflowing_modulus_is_not_normalized(self):
        with pytest.raises(ValueError, match="sums to inf"):
            PureState2Q.from_amplitudes(complex(1e308, 1e308), 0.0, 0.0, 0.0)

    def test_accepts_2x2_array_like(self):
        state = PureState2Q([[0.6, 0.0], [0.0, 0.8j]])
        assert state.vector.shape == (4,)
        assert state.d == 0.8j

    def test_normalized_constructor_rescales(self):
        state = PureState2Q.normalized(3.0, 0.0, 4.0, 0.0)
        assert state.a == pytest.approx(0.6)
        assert state.c == pytest.approx(0.8)

    @pytest.mark.parametrize("zero", [(0.0, 0.0, 0.0, 0.0), (-0.0, 0j, complex(0.0, -0.0), 0)])
    def test_normalized_rejects_zero_vector(self, zero):
        with pytest.raises(ValueError, match="zero vector"):
            PureState2Q.normalized(*zero)

    @pytest.mark.parametrize(
        "tiny, expected",
        [
            ((1e-300, 1e-300, 0.0, 0.0), [INV_SQRT2, INV_SQRT2, 0.0, 0.0]),
            ((5e-324, 0.0, 0.0, 0.0), [1.0, 0.0, 0.0, 0.0]),
            ((1e-16j, 0.0, 0.0, 0.0), [1j, 0.0, 0.0, 0.0]),
            ((0.0, -5e-324, 0.0, 5e-324j), [0.0, -INV_SQRT2, 0.0, INV_SQRT2 * 1j]),
        ],
    )
    def test_normalized_takes_tiny_non_zero_vectors(self, tiny, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = PureState2Q.normalized(*tiny)
        assert state.vector == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("big", [1e154, 1e308, -1e308])
    def test_normalized_takes_amplitudes_whose_squares_overflow(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = PureState2Q.normalized(big, big, 0.0, 0.0)
        assert state.vector.tolist() == [INV_SQRT2 * np.sign(big)] * 2 + [0.0, 0.0]

    def test_normalized_scales_huge_complex_parts_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = PureState2Q.normalized(complex(1e308, -1e308), 0.0, 0.0, 1e308j)
        third = 1.0 / np.sqrt(3.0)
        assert state.vector == pytest.approx([third - third * 1j, 0.0, 0.0, third * 1j])

    @staticmethod
    def plainly_normalized(raw):
        """The rescaling as it reads with no overflow guard."""
        vec = np.array(raw, dtype=np.complex128)
        return vec / float(np.linalg.norm(vec))

    def test_normalized_keeps_bits_of_haar_draws(self):
        rng = np.random.default_rng(11)
        for scale in [1.0, 1e-10, 1e100, 3e150] * 50 + [1e-20, 1e-300] * 50:
            raw = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            state = PureState2Q.normalized(*raw)
            # A power of two is exact and cancels in the quotient; here it
            # lifts squares of ~1e-300 back out of the underflow range.
            lift = 2.0 ** 1000 if scale < 1e-200 else 1.0
            assert state.vector.tobytes() == self.plainly_normalized(raw * lift).tobytes()

    @pytest.mark.parametrize(
        "raw",
        [(1.0, 5e-324, 0.0, 0.0), (3.0, 4e-320j, -2.5e-310, 4.0), (1e150, 0.0, 0.0, 3e-320)],
    )
    def test_normalized_keeps_bits_with_subnormal_parts(self, raw):
        state = PureState2Q.normalized(*raw)
        assert state.vector.tobytes() == self.plainly_normalized(raw).tobytes()

    def test_vector_is_read_only(self):
        state = basis_state(0)
        with pytest.raises(ValueError):
            state.vector[0] = 0.0

    def test_amplitude_accessors(self):
        state = PureState2Q.normalized(1.0, 2.0j, -3.0, 4.0j)
        vec = state.vector
        assert state.a == vec[0]
        assert state.b == vec[1]
        assert state.c == vec[2]
        assert state.d == vec[3]

    @settings(derandomize=True, max_examples=50)
    @given(amplitude_lists())
    def test_any_normalized_input_accepted(self, raw):
        state = state_from_raw(raw)
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12


class TestAllFinite:
    def test_finite_numbers(self):
        assert all_finite(0.0, -1e308, 10**300, 5e-324, 3)
        assert all_finite()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_and_beyond_the_float_range(self, value):
        assert not all_finite(1.0, value)
        assert not all_finite(value, 1.0)


def check_each_row(rows):
    """The one-row guard on each row in turn, so the first bad row raises."""
    for row in rows:
        check_state_row(row)


class TestStackedGuard:
    def rows(self):
        rng = np.random.default_rng(5)
        return [random_state(rng).vector.tolist() for _ in range(13)]

    def test_accepts_normalized_rows(self):
        check_each_row(self.rows())

    @pytest.mark.parametrize("index", [0, 6, 12])
    def test_rejects_a_row_holding_nan(self, index):
        rows = self.rows()
        rows[index][2] = complex(0.3, np.nan)
        check_each_row(rows[:index])
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            check_state_row(rows[index])

    @pytest.mark.parametrize("index", [0, 6, 12])
    def test_rejects_an_unnormalized_row(self, index):
        rows = self.rows()
        rows[index] = [1.0, 1.0, 0.0, 0.0]
        check_each_row(rows[:index])
        with pytest.raises(ValueError, match=r"not normalized: \|amplitudes\|\^2 sums to 2\.0$"):
            check_state_row(rows[index])


def loop_norm_sq(amplitudes):
    """The squared norm as :func:`check_state_row` forms it."""
    try:
        m0, m1, m2, m3 = map(abs, amplitudes)
    except OverflowError:
        return float("inf")
    return m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3


def guard_message(guard, rows):
    with pytest.raises(ValueError) as caught:
        guard(rows)
    return str(caught.value)


#: Rows at the edges of the float range: signed zeros, subnormal parts,
#: parts whose squares or moduli overflow, and both non-finite kinds.
EDGE_ROWS = [
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0), -0.0j],
    [complex(1.0, 5e-324), complex(-5e-324, 2e-308), complex(0.0, -1e-310), 0.0],
    [complex(0.6, 0.0), complex(0.0, 0.8), complex(1e-160, 1e-160), 0.0],
    [complex(1e308, 1e308), 0.0, 0.0, 0.0],
    [complex(1.7e308, -1.7e308), 1.0, 0.0, 0.0],
    [complex(1e308, 0.0), complex(0.0, -1e308), 0.0, 0.0],
    [complex(np.nan, 0.0), 0.0, 0.0, 0.0],
    [complex(0.0, np.inf), 0.0, 0.0, 0.0],
    [complex(np.inf, np.nan), 1.0, 0.0, 0.0],
    [complex(0.0, -np.inf), complex(1e308, 1e308), 0.0, 0.0],
]


class TestArrayGuard:
    """check_state_array gives the verdicts, the messages and the squared
    norms of the row loop that PureState2Q runs."""

    def test_norm_bits_match_the_row_loop(self):
        rng = np.random.default_rng(11)
        haar = random_states(rng, 100_000)
        scaled = haar[:1000] * rng.uniform(0.5, 2.0, (1000, 1))
        rows = np.concatenate((haar, scaled, np.array(EDGE_ROWS)))
        expected = np.array([loop_norm_sq(row) for row in rows.tolist()])
        np.testing.assert_array_equal(_norms_sq(rows).view(np.uint64), expected.view(np.uint64))

    def test_same_message_as_the_row_loop(self):
        rng = np.random.default_rng(12)
        rows = random_states(rng, 500) * rng.uniform(0.99, 1.01, (500, 1))
        for row in np.concatenate((rows, np.array(EDGE_ROWS[3:]))):
            assert guard_message(check_state_array, row) == guard_message(
                check_state_row, row.tolist()
            )

    @pytest.mark.parametrize("row", EDGE_ROWS[3:6])
    def test_an_overflowing_norm_reports_inf(self, row):
        with pytest.raises(ValueError, match=r"^state is not normalized: .* sums to inf$"):
            check_state_array(np.array([row]))

    @pytest.mark.parametrize("row", EDGE_ROWS[6:])
    def test_nan_and_inf_are_not_finite(self, row):
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            check_state_array(np.array([row]))

    def test_accepts_edge_rows_that_are_normalized(self):
        rows = np.array(EDGE_ROWS[:3])
        assert check_state_array(rows) is rows
        check_each_row(rows.tolist())

    @pytest.mark.parametrize(
        "first, message",
        [("unnormalized", "sums to 2.0$"), ("nan", "^state amplitudes must be finite$")],
    )
    def test_the_first_bad_row_decides(self, first, message):
        rows = random_states(np.random.default_rng(13), 10).reshape(2, 5, 4)
        bad = {"unnormalized": [1.0, 1.0, 0.0, 0.0], "nan": [np.nan, 1.0, 0.0, 0.0]}
        other = "nan" if first == "unnormalized" else "unnormalized"
        rows[0, 3], rows[1, 1] = bad[first], bad[other]
        with pytest.raises(ValueError, match=message):
            check_state_array(rows)
        with pytest.raises(ValueError, match=message):
            check_each_row(rows.reshape(-1, 4).tolist())


class TestOperators:
    def test_apply_identity_is_noop(self):
        state = PureState2Q.normalized(1.0, 1.0j, -1.0, 0.5)
        out = apply(Operator4(np.eye(4)), state)
        np.testing.assert_allclose(out.vector, state.vector, atol=1e-15)

    def test_apply_rejects_norm_breaking_operator(self):
        doubler = Operator4(2.0 * np.eye(4))
        with pytest.raises(ValueError, match="not normalized"):
            apply(doubler, basis_state(0))


class TestInnerAndDistance:
    def test_inner_conjugates_left(self):
        x = PureState2Q.normalized(1.0, 1.0j, 0.0, 0.0)
        y = PureState2Q.normalized(1.0, 1.0, 0.0, 0.0)
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))

    def test_orthogonal_basis_states(self):
        assert inner(basis_state(0), basis_state(3)) == 0

    def test_distance_extremes(self):
        assert fs_distance_sq(basis_state(0), basis_state(0)) == pytest.approx(0.0, abs=1e-15)
        assert fs_distance_sq(basis_state(0), basis_state(3)) == pytest.approx(1.0)
        assert fs_distance_sq(basis_state(0), basis_state(3), gamma=2.0) == pytest.approx(4.0)

    def test_distance_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            fs_distance_sq(basis_state(0), basis_state(0), gamma=0.0)

    @settings(derandomize=True, max_examples=50)
    @given(amplitude_lists(), amplitude_lists(), st.floats(0.0, 2 * np.pi))
    def test_distance_symmetric_bounded_phase_invariant(self, raw_x, raw_y, alpha):
        x, y = state_from_raw(raw_x), state_from_raw(raw_y)
        d2 = fs_distance_sq(x, y)
        assert 0.0 <= d2 <= 1.0
        assert d2 == pytest.approx(fs_distance_sq(y, x), abs=1e-14)
        rotated = PureState2Q(np.exp(1j * alpha) * y.vector)
        assert d2 == pytest.approx(fs_distance_sq(x, rotated), abs=1e-13)

    def test_fs_distance_sq_has_the_bits_of_its_row_of_a_stack(self):
        rng = np.random.default_rng(3)
        xs, ys = random_states(rng, 200), random_states(rng, 200)
        ys[::2] = xs[::2] + 1e-7 * ys[::2]  # near pairs too
        ys[::2] /= np.linalg.norm(ys[::2], axis=1, keepdims=True)
        stacked = ray_distances_sq(xs, ys)
        for gamma in (1.0, 0.7):
            one = [fs_distance_sq(PureState2Q(x), PureState2Q(y), gamma) for x, y in zip(xs, ys)]
            scaled = gamma * gamma * stacked
            assert np.array_equal(np.array(one).view(np.uint64), scaled.view(np.uint64))

    def test_stack_has_the_bits_of_python_floats_and_broadcasts(self):
        rng = np.random.default_rng(4)
        xs, ys = random_states(rng, 50), random_states(rng, 7)
        stacked = ray_distances_sq(xs[:, None], ys)
        assert stacked.shape == (50, 7)
        expected = [[reference.ray_distance_sq(x, y) for y in ys.tolist()] for x in xs.tolist()]
        assert np.array_equal(stacked.view(np.uint64), np.array(expected).view(np.uint64))

    @pytest.mark.parametrize("angle", [1e-3, 1e-5, 1e-7])
    def test_small_distances_keep_their_relative_precision(self, angle):
        # y = e^{i alpha}(cos a x + sin a e^{i beta} x_perp) lies at exactly
        # sin^2 a from x; 1 - |<x|y>|^2 would keep ~1e-16 / a^2 of it.
        rng = np.random.default_rng(5)
        for x, other in zip(random_states(rng, 100), random_states(rng, 100)):
            perp = other - np.vdot(x, other) * x
            perp /= np.linalg.norm(perp)
            alpha, beta = rng.uniform(0.0, 2.0 * np.pi, 2)
            y = np.exp(1j * alpha) * (np.cos(angle) * x + np.sin(angle) * np.exp(1j * beta) * perp)
            d2 = fs_distance_sq(PureState2Q(x), PureState2Q(y))
            assert d2 == pytest.approx(np.sin(angle) ** 2, rel=1e-8)

    def test_a_row_is_at_distance_exactly_zero_from_itself(self):
        # <x|y>/<x|x> is exactly 1 for y = x, so y_perp is exactly 0.
        xs = random_states(np.random.default_rng(6), 300)
        assert not ray_distances_sq(xs, xs).any()

    def test_orthogonal_rows_are_at_distance_exactly_one(self):
        basis = np.eye(4, dtype=complex)
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
        for rows in (basis, bell.astype(complex)):
            d2 = ray_distances_sq(rows[:, None], rows)
            assert np.array_equal(d2, 1.0 - np.eye(4))

    @pytest.mark.parametrize(
        "sx, sy", [(2.0, 1.0), (1.0, 3.0), (1e-3, 1e3), (0.6 - 0.8j, 2.0j)]
    )
    def test_the_scale_of_either_row_changes_no_distance(self, sx, sy):
        rng = np.random.default_rng(7)
        xs, ys = random_states(rng, 200), random_states(rng, 200)
        np.testing.assert_allclose(
            ray_distances_sq(sx * xs, sy * ys), ray_distances_sq(xs, ys), rtol=1e-14, atol=0.0
        )

    def test_distances_are_never_negative_and_exceed_one_by_rounding_at_most(self):
        rng = np.random.default_rng(8)
        xs, ys = random_states(rng, 2000), random_states(rng, 2000)
        near = xs + 1e-9 * ys
        for others in (ys, near, np.exp(0.3j) * xs):
            d2 = ray_distances_sq(xs, others)
            assert (d2 >= 0.0).all() and (d2 <= 1.0 + 4 * np.finfo(float).eps).all()

    def test_a_nan_stays_in_its_own_row(self):
        rng = np.random.default_rng(9)
        xs, ys = random_states(rng, 10), random_states(rng, 10)
        clean = ray_distances_sq(xs, ys)
        xs[3, 2] = complex(np.nan, 0.0)
        ys[6, 0] = complex(0.0, np.nan)
        d2 = ray_distances_sq(xs, ys)
        assert np.isnan(d2).tolist() == [i in (3, 6) for i in range(10)]
        assert np.array_equal(np.delete(d2, [3, 6]), np.delete(clean, [3, 6]))

    def test_ray_equal_ignores_global_phase(self):
        state = PureState2Q.normalized(1.0, 1.0j, 2.0, 0.0)
        rotated = PureState2Q(np.exp(0.7j) * state.vector)
        assert ray_equal(state, rotated)
        assert not ray_equal(state, basis_state(0))


class TestProductStates:
    def test_bloch_poles(self):
        np.testing.assert_allclose(bloch_plus(0.0, 0.0), [1.0, 0.0])
        np.testing.assert_allclose(bloch_plus(np.pi, 0.0), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(bloch_minus(0.0, 0.0), [0.0, 1.0])

    @pytest.mark.parametrize("chi", [0.0, 0.4, np.pi / 2, 2.2, np.pi])
    @pytest.mark.parametrize("gamma_az", [0.0, 1.3])
    def test_bloch_pair_is_orthonormal(self, chi, gamma_az):
        plus = bloch_plus(chi, gamma_az)
        minus = bloch_minus(chi, gamma_az)
        assert np.vdot(plus, plus) == pytest.approx(1.0)
        assert np.vdot(minus, minus) == pytest.approx(1.0)
        assert abs(np.vdot(plus, minus)) < 1e-15

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("argument", [0, 1])
    @pytest.mark.parametrize(
        "build",
        [bloch_plus, bloch_minus, plus_minus_state, plus_plus_state, minus_minus_state],
    )
    def test_non_finite_and_huge_angles_on_every_argument(self, build, argument, bad):
        angles = [0.4, 1.3]
        angles[argument] = bad
        with pytest.raises(ValueError, match="^Bloch angles must be finite$"):
            build(*angles)

    def test_kron_ordering_first_spin_slowest(self):
        state = product_state(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.vector, basis_state(2).vector)

    @pytest.mark.parametrize(
        "build, first, second",
        [
            (plus_minus_state, bloch_plus, bloch_minus),
            (plus_plus_state, bloch_plus, bloch_plus),
            (minus_minus_state, bloch_minus, bloch_minus),
        ],
    )
    def test_product_amplitudes_are_cpython_products(self, build, first, second):
        """Each amplitude has the bits of CPython's complex product of the
        two spinors' amplitudes, which no numpy dispatch path changes."""
        rng = np.random.default_rng(11)
        for chi, gamma_az in rng.uniform((0.0, -7.0), (np.pi, 7.0), (300, 2)).tolist():
            left, right = first(chi, gamma_az).tolist(), second(chi, gamma_az).tolist()
            expected = np.array([x * y for x in left for y in right])
            assert build(chi, gamma_az).vector.tobytes() == expected.tobytes()

    def test_plus_minus_at_pole_is_up_down(self):
        assert ray_equal(plus_minus_state(0.0, 0.0), up_down())

    def test_plus_plus_at_pole_is_up_up(self):
        assert ray_equal(plus_plus_state(0.0, 0.0), basis_state(0))

    def test_minus_minus_at_pole_is_down_down(self):
        assert ray_equal(minus_minus_state(0.0, 0.0), basis_state(3))

    @pytest.mark.parametrize("chi", [0.3, 1.0, np.pi / 2, 2.5])
    def test_plus_minus_amplitude_structure(self, chi):
        # Distilled by hand from the tensor product: a = -cos(chi/2)sin(chi/2),
        # b = cos^2(chi/2) e^{i gaz}, c = -sin^2(chi/2) e^{i gaz},
        # d = cos(chi/2)sin(chi/2) e^{2i gaz}.
        gaz = 0.8
        state = plus_minus_state(chi, gaz)
        half_c, half_s = np.cos(chi / 2), np.sin(chi / 2)
        expected = np.array(
            [
                -half_c * half_s,
                half_c ** 2 * np.exp(1j * gaz),
                -half_s ** 2 * np.exp(1j * gaz),
                half_c * half_s * np.exp(2j * gaz),
            ]
        )
        np.testing.assert_allclose(state.vector, expected, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 7, 200])
def test_random_states_is_n_random_state_calls(n):
    one_by_one, at_once = np.random.default_rng(21), np.random.default_rng(21)
    looped = np.array([random_state(one_by_one).vector for _ in range(n)], dtype=complex)
    drawn = random_states(at_once, n)
    np.testing.assert_array_equal(drawn.view(np.uint64), looped.reshape(n, 4).view(np.uint64))
    assert one_by_one.bit_generator.state == at_once.bit_generator.state
    assert one_by_one.standard_normal() == at_once.standard_normal()


def test_random_states_rows_are_normalized_gaussian_draws():
    # Each state is 8 normals, the real parts then the imaginary ones,
    # divided by np.linalg.norm of the 4-vector they make.
    rng, again = np.random.default_rng(22), np.random.default_rng(22)
    drawn = random_states(rng, 2000)
    expected = []
    for _ in range(2000):
        raw = again.standard_normal(4) + 1j * again.standard_normal(4)
        expected.append(raw / np.linalg.norm(raw))
    np.testing.assert_array_equal(drawn.view(np.uint64), np.array(expected).view(np.uint64))


def test_random_state_is_normalized_and_seeded():
    rng = np.random.default_rng(42)
    state = random_state(rng)
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
    again = random_state(np.random.default_rng(42))
    np.testing.assert_array_equal(state.vector, again.vector)
