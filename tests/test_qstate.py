import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_torus.qstate import (
    Operator4,
    PureState2Q,
    apply,
    bloch_minus,
    bloch_plus,
    down_down,
    down_up,
    fs_distance_sq,
    inner,
    minus_minus_state,
    plus_minus_state,
    plus_plus_state,
    product_state,
    random_state,
    ray_equal,
    singlet,
    triplet_zero,
    up_down,
    up_up,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
        assert up_up().vector[0] == 1
        assert up_down().vector[1] == 1
        assert down_up().vector[2] == 1
        assert down_down().vector[3] == 1

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

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            PureState2Q.normalized(0.0, 0.0, 0.0, 0.0)

    def test_vector_is_read_only(self):
        state = up_up()
        with pytest.raises(ValueError):
            state.vector[0] = 0.0

    def test_amplitude_accessors(self):
        state = PureState2Q.normalized(1.0, 2.0j, -3.0, 4.0j)
        vec = state.vector
        assert state.a == vec[0]
        assert state.b == vec[1]
        assert state.c == vec[2]
        assert state.d == vec[3]

    def test_singlet_triplet(self):
        assert singlet().b == pytest.approx(INV_SQRT2)
        assert singlet().c == pytest.approx(-INV_SQRT2)
        assert triplet_zero().b == pytest.approx(INV_SQRT2)
        assert triplet_zero().c == pytest.approx(INV_SQRT2)

    @settings(derandomize=True, max_examples=50)
    @given(amplitude_lists())
    def test_any_normalized_input_accepted(self, raw):
        state = state_from_raw(raw)
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12


class TestOperators:
    def test_identity(self):
        assert Operator4.identity().is_unitary()
        assert Operator4.identity().is_hermitian()

    def test_apply_identity_is_noop(self):
        state = PureState2Q.normalized(1.0, 1.0j, -1.0, 0.5)
        out = apply(Operator4.identity(), state)
        np.testing.assert_allclose(out.vector, state.vector, atol=1e-15)

    def test_apply_rejects_norm_breaking_operator(self):
        doubler = Operator4(2.0 * np.eye(4))
        with pytest.raises(ValueError, match="not normalized"):
            apply(doubler, up_up())

    def test_adjoint_matmul(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = Operator4(raw)
        product = op.adjoint() @ op
        assert product.is_hermitian(tol=1e-12)


class TestInnerAndDistance:
    def test_inner_conjugates_left(self):
        x = PureState2Q.normalized(1.0, 1.0j, 0.0, 0.0)
        y = PureState2Q.normalized(1.0, 1.0, 0.0, 0.0)
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))

    def test_orthogonal_basis_states(self):
        assert inner(up_up(), down_down()) == 0

    def test_distance_extremes(self):
        assert fs_distance_sq(up_up(), up_up()) == pytest.approx(0.0, abs=1e-15)
        assert fs_distance_sq(up_up(), down_down()) == pytest.approx(1.0)
        assert fs_distance_sq(up_up(), down_down(), gamma=2.0) == pytest.approx(4.0)

    def test_distance_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            fs_distance_sq(up_up(), up_up(), gamma=0.0)

    @settings(derandomize=True, max_examples=50)
    @given(amplitude_lists(), amplitude_lists(), st.floats(0.0, 2 * np.pi))
    def test_distance_symmetric_bounded_phase_invariant(self, raw_x, raw_y, alpha):
        x, y = state_from_raw(raw_x), state_from_raw(raw_y)
        d2 = fs_distance_sq(x, y)
        assert 0.0 <= d2 <= 1.0
        assert d2 == pytest.approx(fs_distance_sq(y, x), abs=1e-14)
        rotated = PureState2Q(np.exp(1j * alpha) * y.vector)
        assert d2 == pytest.approx(fs_distance_sq(x, rotated), abs=1e-13)

    def test_ray_equal_ignores_global_phase(self):
        state = PureState2Q.normalized(1.0, 1.0j, 2.0, 0.0)
        rotated = PureState2Q(np.exp(0.7j) * state.vector)
        assert ray_equal(state, rotated)
        assert not ray_equal(state, up_up())


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

    def test_kron_ordering_first_spin_slowest(self):
        state = product_state(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.vector, down_up().vector)

    def test_plus_minus_at_pole_is_up_down(self):
        assert ray_equal(plus_minus_state(0.0, 0.0), up_down())

    def test_plus_plus_at_pole_is_up_up(self):
        assert ray_equal(plus_plus_state(0.0, 0.0), up_up())

    def test_minus_minus_at_pole_is_down_down(self):
        assert ray_equal(minus_minus_state(0.0, 0.0), down_down())

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


def test_random_state_is_normalized_and_seeded():
    rng = np.random.default_rng(42)
    state = random_state(rng)
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
    again = random_state(np.random.default_rng(42))
    np.testing.assert_array_equal(state.vector, again.vector)
