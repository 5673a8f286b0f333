import numpy as np
import pytest

from spin_torus.hamiltonian import (
    IDENTITY_2,
    SystemParams,
    build_h_int,
    build_h_mf,
    build_hamiltonian,
    eigensystem,
    propagator_analytic,
    propagator_analytic_stack,
    propagator_factored,
    propagator_factored_stack,
    propagator_spectral,
    propagator_spectral_stack,
)
from spin_torus.qstate import (
    Operator4,
    PureState2Q,
    apply,
    random_state,
    unitarity_residuals,
    up_down,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
SINGLET = PureState2Q.normalized(0.0, 1.0, -1.0, 0.0)

PARAM_GRID = [
    SystemParams(1.0, 0.5),
    SystemParams(-2.0, 1.3),
    SystemParams(0.0, 0.7),
    SystemParams(0.25, 0.0),
    SystemParams(3.0, -3.0),
]


class TestParams:
    def test_defaults(self):
        params = SystemParams(1.0, 0.0)
        assert params.gamma == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(np.inf, 0.0)

    @pytest.mark.parametrize("field_name", ["coupling", "field", "gamma"])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 10**5000],
        ids=["nan", "inf", "-inf", "int_1e400", "int_-1e400", "int_1e5000"],
    )
    def test_rejects_non_finite_on_every_field(self, field_name, value):
        kwargs = {"coupling": 1.0, "field": 0.0, "gamma": 1.0, field_name: value}
        with pytest.raises(ValueError, match=f"^{field_name} must be finite"):
            SystemParams(**kwargs)

    def test_accepts_integers_in_the_float_range(self):
        params = SystemParams(10**300, -(10**300), gamma=2)
        assert (params.coupling, params.field, params.gamma) == (10**300, -(10**300), 2)

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            SystemParams(1.0, 0.0, gamma=-1.0)


class TestHamiltonianMatrices:
    def test_interaction_matrix(self):
        expected = np.array(
            [
                [2, 0, 0, 0],
                [0, 0, 2, 0],
                [0, 2, 0, 0],
                [0, 0, 0, 2],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(
            build_h_int(SystemParams(1.0, 0.0)).matrix, expected
        )
        np.testing.assert_allclose(
            build_h_int(SystemParams(-0.5, 9.0)).matrix, -0.5 * expected
        )

    def test_mean_field_matrix(self):
        h_mf = build_h_mf(SystemParams(7.0, 0.5)).matrix
        np.testing.assert_allclose(h_mf, np.diag([1.0, 0.0, 0.0, -1.0]))

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_parts_commute(self, params):
        h_int = build_h_int(params).matrix
        h_mf = build_h_mf(params).matrix
        np.testing.assert_allclose(h_int @ h_mf, h_mf @ h_int, atol=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_interaction_square_is_scalar(self, params):
        h_int = build_h_int(params).matrix
        np.testing.assert_allclose(
            h_int @ h_int, (2.0 * params.coupling) ** 2 * np.eye(4), atol=1e-12
        )

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_hermitian(self, params):
        matrix = build_hamiltonian(params).matrix
        assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12


class TestEigensystem:
    def test_reference_values(self):
        values, _ = eigensystem(SystemParams(1.0, 0.5))
        np.testing.assert_allclose(values, [3.0, 1.0, 2.0, -2.0], atol=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_eigen_residuals(self, params):
        h_full = build_hamiltonian(params).matrix
        values, vectors = eigensystem(params)
        for value, vec in zip(values, vectors.T):
            np.testing.assert_allclose(h_full @ vec, value * vec, atol=1e-12)

    def test_vector_order_is_fixed(self):
        _, vectors = eigensystem(SystemParams(2.0, -1.0))
        np.testing.assert_allclose(vectors[:, 0], [1, 0, 0, 0])
        np.testing.assert_allclose(vectors[:, 1], [0, 0, 0, 1])
        np.testing.assert_allclose(vectors[:, 2], [0, INV_SQRT2, INV_SQRT2, 0])
        np.testing.assert_allclose(vectors[:, 3], [0, INV_SQRT2, -INV_SQRT2, 0])

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_orthonormal_columns(self, params):
        _, vectors = eigensystem(params)
        np.testing.assert_allclose(
            vectors.conj().T @ vectors, np.eye(4), atol=1e-15
        )


# --- the scalar routes the stacked kernels replaced, kept as references ------

def scalar_analytic(params, t):
    j, h = params.coupling, params.field
    theta = 2.0 * j * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = np.exp(-2j * (h + j) * t)
    mat[3, 3] = np.exp(2j * (h - j) * t)
    mat[1, 1] = cos_t
    mat[2, 2] = cos_t
    mat[1, 2] = -1j * sin_t
    mat[2, 1] = -1j * sin_t
    return mat


def scalar_interaction(params, t):
    """e^{-i H_int t} = cos(2Jt) I - i sin(2Jt)/(2J) H_int, the ratio by its
    Taylor series below |2Jt| = 1e-6."""
    x = 2.0 * params.coupling * t
    if abs(x) < 1e-6:
        ratio = t * (1.0 - x * x / 6.0 + x ** 4 / 120.0)
    else:
        ratio = np.sin(x) / (2.0 * params.coupling)
    return np.cos(x) * np.eye(4) - 1j * ratio * build_h_int(params).matrix


def scalar_factored(params, t):
    h = params.field
    first = np.diag(np.exp([-1j * h * t] * 2 + [1j * h * t] * 2))
    second = np.diag(np.exp([-1j * h * t, 1j * h * t] * 2))
    return scalar_interaction(params, t) @ first @ second


def scalar_spectral(params, t):
    j, h = params.coupling, params.field
    values = np.array([2.0 * (j + h), 2.0 * (j - h), 2.0 * j, -2.0 * j])
    vectors = np.zeros((4, 4), dtype=np.complex128)
    vectors[0, 0] = vectors[3, 1] = 1.0
    vectors[1, 2] = vectors[2, 2] = vectors[1, 3] = 1.0 / np.sqrt(2.0)
    vectors[2, 3] = -1.0 / np.sqrt(2.0)
    mat = np.zeros((4, 4), dtype=np.complex128)
    for value, vec in zip(values, vectors.T):
        mat += np.exp(-1j * value * t) * np.outer(vec, vec.conj())
    return mat


def scalar_unitarity_residual(matrix):
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(4))))


def kron_factored(params, t):
    """The factored propagator with its z rotations built by np.kron of the
    single-spin phases, as before they became diagonals."""
    phases = np.diag(np.exp([-1j * params.field * t, 1j * params.field * t]))
    return (
        scalar_interaction(params, t)
        @ np.kron(phases, IDENTITY_2)
        @ np.kron(IDENTITY_2, phases)
    )


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def stack_draws():
    """1208 (J, h_z, t): random ones with t up to 10, and J = 0, t = 0 and
    |2Jt| on both sides of the Taylor switch at 1e-6, at it and just below;
    the last eight are the series' extremes, J = +-5e-324 and +-1e-300 at
    t = 0.5 and 1e3."""
    rng = np.random.default_rng(16)
    j, h = rng.uniform(-3.0, 3.0, size=(2, 1200))
    t = rng.uniform(0.0, 10.0, 1200)
    j[:100] = 0.0
    t[100:200] = 0.0
    j[200:400] = rng.uniform(-2e-6, 2e-6, 200)
    t[200:400] = 0.5
    j[400:404] = [1e-6, -1e-6, np.nextafter(1e-6, 0.0), -np.nextafter(1e-6, 0.0)]
    t[400:404] = 0.5
    h[404:504] = 0.0
    h[504:604] = j[504:604]
    j = np.concatenate((j, [5e-324, -5e-324, 1e-300, -1e-300] * 2))
    h = np.concatenate((h, rng.uniform(-3.0, 3.0, 8)))
    t = np.concatenate((t, np.repeat([0.5, 1e3], 4)))
    return j, h, t


ROUTES = {
    "analytic": (propagator_analytic_stack, propagator_analytic, scalar_analytic),
    "factored": (propagator_factored_stack, propagator_factored, scalar_factored),
    "spectral": (propagator_spectral_stack, propagator_spectral, scalar_spectral),
}


class TestStackedPropagators:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_bit_identical_to_scalar_route(self, route):
        stack_route, public, scalar = ROUTES[route]
        j, h, t = stack_draws()
        stack = stack_route(j, h, t)
        assert stack.shape == (1208, 4, 4)
        for k, (coupling, field, time) in enumerate(zip(j.tolist(), h.tolist(), t.tolist())):
            params = SystemParams(coupling, field)
            reference = scalar(params, time)
            assert same_bits(stack[k], reference), (coupling, field, time)
            assert same_bits(public(params, time).matrix, reference), (coupling, field, time)

    def test_switch_is_exercised(self):
        j, _, t = stack_draws()
        x = np.abs(2.0 * j * t)
        assert (x[200:404] < 1e-6).sum() > 50 and (x[200:404] >= 1e-6).sum() > 50
        assert x[400] == 1e-6
        assert len(x) == 1208 and (x[1200:] < 1e-6).all()

    def test_unitarity_residuals_bit_identical_to_scalar(self):
        j, h, t = stack_draws()
        stack = np.concatenate(
            (propagator_analytic_stack(j, h, t), propagator_factored_stack(j, h, t))
        )
        stack[::7, 1, 2] *= -1.0  # some far from unitary
        reference = np.array([scalar_unitarity_residual(matrix) for matrix in stack])
        assert same_bits(unitarity_residuals(stack), reference)
        one = np.array([Operator4(matrix).unitarity_residual() for matrix in stack])
        assert same_bits(one, reference)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_zero_length_stack(self, route):
        stack = ROUTES[route][0]([], [], [])
        assert stack.shape == (0, 4, 4) and stack.dtype == np.complex128
        assert unitarity_residuals(stack).shape == (0,)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "coupling, field, t",
        [
            (1.0, 0.5, np.nan),
            (2.0, 0.5, np.inf),
            (2.0, 0.5, 1e308),
            (1e308, 0.5, 2.0),
            (2.0, 1e308, 2.0),
            (8.99e307, 8.99e307, 1.0),
        ],
    )
    def test_non_finite_time_refused_by_the_operator_guard(self, route, coupling, field, t):
        """A time, coupling or field whose angles or phases overflow ends in
        the operator guard, with no numpy warning before it."""
        with pytest.raises(ValueError, match="^operator entries must be finite$"):
            ROUTES[route][0]([1.0, coupling], [0.5, field], [0.3, t])


class TestPropagator:
    def test_factored_bit_identical_to_kron_route(self):
        rng = np.random.default_rng(91)
        draws = []
        for i in range(100):
            coupling, field = rng.uniform(-3.0, 3.0, size=2)
            t = float(rng.uniform(0.0, 10.0))
            draws.append((float(coupling) if i % 10 else 0.0, float(field), t))
        stack = propagator_factored_stack(*np.transpose(draws))
        for (coupling, field, t), row in zip(draws, stack):
            expected = kron_factored(SystemParams(coupling, field), t)
            assert np.array_equal(row, expected)
            one = propagator_factored(SystemParams(coupling, field), t).matrix
            assert np.array_equal(one, expected)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 17.5])
    def test_routes_agree(self, params, t):
        analytic = propagator_analytic(params, t).matrix
        spectral = propagator_spectral(params, t).matrix
        factored = propagator_factored(params, t).matrix
        np.testing.assert_allclose(analytic, spectral, atol=1e-10)
        np.testing.assert_allclose(analytic, factored, atol=1e-10)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 17.5])
    def test_unitary(self, params, t):
        assert propagator_analytic(params, t).unitarity_residual() < 1e-12
        assert propagator_factored(params, t).unitarity_residual() < 1e-12

    def test_time_zero_is_identity(self):
        u = propagator_analytic(SystemParams(1.2, -0.4), 0.0).matrix
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_zero_coupling_is_pure_field_rotation(self):
        params = SystemParams(0.0, 0.8)
        t = 1.7
        u = propagator_analytic(params, t).matrix
        expected = np.diag(
            np.exp(1j * np.array([-2 * 0.8 * t, 0.0, 0.0, 2 * 0.8 * t]))
        )
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @pytest.mark.parametrize("coupling", [0.0, 1e-12, 1e-9, -1e-8, 1e-5])
    def test_small_coupling_series_branch(self, coupling):
        # The sin(2Jt)/(2J) ratio must hand over smoothly between the series
        # and the direct quotient; the spectral route knows nothing of either.
        # At h_z = 0 the factored stack is e^{-i H_int t} alone.
        for t in (0.5, 3.0):
            series = propagator_factored_stack([coupling], [0.0], [t])[0]
            spectral = propagator_spectral(SystemParams(coupling, 0.0), t).matrix
            np.testing.assert_allclose(series, spectral, atol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = SystemParams(*rng.uniform(-3, 3, size=2))
            t1, t2 = rng.uniform(0, 5, size=2)
            combined = propagator_analytic(params, t1 + t2).matrix
            stepped = (
                propagator_analytic(params, t1).matrix
                @ propagator_analytic(params, t2).matrix
            )
            np.testing.assert_allclose(combined, stepped, atol=1e-12)

    def test_inverse_is_adjoint(self):
        params = SystemParams(0.9, -1.1)
        forward = propagator_analytic(params, 2.3)
        backward = propagator_analytic(params, -2.3)
        np.testing.assert_allclose(
            backward.matrix, forward.matrix.conj().T, atol=1e-14
        )

    def test_eigenstate_acquires_phase_only(self):
        params = SystemParams(1.5, 0.7)
        t = 0.9
        evolved = apply(propagator_analytic(params, t), SINGLET)
        overlap = np.vdot(SINGLET.vector, evolved.vector)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-13)
        # Singlet sits at energy -2J.
        assert np.angle(overlap) == pytest.approx(2.0 * params.coupling * t, abs=1e-12)

    def test_up_down_rotates_into_down_up(self):
        # At 2Jt = pi/2 the central block is a full swap (up to phase).
        params = SystemParams(1.0, 0.0)
        evolved = apply(propagator_analytic(params, np.pi / 4), up_down())
        np.testing.assert_allclose(
            evolved.vector, [0.0, 0.0, -1j, 0.0], atol=1e-15
        )

    def test_propagates_random_states_consistently(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = SystemParams(*rng.uniform(-3, 3, size=2))
            t = float(rng.uniform(0, 8))
            state = random_state(rng)
            via_analytic = apply(propagator_analytic(params, t), state)
            via_spectral = apply(propagator_spectral(params, t), state)
            np.testing.assert_allclose(
                via_analytic.vector, via_spectral.vector, atol=1e-12
            )
