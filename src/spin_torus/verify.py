"""Self-verification battery: every closed form checked against a route
that does not share its algebra.

Each check compares two independent computations (or a computation against
an exact algebraic identity) and records the worst residual seen.  The
point of running them together, rather than only inside the test suite, is
that a user on new hardware or a new numpy can ask the installed package
to prove its own arithmetic with one command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .entanglement import (
    _closed_form_maximum,
    concurrence_evolved_stack,
    concurrence_stack,
    concurrence_wootters_oracle_stack,
    entanglement_along_orbit,
    max_entanglement_time,
)
from .hamiltonian import (
    SystemParams,
    build_h_int,
    build_h_mf,
    build_hamiltonian,
    eigensystem,
    propagator_analytic_stack,
    propagator_factored_stack,
    propagator_spectral_stack,
)
from .manifold import (
    _AXES,
    DEFAULT_STEP,
    _direction_forms,
    _family_amplitudes,
    _plain_phi,
    _sheared_forms,
    evolve_grid,
    family_invariants,
    metric_analytic,
)
from .qstate import PureState2Q, check_state_array, inner, plus_minus_state, random_states
from .qstate import ray_distances_sq, unitarity_residuals
from .scenario import canonical_result_bytes, config_from_dict, run_scenario


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    residual: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{verdict}  {self.name}: residual {self.residual:.3e} (bound {self.bound:.1e})"
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class VerifyReport:
    """All check results from one verification run."""

    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        body = [check.line() for check in self.checks]
        failed = sum(not check.passed for check in self.checks)
        if failed:
            body.append(f"{failed} of {len(self.checks)} checks FAILED")
        else:
            body.append(f"all {len(self.checks)} checks passed")
        return body


#: The byte order of a 64-bit word from ``random.Random.getrandbits``.
_WORD = np.dtype("<u8")


class _Stream:
    """The draws of one battery, from the stdlib generator seeded with
    ``text``, which every Python version hashes to the same state.  It has
    the three ``numpy.random.Generator`` methods the battery calls, so
    ``verify`` never imports ``numpy.random``."""

    def __init__(self, text: str) -> None:
        self._bits = random.Random(text)

    def random(self, size) -> np.ndarray:
        """Floats in [0, 1): the top 53 bits of each 64-bit word, times 2^-53."""
        n = size if isinstance(size, int) else math.prod(size)
        words = np.frombuffer(self._bits.getrandbits(64 * n).to_bytes(8 * n, "little"), _WORD)
        return ((words >> 11) * 2.0**-53).reshape(size)

    def uniform(self, low, high, size) -> np.ndarray:
        """``low + (high - low) * random(size)``, as numpy computes it."""
        low, high = np.asarray(low, dtype=np.float64), np.asarray(high, dtype=np.float64)
        return low + (high - low) * self.random(size)

    def standard_normal(self, size) -> np.ndarray:
        """Box–Muller normals: each pair of uniforms (u, v) gives the radius
        sqrt(-2 log(1 - u)) at the angle 2 pi v, its cosine then its sine,
        the parts of one complex number."""
        n = size if isinstance(size, int) else math.prod(size)
        u, v = self.random((2, (n + 1) // 2))
        pairs = np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * np.pi * v)
        return pairs.view(np.float64)[:n].reshape(size)


def _draw_states(rng: _Stream, n: int) -> tuple[np.ndarray, list[PureState2Q]]:
    """``n`` Haar states as an (n, 4) array and as states, for the scalar
    functions a check audits."""
    vectors = random_states(rng, n)
    return vectors, [PureState2Q(vector) for vector in vectors]


def verify_all(seed: int = 0, corrupt_propagator: bool = False) -> VerifyReport:
    """Run the whole battery.  ``corrupt_propagator`` is a negative-control
    hook: it flips the sign of one propagator entry before the unitarity
    check, which must then fail -- proving the checks can fail at all.

    Each battery draws its inputs as arrays from its own stream, seeded with
    ``f"{seed}/{label}"`` where the label is the name of the battery's first
    check, so adding a battery moves no other battery's draws.  It reduces
    its residuals with np.max, so a NaN residual fails its check rather than
    being dropped, as max() would drop it."""
    report = VerifyReport(seed=seed)

    def stream(label: str) -> _Stream:
        return _Stream(f"{seed}/{label}")

    def record(name: str, residual: float, bound: float, detail: str = "") -> None:
        passed = bool(residual <= bound)  # False for NaN
        report.checks.append(CheckResult(name, passed, float(residual), bound, detail))

    # --- Hamiltonian algebra -------------------------------------------------
    def random_params(label: str) -> list[SystemParams]:
        return [SystemParams(j, h) for j, h in stream(label).uniform(-3.0, 3.0, (5, 2)).tolist()]

    params = random_params("interaction_commutes_with_field")
    h_int = np.array([build_h_int(p).matrix for p in params])
    h_mf = np.array([build_h_mf(p).matrix for p in params])
    record("interaction_commutes_with_field", np.abs(h_int @ h_mf - h_mf @ h_int).max(), 1e-12)

    params = random_params("interaction_square_is_scalar")
    h_int = np.array([build_h_int(p).matrix for p in params])
    target = np.array([(2.0 * p.coupling) ** 2 * np.eye(4) for p in params])
    record("interaction_square_is_scalar", np.abs(h_int @ h_int - target).max(), 1e-12)

    params = random_params("eigensystem_residuals")
    h_full = np.array([build_hamiltonian(p).matrix for p in params])
    values, vectors = map(np.array, zip(*map(eigensystem, params)))
    residuals = h_full @ vectors - vectors * values[:, None]  # column by column
    record("eigensystem_residuals", np.abs(residuals).max(), 1e-12)

    reference = eigensystem(SystemParams(1.0, 0.5))
    worst = np.abs(reference.values - np.array([3.0, 1.0, 2.0, -2.0])).max()
    record("eigenvalues_reference_point", worst, 1e-12, "(J, h_z) = (1, 1/2)")

    # --- propagator routes ---------------------------------------------------
    rng = stream("propagator_unitarity")
    j, h = rng.uniform(-3.0, 3.0, (2, 100))
    t = rng.uniform(0.0, 10.0, 100)
    j[:2], h[:2], t[:2] = (0.0, 1e-9), rng.uniform(-2.0, 2.0, 2), (1.3, 0.7)
    analytic = propagator_analytic_stack(j, h, t)
    factored = propagator_factored_stack(j, h, t)
    spectral = propagator_spectral_stack(j, h, t)
    checked = analytic.copy()
    if corrupt_propagator:
        checked[:, 1, 2] = -checked[:, 1, 2]
    worst = np.max(unitarity_residuals(np.concatenate((checked, factored))))
    detail = "negative control active" if corrupt_propagator else ""
    record("propagator_unitarity", worst, 1e-12, detail)
    record("propagator_analytic_vs_spectral", np.abs(analytic - spectral).max(), 1e-10)
    record("propagator_analytic_vs_factored", np.abs(analytic - factored).max(), 1e-10)

    rng = stream("propagator_group_property")
    j, h = rng.uniform(-3.0, 3.0, (2, 20))
    t1, t2 = rng.uniform(0.0, 5.0, (2, 20))
    times = np.array((t1 + t2, t1, t2))
    whole, first, second = propagator_analytic_stack(*np.broadcast_arrays(j, h, times))
    record("propagator_group_property", np.abs(whole - first @ second).max(), 1e-12)

    # --- evolved family ------------------------------------------------------
    rng = stream("family_matches_propagator")
    vectors = random_states(rng, 50)
    j, h = rng.uniform(-3.0, 3.0, (2, 50))
    t = rng.uniform(0.0, 5.0, 50)
    # check_state_array and evolve_grid guard each state; the torus point is (2 J t, 2 h_z t).
    via_u = check_state_array((propagator_analytic_stack(j, h, t) @ vectors[:, :, None])[..., 0])
    via_family = evolve_grid(vectors, 2.0 * j * t, 2.0 * h * t)
    record("family_matches_propagator", np.abs(via_u - via_family).max(), 1e-12)

    rng = stream("family_theta_antiperiod")
    vectors = random_states(rng, 50)
    th, ph = rng.uniform(0.0, [[np.pi], [2.0 * np.pi]], (2, 50))
    thetas, phis = (th, th + np.pi, th), (ph, ph, ph + 2.0 * np.pi)
    base, shifted, wrapped = evolve_grid(vectors, thetas, phis)
    record("family_theta_antiperiod", np.abs(shifted + base).max(), 1e-12, "psi(theta+pi) = -psi")
    record("family_phi_period", np.abs(wrapped - base).max(), 1e-12, "psi(phi+2pi) = psi")

    # The finite-difference metric evolves its probes through evolve_grid; its
    # bits rest on that matching the scalar family map.
    vectors = random_states(grid_rng := stream("evolve_grid_matches_scalar_family"), 2).tolist()
    # |down up> with a signed zero in every part
    vectors.append([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0), -0.0j])
    angles = np.concatenate(
        ([0.0, -0.0], grid_rng.uniform(-7.0, 7.0, 3), grid_rng.uniform(-1e6, 1e6, 1))
    )
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    stacked = evolve_grid(np.array(vectors)[:, None, None, :], theta, phi)
    scalar = np.array([
        [[_family_amplitudes(vec, th, ph) for ph in angles.tolist()] for th in angles.tolist()]
        for vec in vectors
    ])
    flipped = int(np.bitwise_count(stacked.view(np.uint64) ^ scalar.view(np.uint64)).sum())
    detail = "differing bits: evolve_grid vs scalar family map"
    record("evolve_grid_matches_scalar_family", flipped, 0.0, detail)

    rng = stream("family_sheared_antiperiod")
    vectors, states = _draw_states(rng, 50)
    th, ph = rng.uniform(0.0, [[np.pi], [2.0 * np.pi]], (2, 50))
    shears = [metric_analytic(state).shear for state in states]
    live = np.array([shear is not None for shear in shears])
    k = np.array([shear for shear in shears if shear is not None])
    th, ph = th[live], ph[live]
    phis = (_plain_phi(th, ph, k), _plain_phi(th + np.pi, ph + k * np.pi, k))
    base, shifted = evolve_grid(vectors[live], (th, th + np.pi), phis)
    record("family_sheared_antiperiod", np.abs(shifted + base).max(initial=0.0), 1e-10)

    # --- metric --------------------------------------------------------------
    rng = stream("metric_closed_form_vs_finite_difference")
    vectors, states = _draw_states(rng, 50)
    thetas, phis = rng.uniform(0.0, [[np.pi], [2.0 * np.pi]], (2, 150))
    numeric = _direction_forms(
        np.repeat(vectors, 3, axis=0), thetas, phis, 1.0, DEFAULT_STEP, _AXES
    ).reshape(50, 3, 3)
    analytic = np.array([
        [m.g_theta_theta, m.g_theta_phi, m.g_phi_phi] for m in map(metric_analytic, states)
    ])
    worst_fd = np.abs(numeric - analytic[:, None]).max()
    worst_flat = np.abs(numeric - numeric.mean(axis=1, keepdims=True)).max()
    # Seeds 0-1999 peak at 2.3e-11 and 2.0e-11: the bounds leave 6.5 times that.
    record("metric_closed_form_vs_finite_difference", worst_fd, 1.5e-10)
    record("metric_constant_over_torus", worst_flat, 1.5e-10)

    vectors, states = _draw_states(stream("metric_positivity_identity_theta"), 100)
    al, mis, imb = np.array([
        (inv.aligned, inv.mismatch, inv.imbalance) for inv in map(family_invariants, states)
    ]).T
    a, b, c, d = vectors.T
    x, y = np.abs(a) ** 2, np.abs(d) ** 2
    lhs1 = mis * (2.0 * al - 2.0 * imb ** 2 - al * mis)
    rhs1 = (x + y) * np.abs(b * b - c * c) ** 2 + 8.0 * x * y * np.abs(b - c) ** 2
    lhs2 = al - imb ** 2
    rhs2 = x * (1.0 - x) + y * (1.0 - y) + 2.0 * x * y
    worst1 = np.max((np.abs(lhs1 - rhs1), -np.minimum(lhs1, 0.0)))
    worst2 = np.max((np.abs(lhs2 - rhs2), -np.minimum(lhs2, 0.0)))
    record("metric_positivity_identity_theta", worst1, 1e-10)
    record("metric_positivity_identity_phi", worst2, 1e-10)

    vectors, states = _draw_states(stream("metric_shear_kills_cross_term"), 50)
    shears = [metric_analytic(state).shear for state in states]
    sheared = _sheared_forms(vectors, shears, 1.0)
    # Seeds 0-1999 peak at 8.2e-12.
    record("metric_shear_kills_cross_term", np.abs(sheared[:, 1]).max(), 5e-11)

    # --- concurrence ---------------------------------------------------------
    rng = stream("concurrence_closed_form_vs_direct")
    vectors = random_states(rng, 100)
    thetas = rng.uniform(0.0, np.pi, 100)
    phis = rng.uniform(0.0, 2.0 * np.pi, (100, 5))
    closed = concurrence_evolved_stack(vectors, thetas)
    direct = entanglement_along_orbit(vectors, thetas, phis)
    oracle = concurrence_wootters_oracle_stack(vectors)
    worst_oracle = np.abs(concurrence_stack(vectors) - oracle).max()
    record("concurrence_closed_form_vs_direct", np.abs(closed - direct[:, 0]).max(), 1e-12)
    record("concurrence_field_independence", np.ptp(direct, axis=1).max(), 1e-12)
    record("concurrence_wootters_oracle", worst_oracle, 1e-10)

    rng = stream("concurrence_theta_period")
    vectors = random_states(rng, 50)
    thetas = rng.uniform(0.0, np.pi, 50)
    shifted = concurrence_evolved_stack(vectors, thetas + np.pi)
    worst = np.abs(concurrence_evolved_stack(vectors, thetas) - shifted).max()
    record("concurrence_theta_period", worst, 1e-12)

    rng = stream("product_state_peak_at_quarter_turn")
    chis, azimuths = rng.uniform((0.2, 0.0), (np.pi - 0.2, 2.0 * np.pi), (10, 2)).T.tolist()
    peaks = [
        max_entanglement_time(plus_minus_state(chi, gaz), SystemParams(1.0, 0.0))
        for chi, gaz in zip(chis, azimuths)
    ]
    worst = np.max([(abs(p.theta - np.pi / 4.0), abs(p.concurrence - 1.0)) for p in peaks])
    record("product_state_peak_at_quarter_turn", worst, 1e-10)

    rng = stream("concurrence_max_closed_form_vs_sampled")
    vectors, states = _draw_states(rng, 10)
    theta_max, c_max = np.array([_closed_form_maximum(state)[:2] for state in states]).T
    direct = entanglement_along_orbit(vectors, theta_max, rng.uniform(0.0, 2.0 * np.pi, (10, 1)))
    grid = np.linspace(0.0, np.pi, 256, endpoint=False)
    top = concurrence_evolved_stack(vectors[:, None], grid).max(axis=1)
    worst = np.max((np.abs(direct[:, 0] - c_max), top - c_max))
    detail = "direct route at theta_max; no 256-point sample above c_max"
    record("concurrence_max_closed_form_vs_sampled", worst, 1e-12, detail)

    # --- distance function ---------------------------------------------------
    rng = stream("distance_bounds_and_symmetry")
    vectors, states = _draw_states(rng, 100)
    xs, ys = vectors[::2], vectors[1::2]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (50, 1)))
    rotated = check_state_array(phases * ys)
    d2, swapped, turned = (
        ray_distances_sq(lefts, rights) for lefts, rights in ((xs, ys), (ys, xs), (xs, rotated))
    )
    overlap = np.abs(list(map(inner, states[::2], states[1::2]))) ** 2
    worst_bound = np.max((
        -np.minimum(d2, 0.0), d2 - 1.0, np.abs(d2 - swapped), np.abs(overlap + d2 - 1.0)
    ))
    record("distance_bounds_and_symmetry", worst_bound, 1e-12)
    record("distance_phase_invariance", np.abs(turned - d2).max(), 1e-12)

    # --- scenario determinism ------------------------------------------------
    probe_config = config_from_dict(
        {
            "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
            "params": {"coupling": 1.0, "field": 0.5},
            "grid": {"theta_steps": 5, "phi_steps": 4},
            "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
        }
    )
    first = canonical_result_bytes(run_scenario(probe_config, seed=seed))
    second = canonical_result_bytes(run_scenario(probe_config, seed=seed))
    record(
        "scenario_rerun_byte_identical",
        0.0 if first == second else 1.0,
        0.0,
        "results block compared without timestamp",
    )

    return report
