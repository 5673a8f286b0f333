"""Self-verification battery: every closed form checked against a route
that does not share its algebra.

Each check compares two independent computations (or a computation against
an exact algebraic identity) and records the worst residual seen.  The
point of running them together, rather than only inside the test suite, is
that a user on new hardware or a new numpy can ask the installed package
to prove its own arithmetic with one command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entanglement import (
    _closed_form_maximum,
    _w,
    concurrence,
    concurrence_evolved,
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
    propagator_analytic,
    propagator_analytic_stack,
    propagator_factored_stack,
    propagator_spectral_stack,
)
from .manifold import (
    _AXES,
    DEFAULT_STEP,
    TorusPoint,
    _direction_forms,
    _family_amplitudes,
    _sheared_forms,
    evolve_family,
    evolve_family_sheared,
    evolve_grid,
    family_invariants,
    metric_analytic,
    params_to_point,
)
from .qstate import PureState2Q, apply, fs_distance_sq, inner, plus_minus_state, random_state
from .qstate import unitarity_residuals
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


def _random_params(rng: np.random.Generator) -> SystemParams:
    return SystemParams(
        coupling=float(rng.uniform(-3.0, 3.0)), field=float(rng.uniform(-3.0, 3.0))
    )


def verify_all(seed: int = 0, corrupt_propagator: bool = False) -> VerifyReport:
    """Run the whole battery.  ``corrupt_propagator`` is a negative-control
    hook: it flips the sign of one propagator entry before the unitarity
    check, which must then fail -- proving the checks can fail at all."""
    rng = np.random.default_rng(seed)
    report = VerifyReport(seed=seed)

    def record(name: str, residual: float, bound: float, detail: str = "") -> None:
        report.checks.append(
            CheckResult(
                name=name,
                passed=bool(residual <= bound),
                residual=float(residual),
                bound=bound,
                detail=detail,
            )
        )

    # --- Hamiltonian algebra -------------------------------------------------
    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        h_int, h_mf = build_h_int(p).matrix, build_h_mf(p).matrix
        worst = max(worst, float(np.max(np.abs(h_int @ h_mf - h_mf @ h_int))))
    record("interaction_commutes_with_field", worst, 1e-12)

    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        h_int = build_h_int(p).matrix
        target = (2.0 * p.coupling) ** 2 * np.eye(4)
        worst = max(worst, float(np.max(np.abs(h_int @ h_int - target))))
    record("interaction_square_is_scalar", worst, 1e-12)

    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        h_full = build_hamiltonian(p).matrix
        eig = eigensystem(p)
        for value, vec in zip(eig.values, eig.vectors.T):
            worst = max(worst, float(np.max(np.abs(h_full @ vec - value * vec))))
    record("eigensystem_residuals", worst, 1e-12)

    reference = eigensystem(SystemParams(1.0, 0.5))
    worst = float(np.max(np.abs(reference.values - np.array([3.0, 1.0, 2.0, -2.0]))))
    record("eigenvalues_reference_point", worst, 1e-12, "(J, h_z) = (1, 1/2)")

    # --- propagator routes ---------------------------------------------------
    draws = []
    for i in range(100):
        if i == 0:
            draws.append((SystemParams(0.0, float(rng.uniform(-2, 2))), 1.3))
        elif i == 1:
            p = SystemParams(1e-9, float(rng.uniform(-2, 2)))
            draws.append((p, 0.7))
        else:
            draws.append((_random_params(rng), float(rng.uniform(0.0, 10.0))))

    args = np.array([(p.coupling, p.field, t) for p, t in draws]).T
    analytic = propagator_analytic_stack(*args)
    factored = propagator_factored_stack(*args)
    spectral = propagator_spectral_stack(*args)
    checked = analytic.copy()
    if corrupt_propagator:
        checked[:, 1, 2] = -checked[:, 1, 2]
    worst = np.max(unitarity_residuals(np.concatenate((checked, factored))))
    worst_spec = np.max(np.abs(analytic - spectral))
    worst_fact = np.max(np.abs(analytic - factored))
    record(
        "propagator_unitarity",
        worst,
        1e-12,
        "negative control active" if corrupt_propagator else "",
    )
    record("propagator_analytic_vs_spectral", worst_spec, 1e-10)
    record("propagator_analytic_vs_factored", worst_fact, 1e-10)

    worst = 0.0
    for _ in range(20):
        p = _random_params(rng)
        t1, t2 = rng.uniform(0.0, 5.0, size=2)
        lhs = propagator_analytic(p, float(t1 + t2)).matrix
        rhs = propagator_analytic(p, float(t1)).matrix @ propagator_analytic(p, float(t2)).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    record("propagator_group_property", worst, 1e-12)

    # --- evolved family ------------------------------------------------------
    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        p = _random_params(rng)
        t = float(rng.uniform(0.0, 5.0))
        via_u = apply(propagator_analytic(p, t), state).vector
        via_family = evolve_family(state, params_to_point(p.coupling, p.field, t)).vector
        worst = max(worst, float(np.max(np.abs(via_u - via_family))))
    record("family_matches_propagator", worst, 1e-12)

    worst_theta = 0.0
    worst_phi = 0.0
    for _ in range(50):
        state = random_state(rng)
        th, ph = float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        base = evolve_family(state, TorusPoint(th, ph)).vector
        shifted = evolve_family(state, TorusPoint(th + np.pi, ph)).vector
        worst_theta = max(worst_theta, float(np.max(np.abs(shifted + base))))
        wrapped = evolve_family(state, TorusPoint(th, ph + 2.0 * np.pi)).vector
        worst_phi = max(worst_phi, float(np.max(np.abs(wrapped - base))))
    record("family_theta_antiperiod", worst_theta, 1e-12, "psi(theta+pi) = -psi")
    record("family_phi_period", worst_phi, 1e-12, "psi(phi+2pi) = psi")

    # The finite-difference metric evolves its probes through evolve_grid and
    # takes their overlaps with np.vecdot; its bits rest on both matching the
    # scalar routes.  A child stream keeps the draws of later checks as they are.
    grid_rng = rng.spawn(1)[0]
    vectors = [random_state(grid_rng).vector.tolist() for _ in range(2)]
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
    rows = stacked.reshape(-1, len(angles), 4)
    overlaps = np.vecdot(rows[:, :1], rows)
    looped = np.array([[np.vdot(row[0], probe) for probe in row] for row in rows])
    flipped = sum(
        int(np.bitwise_count(x.view(np.uint64) ^ y.view(np.uint64)).sum())
        for x, y in ((stacked, scalar), (overlaps, looped))
    )
    record(
        "evolve_grid_matches_scalar_family",
        flipped,
        0.0,
        "differing bits: evolve_grid vs scalar family map, np.vecdot vs np.vdot",
    )

    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        shear = metric_analytic(state).shear
        if shear is None:
            continue
        th, ph = float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        base = evolve_family_sheared(state, TorusPoint(th, ph), shear).vector
        shifted = evolve_family_sheared(
            state, TorusPoint(th + np.pi, ph + shear * np.pi), shear
        ).vector
        worst = max(worst, float(np.max(np.abs(shifted + base))))
    record("family_sheared_antiperiod", worst, 1e-10)

    # --- metric --------------------------------------------------------------
    states, centres = [], []
    for _ in range(50):
        states.append(random_state(rng))
        centres.append(rng.uniform(0, [np.pi, 2 * np.pi] * 3).reshape(3, 2))
    thetas, phis = np.concatenate(centres).T
    amplitudes = np.repeat([state.vector for state in states], 3, axis=0)
    numeric = _direction_forms(amplitudes, thetas, phis, 1.0, DEFAULT_STEP, _AXES)
    numeric = numeric.reshape(50, 3, 3)
    analytic = np.array([
        [m.g_theta_theta, m.g_theta_phi, m.g_phi_phi] for m in map(metric_analytic, states)
    ])
    worst_fd = np.max(np.abs(numeric - analytic[:, None]))
    worst_flat = np.max(np.abs(numeric - numeric.mean(axis=1, keepdims=True)))
    record("metric_closed_form_vs_finite_difference", worst_fd, 1e-6)
    record("metric_constant_over_torus", worst_flat, 1e-6)

    worst1 = 0.0
    worst2 = 0.0
    for _ in range(100):
        state = random_state(rng)
        a, b, c, d = state.a, state.b, state.c, state.d
        inv = family_invariants(state)
        al, mis, imb = inv.aligned, inv.mismatch, inv.imbalance
        lhs1 = mis * (2.0 * al - 2.0 * imb ** 2 - al * mis)
        rhs1 = (abs(a) ** 2 + abs(d) ** 2) * abs(b * b - c * c) ** 2 + 8.0 * abs(
            a
        ) ** 2 * abs(d) ** 2 * abs(b - c) ** 2
        worst1 = max(worst1, abs(lhs1 - rhs1), -min(lhs1, 0.0))
        x, y = abs(a) ** 2, abs(d) ** 2
        rhs2 = x * (1.0 - x) + y * (1.0 - y) + 2.0 * x * y
        worst2 = max(worst2, abs((al - imb ** 2) - rhs2), -min(al - imb ** 2, 0.0))
    record("metric_positivity_identity_theta", worst1, 1e-10)
    record("metric_positivity_identity_phi", worst2, 1e-10)

    states = [random_state(rng) for _ in range(50)]
    shears = [metric_analytic(state).shear for state in states]
    sheared = _sheared_forms([state.vector for state in states], shears, 1.0)
    record("metric_shear_kills_cross_term", np.max(np.abs(sheared[:, 1])), 1e-8)

    # --- concurrence ---------------------------------------------------------
    states, thetas, phis = zip(*[
        (random_state(rng), float(rng.uniform(0, np.pi)), rng.uniform(0, 2 * np.pi, size=5))
        for _ in range(100)
    ])
    closed = [concurrence_evolved(state, th) for state, th in zip(states, thetas)]
    direct = entanglement_along_orbit(states, thetas, phis)
    worst_closed = np.max(np.abs(closed - direct[:, 0]))
    worst_phi_ind = np.max(direct.max(axis=1) - direct.min(axis=1))
    oracle = concurrence_wootters_oracle_stack([state.vector for state in states])
    worst_oracle = np.max(np.abs([concurrence(state) for state in states] - oracle))
    record("concurrence_closed_form_vs_direct", worst_closed, 1e-12)
    record("concurrence_field_independence", worst_phi_ind, 1e-12)
    record("concurrence_wootters_oracle", worst_oracle, 1e-10)

    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        th = float(rng.uniform(0, np.pi))
        worst = max(
            worst,
            abs(concurrence_evolved(state, th) - concurrence_evolved(state, th + np.pi)),
        )
    record("concurrence_theta_period", worst, 1e-12)

    worst = 0.0
    for _ in range(10):
        chi = float(rng.uniform(0.2, np.pi - 0.2))
        gaz = float(rng.uniform(0, 2 * np.pi))
        state = plus_minus_state(chi, gaz)
        peak = max_entanglement_time(state, SystemParams(1.0, 0.0))
        worst = max(
            worst, abs(peak.theta - np.pi / 4.0), abs(peak.concurrence - 1.0)
        )
    record("product_state_peak_at_quarter_turn", worst, 1e-10)

    worst = 0.0
    grid = np.linspace(0.0, np.pi, 256, endpoint=False)
    for _ in range(10):
        state = random_state(rng)
        theta_max, c_max, _ = _closed_form_maximum(state)
        peak = TorusPoint(theta_max, float(rng.uniform(0, 2 * np.pi)))
        top = 2.0 * float(np.abs(_w(state, grid)).max())
        worst = max(
            worst, abs(concurrence(evolve_family(state, peak)) - c_max), top - c_max
        )
    record(
        "concurrence_max_closed_form_vs_sampled",
        worst,
        1e-12,
        "direct route at theta_max; no 256-point sample above c_max",
    )

    # --- distance function ---------------------------------------------------
    worst_bound = 0.0
    worst_phase = 0.0
    for _ in range(50):
        x, y = random_state(rng), random_state(rng)
        d2 = fs_distance_sq(x, y)
        worst_bound = max(worst_bound, -min(d2, 0.0), max(d2 - 1.0, 0.0))
        worst_bound = max(worst_bound, abs(d2 - fs_distance_sq(y, x)))
        worst_bound = max(worst_bound, abs(abs(inner(x, y)) ** 2 + d2 - 1.0))
        phase = np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        rotated = PureState2Q(phase * y.vector)
        worst_phase = max(worst_phase, abs(fs_distance_sq(x, rotated) - d2))
    record("distance_bounds_and_symmetry", worst_bound, 1e-12)
    record("distance_phase_invariance", worst_phase, 1e-12)

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
