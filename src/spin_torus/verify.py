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
    concurrence_wootters_oracle,
    max_entanglement_time,
)
from .hamiltonian import (
    SystemParams,
    build_h_int,
    build_h_mf,
    build_hamiltonian,
    eigensystem,
    propagator_analytic,
    propagator_factored,
    propagator_spectral,
)
from .manifold import (
    TorusPoint,
    diagonalize_check,
    evolve_family,
    evolve_family_sheared,
    family_invariants,
    metric_analytic,
    metric_numeric,
    params_to_point,
)
from .qstate import PureState2Q, apply, fs_distance_sq, inner, plus_minus_state, random_state
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

    @property
    def max_residual(self) -> float:
        return max((check.residual for check in self.checks), default=0.0)

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

    worst = worst_spec = worst_fact = 0.0
    for p, t in draws:
        u = propagator_analytic(p, t)
        ua, uf = u.matrix, propagator_factored(p, t)
        if corrupt_propagator:
            broken = ua.copy()
            broken[1, 2] = -broken[1, 2]
            u = type(u)(broken)
        worst = max(worst, u.unitarity_residual(), uf.unitarity_residual())
        worst_spec = max(
            worst_spec, float(np.max(np.abs(ua - propagator_spectral(p, t).matrix)))
        )
        worst_fact = max(worst_fact, float(np.max(np.abs(ua - uf.matrix))))
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
    worst_fd = 0.0
    worst_flat = 0.0
    for _ in range(50):
        state = random_state(rng)
        analytic = metric_analytic(state)
        sampled = []
        for _ in range(3):
            pt = TorusPoint(
                float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
            )
            numeric = metric_numeric(state, pt)
            sampled.append(
                (numeric.g_theta_theta, numeric.g_theta_phi, numeric.g_phi_phi)
            )
            worst_fd = max(
                worst_fd,
                abs(numeric.g_theta_theta - analytic.g_theta_theta),
                abs(numeric.g_theta_phi - analytic.g_theta_phi),
                abs(numeric.g_phi_phi - analytic.g_phi_phi),
            )
        spread = np.array(sampled)
        worst_flat = max(
            worst_flat, float(np.max(np.abs(spread - spread.mean(axis=0))))
        )
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

    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        worst = max(worst, abs(diagonalize_check(state).g_theta_phi))
    record("metric_shear_kills_cross_term", worst, 1e-8)

    # --- concurrence ---------------------------------------------------------
    worst_closed = 0.0
    worst_phi_ind = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        state = random_state(rng)
        th = float(rng.uniform(0, np.pi))
        closed = concurrence_evolved(state, th)
        direct = [
            concurrence(evolve_family(state, TorusPoint(th, float(ph))))
            for ph in rng.uniform(0, 2 * np.pi, size=5)
        ]
        worst_closed = max(worst_closed, abs(closed - direct[0]))
        worst_phi_ind = max(worst_phi_ind, max(direct) - min(direct))
        worst_oracle = max(
            worst_oracle, abs(concurrence(state) - concurrence_wootters_oracle(state))
        )
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
