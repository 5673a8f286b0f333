"""End-to-end acceptance gate.

One test per release criterion, each at its contractual tolerance.  Every
test registers a PASS/FAIL line that is printed in the terminal summary, so
a run of this file doubles as the sign-off checklist.
"""

import json

import numpy as np
import pytest
from conftest import record_criterion

from spin_torus.cli import main
from spin_torus.entanglement import (
    concurrence,
    concurrence_evolved,
    concurrence_wootters_oracle,
    max_entanglement_time,
)
from spin_torus.hamiltonian import (
    SystemParams,
    build_hamiltonian,
    eigensystem,
    propagator_analytic,
    propagator_factored,
    propagator_spectral,
)
from spin_torus.manifold import (
    ManifoldKind,
    TorusPoint,
    classify,
    diagonalize_check,
    evolve_family,
    evolve_family_sheared,
    family_invariants,
    metric_analytic,
    metric_numeric,
)
from spin_torus.qstate import (
    PureState2Q,
    plus_minus_state,
    plus_plus_state,
    random_state,
    ray_equal,
    up_down,
)
from spin_torus.scenario import (
    canonical_result_bytes,
    config_from_dict,
    run_scenario,
)


def finish(number: int, name: str, worst: float, bound: float, detail: str = ""):
    passed = worst <= bound
    info = detail or f"worst {worst:.3e} vs bound {bound:.1e}"
    record_criterion(number, name, passed, info)
    assert passed, f"criterion {number}: {name}: worst {worst!r} exceeds {bound!r}"


def test_criterion_01_eigenvalues_and_residuals():
    params = SystemParams(1.0, 0.5)
    values, vectors = eigensystem(params)
    worst = float(np.max(np.abs(values - np.array([3.0, 1.0, 2.0, -2.0]))))
    h_full = build_hamiltonian(params).matrix
    for value, vec in zip(values, vectors.T):
        worst = max(worst, float(np.max(np.abs(h_full @ vec - value * vec))))
    finish(1, "eigenvalues {3,1,2,-2} with eigen-residuals", worst, 1e-12)


def test_criterion_02_propagator_cross_check():
    rng = np.random.default_rng(2)
    worst_match = 0.0
    worst_unitary = 0.0
    for i in range(100):
        if i == 0:
            params, t = SystemParams(0.0, float(rng.uniform(-2, 2))), 1.1
        elif i == 1:
            params, t = SystemParams(2e-7, float(rng.uniform(-2, 2))), 0.9
        else:
            params = SystemParams(*(float(x) for x in rng.uniform(-3, 3, size=2)))
            t = float(rng.uniform(0, 10))
        analytic = propagator_analytic(params, t)
        spectral = propagator_spectral(params, t)
        worst_match = max(
            worst_match, float(np.max(np.abs(analytic.matrix - spectral.matrix)))
        )
        worst_unitary = max(
            worst_unitary,
            analytic.unitarity_residual(),
            propagator_factored(params, t).unitarity_residual(),
        )
    finish(
        2,
        "propagator analytic vs spectral on 100 draws",
        max(worst_match / 1e-10, worst_unitary / 1e-12),
        1.0,
        f"match {worst_match:.2e} (<1e-10), unitarity {worst_unitary:.2e} (<1e-12)",
    )


def test_criterion_03_metric_oracle_and_flatness():
    rng = np.random.default_rng(3)
    worst_match = 0.0
    worst_spread = 0.0
    for _ in range(50):
        state = random_state(rng)
        expected = metric_analytic(state)
        sampled = []
        for _ in range(3):
            point = TorusPoint(
                float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
            )
            measured = metric_numeric(state, point)
            sampled.append(
                (measured.g_theta_theta, measured.g_theta_phi, measured.g_phi_phi)
            )
            worst_match = max(
                worst_match,
                abs(measured.g_theta_theta - expected.g_theta_theta),
                abs(measured.g_theta_phi - expected.g_theta_phi),
                abs(measured.g_phi_phi - expected.g_phi_phi),
            )
        block = np.array(sampled)
        worst_spread = max(
            worst_spread, float(np.max(np.abs(block - block.mean(axis=0))))
        )
    finish(
        3,
        "finite-difference metric oracle and flatness",
        max(worst_match, worst_spread),
        1.5e-10,
        f"match {worst_match:.2e}, spread {worst_spread:.2e}",
    )


def test_criterion_04_shear_diagonalization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        worst = max(worst, abs(diagonalize_check(state).g_theta_phi))
    finish(4, "sheared coordinates kill the cross term", worst, 5e-11)


def test_criterion_05_positivity_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        state = random_state(rng)
        a, b, c, d = state.a, state.b, state.c, state.d
        inv = family_invariants(state)
        al, mis, imb = inv.aligned, inv.mismatch, inv.imbalance
        theta_comb = mis * (2 * al - 2 * imb ** 2 - al * mis)
        decomposition = (abs(a) ** 2 + abs(d) ** 2) * abs(b * b - c * c) ** 2
        decomposition += 8 * abs(a) ** 2 * abs(d) ** 2 * abs(b - c) ** 2
        worst = max(worst, abs(theta_comb - decomposition), -min(theta_comb, 0.0))
        x, y = abs(a) ** 2, abs(d) ** 2
        phi_comb = al - imb ** 2
        expansion = x * (1 - x) + y * (1 - y) + 2 * x * y
        worst = max(worst, abs(phi_comb - expansion), -min(phi_comb, 0.0))
    finish(5, "metric positivity identities", worst, 1e-10)


def test_criterion_06_plus_minus_scenario():
    worst_metric = 0.0
    for chi in (0.3, np.pi / 3, np.pi / 2):
        state = plus_minus_state(chi, 0.0)
        metric = metric_analytic(state, gamma=1.0)
        worst_metric = max(
            worst_metric,
            abs(metric.g_theta_theta - 1.0),
            abs(metric.g_theta_phi),
            abs(metric.g_phi_phi - np.sin(chi) ** 2 / 2),
        )

    grid = np.linspace(0.0, np.pi, 4096, endpoint=False)
    state = plus_minus_state(0.9, 0.4)
    worst_profile = max(
        abs(concurrence_evolved(state, float(theta)) - abs(np.sin(2 * theta)))
        for theta in grid
    )

    worst_time = 0.0
    for coupling in (0.5, 1.0, 2.0):
        peak = max_entanglement_time(state, SystemParams(coupling, 0.2))
        worst_time = max(worst_time, abs(peak.time - np.pi / (8 * coupling)))

    finish(
        6,
        "|+-> scenario: metric, |sin 2theta| profile, peak time",
        max(worst_metric / 1e-10, worst_profile / 1e-12, worst_time / 1e-10),
        1.0,
        f"metric {worst_metric:.2e} (<1e-10), profile {worst_profile:.2e} "
        f"(<1e-12), time {worst_time:.2e} (<1e-10)",
    )


def test_criterion_07_up_down_scenario():
    report = classify(up_down(), gamma=1.0)
    ok = report.kind is ManifoldKind.CIRCLE
    radius_err = abs((report.circle_radius or 0.0) - 1.0)
    c_err = abs(concurrence_evolved(up_down(), np.pi / 4) - 1.0)
    target = PureState2Q.normalized(0.0, 1.0, -1.0j, 0.0)
    evolved = evolve_family(up_down(), TorusPoint(np.pi / 4, 0.0))
    rays_match = ray_equal(evolved, target, tol=1e-10)
    worst = max(radius_err, c_err, 0.0 if (ok and rays_match) else 1.0)
    finish(
        7,
        "|up down> scenario: unit circle, C(pi/4)=1, final ray",
        worst,
        1e-10,
        f"kind={report.kind.value}, radius err {radius_err:.2e}, C err {c_err:.2e}",
    )


def test_criterion_08_plus_plus_scenario():
    worst_radius = 0.0
    worst_c = 0.0
    for chi in (0.4, 1.0, 2.2):
        state = plus_plus_state(chi, 0.7)
        report = classify(state, gamma=1.0)
        if report.kind is not ManifoldKind.CIRCLE:
            worst_radius = 1.0
            continue
        worst_radius = max(
            worst_radius, abs(report.circle_radius - np.sin(chi) / np.sqrt(2))
        )
        for theta in np.linspace(0, np.pi, 7):
            for phi in np.linspace(0, 2 * np.pi, 5):
                moved = evolve_family(state, TorusPoint(float(theta), float(phi)))
                worst_c = max(worst_c, concurrence(moved))
    finish(
        8,
        "|++> scenario: circle radius sin(chi)/sqrt(2), C=0 on orbit",
        max(worst_radius / 1e-10, worst_c / 1e-12),
        1.0,
        f"radius {worst_radius:.2e} (<1e-10), C {worst_c:.2e} (<1e-12)",
    )


def test_criterion_09_concurrence_oracles():
    rng = np.random.default_rng(9)
    worst_pair = 0.0
    worst_phi = 0.0
    for _ in range(100):
        state = random_state(rng)
        theta = float(rng.uniform(0, np.pi))
        evolved = evolve_family(state, TorusPoint(theta, float(rng.uniform(0, 7))))
        closed = concurrence(evolved)
        from_formula = concurrence_evolved(state, theta)
        from_oracle = concurrence_wootters_oracle(evolved)
        worst_pair = max(
            worst_pair,
            abs(closed - from_formula),
            abs(closed - from_oracle),
            abs(from_formula - from_oracle),
        )
        phis = rng.uniform(0, 2 * np.pi, size=4)
        values = [
            concurrence(evolve_family(state, TorusPoint(theta, float(phi))))
            for phi in phis
        ]
        worst_phi = max(worst_phi, max(values) - min(values))
    finish(
        9,
        "three concurrence routes agree; phi-independent",
        max(worst_pair / 1e-10, worst_phi / 1e-12),
        1.0,
        f"routes {worst_pair:.2e} (<1e-10), phi {worst_phi:.2e} (<1e-12)",
    )


def test_criterion_10_periodicity():
    rng = np.random.default_rng(10)
    worst_plain = 0.0
    worst_sheared = 0.0
    for _ in range(50):
        state = random_state(rng)
        point = TorusPoint(
            float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        )
        base = evolve_family(state, point).vector
        theta_shift = evolve_family(
            state, TorusPoint(point.theta + np.pi, point.phi)
        ).vector
        phi_shift = evolve_family(
            state, TorusPoint(point.theta, point.phi + 2 * np.pi)
        ).vector
        worst_plain = max(
            worst_plain,
            float(np.max(np.abs(theta_shift + base))),
            float(np.max(np.abs(phi_shift - base))),
        )
        shear = metric_analytic(state).shear
        if shear is None:
            continue
        primed_base = evolve_family_sheared(state, point, shear).vector
        primed_shift = evolve_family_sheared(
            state, TorusPoint(point.theta + np.pi, point.phi + shear * np.pi), shear
        ).vector
        worst_sheared = max(
            worst_sheared, float(np.max(np.abs(primed_shift + primed_base)))
        )
    finish(
        10,
        "torus periodicities, plain and sheared",
        max(worst_plain / 1e-12, worst_sheared / 1e-10),
        1.0,
        f"plain {worst_plain:.2e} (<1e-12), sheared {worst_sheared:.2e} (<1e-10)",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    config = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 7, "phi_steps": 5},
        "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
    }
    verify_ok = main(["verify"]) == 0
    capsys.readouterr()

    parsed = config_from_dict(config)
    repeat_ok = canonical_result_bytes(
        run_scenario(parsed, seed=0)
    ) == canonical_result_bytes(run_scenario(parsed, seed=0))

    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", str(config_path), "--out", str(out_a)])
    main(["run", str(config_path), "--out", str(out_b)])
    body_a, body_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    files_ok = body_a["results"] == body_b["results"]

    control_failed = main(["verify", "--negative-control"]) == 1
    capsys.readouterr()

    ok = verify_ok and repeat_ok and files_ok and control_failed
    finish(
        11,
        "CLI: verify exit 0, byte-identical reruns, negative control exit 1",
        0.0 if ok else 1.0,
        0.0,
        f"verify={verify_ok}, rerun={repeat_ok}, files={files_ok}, "
        f"control={control_failed}",
    )
