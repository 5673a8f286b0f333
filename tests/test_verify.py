"""Tests for the self-check battery."""

import dataclasses
import itertools
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spin_torus import hamiltonian, manifold, verify
from spin_torus.cli import EXIT_CHECK_FAILURE, main
from spin_torus.entanglement import ConcurrenceRangeError
from spin_torus.qstate import Operator4, check_state_row
from spin_torus.verify import verify_all

CHECK_NAMES = [
    "interaction_commutes_with_field",
    "interaction_square_is_scalar",
    "eigensystem_residuals",
    "eigenvalues_reference_point",
    "propagator_unitarity",
    "propagator_analytic_vs_spectral",
    "propagator_analytic_vs_factored",
    "propagator_group_property",
    "family_matches_propagator",
    "family_theta_antiperiod",
    "family_phi_period",
    "evolve_grid_matches_scalar_family",
    "metric_closed_form_vs_finite_difference",
    "metric_constant_over_torus",
    "metric_diag_closed_form_vs_finite_difference",
    "metric_shear_kills_cross_term",
    "metric_positivity_identity_theta",
    "metric_positivity_identity_phi",
    "concurrence_closed_form_vs_direct",
    "concurrence_field_independence",
    "concurrence_wootters_oracle",
    "concurrence_theta_period",
    "product_state_peak_at_quarter_turn",
    "concurrence_max_closed_form_vs_sampled",
    "distance_bounds_and_symmetry",
    "distance_phase_invariance",
    "scenario_rerun_byte_identical",
]


class TestVerifyAll:
    def test_default_seed_passes_everything(self):
        report = verify_all(seed=0)
        assert report.passed
        assert max(check.residual for check in report.checks) < 1e-6

    def test_check_names_are_unique(self):
        names = [check.name for check in verify_all(seed=0).checks]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("negative_control", [False, True])
    def test_check_names_pinned_in_order(self, negative_control):
        report = verify_all(seed=0, corrupt_propagator=negative_control)
        assert [check.name for check in report.checks] == CHECK_NAMES

    def test_same_seed_gives_identical_lines(self):
        assert verify_all(seed=7).lines() == verify_all(seed=7).lines()

    @pytest.mark.parametrize("seed", range(100))
    def test_verdict_robust_across_seeds(self, seed):
        assert verify_all(seed=seed).passed

    def test_every_line_carries_a_verdict(self):
        lines = verify_all(seed=0).lines()
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
        assert lines[-1].endswith("all 27 checks passed")


class TestStreams:
    """Each battery draws from ``random.Random(f"{seed}/{label}")``, its label
    the name of its first check, so the draws rest on CPython's Mersenne
    Twister and string seeding, not on the installed numpy."""

    def test_random_golden_bits(self):
        draws = verify._Stream("0/propagator_unitarity").random(3)
        expected = ["0x1.432d1cfca80aap-1", "0x1.531cb816ef25cp-1", "0x1.60f7ef1c301dfp-1"]
        assert [x.hex() for x in draws.tolist()] == expected

    def test_random_is_the_top_53_bits_of_each_64_bit_word(self):
        bits = random.Random("3/metric_positivity_identity_theta")
        expected = [(bits.getrandbits(64) >> 11) / 2.0**53 for _ in range(1000)]
        draws = verify._Stream("3/metric_positivity_identity_theta").random((10, 100))
        assert draws.shape == (10, 100)
        assert draws.ravel().tolist() == expected

    def test_uniform_golden_bits(self):
        draws = verify._Stream("0/propagator_group_property").uniform(-3.0, 3.0, (2, 2))
        expected = [
            "-0x1.e96dff87035e4p+0", "-0x1.7e98f8543cebcp+0",
            "-0x1.3caceb62bf6b4p+1", "-0x1.0af1a48981230p+1",
        ]
        assert [x.hex() for x in draws.ravel().tolist()] == expected
        draws = verify._Stream("5/family_theta_antiperiod").uniform(
            0.0, [[np.pi], [2.0 * np.pi]], (2, 2)
        )
        expected = [
            "0x1.5f569a7618162p+1", "0x1.3258b1c63f9bcp-1",
            "0x1.90fbf23cd9bcfp+0", "0x1.1043f78b5babbp+1",
        ]
        assert [x.hex() for x in draws.ravel().tolist()] == expected

    def test_standard_normal_golden_values(self):
        """Pinned to 4 ulps: numpy's log1p rounds the last bit differently
        on some dispatch targets (up to 2 ulps seen)."""
        draws = verify._Stream("0/family_matches_propagator").standard_normal((1, 2, 3))
        expected = [
            -0.20403864686556464, -1.1895533260179032, 1.418207295942037,
            0.12356801885489273, 2.68743932273654, 0.8013524579619189,
        ]
        assert draws.shape == (1, 2, 3)
        np.testing.assert_array_max_ulp(draws.ravel(), np.array(expected), maxulp=4)

    @pytest.mark.parametrize("n", [1, 2, 7, 400])
    def test_standard_normal_is_box_muller_of_the_uniforms(self, n):
        uniforms = verify._Stream("2/x").random((2, (n + 1) // 2)).tolist()
        expected = []
        for u, v in zip(*uniforms):
            radius = math.sqrt(-2.0 * math.log1p(-u))
            expected += [radius * math.cos(2.0 * math.pi * v), radius * math.sin(2.0 * math.pi * v)]
        draws = verify._Stream("2/x").standard_normal(n)
        assert draws.shape == (n,)
        np.testing.assert_array_max_ulp(draws, np.array(expected[:n]), maxulp=4)

    def test_standard_normal_moments(self):
        draws = verify._Stream("0/moments").standard_normal(40_000)
        assert abs(draws.mean()) < 0.02 and abs(draws.var() - 1.0) < 0.03
        assert np.isfinite(draws).all()

    @pytest.mark.parametrize(
        "low, high, size",
        [
            (-3.0, 3.0, (5, 2)),
            (0.0, 10.0, 100),
            (0.0, [[np.pi], [2.0 * np.pi]], (2, 50)),
            ((0.2, 0.0), (np.pi - 0.2, 2.0 * np.pi), (10, 2)),
            (-1e6, 1e6, 1),
        ],
    )
    def test_uniform_stays_in_low_high_with_numpys_shapes(self, monkeypatch, low, high, size):
        """The shapes and half-open ranges verify asks for, also at the
        smallest and the largest word the generator can give."""
        stream = verify._Stream("0/uniform")
        shape = np.empty(size).shape
        low_b, high_b = np.broadcast_arrays(np.asarray(low), np.asarray(high), np.empty(size))[:2]
        draws = stream.uniform(low, high, size)
        assert draws.shape == shape
        assert ((low_b <= draws) & (draws < high_b)).all()
        monkeypatch.setattr(stream._bits, "getrandbits", lambda k: 0)
        assert (stream.uniform(low, high, size) == low_b).all()
        monkeypatch.setattr(stream._bits, "getrandbits", lambda k: 2**k - 1)
        draws = stream.uniform(low, high, size)
        assert ((low_b < draws) & (draws < high_b)).all()

    def test_a_battery_keeps_its_draws_when_others_change(self, monkeypatch):
        """Every battery's draws are those of its own stream made alone, and
        stay so when each other stream draws more and a new one is added."""
        made, real = [], verify._Stream

        class Logged(real):
            def __init__(self, text):
                super().__init__(text)
                self.text, self.draws = text, []
                made.append(self)

            def random(self, size):
                self.draws.append(super().random(size))
                return self.draws[-1]

        class Crowded(Logged):
            def __init__(self, text):
                super().__init__(text)
                real(text.replace("/", "/new_battery_before_")).random(1000)

            def random(self, size):
                draws = super().random(size)
                real(self.text + "_sibling").random(500)
                return draws

        monkeypatch.setattr(verify, "_Stream", Logged)
        lines = verify_all(seed=4).lines()
        first = {stream.text: stream.draws for stream in made}
        made.clear()
        monkeypatch.setattr(verify, "_Stream", Crowded)
        assert verify_all(seed=4).lines() == lines
        assert {stream.text: stream.draws for stream in made}.keys() == first.keys()
        for stream in made:
            assert all(map(np.array_equal, stream.draws, first[stream.text]))
            alone = real(stream.text)
            assert all(np.array_equal(alone.random(d.shape), d) for d in stream.draws)
        # One stream per battery, named after its first check; every battery
        # but the determinism probe draws from it.
        assert len(first) == 10
        assert list(first) == [f"4/{names[0]}" for _, names in verify._BATTERIES]
        assert [text for text, draws in first.items() if not draws] == [
            "4/scenario_rerun_byte_identical"
        ]


def returned(change):
    """A mutant that applies ``change`` to what the real function returns."""
    return lambda real: lambda *args: change(real(*args))


def argument_changed(index, change):
    """A mutant that applies ``change`` to the real function's argument
    ``index``, as an array."""

    def mutant(real):
        def changed(*args):
            args = list(args)
            args[index] = change(np.asarray(args[index]))
            return real(*args)

        return changed

    return mutant


def counted_byte(real):
    """``canonical_result_bytes`` with one more byte, a count of its calls."""
    calls = itertools.count()
    return lambda record: real(record) + bytes([next(calls) % 256])


#: sigma_x on the second spin: Hermitian, and it does not commute with the
#: exchange interaction.
FLIP = np.eye(4)[[1, 0, 3, 2]]

#: For each check, the function ``verify`` imports and a mutant of it that
#: the check must catch, a change of 1e-9 where it can be.
MUTANTS = {
    "interaction_commutes_with_field":
        ("build_h_mf", returned(lambda op: Operator4(op.matrix + 1e-9 * FLIP))),
    "interaction_square_is_scalar":
        ("build_h_int", returned(lambda op: Operator4(op.matrix * (1 + 1e-9)))),
    "eigensystem_residuals":
        ("eigensystem", returned(lambda system: system._replace(values=system.values + 1e-9))),
    "eigenvalues_reference_point":
        ("eigensystem", returned(lambda system: system._replace(values=system.values * (1 + 1e-9)))),
    "propagator_unitarity":
        ("propagator_factored_stack", returned(lambda u: u * (1 + 1e-9))),
    "propagator_analytic_vs_spectral":
        ("propagator_spectral_stack", returned(lambda u: u * (1 + 1e-9))),
    # A global phase: still unitary.
    "propagator_analytic_vs_factored":
        ("propagator_factored_stack", returned(lambda u: u * np.exp(1e-9j))),
    # A phase e^{i 1e-9 t^2}: still unitary, and U(t1 + t2) = U(t1) U(t2) fails.
    "propagator_group_property": (
        "propagator_analytic_stack",
        lambda real: lambda j, h, t: real(j, h, t) * np.exp(1e-9j * np.asarray(t) ** 2)[..., None, None],
    ),
    "family_matches_propagator": ("evolve_grid", argument_changed(1, lambda theta: theta * (1 + 1e-9))),
    "family_theta_antiperiod": ("evolve_grid", argument_changed(1, lambda theta: theta * (1 + 1e-9))),
    "family_phi_period": ("evolve_grid", argument_changed(2, lambda phi: phi * (1 + 1e-9))),
    "evolve_grid_matches_scalar_family":
        ("evolve_grid", argument_changed(1, lambda theta: np.nextafter(theta, np.inf))),
    "metric_closed_form_vs_finite_difference": (
        "metric_analytic",
        returned(lambda m: dataclasses.replace(m, g_theta_theta=m.g_theta_theta * (1 + 1e-8))),
    ),
    # A finite-difference metric that varies over the torus.
    "metric_constant_over_torus": (
        "_direction_forms",
        lambda real: lambda v, th, ph, *rest: real(v, th, ph, *rest) + 1e-8 * np.cos(th)[:, None],
    ),
    "metric_diag_closed_form_vs_finite_difference": (
        "metric_analytic",
        returned(
            lambda m: dataclasses.replace(m, g_theta_theta_diag=m.g_theta_theta_diag * (1 + 1e-8))
        ),
    ),
    "metric_shear_kills_cross_term": (
        "metric_analytic",
        returned(lambda m: dataclasses.replace(m, shear=m.shear and m.shear * (1 + 1e-6))),
    ),
    "metric_positivity_identity_theta": (
        "family_invariants",
        returned(lambda inv: dataclasses.replace(inv, mismatch=inv.mismatch * (1 + 1e-9))),
    ),
    "metric_positivity_identity_phi":
        ("family_invariants", returned(lambda inv: dataclasses.replace(inv, aligned=inv.aligned + 1e-9))),
    "concurrence_closed_form_vs_direct":
        ("concurrence_evolved_stack", returned(lambda c: c * (1 + 1e-9))),
    "concurrence_field_independence": (
        "entanglement_along_orbit",
        lambda real: lambda v, th, ph: real(v, th, ph) + 1e-9 * np.asarray(ph),
    ),
    "concurrence_wootters_oracle":
        ("concurrence_wootters_oracle_stack", returned(lambda c: c * (1 + 1e-9))),
    "concurrence_theta_period":
        ("concurrence_evolved_stack", argument_changed(1, lambda theta: theta * (1 + 1e-9))),
    "product_state_peak_at_quarter_turn":
        ("max_entanglement_time", returned(lambda peak: peak._replace(theta=peak.theta + 1e-9))),
    "concurrence_max_closed_form_vs_sampled": (
        "_closed_form_maximum",
        returned(lambda peak: (peak[0], peak[1] * (1 - 1e-9), *peak[2:])),
    ),
    "distance_bounds_and_symmetry": ("inner", returned(lambda overlap: overlap * (1 + 1e-9))),
    # A distance that depends on the phase of the second ray's first amplitude.
    "distance_phase_invariance": (
        "ray_distances_sq",
        lambda real: lambda xs, ys: real(xs, ys) + 1e-9 * np.angle(ys[:, 0]),
    ),
    "scenario_rerun_byte_identical": ("canonical_result_bytes", counted_byte),
}


class TestEveryCheckCanFail:
    """A census: each check fails, on every seed, under a mutant of a
    function that ``verify`` imports, patched on the ``verify`` module, and
    ``verify_all`` still reports rather than raises."""

    def test_every_check_has_a_mutant(self):
        assert list(MUTANTS) == CHECK_NAMES

    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_its_mutant_fails_the_check(self, check, monkeypatch):
        function, mutant = MUTANTS[check]
        monkeypatch.setattr(verify, function, mutant(getattr(verify, function)))
        for seed in range(5):
            report = verify_all(seed=seed)
            failed = [result.name for result in report.checks if not result.passed]
            assert check in failed, f"seed {seed}"
            assert report.lines()[-1].endswith(f"of {len(CHECK_NAMES)} checks FAILED")
            assert not any(result.detail.startswith("raised ") for result in report.checks)


def changed_lines(lines, clean):
    """The indices at which two runs' check lines differ."""
    assert len(lines) == len(clean) == len(CHECK_NAMES) + 1
    return [i for i, (line, was) in enumerate(zip(lines[:-1], clean)) if line != was]


class TestRaisingBattery:
    """A battery that raises gives a FAIL line to each check it has not
    reported, not a traceback, and the batteries after it still run."""

    def test_cli_prints_a_fail_line_and_exits_one(self, monkeypatch, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        clean = capsys.readouterr().out.splitlines()

        def raising(state):
            raise ConcurrenceRangeError("concurrence 1.5 is outside [0, 1]")

        monkeypatch.setattr(verify, "_closed_form_maximum", raising)
        assert main(["verify", "--seed", "0"]) == EXIT_CHECK_FAILURE
        out, err = capsys.readouterr()
        lines = out.splitlines()
        at = CHECK_NAMES.index("concurrence_max_closed_form_vs_sampled")
        assert changed_lines(lines, clean) == [at]
        assert lines[at] == (
            "FAIL  concurrence_max_closed_form_vs_sampled: residual nan (bound nan) -- "
            "raised ConcurrenceRangeError: concurrence 1.5 is outside [0, 1]"
        )
        assert lines[-1] == f"1 of {len(CHECK_NAMES)} checks FAILED"
        assert err == ""

    @pytest.mark.parametrize(
        "index", range(len(verify._BATTERIES)), ids=[names[0] for _, names in verify._BATTERIES]
    )
    def test_a_battery_that_stops_early_fails_only_its_other_checks(self, monkeypatch, index):
        clean = verify_all(seed=2).lines()
        real, names = verify._BATTERIES[index]

        def stopping(rng, corrupt):
            yield next(real(rng, corrupt))
            raise RuntimeError("stopped after one check")

        batteries = list(verify._BATTERIES)
        batteries[index] = (stopping, names)
        monkeypatch.setattr(verify, "_BATTERIES", tuple(batteries))
        report = verify_all(seed=2)
        at = CHECK_NAMES.index(names[0])
        rest = range(at + 1, at + len(names))
        assert changed_lines(report.lines(), clean) == list(rest)
        assert [report.checks[i].name for i in rest] == list(names[1:])
        for i in rest:
            assert report.lines()[i] == (
                f"FAIL  {CHECK_NAMES[i]}: residual nan (bound nan) -- "
                "raised RuntimeError: stopped after one check"
            )
        assert report.passed == (len(names) == 1)


#: The one line of the c_max mutant: c_max read 1e-9 high.
C_MAX_LINE = "    c_max = _clamp_unit(2.0 * (abs(alpha) + abs(beta)))\n"


def test_source_copy_c_max_mutant_fails_its_check_and_every_check_reports(tmp_path):
    """A mutant of a closed form that ``verify`` reaches through another
    module, applied to a copy of the package: ``spin-torus verify`` prints
    every check's line, fails the check that audits c_max by its residual,
    and exits 1 without a traceback."""
    package = Path(verify.__file__).parent
    copy = tmp_path / "spin_torus"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "entanglement.py"
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines.count(C_MAX_LINE) == 1
    lines[lines.index(C_MAX_LINE)] = C_MAX_LINE.replace(")))", ")) * (1 + 1e-9))")
    source.write_text("".join(lines), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    for seed in range(5):
        result = subprocess.run(
            [sys.executable, "-m", "spin_torus.cli", "verify", "--seed", str(seed)],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )
        assert (result.returncode, result.stderr) == (EXIT_CHECK_FAILURE, ""), f"seed {seed}"
        *checks, summary = result.stdout.splitlines()
        assert [line[6:].split(":", 1)[0] for line in checks] == CHECK_NAMES
        assert all(line.startswith(("PASS  ", "FAIL  ")) for line in checks)
        assert summary.endswith(f"of {len(CHECK_NAMES)} checks FAILED")
        c_max = checks[CHECK_NAMES.index("concurrence_max_closed_form_vs_sampled")]
        assert c_max.startswith("FAIL  ") and " -- raised " not in c_max, f"seed {seed}"


DISPATCH_VERDICTS = """\
from spin_torus.verify import verify_all
for seed in range(5):
    for negative in (False, True):
        report = verify_all(seed, corrupt_propagator=negative)
        print(seed, negative, [check.name for check in report.checks if not check.passed])
"""


def test_verdicts_do_not_rest_on_numpy_cpu_dispatch():
    """verify gives the same verdicts with every numpy dispatch target
    disabled as on the default path; its residual digits may differ."""
    from numpy._core import _multiarray_umath

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    baseline = {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)}
    verdicts = []
    for path_env in (env, baseline):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", DISPATCH_VERDICTS],
            env=path_env, capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        verdicts.append(result.stdout.splitlines())
    assert len(verdicts[0]) == 10
    assert all(line.endswith("['propagator_unitarity']" if " True " in line else "[]")
               for line in verdicts[0])
    assert verdicts[1] == verdicts[0]


class TestNegativeControl:
    def test_corrupted_propagator_fails_only_unitarity(self):
        report = verify_all(seed=0, corrupt_propagator=True)
        assert not report.passed
        failed = {check.name for check in report.checks if not check.passed}
        assert failed == {"propagator_unitarity"}

    def test_failure_is_reported_in_lines(self):
        report = verify_all(seed=0, corrupt_propagator=True)
        assert any(
            line.startswith("FAIL") and "propagator_unitarity" in line
            for line in report.lines()
        )
        assert report.lines()[-1].endswith("1 of 27 checks FAILED")

    @pytest.mark.parametrize("seed", range(50))
    def test_cli_negative_control_fails_only_unitarity(self, seed, capsys):
        # The benchmark's check of a negative-control verify call.
        assert main(["verify", "--seed", str(seed), "--negative-control"]) == EXIT_CHECK_FAILURE
        lines = capsys.readouterr().out.splitlines()
        failed = [line[6:].split(":", 1)[0] for line in lines if line.startswith("FAIL  ")]
        assert failed == ["propagator_unitarity"]


def assert_battery_raised(report, clean, name, detail):
    """``name`` and each later check of its battery FAIL with residual nan
    and ``detail``, and every other check's line is the clean run's."""
    names = next(names for _, names in verify._BATTERIES if name in names)
    failed = range(CHECK_NAMES.index(name), CHECK_NAMES.index(names[-1]) + 1)
    assert changed_lines(report.lines(), clean) == list(failed)
    for check in report.checks[failed.start : failed.stop]:
        assert (check.passed, check.detail) == (False, detail)
        assert math.isnan(check.residual) and math.isnan(check.bound)


class TestStackGuards:
    """A NaN inside a stack meets the guard its scalar route met, with the
    same message."""

    @pytest.mark.parametrize("route", ["analytic", "factored", "spectral"])
    def test_nan_in_a_stacked_propagator(self, monkeypatch, route):
        clean, guard = verify_all(seed=0).lines(), hamiltonian.check_operator_stack

        def poisoned(matrices):
            caller = sys._getframe(1).f_code.co_name
            if caller == f"propagator_{route}_stack" and len(matrices) == 100:  # the battery's draws
                matrices = matrices.copy()
                matrices[37, 2, 1] = complex(0.0, np.nan)
            return guard(matrices)

        monkeypatch.setattr(hamiltonian, "check_operator_stack", poisoned)
        with pytest.raises(ValueError, match="^operator entries must be finite$"):
            Operator4(np.full((4, 4), np.nan))
        assert_battery_raised(
            verify_all(seed=0), clean, "propagator_unitarity",
            "raised ValueError: operator entries must be finite",
        )

    def test_nan_in_an_evolved_orbit_row(self, monkeypatch):
        clean, guard = verify_all(seed=0).lines(), manifold.check_state_array

        def poisoned(rows):
            # the concurrence battery's 100 states at five field angles each
            caller = sys._getframe(2).f_code.co_name
            if caller == "entanglement_along_orbit" and rows.shape[:2] == (100, 5):
                rows[41, 3, 2] = complex(np.nan, 0.0)
            return guard(rows)

        monkeypatch.setattr(manifold, "check_state_array", poisoned)
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            check_state_row([complex(np.nan, 0.0), 0.0, 0.0, 0.0])
        assert_battery_raised(
            verify_all(seed=0), clean, "concurrence_closed_form_vs_direct",
            "raised ValueError: state amplitudes must be finite",
        )


class TestNanResiduals:
    """A NaN that an audited function returns for a single draw fails the
    checks it reaches with residual nan: no reduction drops it, as max()
    drops a NaN that is not its first argument."""

    @pytest.mark.parametrize(
        "function, poison, checks",
        [
            (
                "family_invariants",
                lambda inv: dataclasses.replace(inv, aligned=math.nan),
                ["metric_positivity_identity_theta", "metric_positivity_identity_phi"],
            ),
            (
                "max_entanglement_time",
                lambda peak: peak._replace(theta=math.nan),
                ["product_state_peak_at_quarter_turn"],
            ),
            (
                "ray_distances_sq",
                lambda d2: np.where(np.arange(len(d2)) == 7, math.nan, d2),
                ["distance_phase_invariance"],
            ),
            (
                "inner",
                lambda overlap: complex(math.nan, 0.0),
                ["distance_bounds_and_symmetry"],
            ),
        ],
    )
    def test_a_nan_from_one_draw_fails_its_check(self, monkeypatch, function, poison, checks):
        audited, calls = getattr(verify, function), []

        def poisoned(*args):
            value = audited(*args)
            calls.append(value)
            return poison(value) if len(calls) == 3 else value

        monkeypatch.setattr(verify, function, poisoned)
        report = verify.verify_all(seed=0)
        failed = [check for check in report.checks if not check.passed]
        assert [check.name for check in failed] == checks
        assert all(math.isnan(check.residual) for check in failed)
        assert f"FAIL  {checks[0]}: residual nan (bound" in "\n".join(report.lines())
