"""Tests for the self-check battery."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spin_torus import hamiltonian, manifold, verify
from spin_torus.cli import EXIT_CHECK_FAILURE, main
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
    "family_sheared_antiperiod",
    "metric_closed_form_vs_finite_difference",
    "metric_constant_over_torus",
    "metric_positivity_identity_theta",
    "metric_positivity_identity_phi",
    "metric_shear_kills_cross_term",
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
        bits = random.Random("3/metric_shear_kills_cross_term")
        expected = [(bits.getrandbits(64) >> 11) / 2.0**53 for _ in range(1000)]
        draws = verify._Stream("3/metric_shear_kills_cross_term").random((10, 100))
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
        labels = [text.split("/", 1) for text in first]
        assert len(labels) == 17 and {seed for seed, _ in labels} == {"4"}
        assert {label for _, label in labels} <= set(CHECK_NAMES)


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


class TestStackGuards:
    """A NaN inside a stack meets the guard its scalar route met, with the
    same message."""

    @pytest.mark.parametrize("route", ["analytic", "factored", "spectral"])
    def test_nan_in_a_stacked_propagator(self, monkeypatch, route):
        guard = hamiltonian.check_operator_stack

        def poisoned(matrices):
            if sys._getframe(1).f_code.co_name == f"propagator_{route}_stack" and len(matrices) > 1:
                matrices = matrices.copy()
                matrices[37, 2, 1] = complex(0.0, np.nan)
            return guard(matrices)

        monkeypatch.setattr(hamiltonian, "check_operator_stack", poisoned)
        with pytest.raises(ValueError, match="^operator entries must be finite$"):
            Operator4(np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="^operator entries must be finite$"):
            verify_all(seed=0)

    def test_nan_in_an_evolved_orbit_row(self, monkeypatch):
        guard = manifold.check_state_array

        def poisoned(rows):
            if sys._getframe(2).f_code.co_name == "entanglement_along_orbit":
                rows[41, 3, 2] = complex(np.nan, 0.0)
            return guard(rows)

        monkeypatch.setattr(manifold, "check_state_array", poisoned)
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            check_state_row([complex(np.nan, 0.0), 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
            verify_all(seed=0)


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
