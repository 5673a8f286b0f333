"""Tests for the self-check battery."""

import dataclasses
import math
import sys

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
                "fs_distance_sq",
                lambda d2: math.nan,
                ["distance_bounds_and_symmetry", "distance_phase_invariance"],
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
