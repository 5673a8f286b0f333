"""Tests for the self-check battery."""

import pytest

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
        assert report.max_residual < 1e-6

    def test_check_names_are_unique(self):
        names = [check.name for check in verify_all(seed=0).checks]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("negative_control", [False, True])
    def test_check_names_pinned_in_order(self, negative_control):
        report = verify_all(seed=0, corrupt_propagator=negative_control)
        assert [check.name for check in report.checks] == CHECK_NAMES

    def test_same_seed_gives_identical_lines(self):
        assert verify_all(seed=7).lines() == verify_all(seed=7).lines()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
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
