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
    _direction_forms,
    _family_amplitudes,
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
    residual: float
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound  # False for NaN

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{verdict}  {self.name}: residual {self.residual:.3e} (bound {self.bound:.1e})"
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class VerifyReport:
    """All check results from one verification run."""

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


def _hamiltonian(rng: _Stream, corrupt: bool):
    params = [SystemParams(j, h) for j, h in rng.uniform(-3.0, 3.0, (5, 2)).tolist()]
    h_int = np.array([build_h_int(p).matrix for p in params])
    h_mf = np.array([build_h_mf(p).matrix for p in params])
    yield np.abs(h_int @ h_mf - h_mf @ h_int).max(), 1e-12
    target = np.array([(2.0 * p.coupling) ** 2 * np.eye(4) for p in params])
    yield np.abs(h_int @ h_int - target).max(), 1e-12
    h_full = np.array([build_hamiltonian(p).matrix for p in params])
    values, vectors = map(np.array, zip(*map(eigensystem, params)))
    residuals = h_full @ vectors - vectors * values[:, None]  # column by column
    yield np.abs(residuals).max(), 1e-12
    reference = eigensystem(SystemParams(1.0, 0.5))
    worst = np.abs(reference.values - np.array([3.0, 1.0, 2.0, -2.0])).max()
    yield worst, 1e-12, "(J, h_z) = (1, 1/2)"


def _propagators(rng: _Stream, corrupt: bool):
    j, h = rng.uniform(-3.0, 3.0, (2, 100))
    t = rng.uniform(0.0, 10.0, 100)
    j[:2], h[:2], t[:2] = (0.0, 1e-9), rng.uniform(-2.0, 2.0, 2), (1.3, 0.7)
    t1, t2 = rng.uniform(0.0, 5.0, (2, 20))
    analytic = propagator_analytic_stack(j, h, t)
    factored = propagator_factored_stack(j, h, t)
    spectral = propagator_spectral_stack(j, h, t)
    checked = analytic.copy()
    if corrupt:
        checked[:, 1, 2] = -checked[:, 1, 2]
    worst = np.max(unitarity_residuals(np.concatenate((checked, factored))))
    yield worst, 1e-12, "negative control active" if corrupt else ""
    yield np.abs(analytic - spectral).max(), 1e-10
    yield np.abs(analytic - factored).max(), 1e-10
    times = np.array((t1 + t2, t1, t2))
    whole, first, second = propagator_analytic_stack(*np.broadcast_arrays(j[:20], h[:20], times))
    yield np.abs(whole - first @ second).max(), 1e-12


def _family(rng: _Stream, corrupt: bool):
    vectors = random_states(rng, 50)
    j, h = rng.uniform(-3.0, 3.0, (2, 50))
    t = rng.uniform(0.0, 5.0, 50)
    # check_state_array and evolve_grid guard each state; the torus point is
    # (2 J t, 2 h_z t), and the family map also moves it by pi and by 2 pi.
    th, ph = 2.0 * j * t, 2.0 * h * t
    via_u = check_state_array((propagator_analytic_stack(j, h, t) @ vectors[:, :, None])[..., 0])
    base, shifted, wrapped = evolve_grid(vectors, (th, th + np.pi, th), (ph, ph, ph + 2.0 * np.pi))
    yield np.abs(via_u - base).max(), 1e-12
    yield np.abs(shifted + base).max(), 1e-12, "psi(theta+pi) = -psi"
    yield np.abs(wrapped - base).max(), 1e-12, "psi(phi+2pi) = psi"


def _evolve_grid_bits(rng: _Stream, corrupt: bool):
    # The finite-difference metric evolves its probes through evolve_grid; its
    # bits rest on that matching the scalar family map.
    vectors = random_states(rng, 2).tolist()
    # |down up> with a signed zero in every part
    vectors.append([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0), -0.0j])
    angles = np.concatenate(([0.0, -0.0], rng.uniform(-7.0, 7.0, 3), rng.uniform(-1e6, 1e6, 1)))
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    stacked = evolve_grid(np.array(vectors)[:, None, None, :], theta, phi)
    scalar = np.array([
        [[_family_amplitudes(vec, th, ph) for ph in angles.tolist()] for th in angles.tolist()]
        for vec in vectors
    ])
    flipped = int(np.bitwise_count(stacked.view(np.uint64) ^ scalar.view(np.uint64)).sum())
    yield flipped, 0.0, "differing bits: evolve_grid vs scalar family map"


def _metric(rng: _Stream, corrupt: bool):
    vectors, states = _draw_states(rng, 50)
    thetas, phis = rng.uniform(0.0, [[np.pi], [2.0 * np.pi]], (2, 150))
    numeric = _direction_forms(np.repeat(vectors, 3, axis=0), thetas, phis, 1.0, _AXES)
    numeric = numeric.reshape(50, 3, 3)
    metrics = list(map(metric_analytic, states))
    analytic = np.array([[m.g_theta_theta, m.g_theta_phi, m.g_phi_phi] for m in metrics])
    diag = np.array([m.g_theta_theta_diag for m in metrics])
    g_tt, g_tp, g_pp = numeric.transpose(2, 0, 1)
    # Seeds 0-1999 peak at 2.3e-11, 2.0e-11, 5.5e-11 and 8.1e-12: the bounds
    # leave 6 to 7.5 times that.
    yield np.abs(numeric - analytic[:, None]).max(), 1.5e-10
    yield np.abs(numeric - numeric.mean(axis=1, keepdims=True)).max(), 1.5e-10
    yield np.abs(g_tt - g_tp * g_tp / g_pp - diag[:, None]).max(), 3.5e-10
    yield np.abs(_sheared_forms(vectors, [m.shear for m in metrics], 1.0)[:, 1]).max(), 5e-11
    al, mis, imb = np.array([
        (inv.aligned, inv.mismatch, inv.imbalance) for inv in map(family_invariants, states)
    ]).T
    a, b, c, d = vectors.T
    x, y = np.abs(a) ** 2, np.abs(d) ** 2
    lhs1 = mis * (2.0 * al - 2.0 * imb ** 2 - al * mis)
    rhs1 = (x + y) * np.abs(b * b - c * c) ** 2 + 8.0 * x * y * np.abs(b - c) ** 2
    lhs2 = al - imb ** 2
    rhs2 = x * (1.0 - x) + y * (1.0 - y) + 2.0 * x * y
    yield np.max((np.abs(lhs1 - rhs1), -np.minimum(lhs1, 0.0))), 1e-10
    yield np.max((np.abs(lhs2 - rhs2), -np.minimum(lhs2, 0.0))), 1e-10


def _concurrence(rng: _Stream, corrupt: bool):
    vectors = random_states(rng, 100)
    thetas = rng.uniform(0.0, np.pi, 100)
    phis = rng.uniform(0.0, 2.0 * np.pi, (100, 5))
    closed = concurrence_evolved_stack(vectors, thetas)
    direct = entanglement_along_orbit(vectors, thetas, phis)
    oracle = concurrence_wootters_oracle_stack(vectors)
    shifted = concurrence_evolved_stack(vectors, thetas + np.pi)
    worst_oracle = np.abs(concurrence_stack(vectors) - oracle).max()
    yield np.abs(closed - direct[:, 0]).max(), 1e-12
    yield np.ptp(direct, axis=1).max(), 1e-12
    yield worst_oracle, 1e-10
    yield np.abs(closed - shifted).max(), 1e-12


def _quarter_turn_peak(rng: _Stream, corrupt: bool):
    chis, azimuths = rng.uniform((0.2, 0.0), (np.pi - 0.2, 2.0 * np.pi), (10, 2)).T.tolist()
    peaks = [
        max_entanglement_time(plus_minus_state(chi, gaz), SystemParams(1.0, 0.0))
        for chi, gaz in zip(chis, azimuths)
    ]
    yield np.max([(abs(p.theta - np.pi / 4.0), abs(p.concurrence - 1.0)) for p in peaks]), 1e-10


def _concurrence_max(rng: _Stream, corrupt: bool):
    vectors, states = _draw_states(rng, 10)
    theta_max, c_max = np.array([_closed_form_maximum(state)[:2] for state in states]).T
    phis = rng.uniform(0.0, 2.0 * np.pi, (10, 1))
    direct = entanglement_along_orbit(vectors, theta_max, phis)
    grid = np.linspace(0.0, np.pi, 256, endpoint=False)
    top = concurrence_evolved_stack(vectors[:, None], grid).max(axis=1)
    worst = np.max((np.abs(direct[:, 0] - c_max), top - c_max))
    yield worst, 1e-12, "direct route at theta_max; no 256-point sample above c_max"


def _distance(rng: _Stream, corrupt: bool):
    vectors, states = _draw_states(rng, 100)
    xs, ys = vectors[::2], vectors[1::2]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (50, 1)))
    rotated = check_state_array(phases * ys)
    d2, swapped, turned = (
        ray_distances_sq(lefts, rights) for lefts, rights in ((xs, ys), (ys, xs), (xs, rotated))
    )
    overlap = np.abs(list(map(inner, states[::2], states[1::2]))) ** 2
    yield np.max((
        -np.minimum(d2, 0.0), d2 - 1.0, np.abs(d2 - swapped), np.abs(overlap + d2 - 1.0)
    )), 1e-12
    yield np.abs(turned - d2).max(), 1e-12


def _determinism(rng: _Stream, corrupt: bool):
    probe_config = config_from_dict({
        "initial": {"product_state": {"kind": "pm", "chi": 0.9}},
        "params": {"coupling": 1.0, "field": 0.5},
        "grid": {"theta_steps": 5, "phi_steps": 4},
        "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
    })
    # No result depends on run_scenario's seed, so both runs take the default.
    first, second = (canonical_result_bytes(run_scenario(probe_config)) for _ in range(2))
    yield 0.0 if first == second else 1.0, 0.0, "results block compared without timestamp"


#: Each battery with the names of its checks, in the order it yields their
#: ``(residual, bound[, detail])``.  A battery takes its stream and the
#: negative-control flag.
_BATTERIES = (
    (_hamiltonian, (
        "interaction_commutes_with_field", "interaction_square_is_scalar",
        "eigensystem_residuals", "eigenvalues_reference_point",
    )),
    (_propagators, (
        "propagator_unitarity", "propagator_analytic_vs_spectral",
        "propagator_analytic_vs_factored", "propagator_group_property",
    )),
    (_family, ("family_matches_propagator", "family_theta_antiperiod", "family_phi_period")),
    (_evolve_grid_bits, ("evolve_grid_matches_scalar_family",)),
    (_metric, (
        "metric_closed_form_vs_finite_difference", "metric_constant_over_torus",
        "metric_diag_closed_form_vs_finite_difference", "metric_shear_kills_cross_term",
        "metric_positivity_identity_theta", "metric_positivity_identity_phi",
    )),
    (_concurrence, (
        "concurrence_closed_form_vs_direct", "concurrence_field_independence",
        "concurrence_wootters_oracle", "concurrence_theta_period",
    )),
    (_quarter_turn_peak, ("product_state_peak_at_quarter_turn",)),
    (_concurrence_max, ("concurrence_max_closed_form_vs_sampled",)),
    (_distance, ("distance_bounds_and_symmetry", "distance_phase_invariance")),
    (_determinism, ("scenario_rerun_byte_identical",)),
)


def verify_all(seed: int = 0, corrupt_propagator: bool = False) -> VerifyReport:
    """Run every battery of ``_BATTERIES``.  ``corrupt_propagator`` is a
    negative-control hook: it flips the sign of one propagator entry before
    the unitarity check, which must then fail -- proving the checks can fail
    at all.

    Each battery draws its inputs as arrays from its own stream, seeded with
    ``f"{seed}/{name of its first check}"``, so adding a battery moves no
    other battery's draws.  It reduces its residuals with np.max, so a NaN
    residual fails its check rather than being dropped, as max() would drop
    it.  If a battery raises, each check it has not yet reported gets a FAIL
    line, residual and bound nan, with the exception as detail, and the
    next battery runs."""
    report = VerifyReport()
    for battery, names in _BATTERIES:
        start = len(report.checks)
        try:
            results = battery(_Stream(f"{seed}/{names[0]}"), corrupt_propagator)
            for name, (residual, bound, *detail) in zip(names, results, strict=True):
                report.checks.append(CheckResult(name, float(residual), bound, *detail))
        except Exception as error:  # FAIL lines, not a traceback
            detail = f"raised {type(error).__name__}: {error}"
            missing = names[len(report.checks) - start:]
            report.checks += [CheckResult(name, math.nan, math.nan, detail) for name in missing]
    return report
