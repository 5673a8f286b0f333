"""Seeded inputs, the timed operation and the output checks of each workload.

Inputs come from ``random.Random(seed)``, so one seed gives the same bytes
on every numpy version.  The program never sees the benchmark seed: it
receives only the generated configs, file paths and ``verify`` seeds.

Every check takes a route that does not run the code it checks: record
concurrences against the closed form ``concurrence_evolved``, CSV rows by
counting lines, classification against the rank of the metric rebuilt from
the reported invariants, and ``verify`` verdicts by parsing its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from spin_torus import cli, scenario
from spin_torus.entanglement import concurrence_evolved
from spin_torus.qstate import PureState2Q, plus_minus_state

#: Points per torus axis in ``torus_dense``.
DENSE_GRID = 300
#: Points per axis of the ``torus_dense`` warm-up operation: enough to warm
#: every code path, not the heap, whose first growth a user pays on every
#: ``spin-torus run`` process anyway.
WARMUP_GRID = 30
#: Concurrence agreement demanded of every evolved row.
CONCURRENCE_TOL = 1e-12
#: Rounding slack for "lies in [0, 1]", "c_max >= sample" and "diagonal >= 0".
ROUNDING_SLACK = 1e-12
#: Eigenvalues of the 2x2 invariant metric above this count towards its rank.
RANK_TOL = 1e-9
#: Every ``NEGATIVE_EVERY``-th verify call adds ``--negative-control``.
NEGATIVE_EVERY = 5

SWEEP_OUTPUTS = ("metric", "classify", "concurrence_profile")
#: Initial-state kinds of ``config_sweep``, one per config in turn; two in
#: ten are degenerate.
SWEEP_SLOTS = ("haar", "pm", "pp", "haar", "mm", "degenerate", "haar", "pm", "haar", "degenerate")
#: Degenerate kinds, in turn: the bare |up down>, a product state at chi = 0,
#: a Hamiltonian eigenstate (flat profile), and a state within 1e-12 of
#: |up up> with an antisymmetric admixture (DegenerateShear warning).  The
#: checks expect "generic", "flat", "polarized" (a flat profile at |up up>
#: or |down down>) or "shear_warning" of each config.
DEGENERATE_KINDS = ("updown", "chi0", "eigenstate", "near_polarized")
_EIGENSTATES = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0),
    (0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0),
)
_KIND_BY_RANK = {2: "flat_torus", 1: "circle", 0: "point"}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _haar_amplitudes(rng: random.Random) -> list[list[float]]:
    raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    return [[z.real / norm, z.imag / norm] for z in raw]


def _params(rng: random.Random) -> dict[str, float]:
    coupling = rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0))
    return {"coupling": coupling, "field": rng.uniform(-2.0, 2.0)}


def _initial_state(initial: dict) -> PureState2Q:
    """The initial state of a generated config, built by the package's
    state constructors rather than by its config parser."""
    if "amplitudes" in initial:
        return PureState2Q.from_amplitudes(*(complex(re, im) for re, im in initial["amplitudes"]))
    product = initial["product_state"]
    return plus_minus_state(product["chi"], product["gamma_az"])


class TorusDense:
    """``spin-torus run`` on a 300 x 300 grid with all four outputs, then
    ``spin-torus export --format csv`` on the record just written."""

    name = "torus_dense"
    steps = ("run", "export")

    def __init__(self, seed: int, count: int, workdir: Path, grid: int = DENSE_GRID) -> None:
        rng = random.Random(seed)
        self.grids = [min(grid, WARMUP_GRID)] + [grid] * (count - 1)
        self.workdir = workdir
        self.configs = []
        for i in range(count):
            if i == 1:
                initial = {
                    "product_state": {
                        "kind": "pm",
                        "chi": rng.uniform(0.3, math.pi - 0.3),
                        "gamma_az": rng.uniform(0.0, 2.0 * math.pi),
                    }
                }
            else:
                initial = {"amplitudes": _haar_amplitudes(rng)}
            self.configs.append(
                {
                    "initial": initial,
                    "params": _params(rng),
                    "grid": {"theta_steps": self.grids[i], "phi_steps": self.grids[i]},
                    "outputs": ["metric", "classify", "concurrence_profile", "evolved_states"],
                }
            )
        self.run_seeds = [rng.randrange(2**31) for _ in range(count)]
        self.codes: dict[int, tuple[int, int]] = {}

    def points(self, i: int) -> int:
        return self.grids[i] ** 2

    def expected_calls(self, ops: int, points: int) -> dict[str, tuple[str, int]]:
        """Traced call counts these operations imply: the benchmark's own
        calls exactly, inner calls as a floor.  A count outside them means
        the tracer missed a rebinding."""
        return {
            "cli.main": ("==", 2 * ops),
            "scenario.run_scenario": ("==", ops),
            "manifold.evolve_family": (">=", points),
        }

    def _paths(self, i: int) -> tuple[Path, Path, Path]:
        return (
            self.workdir / f"dense-{i}.json",
            self.workdir / f"dense-{i}.record.json",
            self.workdir / f"dense-{i}.csv",
        )

    def run(self, i: int, clock) -> dict[str, tuple[float, float]]:
        config_path, record_path, csv_path = self._paths(i)
        config_path.write_text(json.dumps(self.configs[i]), encoding="utf-8")
        t0 = clock()
        run_code = cli.main(
            ["run", str(config_path), "--seed", str(self.run_seeds[i]), "--out", str(record_path)]
        )
        t1 = clock()
        export_code = cli.main(["export", str(record_path), "--format", "csv", "--out", str(csv_path)])
        t2 = clock()
        self.codes[i] = (run_code, export_code)
        return {"run": (t0, t1), "export": (t1, t2)}

    def check(self, i: int, corrupt: bool = False) -> bytes:
        paths = self._paths(i)
        try:
            return self._check(i, paths[1], paths[2], corrupt)
        finally:
            for path in (*paths, Path(f"{paths[2]}.meta.csv")):
                path.unlink(missing_ok=True)

    def _check(self, i: int, record_path: Path, csv_path: Path, corrupt: bool) -> bytes:
        _require(self.codes.get(i) == (0, 0), f"exit codes {self.codes.get(i)}")
        data = json.loads(record_path.read_text(encoding="utf-8"))
        rows = data["results"]["evolved_states"]
        if corrupt:
            rows[len(rows) // 2]["concurrence"] += 1e-6
        _require(len(rows) == self.points(i), f"{len(rows)} evolved rows")
        initial = _initial_state(self.configs[i]["initial"])
        closed: dict[float, float] = {}
        for row in rows:
            theta = row["theta"]
            if theta not in closed:
                closed[theta] = concurrence_evolved(initial, theta)
            _require(
                abs(row["concurrence"] - closed[theta]) <= CONCURRENCE_TOL,
                f"row at theta={theta!r}: concurrence {row['concurrence']!r} "
                f"vs closed form {closed[theta]!r}",
            )
        _require(len(closed) == self.grids[i], f"{len(closed)} distinct theta values")
        csv_lines = csv_path.read_bytes().count(b"\n")
        _require(csv_lines == 1 + self.points(i), f"CSV has {csv_lines} lines")
        return scenario.canonical_result_bytes(scenario.record_from_dict(data))


def _sweep_initial(rng: random.Random, slot: str, degenerate: int) -> tuple[dict, str]:
    """An initial-state block and what the checks expect of it."""
    if slot == "haar":
        return {"amplitudes": _haar_amplitudes(rng)}, "generic"
    if slot in ("pm", "pp", "mm"):
        block = {
            "kind": slot,
            "chi": rng.uniform(0.2, math.pi - 0.2),
            "gamma_az": rng.uniform(0.0, 2.0 * math.pi),
        }
        return {"product_state": block}, "generic"
    kind = DEGENERATE_KINDS[degenerate % len(DEGENERATE_KINDS)]
    if kind == "updown":
        return {"product_state": {"kind": "updown"}}, "generic"
    if kind == "chi0":
        product = rng.choice(("pm", "pp", "mm"))
        block = {"kind": product, "chi": 0.0, "gamma_az": rng.uniform(0.0, 6.0)}
        return {"product_state": block}, "generic" if product == "pm" else "polarized"
    if kind == "eigenstate":
        amplitudes = rng.choice(_EIGENSTATES)
        polarized = amplitudes[0] == 1.0 or amplitudes[3] == 1.0
        return {"amplitudes": [[a, 0.0] for a in amplitudes]}, "polarized" if polarized else "flat"
    # |b|^2 = |c|^2 = s puts aligned - imbalance^2 ~ 2s under the 1e-12
    # degeneracy threshold while |b - c|^2 imbalance ~ 4s stays above it.
    s = rng.uniform(3e-13, 4.5e-13)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    b = math.sqrt(s) * complex(math.cos(phase), math.sin(phase))
    amplitudes = [complex(math.sqrt(1.0 - 2.0 * s)), b, -b, 0j]
    return {"amplitudes": [[z.real, z.imag] for z in amplitudes]}, "shear_warning"


def _sweep_grid(rng: random.Random, i: int) -> tuple[dict, int]:
    """Grid block and its point count: torus grids of at most 16 x 8 on
    even configs, time grids of at most 64 steps on odd ones, half of
    those with a field override."""
    if i % 2 == 0:
        theta, phi = rng.randint(2, 16), rng.randint(2, 8)
        return {"theta_steps": theta, "phi_steps": phi}, theta * phi
    t0 = rng.uniform(0.0, 1.0)
    steps = rng.randint(2, 64)
    grid: dict = {"time": {"t0": t0, "t1": t0 + rng.uniform(0.5, 3.0), "steps": steps}}
    if i % 4 == 1:
        grid["field_override"] = rng.uniform(-2.0, 2.0)
    return grid, steps


def _invariant_kind(invariants: dict) -> str:
    """Flat torus, circle or point from the rank of the metric matrix
    rebuilt from the invariants (aligned A, mismatch B, imbalance D)."""
    a, b, d = invariants["aligned"], invariants["mismatch"], invariants["imbalance"]
    matrix = np.array([[b * (2.0 - b), b * d], [b * d, a - d * d]])
    rank = int(np.sum(np.linalg.eigvalsh(matrix) > RANK_TOL))
    return _KIND_BY_RANK[rank]


class ConfigSweep:
    """Small configs, each parsed from JSON text, run and serialized."""

    name = "config_sweep"
    steps = ("op",)

    def __init__(self, seed: int, count: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.texts: list[str] = []
        self.expect: list[str] = []
        self.grid_points: list[int] = []
        self.run_seeds: list[int] = []
        degenerate = 0
        for i in range(count):
            slot = SWEEP_SLOTS[i % len(SWEEP_SLOTS)]
            initial, expect = _sweep_initial(rng, slot, degenerate)
            degenerate += slot == "degenerate"
            grid, points = _sweep_grid(rng, i)
            params = _params(rng)
            if rng.random() < 0.5:
                params["gamma"] = rng.uniform(0.5, 2.0)
            outputs = list(SWEEP_OUTPUTS)
            rng.shuffle(outputs)
            config = {"initial": initial, "params": params, "grid": grid, "outputs": outputs}
            self.texts.append(json.dumps(config))
            self.expect.append(expect)
            self.grid_points.append(points)
            self.run_seeds.append(rng.randrange(2**31))
        self.outputs: dict[int, tuple[str, bytes]] = {}

    def points(self, i: int) -> int:
        return self.grid_points[i]

    def expected_calls(self, ops: int, points: int) -> dict[str, tuple[str, int]]:
        return {
            "scenario.run_scenario": ("==", ops),
            "scenario.record_to_json": ("==", ops),
            "scenario.config_from_dict": (">=", ops),
        }

    def run(self, i: int, clock) -> dict[str, tuple[float, float]]:
        t0 = clock()
        config = scenario.config_from_json(self.texts[i])
        record = scenario.run_scenario(config, seed=self.run_seeds[i])
        text = scenario.record_to_json(record)
        t1 = clock()
        self.outputs[i] = (text, scenario.canonical_result_bytes(record))
        return {"op": (t0, t1)}

    def check(self, i: int, corrupt: bool = False) -> bytes:
        text, digest = self.outputs.pop(i)
        results = json.loads(text)["results"]
        if corrupt:
            results["concurrence_profile"]["samples"][0][1] = 1.5
        expect = self.expect[i]
        _require(sorted(results) == sorted(SWEEP_OUTPUTS), f"outputs {sorted(results)}")

        profile = results["concurrence_profile"]
        values = [value for _, value in profile["samples"]]
        _require(len(values) == self._profile_length(i), f"{len(values)} profile samples")
        _require(
            all(-ROUNDING_SLACK <= v <= 1.0 + ROUNDING_SLACK for v in values),
            "profile sample outside [0, 1]",
        )
        _require(
            all(profile["c_max"] >= v - ROUNDING_SLACK for v in values),
            f"c_max {profile['c_max']!r} below a sample",
        )
        if expect in ("flat", "polarized"):
            _require(profile["is_constant"], "eigenstate profile not flagged constant")

        warned = {kind: "warning" in results[kind] for kind in ("metric", "classify")}
        if expect == "shear_warning":
            _require(all(warned.values()), f"warnings {warned}")
            return digest
        _require(not warned["metric"], "metric warning on a non-degenerate shear")
        # Finite-difference noise at a fully polarized state may raise
        # DegenerateShear inside classify, which run_scenario documents as
        # a warning annotation; any other state must classify.
        _require(expect == "polarized" or not warned["classify"], "classify warning")

        metric = results["metric"]
        for key in ("g_theta_theta", "g_phi_phi", "g_theta_theta_diag", "g_phi_phi_diag"):
            _require(metric[key] >= -ROUNDING_SLACK, f"metric {key} = {metric[key]!r}")
        report = results["classify"]
        if warned["classify"]:
            return digest
        wanted = _invariant_kind(report["invariants"])
        _require(report["kind"] == wanted, f"classify says {report['kind']}, invariants say {wanted}")
        return digest

    def _profile_length(self, i: int) -> int:
        grid = json.loads(self.texts[i])["grid"]
        return grid["theta_steps"] if "theta_steps" in grid else grid["time"]["steps"]


def _verdicts(output: str) -> tuple[list[str], list[str]]:
    """Names of the passing and the failing checks in ``verify`` output."""
    passed, failed = [], []
    for line in output.splitlines():
        verdict, _, rest = line.partition("  ")
        if verdict in ("PASS", "FAIL"):
            (passed if verdict == "PASS" else failed).append(rest.split(":", 1)[0])
    return passed, failed


class VerifyBattery:
    """``spin-torus verify --seed s``; every fifth call is a negative control."""

    name = "verify_battery"
    steps = ("op",)

    def __init__(self, seed: int, count: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.calls = [
            (rng.randrange(2**31), i % NEGATIVE_EVERY == NEGATIVE_EVERY - 1) for i in range(count)
        ]
        self.outputs: dict[int, tuple[int, str]] = {}
        self.checks_failed = 0

    def points(self, i: int) -> int:
        return 0

    def expected_calls(self, ops: int, points: int) -> dict[str, tuple[str, int]]:
        return {
            "cli.main": ("==", ops),
            "verify.verify_all": ("==", ops),
            "qstate.PureState2Q": (">=", ops),
        }

    def run(self, i: int, clock) -> dict[str, tuple[float, float]]:
        verify_seed, negative = self.calls[i]
        argv = ["verify", "--seed", str(verify_seed)] + (["--negative-control"] if negative else [])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = clock()
            code = cli.main(argv)
            t1 = clock()
        self.outputs[i] = (code, sink.getvalue())
        return {"op": (t0, t1)}

    def check(self, i: int, corrupt: bool = False) -> bytes:
        code, output = self.outputs.pop(i)
        if corrupt:
            output = output.replace("PASS  ", "FAIL  ", 1)
        passed, failed = _verdicts(output)
        self.checks_failed += len(failed)
        _require(len(passed) + len(failed) > 1, "no check lines in verify output")
        if self.calls[i][1]:
            _require(code == 1, f"negative control exited {code}")
            _require(failed == ["propagator_unitarity"], f"negative control failed {failed}")
        else:
            _require(code == 0, f"verify exited {code}")
            _require(not failed, f"failed checks {failed}")
        return output.encode()


WORKLOADS = {cls.name: cls for cls in (TorusDense, ConfigSweep, VerifyBattery)}


def digest_of(parts: list[bytes]) -> str:
    """sha256 over the length-prefixed canonical bytes of every operation."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()
