"""Record JSON and CSV writers against the plain json/csv reference routes,
and the checks on records read back from outside."""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spin_torus import cli, scenario
from spin_torus.manifold import TorusPoint, evolve_family
from spin_torus.scenario import (
    CSV_COLUMNS,
    SCENARIO_SCHEMA,
    ConfigInvalid,
    canonical_result_bytes,
    config_from_dict,
    export_record,
    read_record,
    record_from_dict,
    record_to_json,
    run_scenario,
)

from reference import compact_result_text, record_to_dict

ALL_OUTPUTS = ["metric", "classify", "concurrence_profile", "evolved_states"]


def make_config(**overrides):
    data = {
        "initial": {"product_state": {"kind": "pm", "chi": 0.9, "gamma_az": 0.3}},
        "params": {"coupling": 1.0, "field": 0.5, "gamma": 1.0},
        "grid": {"theta_steps": 9, "phi_steps": 5},
        "outputs": ALL_OUTPUTS,
    }
    data.update(overrides)
    return data


def make_record(**overrides):
    return run_scenario(config_from_dict(make_config(**overrides)), seed=4)


def reference_json(record):
    return json.dumps(record_to_dict(record), sort_keys=True, indent=2) + "\n"


def reference_csv(record):
    """The CSV as a list of cells per row, each cell a float's repr, the
    evolved rows read from the objects of the record's JSON form."""
    results = record_to_dict(record)["results"]
    rows = []
    if "evolved_states" in results:
        for row in results["evolved_states"]:
            parts = [part for pair in row["amplitudes"] for part in pair]
            rows.append([row["theta"], row["phi"], *parts, row["concurrence"]])
    elif "concurrence_profile" in results:
        initial = record.config.initial.build()
        for theta, value in results["concurrence_profile"]["samples"]:
            state = evolve_family(initial, TorusPoint(theta, 0.0))
            parts = [float(part) for z in state.vector for part in (z.real, z.imag)]
            rows.append([theta, 0.0, *parts, value])
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def assert_row_array(rows, expected):
    """``rows`` is a record's evolved-states block, a read-only float64
    (n, 11) array, and holds the bits of ``expected``."""
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (len(expected), len(CSV_COLUMNS))
    assert not rows.flags.writeable
    expected = np.array(expected, dtype=np.float64).reshape(rows.shape)
    np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))


def traced_peak(call):
    """``call()``, then what tracemalloc traced as held when it returned and
    at its peak, counting only what the call allocated."""
    tracemalloc.start()
    try:
        value = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


def written_csv(record, tmp_path):
    path = tmp_path / "out.csv"
    export_record(record, "csv", str(path))
    return path.read_bytes()


def dense_config():
    amplitudes = np.array([0.5 + 0.1j, 0.3 - 0.4j, 0.2 + 0.5j, -0.3 + 0.3j])
    amplitudes /= np.linalg.norm(amplitudes)
    initial = {"amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}
    return make_config(initial=initial, grid={"theta_steps": 300, "phi_steps": 300})


@pytest.fixture(scope="module")
def dense_record():
    return run_scenario(config_from_dict(dense_config()), seed=4)


def degenerate_record():
    eps = 4e-13
    root = math.sqrt(eps)
    initial = {
        "amplitudes": [[math.sqrt(1 - 2 * eps), 0.0], [root, 0.0], [-root, 0.0], [0.0, 0.0]]
    }
    return make_record(initial=initial)


class TestJsonWriter:
    def test_dense_torus_record(self, dense_record):
        assert len(dense_record.results["evolved_states"]) == 300 * 300
        assert record_to_json(dense_record) == reference_json(dense_record)

    def test_dense_export_written_in_slices(self, dense_record, tmp_path):
        path = tmp_path / "record.json"
        export_record(dense_record, "json", str(path))
        text = record_to_json(dense_record)
        assert len(text) > 10 * 2**20
        assert path.read_bytes() == text.encode()

    def test_time_grid_with_field_override(self):
        grid = {"time": {"t0": -3.0, "t1": 40.0, "steps": 57}, "field_override": -2.5}
        record = make_record(grid=grid)
        assert record_to_json(record) == reference_json(record)

    def test_degenerate_shear_warning_blocks(self):
        record = degenerate_record()
        assert "warning" in record.results["metric"]
        assert "warning" in record.results["classify"]
        assert record_to_json(record) == reference_json(record)

    @pytest.mark.parametrize(
        "outputs", [["metric", "classify", "concurrence_profile"], ["metric"]]
    )
    def test_record_without_evolved_states(self, outputs):
        record = make_record(outputs=outputs)
        assert record_to_json(record) == reference_json(record)

    def test_record_read_back(self):
        loaded = record_from_dict(json.loads(record_to_json(make_record())))
        assert record_to_json(loaded) == reference_json(loaded)

    def test_empty_results(self):
        """A record whose results lack the blocks its config names is
        refused on read; built by hand, it still writes as json lays it out."""
        record = make_record()
        with pytest.raises(ConfigInvalid, match="^results: lacks 'metric'$"):
            record_from_dict({**record_to_dict(record), "results": {}})
        record = dataclasses.replace(record, results={})
        assert record_to_json(record) == reference_json(record)


#: Text that reads like the markers of results.evolved_states, were json to
#: write a raw newline inside a string or key.
MIMIC = '\n  "results": {\n    "evolved_states": ['


def with_results(record, **results):
    return dataclasses.replace(record, results={**record.results, **results})


def with_outputs(record, results):
    """``record`` holding just ``results``, its config naming just those."""
    config = dataclasses.replace(record.config, outputs=tuple(results))
    return dataclasses.replace(record, config=config, results=results)


def with_field(record, block, key, value):
    """``record`` with ``value`` at ``key`` of its results ``block``."""
    return with_results(record, **{block: {**record.results[block], key: value}})


def spliced_records():
    """Records where splicing the evolved rows into json's layout could go
    wrong, by name.  Decoys sit in fields that come before the rows in the
    text (provenance, the profile's theta_max) and after them (the metric)."""
    record = make_record()
    rows = record.results["evolved_states"]
    decoy = {"evolved_states": [], "note": MIMIC, MIMIC: [MIMIC]}
    decoys = with_field(with_field(record, "metric", "shear", decoy), "concurrence_profile",
                        "theta_max", decoy)
    yield "decoys", dataclasses.replace(decoys, provenance={**record.provenance, "seed": decoy})
    yield "one_row", with_results(record, evolved_states=rows[:1])
    yield "two_rows", with_results(record, evolved_states=rows[:2])
    yield "empty_rows", with_results(record, evolved_states=[])
    yield "no_rows", with_outputs(
        record, {k: v for k, v in record.results.items() if k != "evolved_states"}
    )
    yield "only_rows", with_outputs(record, {"evolved_states": rows})


SPLICED = dict(spliced_records())

#: An object with exactly the shape of an evolved-states row.
ROW = {
    "theta": 0.5,
    "phi": 0.25,
    "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "concurrence": 0.0,
}


def row_decoy_records():
    """Records that hold row-shaped objects outside results.evolved_states,
    which the packing parse must leave as objects."""
    record = make_record()
    metric = {**record.results["metric"], "shear": ROW, "g_phi_phi": [ROW, [ROW]]}
    yield "row_in_metric", with_results(record, metric=metric)
    yield "row_in_provenance", dataclasses.replace(
        record, provenance={**record.provenance, "seed": ROW}
    )
    # theta_max ends the profile, just before the rows; g_phi_phi opens the metric after them.
    beside = with_field(record, "concurrence_profile", "theta_max", [ROW])
    yield "row_beside_rows", with_field(beside, "metric", "g_phi_phi", ROW)


SPLICED.update(row_decoy_records())


class TestStreamedWriter:
    @pytest.mark.parametrize("name", list(SPLICED))
    def test_record_to_json(self, name):
        record = SPLICED[name]
        assert record_to_json(record) == reference_json(record)

    @pytest.mark.parametrize("name", list(SPLICED))
    def test_export_json(self, name, tmp_path):
        record = SPLICED[name]
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        assert path.read_bytes() == reference_json(record).encode()

    @pytest.mark.parametrize("name", list(SPLICED))
    def test_read_back(self, name, tmp_path):
        """Each record reads back as written."""
        record = SPLICED[name]
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        assert record_to_json(read_record(str(path))) == path.read_text()

    def test_decoys_survive(self):
        body = json.loads(record_to_json(SPLICED["decoys"]))
        assert body["provenance"]["seed"]["note"] == MIMIC
        assert body["results"]["metric"]["shear"]["evolved_states"] == []
        assert body["results"]["concurrence_profile"]["theta_max"][MIMIC] == [MIMIC]
        assert len(body["results"]["evolved_states"]) == 45

    def test_dense_export_holds_no_whole_text(self, dense_record, tmp_path):
        path = tmp_path / "record.json"
        _, _, peak = traced_peak(lambda: export_record(dense_record, "json", str(path)))
        assert path.stat().st_size > 40 * 2**20
        assert peak < path.stat().st_size // 4

    def test_dense_run_holds_no_whole_text(self, tmp_path, monkeypatch):
        """Memory traced from the moment the record exists to the end of
        ``spin-torus run``: the write must not hold the record's text."""
        def run_then_trace(*args, **kwargs):
            record = run_scenario(*args, **kwargs)
            tracemalloc.start()
            return record

        config, out = tmp_path / "dense.json", tmp_path / "dense.record.json"
        config.write_text(json.dumps(dense_config()), encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", run_then_trace)
        try:
            assert cli.main(["run", str(config), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 40 * 2**20
        assert peak < out.stat().st_size // 4


BLOCK = scenario._BLOCK_ROWS
#: Most bytes of a worker's result the parent yields in one piece.
PIECE = scenario._READ_CHARS
#: Row counts either side of the block boundaries of the formatted text.
ROW_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]


@pytest.fixture(scope="module")
def long_record():
    """A time-grid record of ``3 * BLOCK + 1`` samples and evolved rows,
    with -0.0 in the first row and at the second block's start."""
    grid = {"time": {"t0": 0.0, "t1": 30.0, "steps": ROW_COUNTS[-1]}}
    record = make_record(grid=grid, outputs=["concurrence_profile", "evolved_states"])
    rows = record.results["evolved_states"].copy()
    samples = record.results["concurrence_profile"]["samples"].copy()
    rows[[0, BLOCK], 3] = samples[BLOCK, 1] = -0.0
    profile = {**record.results["concurrence_profile"], "samples": samples}
    return with_results(record, concurrence_profile=profile, evolved_states=rows)


def assert_no_child_process():
    """No worker of this process is left running, or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_cpus(monkeypatch, cpus):
    """Give the process ``cpus`` CPUs, or with 0 no ``os.sched_getaffinity``,
    as off Linux, where every map runs in-process."""
    if cpus:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)


class TestForkedBlocks:
    """A float block past ``BLOCK`` rows is formatted in forked workers, one
    per CPU, each block's text sent in pieces: the text is the reference
    routes' on either side of every block boundary, in-process (no
    ``sched_getaffinity``) and with one, two or three CPUs, and no worker
    outlives a write, whether it ends well or not."""

    @pytest.mark.parametrize("cpus", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_json_record_export_and_csv(self, long_record, count, cpus, tmp_path, monkeypatch):
        profile = long_record.results["concurrence_profile"]
        record = with_results(
            long_record,
            concurrence_profile={**profile, "samples": profile["samples"][:count]},
            evolved_states=long_record.results["evolved_states"][:count],
        )
        with_cpus(monkeypatch, cpus)
        expected = reference_json(record)
        assert record_to_json(record) == expected
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        assert path.read_bytes() == expected.encode()
        assert written_csv(record, tmp_path) == reference_csv(record).encode()
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [0, 1, 3])
    def test_profile_only_csv(self, cpus, tmp_path, monkeypatch):
        grid = {"time": {"t0": 0.0, "t1": 50.0, "steps": 10**4 + 1}}
        record = make_record(grid=grid, outputs=["concurrence_profile"])
        with_cpus(monkeypatch, cpus)
        assert written_csv(record, tmp_path) == reference_csv(record).encode()
        assert_no_child_process()

    def test_a_pool_worker_forks_its_own_formatters(self, long_record, tmp_path, monkeypatch):
        """A pool's worker is daemonic, so multiprocessing would let it start
        no process; it forks its own workers, which format the blocks to the
        same bytes."""
        path = tmp_path / "record.json"
        with_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pool.apply(export_record, (long_record, "json", str(path)))
        assert path.read_bytes() == reference_json(long_record).encode()

    def test_a_worker_that_dies_is_an_io_error(self, long_record, tmp_path, capsys, monkeypatch):
        path, out = tmp_path / "record.json", tmp_path / "out.csv"
        export_record(long_record, "json", str(path))
        parent, real = os.getpid(), scenario._filled

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        with_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_filled", dying)
        assert cli.main(["export", str(path), "--format", "csv", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write export: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]  # no short CSV is left behind
        assert_no_child_process()

    def test_text_comes_in_pieces(self, monkeypatch):
        """The parent yields a worker's bytes in pieces of ``PIECE`` bytes,
        the last one shorter unless the result is a multiple of ``PIECE``
        long, an empty result as no piece, and a None result as None."""
        lengths = [2 * PIECE, 10, None, 0, PIECE, 3 * PIECE + 5, 1]
        results = [None if n is None else str(k).encode() * n for k, n in enumerate(lengths)]
        with_cpus(monkeypatch, 2)
        pieces = list(scenario._forked_map(results.__getitem__, range(len(results))))
        assert pieces == [
            piece for data in results
            for piece in ([None] if data is None else
                          [data[at : at + PIECE] for at in range(0, len(data), PIECE)])
        ]
        assert_no_child_process()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_worker_that_dies_between_pieces_is_an_io_error(
        self, long_record, fmt, tmp_path, capsys, monkeypatch
    ):
        """A worker of the write killed once the first piece of its first
        block has come: the parent has written that piece, then gets no
        more.  The record's read, forked too, comes first and ends well."""
        path, out = tmp_path / "record.json", tmp_path / f"out.{fmt}"
        export_record(long_record, "json", str(path))
        fork, forked_map = os.fork, scenario._forked_map
        workers, maps, received = [], [], []

        def recorded_fork():
            pid = fork()
            workers.append(pid)  # in the parent's list; a worker's copy is never read
            return pid

        def counted(*args):
            maps.append(len(workers))  # the workers forked before this map
            for piece in forked_map(*args):
                if len(maps) == 2:  # the write, after the read
                    received.append(len(piece))
                    if len(received) == 1:
                        os.kill(workers[maps[1]], signal.SIGKILL)
                yield piece

        with_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(scenario, "_forked_map", counted)
        assert cli.main(["export", str(path), "--format", fmt, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: cannot write export: a worker process ended before it sent all its results\n"
        )
        assert received[-1] == PIECE
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_process()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_a_full_disk_is_an_io_error(self, tmp_path, capsys, monkeypatch):
        grid = {"time": {"t0": 0.0, "t1": 30.0, "steps": 2 * BLOCK + 1}}
        config = tmp_path / "long.json"
        config.write_text(json.dumps(make_config(grid=grid, outputs=["evolved_states"])))
        with_cpus(monkeypatch, 2)
        assert cli.main(["run", str(config), "--out", "/dev/full"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write record: ") and err.count("\n") == 1
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # a device is never removed
        assert_no_child_process()

    def test_pending_stdout_is_written_once(self, long_record, tmp_path):
        """Text printed, and still in the buffer of a piped stdout, when the
        workers fork is written once, by the parent."""
        path, out = tmp_path / "record.json", tmp_path / "out.csv"
        export_record(long_record, "json", str(path))
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from spin_torus.cli import main\n"
            "print('before the export')\n"
            f"sys.exit(main(['export', {str(path)!r}, '--format', 'csv', '--out', {str(out)!r}]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"before the export\nwrote {out}\n"


SHARED = scenario._SHARED_ROWS
#: Row counts either side of the size from which a block formats each
#: distinct value of a column once: a first block, then a last one.
SHARED_COUNTS = [SHARED - 1, SHARED, SHARED + 1, BLOCK + SHARED - 1, BLOCK + SHARED]
TINY, HUGE = 5e-324, 1.7976931348623157e308


def mixed_columns(count, width):
    """``count`` rows of ``width`` columns that mix what a writer sharing
    reprs could merge or miss: 0.0 with -0.0, the smallest subnormal with
    the largest float (either sign), one value throughout, no value twice,
    half the cells one value, one value twice and reprs in exponent form."""
    index = np.arange(count)
    distinct = np.random.default_rng(count).standard_normal(count)
    columns = [
        np.where(index % 2, 0.0, -0.0),
        np.where(index % 3, TINY, HUGE) * np.where(index % 5, 1.0, -1.0),
        np.full(count, 0.1 + 0.2),
        distinct,
        np.where(index % 2, distinct, -0.0),
        np.where(index == count - 1, distinct[0], distinct),
        np.where(index % 4, 1e16, 1e-5),
        np.where(index % 7, -TINY, 2.0**-1022),
        distinct[::-1] * 1e-300,
        np.floor(distinct * 4) / 8,
        np.where(index % 2, 0.0, 1.0),
    ]
    return np.column_stack([columns[j % len(columns)] for j in range(width)])


def mixed_record(count):
    """A record whose profile samples and evolved rows are ``count`` rows of
    :func:`mixed_columns`."""
    record = make_record()
    profile = {**record.results["concurrence_profile"], "samples": mixed_columns(count, 2)}
    rows = mixed_columns(count, len(CSV_COLUMNS))
    return with_results(record, concurrence_profile=profile, evolved_states=rows)


def torus_record(count):
    """The first ``count`` evolved rows of a 64 x 80 torus grid, whose
    columns repeat as a torus grid's do."""
    record = make_record(grid={"theta_steps": 64, "phi_steps": 80})
    return with_results(record, evolved_states=record.results["evolved_states"][:count])


class TestSharedReprs:
    """Around ``SHARED`` rows a block formats each distinct bit pattern of a
    column once: the JSON and CSV are still the reference routes' per-cell
    repr, in-process and with one CPU or two."""

    @pytest.mark.parametrize("cpus", [0, 1, 2])
    @pytest.mark.parametrize("count", SHARED_COUNTS)
    @pytest.mark.parametrize("make", [mixed_record, torus_record], ids=["mixed", "torus"])
    def test_json_record_export_and_csv(self, make, count, cpus, tmp_path, monkeypatch):
        record = make(count)
        with_cpus(monkeypatch, cpus)
        expected = reference_json(record)
        assert record_to_json(record) == expected
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        assert path.read_bytes() == expected.encode()
        assert written_csv(record, tmp_path) == reference_csv(record).encode()
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [0, 1, 2])
    def test_profile_only_csv(self, cpus, tmp_path, monkeypatch):
        record = make_record(outputs=["concurrence_profile"])
        samples = mixed_columns(BLOCK + SHARED, 2)  # angles 0.0 and -0.0
        profile = {**record.results["concurrence_profile"], "samples": samples}
        record = with_results(record, concurrence_profile=profile)
        with_cpus(monkeypatch, cpus)
        assert written_csv(record, tmp_path) == reference_csv(record).encode()
        assert_no_child_process()


def tiled_record(blocks):
    """A record of ``blocks`` blocks of evolved rows, each block the same
    ``BLOCK`` rows, whose every column repeats in its first ``SHARED`` rows:
    0.0 and -0.0 in one column, values shared by several columns."""
    index = np.arange(BLOCK)
    pattern = mixed_columns(BLOCK, len(CSV_COLUMNS))
    pattern[:, 3] = np.floor(np.random.default_rng(3).standard_normal(BLOCK) * 64) / 16
    pattern[:, 5] = pattern[:, 8] = np.where(index % 3, 0.1 + 0.2, -0.0)
    rows = np.tile(pattern, (blocks, 1))
    return with_outputs(make_record(), {"evolved_states": rows})


class TestReprCache:
    """One cache of reprs per writing process, keyed by a value's bits:
    each distinct value of the columns that repeat has its repr made once in
    a whole write, not once per block, and the bytes stay per-cell repr."""

    @pytest.mark.parametrize("cpus", [0, 1, 2, 3])
    def test_signed_zeros_and_values_across_blocks(self, cpus, tmp_path, monkeypatch):
        """0.0 in one block and -0.0 in the next, in one column, and values
        repeated across block edges, in-process and with workers that each
        make several blocks, one of them all with one CPU."""
        count = 4 * BLOCK + SHARED
        rows = mixed_columns(count, len(CSV_COLUMNS))
        index = np.arange(count)
        rows[:, 0] = np.where(index % 2, np.where(index < BLOCK, 0.0, -0.0), 1.5)
        rows[:, 1] = np.where(index % 3, np.where(index < 2 * BLOCK, -0.0, 0.0), 0.25)
        rows[:, 2] = (index % 97) / 8.0
        samples = mixed_columns(count, 2)
        samples[:, 1] = np.where(index < BLOCK, 0.0, -0.0)
        record = make_record()
        profile = {**record.results["concurrence_profile"], "samples": samples}
        record = with_results(record, concurrence_profile=profile, evolved_states=rows)
        with_cpus(monkeypatch, cpus)
        expected = reference_json(record)
        assert record_to_json(record) == expected
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        assert path.read_bytes() == expected.encode()
        assert written_csv(record, tmp_path) == reference_csv(record).encode()
        assert_no_child_process()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_distinct_value_is_formatted_once_per_write(self, fmt, tmp_path, monkeypatch):
        """An in-process write of four equal blocks makes one repr per
        distinct bit pattern of its rows, however many columns and blocks
        hold it."""
        record = tiled_record(4)
        made = []

        def counting(value):
            made.append(value)
            return repr(value)

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(scenario, "repr", counting, raising=False)
        export_record(record, fmt, str(tmp_path / f"out.{fmt}"))
        monkeypatch.undo()
        rows = record.results["evolved_states"]
        assert len(made) == len(np.unique(rows.view(np.uint64)))
        expected = reference_json(record) if fmt == "json" else reference_csv(record)
        assert (tmp_path / f"out.{fmt}").read_bytes() == expected.encode()

    def test_the_cache_holds_at_most_its_bound(self, tmp_path, monkeypatch):
        """A column that repeats in each block's first rows but is otherwise
        distinct would grow the cache by nearly a block per block: it is
        emptied before it passes ``_CACHED_REPRS``, and the bytes stay."""
        count = 6 * BLOCK
        rows = mixed_columns(count, len(CSV_COLUMNS))
        rows[:, 3] = np.random.default_rng(5).standard_normal(count)
        rows[::BLOCK, 3] = rows[1::BLOCK, 3]  # a repeat in each block's first rows
        record = with_outputs(make_record(), {"evolved_states": rows})
        bound = 2 * BLOCK + 100
        sizes, real = [], scenario._cached_reprs

        def measuring(bits, reprs):
            cells = real(bits, reprs)
            sizes.append(len(reprs))
            return cells

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(scenario, "_CACHED_REPRS", bound)
        monkeypatch.setattr(scenario, "_cached_reprs", measuring)
        for fmt, reference in (("json", reference_json), ("csv", reference_csv)):
            sizes.clear()
            path = tmp_path / f"out.{fmt}"
            export_record(record, fmt, str(path))
            assert path.read_bytes() == reference(record).encode()
            assert BLOCK < max(sizes) <= bound
            assert len(np.unique(rows.view(np.uint64))) > 2 * bound  # the bound applied


class TestForkedRanges:
    """A record's rows past one range are parsed in forked workers, one per
    CPU, each reading its own byte range of the file: no worker outlives a
    read, whether it ends well or not."""

    def test_a_worker_that_dies_is_an_io_error(self, long_record, tmp_path, capsys, monkeypatch):
        path, out = tmp_path / "record.json", tmp_path / "out.csv"
        export_record(long_record, "json", str(path))
        assert path.stat().st_size > 2 * scenario._READ_CHARS
        parent, real = os.getpid(), scenario._range_rows
        start = scenario._block_at(path.read_bytes(), ("evolved_states",))

        def dying(fd, span):
            if os.getpid() != parent and span[0] == start:
                os._exit(1)  # while the other worker waits to send its first range
            return real(fd, span)

        with_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_range_rows", dying)
        assert cli.main(["export", str(path), "--format", "csv", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: cannot read record: a worker process ended before it sent all its results\n"
        )
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_process()

    def test_a_pool_worker_forks_its_own_readers(self, long_record, tmp_path, monkeypatch):
        """A pool's worker is daemonic, so multiprocessing would let it start
        no process; it forks its own workers, which parse the ranges to the
        rows the test process's workers give.  So it does where an int in
        the first row sends the read to the whole text, and the forked
        workers, still parsing, are ended."""
        path, edited = tmp_path / "record.json", tmp_path / "int.record.json"
        export_record(long_record, "json", str(path))
        text = path.read_text()
        assert '"theta": 0.0\n' in text
        edited.write_text(text.replace('"theta": 0.0\n', '"theta": 0\n', 1))
        with_cpus(monkeypatch, 2)
        for read in (path, edited):
            forked = read_record(str(read)).results["evolved_states"]
            assert_no_child_process()
            assert_row_array(forked, long_record.results["evolved_states"])
            with multiprocessing.get_context("fork").Pool(1) as pool:
                record = pool.apply(read_record, (str(read),))
            # A pickled copy of the rows, which comes back writeable.
            assert record.results["evolved_states"].tobytes() == forked.tobytes()


    @pytest.mark.parametrize("cpus", [0, 1, 3])
    @pytest.mark.parametrize("bad", ["NaN", "1e999"])
    def test_first_bad_row_past_the_first_block(self, bad, cpus, tmp_path, capsys, monkeypatch):
        """A value that is no finite float at row 5000, in the second block
        of a 100 x 100 record: the streamed read refuses it with plain
        json's exit code and message, the row's index included."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        grid = {"theta_steps": 100, "phi_steps": 100}
        config.write_text(json.dumps(make_config(grid=grid, outputs=["evolved_states"])))
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        text = path.read_text()
        values = list(re.finditer(r'"concurrence": ([^,\n]+)', text))
        assert len(values) == 100 * 100 and 5000 > BLOCK
        at = values[5000].span(1)
        path.write_text(text[: at[0]] + bad + text[at[1] :])
        message = "results.evolved_states[5000]: every value must be a finite real number"
        with pytest.raises(ConfigInvalid) as plain:
            record_from_dict(json.loads(path.read_text()))
        assert str(plain.value) == message
        with_cpus(monkeypatch, cpus)
        with path.open("rb") as handle:  # the streamed read takes the rows
            rows = scenario._streamed_body(handle)["results"]["evolved_states"]
        assert np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist() == [5000]
        capsys.readouterr()
        assert cli.main(["export", str(path), "--format", "csv", "--out", str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err == f"error: invalid record: {message}\n"
        assert_no_child_process()


def reference_meta(record):
    """The sidecar as plain ``key,value`` lines: the scalar blocks flattened
    in sorted key order, None as an empty cell."""
    lines = ["key,value\n"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            lines.append(f"{prefix},{'' if value is None else value}\n")

    walk("", {kind: record.results[kind] for kind in ("metric", "classify")})
    return "".join(lines).encode()


class TestMetaSidecar:
    @pytest.mark.parametrize("make", [make_record, degenerate_record], ids=["plain", "warning"])
    def test_run_records_give_plain_key_value_lines(self, make, tmp_path):
        record = make()
        out = tmp_path / "out.csv"
        export_record(record, "csv", str(out))
        assert Path(f"{out}.meta.csv").read_bytes() == reference_meta(record)

    #: Strings csv must quote (one with a carriage return in a whole row), and a plain one.
    AWKWARD = ["a,b", 'say "hi"', "x,y", "two\nlines", "z", "c\rd"]

    def test_commas_quotes_and_newlines_round_trip(self, tmp_path):
        data = record_to_dict(make_record())
        metric = data["results"]["metric"]
        written = dict(zip(metric, self.AWKWARD))
        metric.update(written)
        out = tmp_path / "out.csv"
        export_record(record_from_dict(data), "csv", str(out))
        with open(f"{out}.meta.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(len(row) == 2 for row in rows)
        read = dict(rows[1:])
        for key, value in written.items():
            assert read[f"metric.{key}"] == value

    def test_a_sidecar_that_cannot_open_leaves_no_file(self, tmp_path, capsys):
        """A sidecar path that is a directory is an I/O error, and the CSV
        written before it is removed."""
        path, out = tmp_path / "record.json", tmp_path / "x.csv"
        export_record(make_record(), "json", str(path))
        meta = Path(f"{out}.meta.csv")
        meta.mkdir()
        assert cli.main(["export", str(path), "--format", "csv", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write export: [Errno 21] Is a directory: '{meta}'\n"
        )
        assert sorted(tmp_path.iterdir()) == [path, meta]

    def test_a_sidecar_that_fails_part_way_leaves_no_file(self, tmp_path):
        """A sidecar longer than the largest file the process may write (its
        RLIMIT_FSIZE) fails after its first bytes: exit 3, one error line,
        and neither the sidecar nor the CSV is left."""
        path, out = tmp_path / "record.json", tmp_path / "x.csv"
        export_record(make_record(outputs=["metric"]), "json", str(path))
        export_record(read_record(str(path)), "csv", str(out))
        limit = out.stat().st_size
        assert Path(f"{out}.meta.csv").stat().st_size > limit
        out.unlink()
        Path(f"{out}.meta.csv").unlink()
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from spin_torus.cli import main\n"
            f"sys.exit(main(['export', {str(path)!r}, '--format', 'csv', '--out', {str(out)!r}]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: cannot write export: [Errno 27] File too large\n"
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key", AWKWARD)
    def test_the_same_strings_as_keys_are_refused(self, key):
        data = record_to_dict(make_record())
        data["results"]["metric"][key] = 1.0
        with pytest.raises(ConfigInvalid) as refused:
            record_from_dict(data)
        assert str(refused.value) == f"results.metric: has the unknown key {key!r}"


class TestCsvWriter:
    def test_dense_evolved_rows(self, dense_record, tmp_path):
        expected = reference_csv(dense_record).encode()
        assert written_csv(dense_record, tmp_path) == expected

    @pytest.mark.parametrize(
        "grid, steps",
        [
            ({"theta_steps": 9, "phi_steps": 5}, 9),
            ({"time": {"t0": 0.0, "t1": 5.0, "steps": 11}, "field_override": 1.5}, 11),
        ],
        ids=["torus", "time_with_field_override"],
    )
    def test_profile_only_route(self, grid, steps, tmp_path):
        record = make_record(grid=grid, outputs=["metric", "concurrence_profile"])
        expected = reference_csv(record).encode()
        assert expected.count(b"\n") == 1 + steps
        assert written_csv(record, tmp_path) == expected

    def test_time_grid_rows(self, tmp_path):
        grid = {"time": {"t0": 0.0, "t1": 5.0, "steps": 11}, "field_override": 1.5}
        record = make_record(grid=grid, outputs=["evolved_states"])
        assert written_csv(record, tmp_path) == reference_csv(record).encode()

    def test_unknown_format_is_refused_before_any_file(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown export format 'xml'$"):
            export_record(make_record(), "xml", str(tmp_path / "out.xml"))
        assert list(tmp_path.iterdir()) == []


def record_body(**results):
    body = json.loads(record_to_json(make_record(outputs=["evolved_states"])))
    body["results"].update(results)
    return body


def with_row_change(change):
    body = record_body()
    change(body["results"]["evolved_states"][3])
    return body


class TestRecordChecks:
    @pytest.mark.parametrize(
        "change",
        [
            lambda row: row.pop("concurrence"),
            lambda row: row.update(extra=1.0),
            lambda row: row["amplitudes"].pop(),
            lambda row: row["amplitudes"][1].append(0.0),
            lambda row: row.update(amplitudes="abcd"),
            lambda row: row.update(theta=float("nan")),
            lambda row: row.update(phi=float("inf")),
            lambda row: row["amplitudes"][2].__setitem__(0, float("-inf")),
            lambda row: row.update(concurrence=True),
            lambda row: row.update(concurrence="0.5"),
            lambda row: row.update(concurrence=None),
            lambda row: row.update(theta=10**400),
        ],
    )
    def test_malformed_row_rejected(self, change):
        with pytest.raises(ConfigInvalid, match=r"results\.evolved_states\[3\]"):
            record_from_dict(with_row_change(change))

    @pytest.mark.parametrize("block", [{"warning": "x"}, "rows", None, 3])
    def test_block_must_be_a_list(self, block):
        with pytest.raises(ConfigInvalid, match="evolved_states"):
            record_from_dict(record_body(evolved_states=block))

    def test_int_values_become_floats(self):
        def integral(row):
            row["theta"] = 0
            row["amplitudes"][0] = [1, 0]
        source = make_record(outputs=["evolved_states"]).results["evolved_states"]
        expected = source.copy()
        expected[3, [0, 2, 3]] = 0.0, 1.0, 0.0
        record = record_from_dict(with_row_change(integral))
        assert_row_array(record.results["evolved_states"], expected)
        assert record_to_json(record) == reference_json(record)

    def test_an_array_block_is_checked_and_kept_read_only(self):
        rows = make_record(outputs=["evolved_states"]).results["evolved_states"]
        body = record_body()
        body["results"]["evolved_states"] = writable = rows.copy()
        kept = record_from_dict(body).results["evolved_states"]
        writable[3, 0] = math.nan
        assert_row_array(kept, rows)
        with pytest.raises(ConfigInvalid, match=r"^results\.evolved_states\[3\]: every value"):
            record_from_dict(body)

    def test_valid_rows_pass_unchanged(self):
        body = record_body()
        record = record_from_dict(body)
        rows = record_to_dict(record)["results"]["evolved_states"]
        assert rows == body["results"]["evolved_states"]

    @pytest.mark.parametrize(
        "samples", [[[0.1, float("nan")]], [[0.1]], [[None, 0.2]], "none"]
    )
    def test_malformed_profile_samples_rejected(self, samples):
        record = make_record(outputs=["evolved_states", "concurrence_profile"])
        body = json.loads(record_to_json(record))
        body["results"]["concurrence_profile"]["samples"] = samples
        with pytest.raises(ConfigInvalid, match=r"^results\.concurrence_profile\.samples"):
            record_from_dict(body)

    @pytest.mark.parametrize("field", ["results", "provenance"])
    def test_results_and_provenance_must_be_objects(self, field):
        body = record_body()
        body[field] = [["a", 1]]
        with pytest.raises(ConfigInvalid, match=f"^{field}: must be an object$"):
            record_from_dict(body)


def edited_body(edit):
    body = json.loads(record_to_json(make_record()))
    edit(body, body["results"]["evolved_states"])
    return json.dumps(body, indent=2)


def duplicate_results():
    text = record_to_json(make_record())
    results = json.dumps(json.loads(text)["results"])
    return text.rstrip()[:-1] + f', "results": {results}}}'


def deep_in_metric(opening, closing):
    """A record whose metric block nests a row ``DEEP`` containers deep."""
    text = edited_body(lambda body, rows: body["results"]["metric"].update(shear="@@"))
    return text.replace('"@@"', opening * DEEP + json.dumps(ROW) + closing * DEEP)


#: Far beyond MAX_NESTING, but short of where json's parser, called under pytest, overflows.
DEEP = sys.getrecursionlimit() - 200


#: Record texts on which the packing parse must read as plain json does.
PACKING_CASES = {
    "row_in_initial": lambda: edited_body(lambda body, rows: body["config"].update(initial=ROW)),
    "row_in_metric": lambda: edited_body(
        lambda body, rows: body["results"]["metric"].update(shear=ROW)
    ),
    "row_in_provenance": lambda: edited_body(
        lambda body, rows: body["provenance"].update(seed=ROW)
    ),
    "row_as_theta": lambda: edited_body(lambda body, rows: rows[3].update(theta=ROW)),
    "row_as_amplitude": lambda: edited_body(
        lambda body, rows: rows[3]["amplitudes"].__setitem__(0, [ROW, 0.0])
    ),
    "row_in_a_list": lambda: edited_body(lambda body, rows: rows.__setitem__(3, [ROW])),
    "int_values": lambda: edited_body(
        lambda body, rows: rows[3].update(theta=0, amplitudes=[[1, 0], [0, 0], [0, 0], [0, 0]])
    ),
    "bool_value": lambda: edited_body(lambda body, rows: rows[3].update(concurrence=True)),
    "bool_amplitude": lambda: edited_body(
        lambda body, rows: rows[3]["amplitudes"][1].__setitem__(0, False)
    ),
    "three_pairs": lambda: edited_body(lambda body, rows: rows[3]["amplitudes"].pop()),
    "long_pair": lambda: edited_body(lambda body, rows: rows[3]["amplitudes"][1].append(0.0)),
    "string_pairs": lambda: edited_body(
        lambda body, rows: rows[3].update(amplitudes=["ab", "cd", "ef", "gh"])
    ),
    "extra_key": lambda: edited_body(lambda body, rows: rows[3].update(extra=1.0)),
    "reordered_keys": lambda: edited_body(
        lambda body, rows: rows.__setitem__(3, dict(reversed(rows[3].items())))
    ),
    "duplicate_key": lambda: edited_body(lambda body, rows: rows[3].update(phi="@@")).replace(
        '"phi": "@@"', '"phi": "0.5", "phi": 0.75'
    ),
    "duplicate_amplitudes": lambda: edited_body(
        lambda body, rows: rows[3].update(amplitudes="@@")
    ).replace('"amplitudes": "@@"', '"amplitudes": [], "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]'),
    "one_item_pair": lambda: edited_body(lambda body, rows: rows[3]["amplitudes"][2].pop()),
    "str_value": lambda: edited_body(lambda body, rows: rows[3].update(theta="0.5")),
    "duplicate_results": duplicate_results,
    "deep_lists": lambda: deep_in_metric("[", "]"),
    "deep_objects": lambda: deep_in_metric('{"x": ', "}"),
}


def duplicate_rows_after(rows="[]"):
    """A second evolved_states, empty by default, after the rows: the one json keeps."""
    text = record_to_json(make_record())
    return text.replace('\n    ],\n    "metric"', f'\n    ],\n    "evolved_states": {rows},\n    "metric"')


def rows_again_after_the_rows():
    """A second evolved_states after the rows, the rows reversed and laid out
    as json lays out rows: its row separators follow the rows' close."""
    rows = json.loads(record_to_json(make_record()))["results"]["evolved_states"][::-1]
    return duplicate_rows_after(json.dumps(rows, indent=2).replace("\n", "\n    "))


def results_marker_in_another_object():
    """A whole record with rows as the value of a root key ahead of a
    record whose rows are empty: the rows' markers stand in the first."""
    inner = record_to_json(make_record()).rstrip()
    outer = record_to_json(with_results(make_record(), evolved_states=[]))
    return '{\n  "aa": ' + inner + "," + outer[1:]


def rows_edited(edit):
    """The text of a record with ``edit`` applied to its bytes."""
    return edit(record_to_json(make_record()).encode())


def with_deep_theta(depth):
    return edited_body(lambda body, rows: rows[30].update(theta="@@")).replace(
        '"@@"', "[" * depth + "]" * depth
    )


def invalid_utf8_in_rows(data):
    at = data.index(b'"theta"', len(data) // 2) + len(b'"theta": 0')
    return data[:at] + b"\xff" + data[at:]


def comma_before_the_first_row():
    text = record_to_json(make_record())
    at = scenario._block_at(text.encode(), ("evolved_states",))
    return text[:at] + "," + text[at:]


def mixed_line_ends(head, rows):
    """A record whose text before the rows' marker ends its lines with
    ``head``, and from the marker on with ``rows``."""
    data = record_to_json(make_record()).encode()
    at = scenario._block_at(data, ("evolved_states",))
    return data[:at].replace(b"\n", head) + data[at:].replace(b"\n", rows)


def invalid_utf8_in_head(data):
    at = data.index(b'"created_utc": "') + len(b'"created_utc": "')
    return data[:at] + b"\xff" + data[at:]


PACKING_CASES.update({
    "comma_before_the_first_row": comma_before_the_first_row,
    "duplicate_rows_after": duplicate_rows_after,
    "null_rows_after": lambda: duplicate_rows_after("[null]"),
    "separator_after_the_rows": rows_again_after_the_rows,
    "close_after_the_rows": lambda: duplicate_rows_after("[\n    ]"),
    "results_marker_at_another_depth": results_marker_in_another_object,
    "crlf": lambda: rows_edited(lambda data: data.replace(b"\n", b"\r\n")),
    "bom": lambda: rows_edited(lambda data: b"\xef\xbb\xbf" + data),
    "invalid_utf8_in_rows": lambda: rows_edited(invalid_utf8_in_rows),
    "syntax_error_in_tail": lambda: rows_edited(lambda data: data.rstrip()[:-1] + b",}\n"),
    "syntax_error_in_a_crlf_head": lambda: rows_edited(
        lambda data: data.replace(b'"seed": 4', b'"seed": 4,,').replace(b"\n", b"\r\n")
    ),
    "syntax_error_without_rows": lambda: record_to_json(
        make_record(outputs=["metric", "concurrence_profile"])
    ).rstrip()[:-1] + ",}\n",
    "deep_row": lambda: with_deep_theta(DEEP),
    "too_deep_for_json_in_row": lambda: with_deep_theta(100_000),
    "row_in_a_row": lambda: edited_body(lambda body, rows: rows[30].update(concurrence=ROW)),
    "nan_in_a_row": lambda: edited_body(lambda body, rows: rows[30].update(phi=math.nan)),
    "inf_literal_in_a_row": lambda: edited_body(
        lambda body, rows: rows[30].update(theta="@@")
    ).replace('"@@"', "1e999"),
    "rows_whose_sum_overflows": lambda: edited_body(
        lambda body, rows: [row.update(theta=1.5e308) for row in rows[:2]]
    ),
    "nan_in_the_tail": lambda: edited_body(
        lambda body, rows: body["results"]["metric"].update(g_phi_phi=math.nan)
    ),
    "infinity_in_the_head": lambda: edited_body(
        lambda body, rows: body["provenance"].update(seed=math.inf)
    ),
    "crlf_head_lf_rows": lambda: mixed_line_ends(b"\r\n", b"\n"),
    "lf_head_crlf_rows": lambda: mixed_line_ends(b"\n", b"\r\n"),
    "invalid_utf8_in_head": lambda: rows_edited(invalid_utf8_in_head),
    "invalid_utf8_in_head_after_a_bom": lambda: rows_edited(
        lambda data: b"\xef\xbb\xbf" + invalid_utf8_in_head(data)
    ),
})

#: Characters read at a time in these tests: a row is ~600, so each row
#: straddles blocks.
SMALL_BLOCK = 256


def written_files(out):
    meta = Path(f"{out}.meta.csv")
    return [path.read_bytes() for path in (out, meta) if path.exists()]


def plain_export(path, fmt, out):
    """The exit code and error line of ``spin-torus export`` when plain json
    reads the whole text, writing to ``out``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as error:
        return 2, f"error: record is not valid JSON: {error}\n"
    try:
        export_record(record_from_dict(data), fmt, str(out))
    except ConfigInvalid as error:
        return 2, f"error: invalid record: {error}\n"
    return 0, ""


#: Bytes of a range in these tests: fewer than a row holds, so most ranges
#: hold no row and a row straddles each edge.
SMALL_RANGE = 500


def with_layout(data, name):
    """A record's bytes with CRLF line ends, a BOM, both, or as they are."""
    if "crlf" in name:
        data = data.replace(b"\n", b"\r\n")
    return b"\xef\xbb\xbf" + data if "bom" in name else data


def assert_export_reads_as_plain_json(name, fmt, tmp_path, capsys, monkeypatch, chars=SMALL_BLOCK):
    """``spin-torus export`` of the ``name`` case, read ``chars`` at a time,
    exits, says and writes what it does when plain json reads the whole
    record."""
    text = PACKING_CASES[name]()
    path = tmp_path / "record.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    expected_out = tmp_path / "expected" / f"out.{fmt}"
    expected_out.parent.mkdir()
    expected = plain_export(path, fmt, expected_out)
    monkeypatch.setattr(scenario, "_READ_CHARS", chars)
    out = tmp_path / f"out.{fmt}"
    code = cli.main(["export", str(path), "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == expected
    assert captured.out == (f"wrote {out}\n" if code == 0 else "")
    assert written_files(out) == written_files(expected_out)


class CountingReads:
    """A text file handle that counts the characters read through it."""

    def __init__(self, handle):
        self.handle, self.chars = handle, 0

    def read(self, size=-1):
        text = self.handle.read(size)
        self.chars += len(text)
        return text

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


class TestPackingParse:
    """``spin-torus export`` reads a record by packing rows as json parses
    it, in blocks; what it exits with, says and writes must be what it
    gives when plain json reads the whole record."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(PACKING_CASES))
    def test_export_reads_as_plain_json(self, name, fmt, tmp_path, capsys, monkeypatch):
        assert_export_reads_as_plain_json(name, fmt, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("cpus", [0, 1, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(PACKING_CASES))
    def test_export_in_small_ranges_reads_as_plain_json(
        self, name, fmt, cpus, tmp_path, capsys, monkeypatch
    ):
        """The same, with the rows cut into ranges of fewer bytes than a row
        holds, parsed in-process and in forked workers, one with one CPU; a
        read that fails or falls back to the whole text leaves no worker."""
        with_cpus(monkeypatch, cpus)
        assert_export_reads_as_plain_json(name, fmt, tmp_path, capsys, monkeypatch, SMALL_RANGE)
        assert_no_child_process()

    @pytest.mark.parametrize("name", ["plain", "crlf", "bom"])
    def test_run_layout_streams_in_blocks(self, name, tmp_path, monkeypatch):
        """A record as run writes it, with any line ends or BOM, is read in
        ranges of rows, every one of them parsed to float rows, not whole."""
        text = record_to_json(make_record())
        path = tmp_path / "record.json"
        path.write_bytes(with_layout(text.encode(), name))
        parsed = []
        real = scenario._range_rows

        def recording(*args):
            parsed.append(real(*args))
            return parsed[-1]

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(scenario, "_range_rows", recording)
        monkeypatch.setattr(scenario, "_READ_CHARS", 4 * SMALL_BLOCK)
        assert record_to_json(read_record(str(path))) == text
        assert len(parsed) > 20 and None not in parsed
        assert sum(map(len, parsed)) == 45 * len(CSV_COLUMNS) * 8

    @pytest.mark.parametrize("cpus", [0, 1, 3])
    @pytest.mark.parametrize("edge", range(len(b",\r\n      {") + 1))
    @pytest.mark.parametrize("name", ["plain", "crlf", "bom", "bom_crlf"])
    def test_range_edges_anywhere_in_a_separator(self, name, edge, cpus, tmp_path, monkeypatch):
        """Ranges whose first edge lands ``edge`` bytes into a row separator,
        between CR and LF too, read the rows plain json reads, without a
        read of the whole text."""
        data = with_layout(record_to_json(make_record()).encode(), name)
        path = tmp_path / "record.json"
        path.write_bytes(data)
        expected = record_from_dict(json.loads(path.read_text(encoding="utf-8-sig")))
        newline = b"\r\n" if "crlf" in name else b"\n"
        start = data.index(b'"evolved_states": [') + len(b'"evolved_states": [')
        third = data.index(b"," + newline + b"      {", start)
        for _ in range(2):
            third = data.index(b"," + newline + b"      {", third + 1)
        handles, real_open = [], Path.open

        def counting_open(self, *args, **kwargs):
            handles.append(CountingReads(real_open(self, *args, **kwargs)))
            return handles[-1]

        with_cpus(monkeypatch, cpus)
        monkeypatch.setattr(Path, "open", counting_open)
        monkeypatch.setattr(scenario, "_READ_CHARS", third + edge - start)
        rows = read_record(str(path)).results["evolved_states"]
        assert_row_array(rows, expected.results["evolved_states"])
        assert len(handles) == 1 and handles[0].chars < len(data) // 2
        assert_no_child_process()

    def test_the_text_around_the_rows_is_parsed_once(self, tmp_path, monkeypatch):
        """A record with a profile and rows, read in-process: json parses
        the text around the rows once, and each range of rows once."""
        record = make_record(outputs=["metric", "concurrence_profile", "evolved_states"])
        path = tmp_path / "record.json"
        export_record(record, "json", str(path))
        texts, real = [], json.loads

        def recording(text, **kwargs):
            texts.append(text)
            return real(text, **kwargs)

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(scenario, "_READ_CHARS", 4 * SMALL_BLOCK)
        monkeypatch.setattr(scenario.json, "loads", recording)
        assert record_to_json(read_record(str(path))) == record_to_json(record)
        assert sum('"concurrence_profile"' in text for text in texts) == 1
        assert len(texts) > 20

    @pytest.mark.parametrize("layout", ["run", "compact"])
    def test_record_without_rows_is_read_once(self, layout, tmp_path, monkeypatch):
        """A profile-only record, as run writes it or re-dumped compact, is
        parsed from the text that the search for the rows read: the file
        is read once."""
        text = record_to_json(make_record(outputs=["metric", "concurrence_profile"]))
        if layout == "compact":
            text = json.dumps(json.loads(text))
        path = tmp_path / "record.json"
        path.write_text(text, encoding="utf-8")
        assert len(text) > 4 * SMALL_BLOCK
        streamed, handles = [], []
        real_body, real_open = scenario._streamed_body, Path.open

        def recording(handle):
            streamed.append(real_body(handle))
            return streamed[-1]

        def counting_open(self, *args, **kwargs):
            handles.append(CountingReads(real_open(self, *args, **kwargs)))
            return handles[-1]

        monkeypatch.setattr(scenario, "_streamed_body", recording)
        monkeypatch.setattr(scenario, "_READ_CHARS", SMALL_BLOCK)
        monkeypatch.setattr(Path, "open", counting_open)
        loaded = read_record(str(path))
        assert record_to_json(loaded) == record_to_json(record_from_dict(json.loads(text)))
        assert len(streamed) == 1 and streamed[0] is not None
        assert [handle.chars for handle in handles] == [len(text)]

    def test_record_without_rows_that_fails_to_parse_is_read_once(self, tmp_path, monkeypatch):
        """The text read to its end in the search for the rows is the text
        plain json fails on: it is not read a second time to fail again."""
        grid = {"time": {"t0": 0.0, "t1": 50.0, "steps": 10**4}}
        text = record_to_json(make_record(grid=grid, outputs=["concurrence_profile"]))
        text = text.rstrip()[:-1] + ",}\n"
        path = tmp_path / "record.json"
        path.write_text(text, encoding="utf-8")
        handles, real_open = [], Path.open

        def counting_open(self, *args, **kwargs):
            handles.append(CountingReads(real_open(self, *args, **kwargs)))
            return handles[-1]

        monkeypatch.setattr(Path, "open", counting_open)
        with pytest.raises(json.JSONDecodeError):
            read_record(str(path))
        assert [handle.chars for handle in handles] == [len(text)]

    def test_a_comma_before_the_first_row_is_not_dropped(self, tmp_path):
        """A range whose text starts with a row separator must not read as
        an empty list, which would drop the comma of ``[,``."""
        path = tmp_path / "record.json"
        path.write_text(comma_before_the_first_row(), encoding="utf-8")
        data = path.read_bytes()
        with pytest.raises(json.JSONDecodeError):
            json.loads(data)
        start = data.index(b'"evolved_states": [') + len(b'"evolved_states": [')
        end = data.rindex(b"\n    ]")
        separator = b",\n      {"
        assert data[start:].startswith(separator)
        with path.open("rb") as handle:
            assert scenario._range_rows(handle.fileno(), (start, end)) is None

    @pytest.mark.parametrize("layout", ["run", "compact"])
    def test_record_from_a_pipe_reads(self, layout, tmp_path):
        """A pipe is read once, whole: a record that is not in run's layout
        must not need a second read."""
        record = make_record()
        text = record_to_json(record)
        if layout == "compact":
            text = json.dumps(json.loads(text))
        pipe = tmp_path / "record.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=Path(pipe).write_text, args=(text,), daemon=True)
        writer.start()
        try:
            loaded = read_record(str(pipe))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert record_to_json(loaded) == record_to_json(record)

    def test_rows_are_packed_while_parsing(self, tmp_path, monkeypatch):
        path = tmp_path / "record.json"
        export_record(make_record(), "json", str(path))
        packed = []
        real = scenario._packed_row

        def counting(row):
            packed.append(row)
            return real(row)

        monkeypatch.setattr(scenario, "_packed_row", counting)
        record = read_record(str(path))
        assert_row_array(record.results["evolved_states"], make_record().results["evolved_states"])
        # Each row object met the hook as json finished it, then went into
        # the array as the tuple it became; nothing was parsed twice.
        assert sum(type(row) is dict and row.keys() == ROW.keys() for row in packed) == 45


def canonical_corpus(tmp_path):
    """Records by name: Haar and pm torus grids, a time grid with a field
    override, a profile-only record, two cut to one and two rows, and each
    of the first four read back from run's layout and from a compact
    re-dump."""
    haar = {**dense_config(), "grid": {"theta_steps": 7, "phi_steps": 6}}
    pm = make_record()
    rows = pm.results["evolved_states"]
    records = {
        "haar": run_scenario(config_from_dict(haar), seed=4),
        "pm": pm,
        "time": make_record(
            grid={"time": {"t0": -1.0, "t1": 3.0, "steps": 13}, "field_override": -2.5}
        ),
        "profile_only": make_record(outputs=["metric", "concurrence_profile"]),
    }
    for name, record in list(records.items()):
        run_layout, compact = tmp_path / f"{name}.json", tmp_path / f"{name}.compact.json"
        export_record(record, "json", str(run_layout))
        compact.write_text(json.dumps(json.loads(run_layout.read_text()), separators=(",", ":")))
        records[f"{name}_read"] = read_record(str(run_layout))
        records[f"{name}_compact_read"] = read_record(str(compact))
    records["pm_one_row"] = with_results(pm, evolved_states=rows[:1])
    records["pm_two_rows"] = with_results(pm, evolved_states=rows[:2])
    return records


def with_row_value(record, index, value):
    rows = record.results["evolved_states"].copy()
    rows[index] = value
    return with_results(record, evolved_states=rows)


class TestCanonicalBytes:
    """``canonical_result_bytes`` against the compact JSON text of the
    reference route, which it replaced as the form results compare by."""

    def test_equal_exactly_when_the_compact_text_is_equal(self, tmp_path):
        records = canonical_corpus(tmp_path)
        old = {name: compact_result_text(record) for name, record in records.items()}
        new = {name: canonical_result_bytes(record) for name, record in records.items()}
        equal_pairs = 0
        for one in records:
            for two in records:
                assert (old[one] == old[two]) == (new[one] == new[two]), (one, two)
                equal_pairs += one < two and old[one] == old[two]
        # Each of the four runs equals its two read-backs, and nothing else.
        assert equal_pairs == 4 * 3

    def test_one_ulp_changes_the_bytes(self):
        record = make_record()
        value = record.results["evolved_states"][3, 4]
        moved = with_row_value(record, (3, 4), np.nextafter(value, np.inf))
        assert compact_result_text(moved) != compact_result_text(record)
        assert canonical_result_bytes(moved) != canonical_result_bytes(record)

    def test_negative_zero_changes_the_bytes(self):
        record = make_record()
        assert record.results["evolved_states"][0, 1] == 0.0  # phi at the first point
        signed = with_row_value(record, (0, 1), -0.0)
        assert compact_result_text(signed) != compact_result_text(record)
        assert canonical_result_bytes(signed) != canonical_result_bytes(record)

    def test_creation_time_stays_out(self):
        record = make_record()
        later = dataclasses.replace(
            record, provenance={**record.provenance, "created_utc": "2001-02-03T04:05:06+00:00"}
        )
        assert canonical_result_bytes(later) == canonical_result_bytes(record)

    def test_head_then_the_rows_little_endian(self):
        """The compact JSON with each float block as [], then per block in
        text order, samples before rows, its row count and its bits, each
        little-endian."""
        record = make_record()
        blocks = record.results["concurrence_profile"]["samples"], record.results["evolved_states"]
        canonical = canonical_result_bytes(record)
        tail = b"".join(len(rows).to_bytes(8, "little") + rows.astype("<f8").tobytes()
                        for rows in blocks)
        assert canonical.endswith(tail)
        expected = json.loads(compact_result_text(record))
        expected["results"]["concurrence_profile"]["samples"] = []
        expected["results"]["evolved_states"] = []
        assert json.loads(canonical[: -len(tail)]) == expected

    def test_the_counts_keep_the_blocks_apart(self):
        """11 samples and 2 rows, and 22 samples that hold the same 44
        values followed by no row, have one head and one run of float bits;
        only the row counts tell the two records apart."""
        grid = {"theta_steps": 11, "phi_steps": 2}
        body = json.loads(record_to_json(make_record(grid=grid)))
        results = body["results"]
        results["evolved_states"] = results["evolved_states"][:2]
        one = record_from_dict(body)
        values = [*one.results["concurrence_profile"]["samples"].ravel().tolist(),
                  *one.results["evolved_states"].ravel().tolist()]
        results["concurrence_profile"]["samples"] = [values[i : i + 2] for i in range(0, 44, 2)]
        results["evolved_states"] = []
        two = record_from_dict(body)
        assert len(two.results["concurrence_profile"]["samples"]) == 22
        assert len(two.results["evolved_states"]) == 0
        ones, twos = canonical_result_bytes(one), canonical_result_bytes(two)
        assert len(ones) == len(twos) and ones != twos


class TestHeldMemory:
    """Memory a dense grid's rows hold, traced by tracemalloc, which counts
    every Python allocation and so gives the same figure on every run."""

    #: Bytes a grid point's row needs: 11 float64 values.
    ROW_BYTES = 8 * len(CSV_COLUMNS)

    def grid_config(self):
        return {**dense_config(), "grid": {"theta_steps": 100, "phi_steps": 100}}

    def test_run_holds_few_bytes_per_point(self):
        config = config_from_dict({**self.grid_config(), "outputs": ["evolved_states"]})
        record, held, _ = traced_peak(lambda: run_scenario(config, seed=4))
        assert len(record.results["evolved_states"]) == 100 * 100
        assert held / (100 * 100) <= 100

    def test_canonical_bytes_peak_near_the_rows(self):
        """At its peak, ``canonical_result_bytes`` holds at most twice the
        bytes the rows need: the bytes it returns, and no row objects."""
        config = config_from_dict({**self.grid_config(), "outputs": ["evolved_states"]})
        record = run_scenario(config, seed=4)
        canonical, _, peak = traced_peak(lambda: canonical_result_bytes(record))
        assert len(canonical) > 100 * 100 * self.ROW_BYTES
        assert peak / (100 * 100) <= 2 * self.ROW_BYTES

    #: Samples in a long profile's time grid, and the bytes each needs:
    #: theta and C, two float64 values.
    SAMPLES = 10**5
    SAMPLE_BYTES = 16

    def profile_record(self):
        grid = {"time": {"t0": 0.0, "t1": 50.0, "steps": self.SAMPLES}}
        config = make_config(grid=grid, outputs=["concurrence_profile"])
        return run_scenario(config_from_dict(config))

    def test_profile_run_holds_few_bytes_per_sample(self):
        record, held, _ = traced_peak(self.profile_record)
        assert len(record.results["concurrence_profile"]["samples"]) == self.SAMPLES
        assert held / self.SAMPLES <= 2 * self.SAMPLE_BYTES

    def test_profile_run_peaks_near_the_samples(self):
        """At its peak, a long profile's run holds at most four times the
        bytes the samples need: arrays, and no Python float per sample."""
        _, _, peak = traced_peak(self.profile_record)
        assert peak / self.SAMPLES <= 4 * self.SAMPLE_BYTES

    def test_profile_csv_export_peaks_near_its_rows(self, tmp_path):
        """At its peak, the CSV export of a long profile-only record holds at
        most twice the bytes its rows would need, as a grid's export does:
        the states are evolved in blocks, not into one array of rows."""
        record = self.profile_record()
        _, _, peak = traced_peak(lambda: export_record(record, "csv", str(tmp_path / "profile.csv")))
        assert (tmp_path / "profile.csv").read_text().count("\n") == 1 + self.SAMPLES
        assert peak / self.SAMPLES <= 2 * self.ROW_BYTES

    @pytest.mark.parametrize("write", ["json_export", "canonical_bytes"])
    def test_profile_writes_peak_near_the_samples(self, write, tmp_path):
        """At its peak, a JSON export of a long profile, or its canonical
        bytes, holds at most twice the bytes the samples need."""
        record = self.profile_record()
        path = tmp_path / "profile.json"
        calls = {
            "json_export": lambda: export_record(record, "json", str(path)),
            "canonical_bytes": lambda: canonical_result_bytes(record),
        }
        _, _, peak = traced_peak(calls[write])
        assert peak / self.SAMPLES <= 2 * self.SAMPLE_BYTES

    def test_run_and_read_peak_near_the_rows(self, tmp_path):
        """At its peak, ``run_scenario`` and ``read_record`` each hold at
        most twice the bytes the rows need."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        parsed = config_from_dict(self.grid_config())
        for call in (lambda: run_scenario(parsed, seed=4), lambda: read_record(str(path))):
            record, _, peak = traced_peak(call)
            assert len(record.results["evolved_states"]) == 100 * 100
            assert peak / (100 * 100) <= 2 * self.ROW_BYTES

    def test_read_peaks_near_the_rows(self, tmp_path):
        """While ``read_record`` reads a record it holds at most a quarter of
        the file beside what the record it returns holds: never the text."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        record, held, peak = traced_peak(lambda: read_record(str(path)))
        assert len(record.results["evolved_states"]) == 100 * 100
        assert peak < held + path.stat().st_size // 4

    def test_a_read_reads_each_byte_about_once(self, tmp_path, monkeypatch):
        """Finding each range's edges reads a little beyond the range, not
        another range's worth: a 200 x 200 read, in-process, preads at most
        1.1 times the file."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.large_grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        read, real = [], os.pread

        def counting(fd, size, at):
            data = real(fd, size, at)
            read.append(len(data))
            return data

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(os, "pread", counting)
        record = read_record(str(path))
        assert len(record.results["evolved_states"]) == self.POINTS
        assert sum(read) <= 1.1 * path.stat().st_size

    def test_a_read_finds_each_range_edge_once(self, tmp_path, monkeypatch):
        """Each range of a 200 x 200 read, in-process, costs at most two
        preads, one to find its end and one to read it, beside a few for
        the line end, the list's close and the text after it."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.large_grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        preads, ranges = [], []
        real_pread, real_rows = os.pread, scenario._range_rows

        def counting(fd, size, at):
            preads.append(size)
            return real_pread(fd, size, at)

        def recording(*args):
            ranges.append(real_rows(*args))
            return ranges[-1]

        with_cpus(monkeypatch, 0)
        monkeypatch.setattr(os, "pread", counting)
        monkeypatch.setattr(scenario, "_range_rows", recording)
        record = read_record(str(path))
        assert len(record.results["evolved_states"]) == self.POINTS
        assert len(ranges) > 100 and None not in ranges
        assert len(preads) <= 2 * len(ranges) + 4

    def test_export_read_holds_less_than_the_file(self, tmp_path, monkeypatch):
        """What ``spin-torus export`` holds once it has read the record, at
        the moment it starts to write: no text, no tree of row objects."""
        config, record = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(record)]) == 0
        held = []
        monkeypatch.setattr(
            cli, "export_record", lambda *args: held.append(tracemalloc.get_traced_memory()[0])
        )
        argv = ["export", str(record), "--format", "csv", "--out", str(tmp_path / "grid.csv")]
        assert traced_peak(lambda: cli.main(argv))[0] == 0
        assert len(held) == 1
        assert held[0] <= record.stat().st_size

    #: Points of the grid the next tests run, export and read, and the bytes
    #: of one ``BLOCK`` of its rows, the most any step of them should hold
    #: beyond the rows.
    POINTS = 200 * 200
    BLOCK_BYTES = BLOCK * ROW_BYTES

    def large_grid_config(self):
        return {**dense_config(), "grid": {"theta_steps": 200, "phi_steps": 200}}

    def test_run_peaks_at_the_rows_and_one_block(self):
        """At its peak, ``run_scenario`` holds the rows it returns and less
        than one block of rows beside: the concurrence column is filled a
        block at a time, not over the whole grid at once."""
        config = config_from_dict(self.large_grid_config())
        record, _, peak = traced_peak(lambda: run_scenario(config, seed=4))
        assert len(record.results["evolved_states"]) == self.POINTS
        assert peak <= self.POINTS * self.ROW_BYTES + self.BLOCK_BYTES

    def test_forked_json_export_peaks_below_one_block(self, tmp_path, monkeypatch):
        """While forked workers format a dense record's JSON, the writing
        process holds, beside what it held before, less than one block of
        rows: each block's text comes in pieces, never whole, though a
        block's text is ~6 times the bytes of its rows."""
        record = run_scenario(config_from_dict(self.large_grid_config()), seed=4)
        path = tmp_path / "grid.record.json"
        with_cpus(monkeypatch, 2)
        export_record(record, "json", str(path))  # imports what forking needs, untraced
        _, _, peak = traced_peak(lambda: export_record(record, "json", str(path)))
        assert path.stat().st_size > self.POINTS * 5 * self.ROW_BYTES
        assert peak <= self.BLOCK_BYTES

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_cpu_export_peaks_below_one_block(self, fmt, tmp_path, monkeypatch):
        """With one CPU, one forked worker formats every block, so the
        writing process holds, beside what it held before, less than one
        block of rows, as it does with more CPUs; made in-process, the JSON
        text of one block alone is ~6 times that."""
        record = run_scenario(config_from_dict(self.large_grid_config()), seed=4)
        path = tmp_path / f"grid.{fmt}"
        with_cpus(monkeypatch, 1)
        export_record(record, fmt, str(path))  # imports what forking needs, untraced
        _, _, peak = traced_peak(lambda: export_record(record, fmt, str(path)))
        assert path.stat().st_size > self.POINTS * 2 * self.ROW_BYTES
        assert peak <= self.BLOCK_BYTES

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_in_process_export_peaks_near_the_rows(self, fmt, tmp_path, monkeypatch):
        """Without ``sched_getaffinity``, an export makes each block's text
        in-process, beside the cache of reprs that lives for the whole
        write: at its peak it holds at most twice the bytes the rows need,
        so the cache stays far below its bound of ``_CACHED_REPRS`` reprs."""
        record = run_scenario(config_from_dict(self.large_grid_config()), seed=4)
        path = tmp_path / f"grid.{fmt}"
        with_cpus(monkeypatch, 0)
        _, _, peak = traced_peak(lambda: export_record(record, fmt, str(path)))
        assert path.stat().st_size > self.POINTS * 2 * self.ROW_BYTES
        assert peak / self.POINTS <= 2 * self.ROW_BYTES

    @pytest.mark.parametrize("cpus", [0, 1, 2])
    def test_forked_read_peaks_at_the_rows_and_one_block(self, cpus, tmp_path, monkeypatch):
        """At its peak, ``read_record``, in-process or with forked workers,
        holds beside the record it returns less than one block of rows: one
        range's text and rows, or one piece of a worker's rows, and no mask
        over the whole grid checks the rows' finiteness."""
        config, path = tmp_path / "grid.json", tmp_path / "grid.record.json"
        config.write_text(json.dumps(self.large_grid_config()), encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(path)]) == 0
        with_cpus(monkeypatch, cpus)
        record, held, peak = traced_peak(lambda: read_record(str(path)))
        assert len(record.results["evolved_states"]) == self.POINTS
        assert peak <= held + self.BLOCK_BYTES


def reference_schema_message(data):
    """The message config_from_dict gave when it called jsonschema.validate."""
    try:
        jsonschema.validate(instance=data, schema=SCENARIO_SCHEMA)
    except jsonschema.ValidationError as error:
        path = ".".join(str(part) for part in error.absolute_path) or "<root>"
        return f"{path}: {error.message}"
    return None


def invalid_configs():
    yield make_config(bogus=1)
    yield make_config(outputs=[])
    yield make_config(outputs=["metric", "metric"])
    yield make_config(outputs=["curvature"])
    yield make_config(grid={"theta_steps": 1, "phi_steps": 5})
    yield make_config(grid={"theta_steps": "nine", "phi_steps": 5})
    yield make_config(grid={"theta_steps": 4, "time": {"t0": 0.0, "t1": 1.0, "steps": 3}})
    yield make_config(grid={"time": {"t0": 0.0, "steps": 3}})
    yield make_config(params={"coupling": 1.0, "field": 0.5, "gamma": 0.0})
    yield make_config(params={"coupling": True, "field": 0.5})
    yield make_config(initial={"product_state": {"kind": "zz", "chi": 0.1}})
    yield make_config(initial={"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    yield make_config(initial={"amplitudes": [[1.0, 0.0]] * 3 + [[0.0]]})
    yield make_config(initial={})
    data = make_config()
    del data["grid"]
    yield data
    yield []


class TestSchemaMessages:
    def test_embedded_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("data", list(invalid_configs()))
    def test_messages_unchanged(self, data):
        expected = reference_schema_message(data)
        assert expected is not None
        with pytest.raises(ConfigInvalid) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == expected
