"""The README's "Library use" block is the one document that shows the
public API: it must import only what ``spin_torus.__all__`` exports, run
as written, and give the value each of its comments annotates."""

import ast
import math
import re
from pathlib import Path

import pytest

import spin_torus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def annotated_lines(block):
    """Each annotated line of the block as (code, annotation)."""
    return [
        tuple(part.strip() for part in line.split("#", 1))
        for line in block.splitlines()
        if "#" in line
    ]


def test_imports_only_exported_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "spin_torus"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(spin_torus.__all__)


def test_runs_and_gives_the_annotated_values():
    block = library_block()
    namespace = {}
    exec(block, namespace)
    annotated = annotated_lines(block)
    assert [note for _, note in annotated] == [
        "0.99957...",
        "g_tt=1.0, g_tp=0.0, g_pp=0.375",
        "(pi/8, 1.0)",
        '"flat_torus"',
        "(1000, 4): Haar states, one per row",
    ]
    concurrence, metric, peak, kind, shape = (eval(code, namespace) for code, _ in annotated)
    assert repr(concurrence).startswith("0.99957")
    assert (metric.g_theta_theta, metric.g_theta_phi) == (1.0, 0.0)
    assert metric.g_phi_phi == pytest.approx(0.375, abs=1e-15)
    assert peak == pytest.approx((math.pi / 8, 1.0), abs=1e-15)
    assert kind == "flat_torus"
    assert shape == (1000, 4)
