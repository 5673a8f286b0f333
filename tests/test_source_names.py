"""No leftovers in the package source: a module-level private name, an
UPPER_CASE constant or an import that nothing reads is dead code, usually
what a refactor left behind."""

import ast
from pathlib import Path

import pytest

import spin_torus

SOURCES = sorted(Path(spin_torus.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bound_names(tree):
    """The module-level private names and UPPER_CASE constants a module
    defines and every name its imports bind, other than those of
    ``__future__``, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if is_private(node.name):
                yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and (is_private(name.id) or name.id.isupper()):
                        yield name.id, node.lineno


def unread_names(stem, trees):
    """The names ``bound_names`` finds in module ``stem`` that nothing
    reads: not the module itself, nor its ``__all__``, nor another module
    that imports the name from it or reads it as an attribute."""
    read = set()
    for node in ast.walk(trees[stem]):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for other, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (
                isinstance(node, ast.ImportFrom)
                and other != stem
                and (node.module or "").split(".")[-1] == stem
            ):
                read.update(alias.name for alias in node.names)
    return [f"{name} (line {line})" for name, line in bound_names(trees[stem]) if name not in read]


@pytest.mark.parametrize("stem", list(TREES))
def test_every_private_name_and_import_is_read(stem):
    unread = unread_names(stem, TREES)
    assert not unread, f"{stem}.py binds names nothing reads: {', '.join(unread)}"


def test_the_guard_finds_leftovers():
    module = """
from __future__ import annotations
import json, math as m
from collections.abc import Iterable, Iterator
_INDENT = "  "
_A, (_B, _C) = 1, (2, 3)
_SHARED = 4
def _helper(pieces: Iterator[str]) -> None:
    return _A + _B + LIMIT
def _unused():
    pass
class _Kept:
    pass
__all__ = ["_Kept"]
LIMIT = 5
LABELS: tuple = ("up", "down")
TOL, SCALE = 1e-9, 2.0
EXPORTED = 1
Public = 2
"""
    trees = {
        "mod": ast.parse(module),
        "other": ast.parse(
            "from .mod import _helper, EXPORTED\nimport mod\nprint(_helper, EXPORTED, mod._SHARED, mod.TOL)\n"
        ),
    }
    assert unread_names("mod", trees) == [
        "json (line 3)", "m (line 3)", "Iterable (line 4)", "_INDENT (line 5)",
        "_C (line 6)", "_unused (line 10)", "LABELS (line 16)", "SCALE (line 17)",
    ]
    assert unread_names("other", trees) == []
