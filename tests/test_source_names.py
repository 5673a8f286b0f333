"""No leftovers in the package source: a module-level private name, an
UPPER_CASE constant or an import that nothing reads is dead code, usually
what a refactor left behind.  So is a public function or class that the
package neither reads nor exports in ``__all__``, and a method or property
that it never reads as an attribute, unless the docstring of its exported
class names it as API: a name only the tests call is a knob for the tests,
not part of the package."""

import ast
import re
from pathlib import Path

import pytest

import spin_torus

SOURCES = sorted(Path(spin_torus.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def is_private(name):
    return name.startswith("_") and not is_dunder(name)


def bound_names(tree):
    """The names a module binds that something must read, each with its
    line and the class it is a member of (None at module level): every
    module-level function and class, the non-dunder methods and properties
    of each such class, the module-level private names and UPPER_CASE
    constants, and every name its imports bind, other than those of
    ``__future__``."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, None
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not is_dunder(member.name):
                        yield member.name, member.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and (is_private(name.id) or name.id.isupper()):
                        yield name.id, node.lineno, None


def exported_names(tree):
    """The names a module lists in its ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.literal_eval(node.value)


def unread_names(stem, trees):
    """The names ``bound_names`` finds in module ``stem`` that nothing
    reads.  A method or property is read as an attribute, in any module,
    or by the docstring of its class, when some module's ``__all__``
    exports the class and the docstring names it as ``:meth:`name```.  Any
    other name is read by the module itself, by its ``__all__``, or by
    another module that imports it from ``stem`` or reads it as an
    attribute."""
    attributes = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    exported = {name for tree in trees.values() for name in exported_names(tree)}
    documented = {
        node.name: set(re.findall(r":meth:`(\w+)`", ast.get_docstring(node) or ""))
        for node in trees[stem].body
        if isinstance(node, ast.ClassDef) and node.name in exported
    }
    read = set(attributes) | set(exported_names(trees[stem]))
    for node in ast.walk(trees[stem]):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for other, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and other != stem
                and (node.module or "").split(".")[-1] == stem
            ):
                read.update(alias.name for alias in node.names)
    return [
        f"{owner + '.' if owner else ''}{name} (line {line})"
        for name, line, owner in bound_names(trees[stem])
        if name not in (attributes | documented.get(owner, set()) if owner else read)
    ]


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
__all__ = ["_Kept", "exported_function", "Shape"]
LIMIT = 5
LABELS: tuple = ("up", "down")
TOL, SCALE = 1e-9, 2.0
EXPORTED = 1
Public = 2
def exported_function():
    return Value(Public).total()
def test_only_function():
    pass
class Value:
    'Not exported, so :meth:`zero` does not make it API.'
    def __init__(self, x):
        self.x = x
    def total(self):
        return self.x
    @property
    def doubled(self):
        return 2 * self.x
    @classmethod
    def zero(cls):
        return cls(0)
    def _scaled(self):
        return self.x
class TestOnlyError(ValueError):
    pass
class Shape:
    'Exported; build the unit shape with :meth:`unit`.'
    @classmethod
    def unit(cls):
        return cls()
    def scale(self):
        return self
"""
    trees = {
        "mod": ast.parse(module),
        "other": ast.parse(
            "from .mod import _helper, EXPORTED\nimport mod\n"
            "print(_helper, EXPORTED, mod._SHARED, mod.TOL, mod.Value(1)._scaled)\n"
        ),
    }
    assert unread_names("mod", trees) == [
        "json (line 3)", "m (line 3)", "Iterable (line 4)", "_INDENT (line 5)",
        "_C (line 6)", "_unused (line 10)", "LABELS (line 16)", "SCALE (line 17)",
        "test_only_function (line 22)", "Value.doubled (line 31)", "Value.zero (line 34)",
        "TestOnlyError (line 38)", "Shape.scale (line 45)",
    ]
    assert unread_names("other", trees) == []
