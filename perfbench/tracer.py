"""Span tracer for the package's public functions, installed from outside.

Each traced name is wrapped in every ``spin_torus`` module namespace that
binds it, so calls made inside the package (``manifold.evolve_family``
called from ``scenario``) are seen as well as calls from the benchmark.
A traced class is timed through its ``__init__``, which covers the
constructor's validation guard.  Spans live in flat arrays in memory, with
the index of the enclosing span, until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: (module, attribute, extra counter) for every traced public name.  The
#: extra counter, when present, is a byte count taken from the call.
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("cli", "main", None),
    ("scenario", "config_from_dict", None),
    ("scenario", "run_scenario", None),
    ("scenario", "record_to_json", "bytes"),
    ("scenario", "record_from_dict", None),
    ("scenario", "export_record", "bytes"),
    ("qstate", "PureState2Q", None),
    ("qstate", "fs_distance_sq", None),
    ("hamiltonian", "eigensystem", None),
    ("hamiltonian", "propagator_analytic", None),
    ("hamiltonian", "propagator_factored", None),
    ("hamiltonian", "propagator_spectral", None),
    ("manifold", "evolve_family", None),
    ("manifold", "metric_numeric", None),
    ("manifold", "classify", None),
    ("entanglement", "concurrence", None),
    ("entanglement", "concurrence_profile", None),
    ("entanglement", "max_entanglement_time", None),
    ("entanglement", "concurrence_wootters_oracle", None),
    ("verify", "verify_all", None),
)

#: Names whose self time (busy time minus traced children) is reported.
SELF_TIME = frozenset(
    {
        "cli.main",
        "scenario.run_scenario",
        "manifold.classify",
        "entanglement.concurrence_profile",
        "verify.verify_all",
    }
)


def _written_bytes(args: tuple, kwargs: dict, result: object) -> int:
    """Bytes written by ``export_record(record, format, path)``, counting
    the ``.meta.csv`` sidecar a CSV export may add."""
    path = kwargs["path"] if "path" in kwargs else args[2]
    total = os.path.getsize(path)
    sidecar = f"{path}.meta.csv"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _returned_length(args: tuple, kwargs: dict, result: object) -> int:
    """Length of the serialized record, which is ASCII JSON."""
    return len(result)  # type: ignore[arg-type]


_BYTE_COUNTERS = {
    "scenario.record_to_json": _returned_length,
    "scenario.export_record": _written_bytes,
}


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "spin_torus" or name.startswith("spin_torus."))
    ]


class Tracer:
    """Wraps the traced names on :meth:`install`, restores them on
    :meth:`uninstall`, and keeps every span until :meth:`summary`."""

    def __init__(self) -> None:
        self.names = [f"{module}.{attr}" for module, attr, _ in TARGETS]
        self.absent: list[str] = []
        self.extra = {name: 0 for name in _BYTE_COUNTERS}
        self.fn = array("h")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._depth = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("spin_torus.cli")
        modules = _package_modules()
        for index, (module_name, attr, _) in enumerate(TARGETS):
            home = importlib.import_module(f"spin_torus.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(self.names[index])
                continue
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", init, self._wrap(index, init))
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, then prove it is back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        for owner, name, original in self._patches:
            current = vars(owner)[name]
            if current is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        self._patches.clear()

    def _wrap(self, index: int, original):
        fn, parent, outermost = self.fn, self.parent, self.outermost
        start, end, open_spans, depth = self.start, self.end, self._open, self._depth
        counter = _BYTE_COUNTERS.get(self.names[index])
        extra, key = self.extra, self.names[index]
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(start)
            fn.append(index)
            parent.append(open_spans[-1] if open_spans else -1)
            outermost.append(depth[index] == 0)
            end.append(0.0)
            depth[index] += 1
            open_spans.append(span)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()
                depth[index] -= 1
            if counter is not None:
                extra[key] += counter(args, kwargs, result)
            return result

        return traced

    # --- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy_s (inclusive, nested calls of the
        same name counted once) and self_s (busy minus traced children)."""
        count = len(self.names)
        fn = np.frombuffer(self.fn, dtype=np.int16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        calls = np.bincount(fn, minlength=count)
        busy = np.bincount(fn[outer], weights=duration[outer], minlength=count)
        own = np.bincount(fn, weights=duration - children, minlength=count)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span (name index, parent span, start, end) to ``path``."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
