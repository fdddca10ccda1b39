"""Span tracing of `cdwring` from outside the package.

`Tracer` replaces each public function of the traced modules with a
wrapper that records one span per call: (name, start, end, parent,
command).  The wrapper is bound under every name that any `cdwring` module
namespace uses for the function, so calls through `from .x import f` are
caught as well as calls through `x.f`.  `restore` puts the originals back.

Spans are kept in flat arrays in memory and written out with `save` when
the run ends.  Self time is a span's duration minus the durations of its
direct children; total time is the sum of a function's span durations (no
traced function calls itself, directly or through another).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "cdwring"
# every public function of these modules is wrapped
LAYERS = ("specfun", "bath", "dynamics", "decoherence", "ring", "oracle")
# cli is entered through main only; its self time is config, grid,
# formatting and file writing
CLI_ENTRY = ("cli", "main")


def traced_functions() -> dict[str, object]:
    """Map "module.function" to the function object, for every traced name."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                found[f"{layer}.{attr}"] = value
    layer, attr = CLI_ENTRY
    found[f"{layer}.{attr}"] = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
    return found


def bindings() -> dict[tuple[str, str], object]:
    """Every (module, attribute) -> function binding in the package's modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(name, attr)] = value
    return out


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.functions = traced_functions()
        self.names = list(self.functions)
        self.name_id = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        # index of the command whose spans are being recorded (-1: none)
        self.current_command = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int):
        stack = self._stack
        name_id, parent, command = self.name_id, self.parent, self.command
        start, end = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(fn, nid))
                    for nid, fn in enumerate(self.functions.values())}
        for (modname, attr), value in bindings().items():
            fn, wrapper = wrappers.get(id(value), (None, None))
            if fn is value:
                mod = sys.modules[modname]
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (times in seconds, perf_counter clock)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "command": np.frombuffer(self.command, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, commands: set[int] | None = None) -> dict[str, dict]:
        """Per function: calls, self_s and total_s, over spans of ``commands``
        (all spans when None)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        keep = np.ones(dur.size, dtype=bool)
        if commands is not None:
            keep = np.isin(a["command"], sorted(commands))
        n = len(self.names)
        ids = a["name_id"][keep]
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self_time[keep], minlength=n)
        total_s = np.bincount(ids, weights=dur[keep], minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
