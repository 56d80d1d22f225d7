"""Spans around singmod's public functions, installed from outside the package.

A `Tracer` wraps every public function and every public or arithmetic method
of every singmod layer module.  Inside ``with tracer:`` each wrapped callable
is rebound wherever the package holds a reference to it: in its defining
module, in each module that imported it by name (`modulus` does
``from .surd import exact_sqrt``) and in the package root's re-exports; on
exit the originals are restored.  Spans are kept in flat arrays in memory and
reduced or written out after the run; nothing is written while timing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("arith", "qforms", "pell", "surd", "weber", "modulus", "highprec", "cli")

# Operator methods that carry the field arithmetic; other dunders (hashing,
# equality, construction, rendering) stay unwrapped.
_ARITH_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
}


class Tracer:
    """Records one span per call of a wrapped callable while patched in."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self.current = -1
        self.fn = array("i")
        self.op_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._patches = self._plan()

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, label: str, fn):
        fid = len(self.names)
        self.names.append(label)
        tracer = self
        fn_a, op_a, par_a = self.fn.append, self.op_of.append, self.parent.append
        st_a, en_a, fl_a = self.start.append, self.end.append, self.failed.append
        start, end, failed = self.start, self.end, self.failed
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            fn_a(fid)
            op_a(tracer.op)
            par_a(tracer.current)
            en_a(0.0)
            fl_a(0)
            outer, tracer.current = tracer.current, idx
            st_a(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                tracer.current = outer

        return functools.wraps(fn)(wrapper)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every reference to rebind.

        A function is labelled ``<layer>.<name>``, a method by its qualified
        name, ``<layer>.<Class>.<method>``, with an operator's underscores
        stripped: ``SurdElement.__mul__`` is ``surd.SurdElement.mul``.
        """
        root = importlib.import_module("singmod")
        modules = {layer: importlib.import_module(f"singmod.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        patches = []
        for layer, mod in modules.items():
            members = list(vars(mod).items())
            for name, obj in members:
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cname, cls in members:
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for name, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if name.startswith("_") and name not in _ARITH_DUNDERS:
                        continue
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(f"{layer}.{cname}.{name.strip('_')}", obj)
                    patches.append((cls, name, obj, wrapped[id(obj)]))
        for mod in (root, *modules.values()):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    patches.append((mod, name, obj, wrapped[id(obj)]))
        return patches

    # -- reduction -------------------------------------------------------

    def function_stats(self) -> dict[str, dict[str, float]]:
        """Per wrapped callable: calls, failures, total and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "failures": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        # total_s counts only the outermost span of a recursive chain, so
        # nested calls of the same function are not counted twice.
        for i in range(n):
            s = stats[self.names[self.fn[i]]]
            s["calls"] += 1
            s["failures"] += self.failed[i]
            s["self_s"] += dur[i] - child[i]
            if not self._has_ancestor(i, self.fn[i]):
                s["total_s"] += dur[i]
        return stats

    def _has_ancestor(self, i: int, fid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.fn[p] == fid:
                return True
            p = self.parent[p]
        return False

    def root_time(self) -> float:
        """Seconds covered by spans with no parent span."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path) -> None:
        """All spans as gzipped TSV: span, op, parent, function, start, end, failed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tfunction\tstart_s\tend_s\tfailed\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.op_of[i]}\t{self.parent[i]}\t{self.names[self.fn[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.failed[i]}\n"
                )
