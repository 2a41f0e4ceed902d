"""Span tracer that wraps the library's public functions from outside.

`Tracer.install` replaces every public function of the layer modules with a
recording wrapper in every namespace of the package that holds it (modules
bind each other's functions by name, and `cli.DISPATCH` holds the `cmd_*`
functions in a dict), and `uninstall` puts the originals back. Spans are kept
in flat arrays in memory: bucket, parent span, start, end, k-points and
whether the call ended in a typed guard error. Nothing is added inside the
library, and nothing runs while the tracer is not installed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from floquet_dqpt.errors import NumericalGuardError

LAYER_MODULES = ("model", "dynamics", "dqpt", "geometry", "topology",
                 "lattice", "cli")

# The two halves of `dynamics` are kept apart on purpose, so they are two
# layers; every other public function of the module is the analytic half.
ORACLE_FUNCTIONS = {"propagator_oracle", "reunitarize"}

CLI_CONFIG = {"main", "make_parser", "build_config", "load_config_file"}
CLI_WRITE = {"write_dataset"}
# Called once per output cell: its cost is part of `write_dataset`'s self
# time, and cell counts come from the outputs instead.
NOT_TRACED = {"fmt_num"}

# Arguments that give the number of k samples a call evaluates.
K_SIZE_ARGS = ("k", "k_grid")
K_COUNT_ARGS = ("k_grid_size", "n_points")

BENCH_BUCKETS = ("bench.pass", "bench.op")


def bucket_of(module: str, name: str) -> str:
    if module == "dynamics":
        return ("dynamics.oracle" if name in ORACLE_FUNCTIONS
                else "dynamics.analytic")
    if module == "cli":
        if name in CLI_CONFIG:
            return "cli.config"
        return "cli.write" if name in CLI_WRITE else "cli.compute"
    return module


def _k_counter(fn):
    """Return f(args, kwargs) -> k samples of one call of `fn`."""
    params = inspect.signature(fn).parameters
    names = list(params)
    for arg in K_SIZE_ARGS + K_COUNT_ARGS:
        if arg not in params:
            continue
        pos, default = names.index(arg), params[arg].default
        if default is inspect.Parameter.empty:
            default = 0
        measure = np.size if arg in K_SIZE_ARGS else int

        def count(args, kwargs, pos=pos, arg=arg, default=default,
                  measure=measure):
            return measure(args[pos] if len(args) > pos
                           else kwargs.get(arg, default))
        return count
    return lambda args, kwargs: 0


class Tracer:
    def __init__(self):
        self.buckets = list(BENCH_BUCKETS)
        self.bucket = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kpoints = array("q")
        self.guard = array("b")
        self._stack = [-1]
        self._patched = []

    def _open(self, bucket: int, kpoints: int) -> int:
        idx = len(self.bucket)
        self.bucket.append(bucket)
        self.parent.append(self._stack[-1])
        self.kpoints.append(kpoints)
        self.guard.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, bucket: str):
        """Root span recorded by the benchmark itself (a pass or an op)."""
        idx = self._open(self.buckets.index(bucket), 0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, bucket: int):
        count = _k_counter(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(bucket, count(args, kwargs))
            try:
                return fn(*args, **kwargs)
            except NumericalGuardError:
                self.guard[idx] = 1
                raise
            finally:
                self._close(idx)
        return traced

    def install(self, package: str = "floquet_dqpt"):
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in NOT_TRACED):
                    bucket = bucket_of(short, name)
                    if bucket not in self.buckets:
                        self.buckets.append(bucket)
                    wrappers[obj] = self._wrap(obj,
                                               self.buckets.index(bucket))
        namespaces = [m for n, m in sys.modules.items()
                      if n == package or n.startswith(package + ".")]
        for mod in namespaces:
            for holder in [vars(mod)] + [v for v in vars(mod).values()
                                         if isinstance(v, dict)]:
                for key, value in list(holder.items()):
                    if callable(value) and value in wrappers:
                        self._patched.append((holder, key, value))
                        holder[key] = wrappers[value]

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            holder[key] = original
        self._patched.clear()

    def arrays(self) -> dict:
        return {"buckets": np.array(self.buckets),
                "bucket": np.frombuffer(self.bucket, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "kpoints": np.frombuffer(self.kpoints, dtype=np.int64),
                "guard": np.frombuffer(self.guard, dtype=np.int8)}

    def per_pass(self) -> list:
        """Per traced pass: {bucket: (calls, self_s, kpoints, guards)}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        passes = np.flatnonzero(a["bucket"] == 0)
        bounds = list(passes) + [len(dur)]
        out = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = a["bucket"][lo:hi]
            stats = {}
            for i, name in enumerate(self.buckets):
                sel = b == i
                stats[name] = (int(sel.sum()), float(own[lo:hi][sel].sum()),
                               int(a["kpoints"][lo:hi][sel].sum()),
                               int(a["guard"][lo:hi][sel].sum()))
            out.append(stats)
        return out
