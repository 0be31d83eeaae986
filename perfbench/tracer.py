"""Outside-in tracer for the benchmark's per-layer metrics.

The tracer never edits the package.  It replaces each target function with
a timing wrapper in *every* package module that binds it: ``verify`` binds
``count_roots_scan`` through ``from .stationary import ...``, ``cli`` binds
most public names, and a module's own functions look their helpers up in
the module globals, so patching only the defining module would miss calls.

Spans (name, parent, start, end) are kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children; the benchmark opens one root span per
timed request, so the self times of all spans sum to the traced request
time.
The wrapper's own cost lands in the self time of the function it wraps
(inside the span) or of its parent (outside it).
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "dsbs_envelopes"
ROOT_SPAN = "bench.op"

# Benchmark layer name -> package module.
LAYERS = {
    "binary": "binary",
    "mre": "mre",
    "envelopes": "envelopes",
    "hulls": "hulls",
    "stationary": "stationary",
    "verify": "verify",
    "cli": "cli",
    "svg": "_svg",
    "optim": "_optim",
}


def _shape(x) -> tuple:
    # np.shape would build an array from a Python scalar, at ~3 us per call.
    return () if isinstance(x, (float, int)) else np.shape(x)


def _size(x) -> int:
    return math.prod(_shape(x))


def _first(args, kwargs):
    return _size(args[0])


def _pair(args, kwargs):
    """Points of a broadcast (a, b) evaluation."""
    a, b = _shape(args[0]), _shape(args[1])
    return math.prod(a) if a == b else math.prod(np.broadcast_shapes(a, b))


def _outer(args, kwargs):
    """Lattice points of an outer-product grid evaluation."""
    return _size(args[0]) * _size(args[1])


def _scan_n(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs.get("n", 1_000_000))


def _n_pairs(result) -> int:
    return int(result.n_pairs)


# name -> (elems counter or None, pairs counter or None, count errors).
# ``elems`` is the exact number of points the call evaluates.
TARGETS = {
    "binary.d2": (_first, None, False),
    "binary.d2_inv": (_first, None, False),
    "mre.dd2_value": (_pair, None, False),
    "mre.p_star": (None, None, False),
    "mre.dd2": (None, None, False),
    "envelopes.phi": (None, None, False),
    "envelopes.psi": (None, None, False),
    "envelopes.phi_tilde": (None, None, False),
    "envelopes.phi_tilde_ab": (None, None, False),
    "envelopes.phi_grid": (_outer, None, False),
    "envelopes.psi_grid": (_outer, None, False),
    "envelopes.phi_tilde_grid": (_outer, None, False),
    "envelopes.phi_q_full": (_first, None, False),
    "envelopes.psi_q_full": (_first, None, False),
    "hulls.lower_convex_envelope": (None, None, False),
    "hulls.check_midpoint_convex": (None, _n_pairs, False),
    "hulls.check_slope_bounds": (None, None, False),
    "hulls.check_monotone": (None, None, False),
    "stationary.aux_phi_h": (None, None, False),
    "stationary.solve_root_z": (None, None, True),
    "stationary.count_roots_scan": (_scan_n, None, False),
    "stationary.gamma_extremum": (None, None, False),
    "optim.golden_min": (None, None, False),
    "optim.golden_min_vec": (None, None, False),
    "optim.bisect_root": (None, None, False),
    "verify.verify_all": (None, None, False),
    "cli.main": (None, None, False),
    "svg.contour_plot": (None, None, False),
    "svg.polyline_plot": (None, None, False),
}


def rebind(original, replacement) -> list:
    """Point every package-module name bound to ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, for undoing.
    """
    changed = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """Collects spans and work counts for the functions in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def root(self):
        """Span around one timed request; it has no parent."""
        sid = len(self.span_end)
        self.span_name.append(self._name_id(ROOT_SPAN))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, elems_of, pairs_of, count_errors: bool):
        nid = self._name_id(name)
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end, ends = self.span_start.append, self.span_end.append, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):  # runs ~1e5 times per verify: keep it lean
            if elems_of is not None:
                counts[name + ".elems"] += elems_of(args, kwargs)
            sid = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if count_errors:
                    counts[name + ".errors"] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if pairs_of is not None:
                counts[name + ".pairs"] += pairs_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded package module that binds it."""
        for name, (elems_of, pairs_of, count_errors) in TARGETS.items():
            layer, func = name.split(".", 1)
            original = getattr(importlib.import_module(f"{PACKAGE}.{LAYERS[layer]}"), func)
            wrapper = self._wrap(name, original, elems_of, pairs_of, count_errors)
            self._patches += [(mod, attr, original) for mod, attr in rebind(original, wrapper)]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per name: calls and self seconds; plus the raw work counters."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        wall = float(dur[name == self._ids.get(ROOT_SPAN, -1)].sum())
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "spans": int(dur.size),
            "wall_s": wall,
        }

    def save(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)
