"""Span tracing for the benchmark's per-layer metrics.

The package is treated as a black box: nothing in ``src/`` knows about
tracing. :class:`Tracer` wraps the public functions of each layer from the
outside and records one span per call. Modules import each other's names
directly (``lattice.proj_meet``, ``cli.spectral_sup``, ...), so a wrapper is
installed on every module binding that holds the original function, and
``numpy.linalg.eigh``/``eigvalsh``/``svd`` are wrapped as the kernel layer
(``svd`` also in numpy's private module, where ``norm(m, 2)`` looks it up).

Spans live in flat arrays until the run ends; a span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

# Functions wrapped per package module, named "<module>.<function>".
LAYER_FUNCTIONS = {
    "core": ("eigensystem", "operator_norm", "loewner_leq", "functional_calculus"),
    "family": ("spectral_family_of", "spectral_leq", "range_defect", "is_projection", "reconstruct"),
    "projections": ("proj_meet", "proj_join"),
    "harness": ("gen_instances", "run_suite", "monotone_probe", "commuting_oracle"),
    "cli": ("main", "load_document"),
}
KERNEL_FUNCTIONS = ("eigh", "eigvalsh", "svd")
ITERATE_FUNCTIONS = ("power_sup_iterates", "power_inf_iterates")

# Phases of a run. Per-layer metrics count spans of timed operations only,
# except the harness layer, whose work is set-up and untimed checks.
SETUP, OP, CHECK = 0, 1, 2


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            elif b > cur_b:
                cur_b = b
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def _cluster_means(values, width: float) -> list[float]:
    """Means of runs of sorted values whose consecutive gaps are <= width."""
    vals = sorted(values)
    reps, run = [], []
    for v in vals:
        if run and v - run[-1] > width:
            reps.append(sum(run) / len(run))
            run = []
        run.append(v)
    if run:
        reps.append(sum(run) / len(run))
    return reps


def merged_grid_size(mats, cluster_tol: float, eigh) -> int:
    """Number of points on the merged breakpoint grid of a lattice call:
    each input's clustered eigenvalues, merged and clustered again."""
    reps: list[float] = []
    for m in mats:
        w, _ = eigh(m.entries)
        reps.extend(_cluster_means([float(v) for v in w], cluster_tol))
    return len(_cluster_means(reps, cluster_tol))


class Tracer:
    """Records spans and counters; :meth:`install` wraps, :meth:`uninstall`
    restores every binding it replaced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self._stack = [-1]
        self.current_phase = SETUP
        self.grid_points = Counter()  # phase -> merged grid points of lattice calls
        self.limit_runs: list[tuple[int, int, int]] = []  # (phase, iterates, last exponent)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- wrappers with counters -----------------------------------------
    def _iterates(self, fn):
        tracer = self

        class TracedIterates:
            def __init__(self, gen) -> None:
                self._gen = gen
                self._run = len(tracer.limit_runs)
                tracer.limit_runs.append((tracer.current_phase, 0, 0))

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.open("limits.iterate")
                try:
                    n, value = next(self._gen)
                finally:
                    tracer.close(idx)
                phase, count, _ = tracer.limit_runs[self._run]
                tracer.limit_runs[self._run] = (phase, count + 1, n)
                return n, value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedIterates(fn(*args, **kwargs))

        return traced

    def _lattice_family(self, fn, default_tol, eigh):
        @functools.wraps(fn)
        def traced(mats, mode, tol=default_tol):
            self.grid_points[self.current_phase] += merged_grid_size(mats, tol.cluster_tol, eigh)
            idx = self.open("lattice.lattice_family")
            try:
                return fn(mats, mode, tol)
            finally:
                self.close(idx)

        return traced

    # -- installation ----------------------------------------------------
    def _replace_everywhere(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import numpy as np

        import spectralorder

        linalg_private = sys.modules.get("numpy.linalg._linalg") or sys.modules.get(
            "numpy.linalg.linalg"
        )
        kernel_modules = [np.linalg] + ([linalg_private] if linalg_private else [])
        eigh = np.linalg.eigh
        for fname in KERNEL_FUNCTIONS:
            original = getattr(np.linalg, fname)
            self._replace_everywhere(original, self.span(f"kernel.{fname}", original), kernel_modules)

        pkg_modules = [spectralorder] + [
            m
            for name, m in sorted(sys.modules.items())
            if name.startswith("spectralorder.") and m is not None
        ]
        for layer, fnames in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"spectralorder.{layer}"]
            for fname in fnames:
                original = getattr(mod, fname)
                self._replace_everywhere(
                    original, self.span(f"{layer}.{fname}", original), pkg_modules
                )
        limits = sys.modules["spectralorder.limits"]
        for fname in ITERATE_FUNCTIONS:
            original = getattr(limits, fname)
            self._replace_everywhere(original, self._iterates(original), pkg_modules)
        lattice = sys.modules["spectralorder.lattice"]
        original = lattice.lattice_family
        self._replace_everywhere(
            original,
            self._lattice_family(original, spectralorder.DEFAULT_TOL, eigh),
            pkg_modules,
        )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------
    def layer_metrics(self, ops: int, max_route_dev: float, report_bytes: int) -> dict:
        """Per-layer metrics of the traced run, as {name: (value, unit)}."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        iterate_time = 0.0
        lattice_id = self._ids.get("lattice.lattice_family", -2)
        meet_id = self._ids.get("projections.proj_meet", -2)
        meets = 0
        for i, nid in enumerate(self.name):
            label = self.names[nid]
            if self.phase[i] != OP and not label.startswith("harness."):
                continue
            calls[label] += 1
            self_s[label] += selfs[i]
            if label == "limits.iterate":
                iterate_time += self.end[i] - self.start[i]
            if nid == meet_id and self._has_ancestor(i, lattice_id):
                meets += 1

        runs = [(n, last) for phase, n, last in self.limit_runs if phase == OP and n]
        out: dict[str, tuple[float, str]] = {}
        per_op = max(ops, 1)
        for fname in KERNEL_FUNCTIONS:
            out[f"kernel.{fname}.calls_per_op"] = (calls[f"kernel.{fname}"] / per_op, "1/op")
        out["kernel.self_s"] = (sum(self_s[f"kernel.{f}"] for f in KERNEL_FUNCTIONS), "s")
        for label in (
            "core.eigensystem",
            "core.operator_norm",
            "core.functional_calculus",
            "family.spectral_family_of",
            "family.range_defect",
            "family.is_projection",
            "projections.proj_meet",
            "projections.proj_join",
        ):
            out[f"{label}.calls"] = (calls[label], "count")
        for label in (
            "core.eigensystem",
            "core.operator_norm",
            "core.loewner_leq",
            "core.functional_calculus",
            "family.spectral_family_of",
            "family.spectral_leq",
            "family.range_defect",
            "family.is_projection",
            "family.reconstruct",
            "projections.proj_meet",
            "projections.proj_join",
            "lattice.lattice_family",
            "harness.gen_instances",
            "harness.run_suite",
            "harness.monotone_probe",
            "harness.commuting_oracle",
            "cli.main",
            "cli.load_document",
        ):
            out[f"{label}.self_s"] = (self_s[label], "s")
        grid = self.grid_points[OP]
        out["lattice.grid_points"] = (grid, "count")
        out["lattice.meets_per_grid_point"] = (meets / grid if grid else 0.0, "1")
        out["limits.limits"] = (len(runs), "count")
        out["limits.iterates_per_limit"] = (
            sum(n for n, _ in runs) / len(runs) if runs else 0.0,
            "1",
        )
        out["limits.exponent_reached_log2"] = (
            sum(math.log2(last) for _, last in runs) / len(runs) if runs else 0.0,
            "1",
        )
        n_iter = calls["limits.iterate"]
        out["limits.iterate_ms"] = (1e3 * iterate_time / n_iter if n_iter else 0.0, "ms")
        out["limits.max_route_dev"] = (max_route_dev, "1")
        out["cli.report_bytes"] = (report_bytes, "B")
        return out

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False
