"""Span tracing around the public calls each layer of ``nic`` makes into
the next, installed from outside the package.

Each wrapper replaces the module attribute that the *caller* looks up (for
example ``nic.identify.min_l1_constrained``, which ``identify`` imported by
name, or ``nic.invert.real_roots``), records a span (name, start, end,
parent) in memory and, where the return value carries a count, adds it to
``counts``.  ``uninstall`` puts every original back.  The pipeline is
single-threaded, so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import nic.cli
import nic.fileio
import nic.identify
import nic.invert
import nic.optim
import nic.poly
import nic.sim
import nic.validate
from nic.optim import LPStatus


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        names, parent, start, end, stack = (self.names, self.parent,
                                            self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(self, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def durations(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for i, name in enumerate(self.names):
            d = self.end[i] - self.start[i]
            acc = out[name]
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child[i]
        return {k: (c, tot * 1e-9, own * 1e-9) for k, (c, tot, own) in out.items()}

    def write(self, path: Path) -> None:
        t0 = min(self.start, default=0)
        with Path(path).open("w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parent[i]},{name},"
                         f"{self.start[i] - t0},{self.end[i] - t0}\n")

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, name, after=None, wrap=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        traced = (wrap or self.wrap)(name, original, after)
        self._saved.append((owner, attr, original))
        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def install(self) -> None:
        for cmd in nic.cli._COMMANDS:
            self.patch(nic.cli._COMMANDS, cmd, f"cli.{cmd}")
        self.patch(nic.cli, "identify_model", "identify.identify_model",
                   _after_identify)
        self.patch(nic.identify, "build_regression", "identify.build_regression")
        self.patch(nic.identify, "neighbor_sets", "identify.neighbor_sets")
        self.patch(nic.identify, "min_feasible_gamma",
                   "identify.min_feasible_gamma", _after_gamma_search)
        self.patch(nic.identify, "sc_constraints", "identify.sc_constraints",
                   _after_sc_rows)
        self.patch(nic.identify, "min_linf", "optim.min_linf")
        self.patch(nic.identify, "min_l1_constrained", "optim.min_l1_constrained")
        self.patch(nic.optim, "solve_standard_form", "optim.solve_standard_form",
                   _after_solve)
        self.patch(nic.identify, "basis_matrix", "poly.basis_matrix")
        self.patch(nic.poly, "basis_matrix", "poly.basis_matrix")
        self.patch(nic.cli, "select_mu", "validate.select_mu")
        self.patch(nic.validate, "closed_loop_prediction_data", "validate.replay")
        self.patch(nic.validate, "gamma_min", "validate.gamma_min",
                   _after_gamma_min, wrap=self._wrap_peak)
        self.patch(nic.validate, "control", "invert.control")
        self.patch(nic.invert, "control_details", "invert.control_details",
                   _after_control)
        self.patch(nic.sim, "control_details", "invert.control_details",
                   _after_control)
        self.patch(nic.invert, "restrict_to_u", "poly.restrict_to_u")
        self.patch(nic.invert, "real_roots", "poly.real_roots", _after_roots)
        self.patch(nic.sim, "run_closed_loop", "sim.run_closed_loop",
                   _after_loop)
        self.patch(nic.sim, "generate_dataset", "sim.generate_dataset")
        self.patch(nic.sim, "make_plant", "sim.make_plant", wrap=self._wrap_plant)
        for fn in ("write_dataset_csv", "write_yaml", "write_trajectory_csv"):
            self.patch(nic.fileio, fn, f"fileio.{fn}", _after_write)
        for fn in ("load_dataset_csv", "save_model", "load_model"):
            self.patch(nic.fileio, fn, f"fileio.{fn}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _wrap_plant(self, name, make_plant, after):
        """Plants built while tracing get their update function traced."""
        traced_make = self.wrap(name, make_plant)

        def make(*args, **kwargs):
            plant = traced_make(*args, **kwargs)
            return dataclasses.replace(
                plant, update=self.wrap("sim.plant_update", plant.update))
        return make

    def _wrap_peak(self, name, fn, after):
        """Also measure the peak bytes allocated inside the call."""
        traced = self.wrap(name, fn, after)

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.maxima["validate.gamma_min_peak_bytes"] = max(
                    self.maxima["validate.gamma_min_peak_bytes"], peak)
        return measured


def _after_identify(tr, result, args, kwargs):
    if result.model is not None:
        tr.samples["identify.order"].append(result.model.order)
        tr.samples["identify.nnz"].append(len(result.model.terms))


def _after_gamma_search(tr, search, args, kwargs):
    tr.counts["identify.gamma_probes"] += len(search.probes)


def _after_sc_rows(tr, ineq, args, kwargs):
    tr.counts["identify.sc_rows"] += len(ineq)


def _after_solve(tr, res, args, kwargs):
    m, n = np.shape(args[0])
    initial_basis = kwargs.get("initial_basis", args[3] if len(args) > 3 else None)
    # phase 1 appends one artificial column per row when no basis is given
    cells = m * (n + (m if initial_basis is None else 0) + 1)
    tr.counts["optim.pivots"] += res.iterations
    tr.maxima["optim.max_tableau_cells"] = max(
        tr.maxima["optim.max_tableau_cells"], cells)
    if res.status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
        tr.counts["optim.infeasible_solves"] += 1


def _after_gamma_min(tr, value, args, kwargs):
    P = args[0].n_pairs
    tr.counts["validate.pairs"] += P
    tr.counts["validate.pair_bytes_computed"] += 8 * P * P


def _after_control(tr, res, args, kwargs):
    tr.samples["invert.candidates"].append(len(res.candidates))
    tr.counts["invert.degenerate_steps"] += res.degenerate
    tr.counts["invert.saturated_steps"] += res.saturated


def _after_roots(tr, roots, args, kwargs):
    tr.samples["poly.companion_dim"].append(max(args[0].degree, 0))


def _after_loop(tr, traj, args, kwargs):
    tr.counts["sim.steps"] += traj.steps


def _after_write(tr, out, args, kwargs):
    tr.counts["fileio.bytes_written"] += Path(args[0]).stat().st_size
