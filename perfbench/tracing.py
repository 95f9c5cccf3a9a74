"""Timing spans around the shiftfem layers, and the per-layer metrics made from them.

The child process calls :func:`install` before ``shiftfem.cli.main``; it
replaces every public shiftfem function bound in ``shiftfem.cli`` (and
``shiftfem.spaces.ray_boundary_intersection``, called from the node-layout
stage) with a wrapper that records one span per call. Spans stay in memory
and are written out by the child when the run ends; the parent turns them
into per-layer self times and counts with :func:`layer_metrics`.

A span is ``[name, layer, start, end, parent, param, counts]``: ``layer`` is
the defining module, ``parent`` the index of the enclosing span (-1 for the
root), ``param`` the sweep entry being computed (set by the mesh generator
call that starts each entry) and ``counts`` the work counts read off the
function's result.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

NAME, LAYER, START, END, PARENT, PARAM, COUNTS = range(7)

MESH_GENERATORS = ("gen_quarter_ellipse_mesh", "gen_quarter_annulus_mesh",
                   "gen_unit_square_mesh")

# Per-layer self-time metric -> span names whose self time it sums.
STAGE_SPANS = {
    "mesh.gen_s": MESH_GENERATORS,
    "mesh.classify_s": ("classify_elements",),
    "geometry.ray_s": ("ray_boundary_intersection",),
    "spaces.layouts_s": ("element_node_layouts",),
    "spaces.bases_s": ("build_local_bases",),
    "spaces.dofmap_s": ("build_dof_map",),
    "assembly.assemble_s": ("assemble",),
    "assembly.gram_s": ("assemble_gram",),
    "linsolve.solve_s": ("solve",),
    "analysis.errors_s": ("error_norms",),
    "analysis.chord_gap_s": ("chord_node_gap",),
    "analysis.kt_report_s": ("kt_perturbation_report",),
    "analysis.infsup_s": ("inf_sup_estimate",),
}

# inf_sup_estimate holds seven dense n x n float64 arrays: A, both Gram
# matrices, their two Cholesky factors, and the two triangular-solve results.
INFSUP_DENSE_ARRAYS = 7


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read off one call's arguments and result."""
    if name in MESH_GENERATORS:
        return {"triangles": len(result.triangles)}
    if name == "classify_elements":
        from shiftfem.mesh import INTERIOR
        return {"boundary_elements": int((result.element_class != INTERIOR).sum())}
    if name == "build_dof_map":
        return {"unknowns": int(result.n_unknowns)}
    if name == "assemble":
        return {"a_nnz": int(result.A.nnz)}
    if name == "solve":
        return {"lu_nnz": int(result.nnz), "rel_residual": float(result.residual_norm)}
    if name == "inf_sup_estimate":
        return {"n": int(args[0].shape[0])}
    return {}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._param = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = fn.__module__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in MESH_GENERATORS:
                self._param = args[0]
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, time.perf_counter(), None, parent, self._param, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            span[COUNTS] = _counts(name, args, result)
            return result

        return traced


def install(cli, spaces) -> Tracer:
    """Wrap the public shiftfem functions bound in ``cli``, plus the ray solver."""
    tracer = Tracer()
    for name, obj in list(vars(cli).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith("shiftfem.")):
            setattr(cli, name, tracer.wrap(name, obj))
    spaces.ray_boundary_intersection = tracer.wrap(
        "ray_boundary_intersection", spaces.ray_boundary_intersection)
    return tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run's spans."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
    staged = {n for names in STAGE_SPANS.values() for n in names}

    def total(key: str) -> float:
        return sum(s[COUNTS].get(key, 0) for s in spans)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    entries = sum(calls(n) for n in MESH_GENERATORS)
    a_nnz, lu_nnz = total("a_nnz"), total("lu_nnz")
    infsup_n = [s[COUNTS]["n"] for s in spans if s[NAME] == "inf_sup_estimate"]
    out = {m: (sum(by_name.get(n, 0.0) for n in names), "s")
           for m, names in STAGE_SPANS.items()}
    out.update({
        "mesh.triangles": (total("triangles"), "count"),
        "mesh.boundary_elements": (total("boundary_elements"), "count"),
        "geometry.ray_calls": (calls("ray_boundary_intersection"), "count"),
        "spaces.unknowns": (total("unknowns"), "count"),
        "assembly.a_nnz": (a_nnz, "count"),
        "assembly.gram_calls": (calls("assemble_gram"), "count"),
        "linsolve.lu_nnz": (lu_nnz, "count"),
        "linsolve.fill_ratio": (lu_nnz / a_nnz if a_nnz else 0.0, "ratio"),
        "linsolve.rel_residual": (max((s[COUNTS]["rel_residual"] for s in spans
                                       if s[NAME] == "solve"), default=0.0), "ratio"),
        "analysis.infsup_dense_bytes": (
            sum(INFSUP_DENSE_ARRAYS * n * n * 8 for n in infsup_n), "bytes_computed"),
        "analysis.alpha_h_fill": (len(infsup_n) / entries if entries else 0.0, "frac"),
        "cli.self_s": (sum(t for s, t in zip(spans, own)
                           if s[LAYER] == "cli" and s[NAME] not in staged), "s"),
        "trace.other_s": (sum(t for s, t in zip(spans, own)
                              if s[LAYER] != "cli" and s[NAME] not in staged), "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1.0, "frac"),
    })
    return out


def self_time_sum(metrics: dict) -> float:
    """Sum of every self-time metric; equals the root span's duration."""
    names = list(STAGE_SPANS) + ["cli.self_s", "trace.other_s"]
    return sum(metrics[n][0] for n in names)
