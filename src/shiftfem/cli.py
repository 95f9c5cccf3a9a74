"""Experiment runner: mesh sweeps, convergence tables, and diagnostics files."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .analysis import (ConvergenceTable, ErrorReport, chord_node_gap,
                       convergence_orders, error_norms, error_setup, inf_sup_estimate)
from .assembly import EXTENSION_MODES, ProblemSpec, assemble, assemble_gram, shift_update
from .errors import ConfigError, InvalidParam, ShiftFEMError
from .linsolve import solve
from .mesh import (classify_elements, gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh,
                   gen_unit_square_mesh, is_int, mesh_text)
from .problems import PROBLEM_NAMES, by_name
from .spaces import (SUPPORTED_DEGREES, build_dof_map, build_local_bases,
                     element_node_layouts)

TABLE_HEADER = "param,h,grad_err,grad_order,l2_err,l2_order,max_err,max_order,alpha_h,kt_dev"
DIAG_HEADER = "param,n_unknowns,h,kt_dev,alpha_h,chord_gap,residual"
INFSUP_LIMIT = 5000  # larger entries leave alpha_h empty, as perfbench/reference does

# The sweep's mesh family per named problem: the parameter's letter, the mesh
# of (parameter p, e), and whether p must be even (the annulus's p = I = 2J).
# Each gen_* name is looked up at call time, so rebinding it here takes effect.
MESH_FAMILIES = {
    "ellipse_test1": ("J", lambda p, e: gen_quarter_ellipse_mesh(p, e), False),
    "annulus_test2": ("I", lambda p, e: gen_quarter_annulus_mesh(p, p // 2, e), True),
    "polygon_patch": ("J", lambda p, e: gen_unit_square_mesh(p), False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "ellipse_test1"
    e: float = 0.5
    k: int = 2
    sweep: tuple[int, ...] = (4, 8, 16, 32, 64)
    extension_mode: str = "analytic"
    out_dir: str = "results"
    deterministic: bool = True
    dump_meshes: bool = False

    def __post_init__(self) -> None:
        for name, kind in (("problem", str), ("extension_mode", str), ("out_dir", str),
                           ("deterministic", bool), ("dump_meshes", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if not self.out_dir:
            raise ConfigError("out_dir must name a directory, got ''")
        if not is_int(self.k) or self.k not in SUPPORTED_DEGREES:
            raise ConfigError(f"degree k must be one of {SUPPORTED_DEGREES}, got {self.k!r}")
        if isinstance(self.e, bool) or not isinstance(self.e, numbers.Real) \
                or not 0.0 < self.e < 1.0:
            raise ConfigError(f"geometry parameter e must be a number in (0, 1), got {self.e!r}")
        try:  # the problem's own checks: its name and its extension mode
            by_name(self.problem, e=self.e, k=self.k, extension_mode=self.extension_mode)
        except InvalidParam as exc:
            raise ConfigError(str(exc)) from exc
        try:  # stored as a tuple, so the config hashes whatever sequence it was given
            if isinstance(self.sweep, (str, bytes)):
                raise TypeError
            object.__setattr__(self, "sweep", tuple(self.sweep))
        except TypeError:
            raise ConfigError(f"sweep must be a sequence of integers, got {self.sweep!r}") from None
        if not self.sweep:
            raise ConfigError("sweep must contain at least one mesh parameter")
        if any(not is_int(p) or p < 1 for p in self.sweep):
            raise ConfigError(f"sweep entries must be positive integers, got {self.sweep}")
        if any(b != 2 * a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError(f"sweep entries must each double the last, got {self.sweep}")
        label, _, even = MESH_FAMILIES[self.problem]
        if even and any(p % 2 for p in self.sweep):
            raise ConfigError(f"{self.problem} sweep entries {label} must be even, "
                              f"got {self.sweep}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class EntryResult:
    """One sweep entry: the row that table.csv, table.md and diagnostics.csv
    are all written from."""

    report: ErrorReport
    n_unknowns: int
    kt_dev: float
    alpha_h: float | None
    chord_gap: float
    residual: float
    runtime_s: float


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _num(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _order(v: float | None) -> str:
    return "--" if v is None or math.isnan(v) else f"{v:.3f}"


def render(rows: Sequence[EntryResult], label: str, deterministic: bool) -> dict[str, str]:
    """The text of each artifact, by file name, for the sweep entries in ``rows``.

    The first row has no orders: empty cells in table.csv, dashes in table.md.
    """
    table = convergence_orders([row.report for row in rows])
    orders = [(None,) * 3, *zip(table.grad_orders, table.l2_orders, table.max_orders)]
    csv = [TABLE_HEADER]
    md = [f"| {label} | grad err | order | L2 err | order | max err | order |",
          "|---:|---:|---:|---:|---:|---:|---:|"]
    diag = [DIAG_HEADER if deterministic else DIAG_HEADER + ",runtime_s"]
    for row, (go, lo, mo) in zip(rows, orders):
        r = row.report
        csv.append(",".join([str(r.param), _num(r.h), _num(r.grad_err), _num(go),
                             _num(r.l2_err), _num(lo), _num(r.max_nodal_err), _num(mo),
                             _num(row.alpha_h), _num(row.kt_dev)]))
        md.append(f"| {r.param} | {r.grad_err:.6E} | {_order(go)} | {r.l2_err:.6E} "
                  f"| {_order(lo)} | {r.max_nodal_err:.6E} | {_order(mo)} |")
        cells = [str(r.param), str(row.n_unknowns), _num(r.h), _num(row.kt_dev),
                 _num(row.alpha_h), _num(row.chord_gap), _num(row.residual)]
        if not deterministic:
            cells.append(f"{row.runtime_s:.3f}")
        diag.append(",".join(cells))
    return {name: "\n".join(lines) + "\n" for name, lines in
            (("table.csv", csv), ("table.md", md), ("diagnostics.csv", diag))}


# A sweep entry runs as four stages, each called by the next, so each SuperLU
# factor has under it only what the stages still running hold. Under the LU of
# A: A, the load and the error setup, plus an alpha_h entry's dof map, blocks
# and bases, and a mesh to dump. A is gone when the test Gram is built, and
# under the Gram factors, last, are one Gram, the update and x.
def _prepare(cfg: ExperimentConfig, problem: ProblemSpec, param: int) -> tuple:
    mesh = classify_elements(MESH_FAMILIES[cfg.problem][1](param, cfg.e), problem.geom)
    bases = build_local_bases(mesh, cfg.k, element_node_layouts(mesh, problem.geom, cfg.k))
    dm = build_dof_map(mesh, bases, dirichlet_data=problem.d)
    setup = error_setup(mesh, dm, bases, problem.exact)
    chord_gap = chord_node_gap(mesh, bases, problem.exact.value)
    kt_dev = float(bases.kt_deviation.max(initial=0.0))
    sysm = assemble(mesh, dm, bases, problem)
    gram_data = (dm, sysm.blocks, bases) if 0 < dm.n_unknowns <= INFSUP_LIMIT else None
    return (sysm.A, sysm.rhs, setup, gram_data, mesh if cfg.dump_meshes else None,
            dm.n_unknowns, chord_gap, kt_dev)


def _lu(cfg: ExperimentConfig, problem: ProblemSpec, param: int) -> tuple:
    A, rhs, *rest = _prepare(cfg, problem, param)
    return solve(A, rhs), *rest


def _solved(cfg: ExperimentConfig, problem: ProblemSpec, param: int) -> tuple:
    srep, setup, gram_data, *rest = _lu(cfg, problem, param)
    rep = error_norms(setup, srep.x, param=param)
    return srep, rep, None if gram_data is None else (
        assemble_gram(*gram_data[:2]), shift_update(*gram_data)), *rest


def _entry(cfg: ExperimentConfig, problem: ProblemSpec, param: int) -> tuple:
    """The entry's row, its solve report, and its mesh's text if it is dumped."""
    t0 = time.perf_counter()
    srep, rep, infsup, mesh, n, chord_gap, kt_dev = _solved(cfg, problem, param)
    row = EntryResult(report=rep, n_unknowns=n, kt_dev=kt_dev,
                      alpha_h=None if infsup is None else inf_sup_estimate(*infsup),
                      chord_gap=chord_gap, residual=srep.residual_norm,
                      runtime_s=time.perf_counter() - t0)
    return row, srep, None if mesh is None else mesh_text(mesh)


def run_experiment(cfg: ExperimentConfig, log=None) -> ConvergenceTable:
    """Sweep the mesh parameter, solve, and rewrite every artifact after each
    entry, so a run that fails later keeps the rows already finished."""
    problem = by_name(cfg.problem, e=cfg.e, k=cfg.k, extension_mode=cfg.extension_mode)
    label = MESH_FAMILIES[cfg.problem][0]
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc

    rows = []
    for param in cfg.sweep:
        try:
            row, srep, dump = _entry(cfg, problem, param)
        except ShiftFEMError as exc:
            raise type(exc)(f"sweep entry param={param}: {exc}") from exc
        rows.append(row)
        files = render(rows, label, cfg.deterministic)
        if cfg.dump_meshes:
            files[f"mesh_{param}.txt"] = dump
        for name, text in files.items():
            _write_atomic(out / name, text)
        if log is not None:
            alpha_h = "" if row.alpha_h is None else f" alpha_h={row.alpha_h:.6f}"
            print(f"param={param}: n={row.n_unknowns} grad={row.report.grad_err:.6e} "
                  f"l2={row.report.l2_err:.6e} max={row.report.max_nodal_err:.6e} "
                  f"eta={srep.backward_error:.6e}{alpha_h}", file=log)

    if log is not None:
        print(f"wrote {out / 'table.csv'}, table.md, diagnostics.csv", file=log)
    return convergence_orders([row.report for row in rows])


def _parse_sweep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"sweep must be comma-separated integers, got {text!r}") from exc


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        cfg = ExperimentConfig.from_json(text)
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "config")}
    if "sweep" in given:
        given["sweep"] = _parse_sweep(given["sweep"])
    return replace(cfg, **given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftfem",
        description="Convergence experiments for the boundary-shifted "
                    "Petrov-Galerkin method on curved domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each option's dest is the config field it sets; an option not given is absent
    run_p = sub.add_parser("run", help="run a mesh-refinement experiment",
                           argument_default=argparse.SUPPRESS)
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", default=None, help="JSON config file")
    src.add_argument("--problem", choices=PROBLEM_NAMES,
                     help="named problem with default settings")
    run_p.add_argument("--k", type=int,
                       help=f"polynomial degree, one of {SUPPORTED_DEGREES}")
    run_p.add_argument("--e", type=float, help="geometry parameter in (0, 1)")
    run_p.add_argument("--sweep", help="comma-separated mesh parameters, each double "
                                       "the last, e.g. 4,8,16,32,64")
    run_p.add_argument("--extension", dest="extension_mode", choices=EXTENSION_MODES,
                       help="source extension outside the domain")
    run_p.add_argument("--out", dest="out_dir", help="output directory")
    run_p.add_argument("--dump-meshes", action="store_true",
                       help="also write mesh_<param>.txt per sweep entry")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or a usage error
        return 1 if exc.code else 0
    try:
        run_experiment(config_from_args(args), log=sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ShiftFEMError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
