"""Experiment runner: mesh sweeps, convergence tables, and diagnostics files."""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from .analysis import (ConvergenceTable, chord_node_gap, convergence_orders,
                       error_norms, inf_sup_estimate, kt_perturbation_report,
                       table_to_csv)
from .assembly import (EXTENSION_MODES, ProblemSpec, assemble, assemble_gram,
                       shift_update)
from .errors import ConfigError, ShiftFEMError
from .linsolve import solve
from .mesh import (TriMesh, classify_elements, gen_quarter_annulus_mesh,
                   gen_quarter_ellipse_mesh, gen_unit_square_mesh, save_mesh)
from .problems import PROBLEM_NAMES, by_name
from .spaces import (SUPPORTED_DEGREES, build_dof_map, build_local_bases,
                     element_node_layouts)

ENV_OUT_DIR = "SHIFTFEM_OUT_DIR"
ANGULAR_RANGES = {"half_pi": 0.5 * math.pi, "quarter_pi": 0.25 * math.pi}
CONFIG_PROBLEMS = PROBLEM_NAMES + ("custom",)
DIAG_HEADER = "param,n_unknowns,h,kt_dev,alpha_h,chord_gap,residual"
INFSUP_LIMIT = 5000  # larger entries leave alpha_h empty, as perfbench/reference does
_ORDER_DASH = "--"


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "ellipse_test1"
    e: float = 0.5
    k: int = 2
    sweep: tuple[int, ...] = (4, 8, 16, 32, 64)
    extension_mode: str = "analytic"
    angular_range: str = "half_pi"
    out_dir: str = "results"
    deterministic: bool = True
    dump_meshes: bool = False

    def validate(self) -> None:
        for name, kind in (("problem", str), ("extension_mode", str),
                           ("angular_range", str), ("out_dir", str),
                           ("deterministic", bool), ("dump_meshes", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if self.problem not in CONFIG_PROBLEMS:
            raise ConfigError(f"problem must be one of {CONFIG_PROBLEMS}, got {self.problem!r}")
        if not _is_int(self.k) or self.k not in SUPPORTED_DEGREES:
            raise ConfigError(f"degree k must be one of {SUPPORTED_DEGREES}, got {self.k!r}")
        if isinstance(self.e, bool) or not isinstance(self.e, numbers.Real) \
                or not 0.0 < self.e < 1.0:
            raise ConfigError(f"geometry parameter e must be a number in (0, 1), got {self.e!r}")
        if not self.sweep:
            raise ConfigError("sweep must contain at least one mesh parameter")
        if any(not _is_int(p) or p < 1 for p in self.sweep):
            raise ConfigError(f"sweep entries must be positive integers, got {self.sweep}")
        if any(b != 2 * a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError(f"sweep entries must each double the last, got {self.sweep}")
        if self.problem == "annulus_test2" and any(p % 2 for p in self.sweep):
            raise ConfigError("annulus sweep entries are angular counts I = 2J; they must be even")
        if self.extension_mode not in EXTENSION_MODES:
            raise ConfigError(f"extension_mode must be one of {EXTENSION_MODES}")
        if self.extension_mode == "zero_outside" and self.problem == "polygon_patch":
            raise ConfigError("extension_mode zero_outside needs a curved boundary; "
                              "polygon_patch has none")
        if self.angular_range not in ANGULAR_RANGES:
            raise ConfigError(f"angular_range must be one of {tuple(ANGULAR_RANGES)}")
        if self.angular_range != "half_pi" and self.problem != "annulus_test2":
            raise ConfigError("angular_range quarter_pi applies only to annulus_test2")

    def to_json(self) -> str:
        d = asdict(self)
        d["sweep"] = list(self.sweep)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

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
        if "sweep" in raw:
            if not isinstance(raw["sweep"], list):
                raise ConfigError("sweep must be a JSON list")
            raw["sweep"] = tuple(raw["sweep"])
        cfg = cls(**raw)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class EntryResult:
    param: int
    n_unknowns: int
    h: float
    kt_dev: float
    alpha_h: float | None
    chord_gap: float
    residual: float
    runtime_s: float


def _mesh_generator(cfg: ExperimentConfig) -> Callable[[int], TriMesh]:
    if cfg.problem == "ellipse_test1":
        return lambda J: gen_quarter_ellipse_mesh(J, cfg.e)
    if cfg.problem == "annulus_test2":
        theta = ANGULAR_RANGES[cfg.angular_range]
        return lambda I: gen_quarter_annulus_mesh(I, I // 2, cfg.e, theta_max=theta)
    if cfg.problem == "polygon_patch":
        return gen_unit_square_mesh
    raise ConfigError("custom problems need an explicit mesh generator")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt_err(v: float) -> str:
    return f"{v:.6E}"


def _fmt_order(v: float) -> str:
    return _ORDER_DASH if math.isnan(v) else f"{v:.3f}"


def markdown_table(table: ConvergenceTable, param_label: str) -> str:
    lines = [
        f"| {param_label} | grad err | order | L2 err | order | max err | order |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for i, r in enumerate(table.reports):
        if i == 0:
            go = lo = mo = _ORDER_DASH
        else:
            go = _fmt_order(table.grad_orders[i - 1])
            lo = _fmt_order(table.l2_orders[i - 1])
            mo = _fmt_order(table.max_orders[i - 1])
        lines.append(f"| {r.param} | {_fmt_err(r.grad_err)} | {go} "
                     f"| {_fmt_err(r.l2_err)} | {lo} "
                     f"| {_fmt_err(r.max_nodal_err)} | {mo} |")
    return "\n".join(lines) + "\n"


def _diagnostics_csv(entries: Sequence[EntryResult], deterministic: bool) -> str:
    header = DIAG_HEADER if deterministic else DIAG_HEADER + ",runtime_s"
    lines = [header]
    for en in entries:
        cells = [str(en.param), str(en.n_unknowns), repr(en.h), repr(en.kt_dev),
                 "" if en.alpha_h is None else repr(en.alpha_h),
                 repr(en.chord_gap), repr(en.residual)]
        if not deterministic:
            cells.append(f"{en.runtime_s:.3f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def resolve_out_dir(cfg: ExperimentConfig) -> Path:
    return Path(os.environ.get(ENV_OUT_DIR) or cfg.out_dir)


def run_experiment(cfg: ExperimentConfig,
                   problem: ProblemSpec | None = None,
                   mesh_for: Callable[[int], TriMesh] | None = None,
                   log=None) -> ConvergenceTable:
    """Sweep the mesh parameter, solve, and write table/diagnostics files.

    ``problem`` and ``mesh_for`` override the named constructions; both are
    required when ``cfg.problem == "custom"``.
    """
    cfg.validate()
    if problem is None:
        if cfg.problem == "custom":
            raise ConfigError("custom problems need an explicit ProblemSpec")
        problem = by_name(cfg.problem, e=cfg.e, k=cfg.k,
                          extension_mode=cfg.extension_mode)
    if problem.exact is None:
        raise ConfigError("experiments need a manufactured solution for error norms")
    if mesh_for is None:
        mesh_for = _mesh_generator(cfg)
    out = resolve_out_dir(cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc

    reports, entries = [], []
    for param in cfg.sweep:
        try:
            t0 = time.perf_counter()
            mesh = classify_elements(mesh_for(param), problem.geom)
            lay = element_node_layouts(mesh, problem.geom, cfg.k)
            bases = build_local_bases(mesh, cfg.k, lay)
            dm = build_dof_map(mesh, cfg.k, lay, dirichlet_data=problem.d)
            sysm = assemble(mesh, dm, bases, problem)
            infsup = None
            if 0 < dm.n_unknowns <= INFSUP_LIMIT:
                infsup = (assemble_gram(sysm, bases, "test_space"),
                          assemble_gram(sysm, bases, "trial_space"),
                          shift_update(sysm, bases))
            A, rhs = sysm.A, sysm.rhs
            # drop the element blocks before the LU, and A before the Gram
            # factors, so no two large factorizations or block stacks overlap
            del sysm
            srep = solve(A, rhs)
            del A, rhs
            alpha = None if infsup is None else inf_sup_estimate(*infsup)
            del infsup
            rep = error_norms(mesh, dm, bases, srep.x, problem.exact, param=param)
            entry = EntryResult(
                param=param, n_unknowns=dm.n_unknowns, h=rep.h,
                kt_dev=kt_perturbation_report(bases).max_dev, alpha_h=alpha,
                chord_gap=chord_node_gap(mesh, bases, problem.exact.value),
                residual=srep.residual_norm,
                runtime_s=time.perf_counter() - t0)
            if cfg.dump_meshes:
                save_mesh(mesh, out / f"mesh_{param}.txt")
        except ShiftFEMError as exc:
            raise type(exc)(f"sweep entry param={param}: {exc}") from exc
        reports.append(rep)
        entries.append(entry)
        if log is not None:
            print(f"param={param}: n={entry.n_unknowns} grad={rep.grad_err:.6e} "
                  f"l2={rep.l2_err:.6e} max={rep.max_nodal_err:.6e}", file=log)

    if len(reports) >= 2:
        table = convergence_orders(reports)
    else:
        table = ConvergenceTable(reports=tuple(reports), grad_orders=(),
                                 l2_orders=(), max_orders=())

    label = "I" if cfg.problem == "annulus_test2" else "J"
    _write_atomic(out / "table.csv",
                  table_to_csv(table, alpha_h=[e.alpha_h for e in entries],
                               kt_dev=[e.kt_dev for e in entries]))
    _write_atomic(out / "table.md", markdown_table(table, label))
    _write_atomic(out / "diagnostics.csv",
                  _diagnostics_csv(entries, cfg.deterministic))
    if log is not None:
        print(f"wrote {out / 'table.csv'}, table.md, diagnostics.csv", file=log)
    return table


def _parse_sweep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"sweep must be comma-separated integers, got {text!r}") from exc


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg = ExperimentConfig.from_json(path.read_text())
    else:
        cfg = ExperimentConfig(problem=args.problem)
    updates = {}
    if args.k is not None:
        updates["k"] = args.k
    if args.e is not None:
        updates["e"] = args.e
    if args.sweep is not None:
        updates["sweep"] = _parse_sweep(args.sweep)
    if args.extension is not None:
        updates["extension_mode"] = ("zero_outside" if args.extension == "zero"
                                     else args.extension)
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.dump_meshes:
        updates["dump_meshes"] = True
    if updates:
        cfg = ExperimentConfig(**{**asdict(cfg), **updates})
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftfem",
        description="Convergence experiments for the boundary-shifted "
                    "Petrov-Galerkin method on curved domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a mesh-refinement experiment")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON config file")
    src.add_argument("--problem", choices=PROBLEM_NAMES,
                     help="named problem with default settings")
    run_p.add_argument("--k", type=int,
                       help=f"polynomial degree, one of {SUPPORTED_DEGREES}")
    run_p.add_argument("--e", type=float, help="geometry parameter in (0, 1)")
    run_p.add_argument("--sweep", help="comma-separated mesh parameters, each double "
                                       "the last, e.g. 4,8,16,32,64")
    run_p.add_argument("--extension", choices=("analytic", "zero", "zero_outside"),
                       help="source extension outside the domain")
    run_p.add_argument("--out", help=f"output directory (overridden by ${ENV_OUT_DIR})")
    run_p.add_argument("--dump-meshes", action="store_true",
                       help="also write mesh_<param>.txt per sweep entry")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        run_experiment(cfg, log=sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ShiftFEMError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
