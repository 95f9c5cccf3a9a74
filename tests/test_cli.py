"""Experiment configuration, runner artifacts, and command-line behavior."""

import argparse
import csv
import gc
import json
import math
import re
import traceback
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from shiftfem import assembly, cli, linsolve
from shiftfem.analysis import ErrorReport, inf_sup_estimate
from shiftfem.cli import (DIAG_HEADER, MESH_FAMILIES, TABLE_HEADER, EntryResult,
                          ExperimentConfig, build_parser, config_from_args, main, render,
                          run_experiment)
from shiftfem.errors import (ConfigError, InconsistentDof, MeshAssumptionViolated, MissingExact,
                             NotSPD)
from shiftfem.mesh import classify_elements, gen_unit_square_mesh, mesh_text
from shiftfem.problems import PROBLEM_NAMES, by_name
from shiftfem.spaces import build_dof_map, build_local_bases, element_node_layouts

from oracles import load_mesh

GOLDEN = Path(__file__).parent / "golden"


def _patch_cfg(tmp_path, **kw):
    base = dict(problem="polygon_patch", sweep=(2, 4), out_dir=str(tmp_path))
    base.update(kw)
    return ExperimentConfig(**base)


def _json(cfg):
    return json.dumps(asdict(cfg))


def test_config_round_trip():
    for cfg in (ExperimentConfig(),
                ExperimentConfig(problem="annulus_test2", e=0.3, k=3,
                                 sweep=(4, 8), extension_mode="zero_outside",
                                 out_dir="elsewhere", deterministic=False,
                                 dump_meshes=True)):
        assert ExperimentConfig.from_json(_json(cfg)) == cfg


def test_config_defaults_match_reference_experiment():
    cfg = ExperimentConfig()
    assert cfg.problem == "ellipse_test1"
    assert cfg.sweep == (4, 8, 16, 32, 64)
    assert cfg.k == 2 and cfg.e == 0.5
    assert cfg.extension_mode == "analytic"


@pytest.mark.parametrize("kw", [
    {"problem": "torus_test"},
    {"problem": "custom"},  # a name no runner can build
    {"k": 4},
    {"e": 1.5},
    {"sweep": ()},
    {"sweep": (8, 4)},
    {"sweep": (4, 4)},
    {"sweep": (0, 2)},
    {"problem": "annulus_test2", "sweep": (3, 6)},
    {"extension_mode": "extrapolate"},
    {"extension_mode": "zero"},  # not a mode name
    {"e": 1.0},
    {"sweep": (4, 6)},
    {"problem": "polygon_patch", "extension_mode": "zero_outside"},
    {"out_dir": ""},  # the artifacts would land in the working directory
])
def test_config_validation_rejects(kw):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kw)


def test_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="degree k"):
        ExperimentConfig(k=5)


def test_odd_annulus_sweep_error_names_the_problem():
    with pytest.raises(ConfigError, match=r"^annulus_test2 sweep entries I must be even, "
                                          r"got \(3, 6\)$"):
        ExperimentConfig(problem="annulus_test2", sweep=(3, 6))


@pytest.mark.parametrize("sweep", [[4, 8], np.array([4, 8]), range(4, 9, 4)])
def test_config_stores_any_integer_sweep_as_a_tuple(sweep):
    # a frozen config hashes only if its sweep does
    cfg = ExperimentConfig(sweep=sweep)
    assert type(cfg.sweep) is tuple and cfg.sweep == (4, 8)
    assert hash(cfg) == hash(ExperimentConfig(sweep=(4, 8)))


@pytest.mark.parametrize("sweep", ["4,8", b"48", 4, None, np.array(4)])
def test_config_rejects_a_sweep_that_is_not_a_sequence(sweep):
    with pytest.raises(ConfigError, match="sweep must be a sequence of integers"):
        ExperimentConfig(sweep=sweep)


@pytest.mark.parametrize("text", ["not json", "[1,2]", '{"sweep": 4}',
                                  '{"mystery_key": 1}'])
def test_config_parse_rejects(text):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(text)


def test_patch_run_errors_vanish_orders_sentinel(tmp_path):
    table = run_experiment(_patch_cfg(tmp_path))
    assert all(math.isnan(o) for o in table.grad_orders)
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    rows = list(csv.DictReader(lines))
    assert len(rows) == 2
    for row in rows:
        assert max(float(row[c]) for c in ("grad_err", "l2_err", "max_err")) <= 1e-10
    assert ",nan," in lines[2]


def test_run_writes_all_artifacts(tmp_path):
    run_experiment(_patch_cfg(tmp_path, dump_meshes=True))
    assert (tmp_path / "table.csv").is_file()
    assert (tmp_path / "table.md").read_text().startswith("| J |")
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == DIAG_HEADER
    assert len(diag) == 3
    mesh = load_mesh(tmp_path / "mesh_2.txt")
    assert mesh.num_vertices == gen_unit_square_mesh(2).num_vertices


def test_annulus_table_uses_angular_label(tmp_path):
    cfg = ExperimentConfig(problem="annulus_test2", sweep=(4,),
                           out_dir=str(tmp_path))
    run_experiment(cfg)
    assert (tmp_path / "table.md").read_text().startswith("| I |")
    # single-entry sweep: no order columns filled
    assert (tmp_path / "table.csv").read_text().splitlines()[1].count(",,") >= 1


def test_deterministic_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(_patch_cfg(a))
    run_experiment(_patch_cfg(b))
    for name in ("table.csv", "table.md", "diagnostics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_non_deterministic_records_runtime(tmp_path):
    run_experiment(_patch_cfg(tmp_path, deterministic=False))
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == DIAG_HEADER + ",runtime_s"


def test_one_entry_run_matches_the_first_golden_row(tmp_path):
    # a one-entry sweep has no orders; its row is the first of the longer run
    run_experiment(ExperimentConfig(problem="ellipse_test1", k=2, sweep=(4,),
                                    out_dir=str(tmp_path)))
    for name, lines in (("table.csv", 2), ("diagnostics.csv", 2), ("table.md", 3)):
        golden = (GOLDEN / "ellipse_k2" / name).read_text().splitlines(keepends=True)
        assert (tmp_path / name).read_text() == "".join(golden[:lines]), name


def test_extension_flag_shorthand(tmp_path):
    args = build_parser().parse_args(
        ["run", "--problem", "annulus_test2", "--sweep", "4,8",
         "--extension", "zero_outside", "--out", str(tmp_path)])
    cfg = config_from_args(args)
    assert cfg.extension_mode == "zero_outside"
    assert cfg.sweep == (4, 8)
    # the flag takes exactly the mode names a config file does
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "annulus_test2",
                                   "--extension", "zero"])


def test_every_run_option_sets_the_config_field_named_by_its_dest():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "config"}
    assert {"problem", "extension_mode", "out_dir", "dump_meshes"} <= dests
    assert dests <= set(ExperimentConfig.__dataclass_fields__)


def test_every_named_problem_has_a_mesh_family():
    # and no family outlives its problem: the table is keyed by problem name
    assert set(MESH_FAMILIES) == set(PROBLEM_NAMES)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_each_mesh_family_smallest_entry_meshes_its_problem(name):
    # the smallest legal sweep entry: 1, or 2 where the entries must be even
    _, mesh_of, even = MESH_FAMILIES[name]
    prob = by_name(name)
    mesh = classify_elements(mesh_of(2 if even else 1, 0.5), prob.geom)
    assert mesh.num_triangles > 0


@pytest.mark.parametrize("e", [0.05, 0.95])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["ellipse_test1", "annulus_test2"])
def test_sweep_completes_on_near_degenerate_domains(tmp_path, name, k, e):
    # the finer entry's alpha_h is at least 0.941 over these cases; the
    # coarse one is not bounded (0.606 on the annulus at e = 0.95, k = 3, I = 8)
    run_experiment(ExperimentConfig(problem=name, e=e, k=k, sweep=(8, 16),
                                    out_dir=str(tmp_path)))
    coarse, fine = csv.DictReader((tmp_path / "table.csv").read_text().splitlines())
    assert float(fine["grad_err"]) < float(coarse["grad_err"])
    assert float(fine["alpha_h"]) >= 0.9


def test_cli_exit_success(tmp_path, capsys):
    rc = main(["run", "--problem", "polygon_patch", "--sweep", "2,4",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "param=4" in capsys.readouterr().out


def test_cli_exit_config_error(tmp_path, capsys):
    rc = main(["run", "--problem", "ellipse_test1", "--k", "5",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["run", "--problem", "polygon_patch", "--sweep", "4,a"]) == 1


@pytest.mark.parametrize("key,value", [
    ("k", 2.0), ("k", True), ("e", "0.5"), ("e", False), ("sweep", [True, 2]),
    ("sweep", [4, 8.0]), ("deterministic", "no"), ("dump_meshes", 1),
    ("k", "2"), ("sweep", "4,8"), ("out_dir", 5),
    ("problem", ["ellipse_test1"]), ("extension_mode", None),
    ("angular_range", 0.5),  # a removed key, now unknown
])
def test_cli_rejects_mistyped_config_values(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path), key: value}))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and re.search(rf"\b{key}\b", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["stiffness_degree", "load_degree"])
def test_cli_rejects_removed_quadrature_keys(tmp_path, capsys, key):
    # The method fixes every rule from k; a config may not pick one.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path), key: 8}))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys") and key in err
    assert "Traceback" not in err


def test_cli_exit_numerical_failure(tmp_path, capsys, monkeypatch):
    # A zero system matrix makes the sparse LU fail; the failing sweep entry
    # is named.
    monkeypatch.setattr(cli, "solve", lambda A, b: linsolve.solve(0 * A, b))
    path = tmp_path / "cfg.json"
    path.write_text(_json(_patch_cfg(tmp_path)))
    rc = main(["run", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param=2: sparse LU factorization failed" in err


def test_cli_exit_non_finite_error_report(tmp_path, capsys, monkeypatch):
    # an error norm that is not finite fails its sweep entry like any
    # numerical failure, with no traceback
    monkeypatch.setattr(cli, "error_norms",
                        lambda *args, param, **kw: ErrorReport(math.inf, 0.0, 0.0, 0.5, param))
    rc = main(["run", "--problem", "polygon_patch", "--sweep", "2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param=2: grad_err must be finite" in err
    assert "Traceback" not in err


def test_cli_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = main(["run", "--problem", "polygon_patch", "--sweep", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, flags", [("table.csv", []),
                                         ("mesh_2.txt", ["--dump-meshes"])])
def test_failed_artifact_write_is_a_config_error_naming_the_file(tmp_path, capsys,
                                                                 name, flags):
    # a directory where the file should go fails the write, also as root
    (tmp_path / name).mkdir()
    rc = main(["run", "--problem", "ellipse_test1", "--sweep", "2,4", "--out", str(tmp_path),
               *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"cannot write {tmp_path / name}:" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []


def _counting_solve(monkeypatch, fail_at=None):
    """Replace cli.solve by a counted solve; call ``fail_at`` gets a zero matrix."""
    calls = []

    def counted(A, b):
        calls.append(len(b))
        return linsolve.solve(0 * A if len(calls) == fail_at else A, b)

    monkeypatch.setattr(cli, "solve", counted)
    return calls


def test_alpha_h_waits_for_the_solve_and_a_is_gone_first(tmp_path, capsys, monkeypatch):
    """Per entry, the LU of A runs with no Gram alive and frees A before the
    Grams are built; an entry above INFSUP_LIMIT keeps no element blocks
    under its LU. The log line reports alpha_h where it was estimated."""
    monkeypatch.setattr(cli, "INFSUP_LIMIT", 1000)  # I=8 has 275 unknowns, I=16 1127
    events, live = [], {}

    def assembled(*args):
        system = assembly.assemble(*args)
        live["blocks"] = weakref.ref(system.blocks)
        return system

    def solved(A, b):
        events.append(("solve", len(b), "blocks alive" if live["blocks"]() is not None
                       else "blocks dead"))
        live["A"] = weakref.ref(A)
        report = linsolve.solve(A, b)
        events.append(("solved", len(b)))
        return report

    def gram(dofmap, blocks):
        events.append(("assemble_gram", "A dead" if live["A"]() is None else "A alive"))
        return assembly.assemble_gram(dofmap, blocks)

    def update(dofmap, blocks, bases):
        events.append(("shift_update",))
        return assembly.shift_update(dofmap, blocks, bases)

    for name, fn in (("assemble", assembled), ("solve", solved),
                     ("assemble_gram", gram), ("shift_update", update)):
        monkeypatch.setattr(cli, name, fn)
    assert main(["run", "--problem", "annulus_test2", "--k", "3", "--sweep", "8,16",
                 "--extension", "zero_outside", "--out", str(tmp_path)]) == 0
    assert events == [
        ("solve", 275, "blocks alive"), ("solved", 275),
        ("assemble_gram", "A dead"), ("shift_update",),
        ("solve", 1127, "blocks dead"), ("solved", 1127),
    ]
    alpha = [row.split(",")[4] for row in
             (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]]
    assert alpha[0] != "" and alpha[1] == ""
    log = capsys.readouterr().out.splitlines()
    assert log[0].startswith("param=8: ")
    assert log[0].endswith(f" alpha_h={float(alpha[0]):.6f}")
    assert log[1].startswith("param=16: ") and "alpha_h" not in log[1]


def test_alpha_h_runs_last_on_the_grams_alone(tmp_path, monkeypatch):
    """Per entry, the error norms and the chord gap are taken before alpha_h,
    and the entry's local bases, dof map and element blocks are gone before
    its bordered factors run."""
    refs, done, checked = [], [], []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "build_local_bases":  # the first of an entry's pieces
                refs.clear()
                done.clear()
            done.append(name)
            if name in ("build_local_bases", "build_dof_map"):
                refs.append(weakref.ref(result))
            elif name == "assemble":
                refs.append(weakref.ref(result.blocks))
            return result
        return wrapper

    def estimate(*args):
        gc.collect()
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        assert "error_norms" in done and "chord_node_gap" in done
        checked.append(args[0].shape[0])
        return inf_sup_estimate(*args)

    for name in ("build_local_bases", "build_dof_map", "assemble", "error_norms",
                 "chord_node_gap"):
        monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "inf_sup_estimate", estimate)
    assert main(["run", "--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8",
                 "--out", str(tmp_path)]) == 0
    assert checked == [60, 248]


def test_one_gram_is_alive_under_each_bordered_factor(tmp_path, monkeypatch):
    """The trial Gram is formed from the shift update after the test Gram's
    bordered factor and freed before its own, so under each bordered factor
    one n x n Gram is alive, the test Gram."""
    def grams():
        return [o for o in gc.get_objects() if sp.issparse(o) and o.format == "csr"]

    held = grams()  # left by earlier tests: not counted below
    unknowns, alive = [], []

    def update(dofmap, blocks, bases):
        unknowns.append(dofmap.n_unknowns)
        return assembly.shift_update(dofmap, blocks, bases)

    def superlu(factor, error, what, *args, **kwargs):
        if factor is linsolve.splu and error is NotSPD:  # a bordered Gram factor
            gc.collect()
            n = unknowns[-1]
            # sp.csr_matrix(G) views G's buffers: count each data buffer once
            alive.append(len({id(G.data if G.data.base is None else G.data.base)
                              for G in grams()
                              if G.shape == (n, n) and not any(G is h for h in held)}))
        return superlu_call(factor, error, what, *args, **kwargs)

    superlu_call = linsolve._superlu
    monkeypatch.setattr(cli, "shift_update", update)
    monkeypatch.setattr(linsolve, "_superlu", superlu)
    assert main(["run", "--problem", "annulus_test2", "--k", "3", "--sweep", "8,16",
                 "--out", str(tmp_path)]) == 0
    assert unknowns == [275, 1127]
    assert alive == [1, 1, 1, 1]


def test_the_lu_of_a_runs_without_the_mesh_bases_and_dof_map(tmp_path, monkeypatch):
    """Per entry, the error setup, the chord gap and kt_dev are taken before
    the solve, and the entry's mesh is gone under the LU of A. An entry that
    estimates no alpha_h has dropped its local bases and dof map too; one that
    does keeps them for its Gram and shift update."""
    monkeypatch.setattr(cli, "INFSUP_LIMIT", 100)  # J=4 has 60 unknowns, J=8 248
    kept = ("classify_elements", "build_local_bases", "build_dof_map")
    refs, done, dead, grams = {}, [], [], []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "classify_elements":  # the first of an entry's pieces
                refs.clear()
                done.clear()
            done.append(name)
            if name in kept:
                refs[name] = weakref.ref(result)
            return result
        return wrapper

    def solved(A, b):
        gc.collect()
        assert "error_setup" in done and "chord_node_gap" in done
        dead.append((len(b), [name for name in kept if refs[name]() is None]))
        return linsolve.solve(A, b)

    def gram(dofmap, blocks):
        grams.append(dofmap.n_unknowns)
        return assembly.assemble_gram(dofmap, blocks)

    for name in (*kept, "error_setup", "chord_node_gap"):
        monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "solve", solved)
    monkeypatch.setattr(cli, "assemble_gram", gram)
    assert main(["run", "--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8",
                 "--out", str(tmp_path)]) == 0
    assert dead == [(60, ["classify_elements"]), (248, list(kept))]
    assert grams == [60]


def test_nothing_of_an_entry_survives_into_the_next_entrys_lu(tmp_path, monkeypatch):
    """Both entries estimate alpha_h; under the second entry's LU of A, the
    first entry's A, error setup, local bases, dof map, element blocks, test
    Gram and shift update are all gone."""
    refs, checked = {}, []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "assemble":
                refs.setdefault("blocks", weakref.ref(result.blocks))
            else:
                refs.setdefault(name, weakref.ref(result))
            return result
        return wrapper

    def solved(A, b):
        if checked:  # the first entry's objects were all recorded by now
            gc.collect()
            checked.append((len(b), sorted(name for name, ref in refs.items()
                                           if ref() is not None)))
        else:
            refs["A"] = weakref.ref(A)
            checked.append((len(b), None))
        return linsolve.solve(A, b)

    names = ("error_setup", "build_local_bases", "build_dof_map", "assemble",
             "assemble_gram", "shift_update")
    for name in names:
        monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "solve", solved)
    assert main(["run", "--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8",
                 "--out", str(tmp_path)]) == 0
    assert len(refs) == 7
    assert checked == [(60, None), (248, [])]
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] for row in rows)


def test_a_mesh_dump_is_written_from_the_kept_mesh(tmp_path, monkeypatch):
    # no entry estimates alpha_h, so only the dump reads the mesh after the solve
    monkeypatch.setattr(cli, "INFSUP_LIMIT", 0)
    assert main(["run", "--problem", "ellipse_test1", "--sweep", "4,8", "--dump-meshes",
                 "--out", str(tmp_path)]) == 0
    geom = by_name("ellipse_test1").geom
    for J in (4, 8):
        mesh = classify_elements(MESH_FAMILIES["ellipse_test1"][1](J, 0.5), geom)
        assert (tmp_path / f"mesh_{J}.txt").read_bytes() == mesh_text(mesh).encode()
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["", ""]


@pytest.mark.parametrize("broken", ["exact", "dof map"])
def test_error_setup_fails_the_entry_before_its_lu(tmp_path, monkeypatch, broken):
    """A problem with no exact solution, or a dof map that does not fit the
    local bases, fails in error_setup, before the entry assembles or solves."""
    calls = _counting_solve(monkeypatch)
    if broken == "exact":
        monkeypatch.setattr(cli, "by_name",
                            lambda *args, **kw: replace(by_name(*args, **kw), exact=None))
        error, match = MissingExact, "param=4: error norms require a manufactured solution"
    else:  # a k=3 dof map under the k=2 bases
        geom = by_name("ellipse_test1").geom

        def k3_dof_map(mesh, bases, dirichlet_data=None):
            k3 = build_local_bases(mesh, 3, element_node_layouts(mesh, geom, 3))
            return build_dof_map(mesh, k3, dirichlet_data=dirichlet_data)

        monkeypatch.setattr(cli, "build_dof_map", k3_dof_map)
        error, match = InconsistentDof, "param=4: local basis size disagrees with dof map"
    with pytest.raises(error, match=match) as failed:
        run_experiment(ExperimentConfig(sweep=(4, 8), out_dir=str(tmp_path)))
    frames = [frame.name for frame in traceback.extract_tb(failed.value.__cause__.__traceback__)]
    assert "error_setup" in frames and "assemble" not in frames
    assert calls == []


def test_log_line_reports_the_backward_error(tmp_path, capsys, monkeypatch):
    # eta, the solve gate's own quantity, is logged before alpha_h
    etas = []

    def solved(A, b):
        report = linsolve.solve(A, b)
        etas.append(report.backward_error)
        return report

    monkeypatch.setattr(cli, "solve", solved)
    assert main(["run", "--problem", "ellipse_test1", "--sweep", "4,8",
                 "--out", str(tmp_path)]) == 0
    *log, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith("wrote ")
    for line, eta in zip(log, etas, strict=True):
        m = re.fullmatch(r"param=\d+: n=(\d+) grad=\S+ l2=\S+ max=\S+ eta=(\S+) "
                         r"alpha_h=\S+", line)
        assert m is not None, line
        assert m[2] == f"{eta:.6e}"
        assert 0.0 <= float(m[2]) <= int(m[1]) * float(np.finfo(float).eps)


def test_unwritable_table_fails_the_first_sweep_entry(tmp_path, capsys, monkeypatch):
    # artifacts are written after each entry, so the run stops before J=8 is solved
    calls = _counting_solve(monkeypatch)
    (tmp_path / "table.csv").mkdir()
    rc = main(["run", "--problem", "ellipse_test1", "--sweep", "4,8,16", "--out", str(tmp_path)])
    assert rc == 1
    assert f"cannot write {tmp_path / 'table.csv'}:" in capsys.readouterr().err
    assert len(calls) == 1


def test_failed_entry_keeps_the_finished_rows(tmp_path, capsys, monkeypatch):
    # the J=8 solve fails; the J=4 row is already on disk, as in the golden run
    calls = _counting_solve(monkeypatch, fail_at=2)
    rc = main(["run", "--problem", "ellipse_test1", "--sweep", "4,8,16", "--out", str(tmp_path)])
    assert rc == 2
    assert "param=8: sparse LU factorization failed" in capsys.readouterr().err
    assert len(calls) == 2
    for name, lines in (("table.csv", 2), ("diagnostics.csv", 2), ("table.md", 3)):
        golden = (GOLDEN / "ellipse_k2" / name).read_text().splitlines(keepends=True)
        assert (tmp_path / name).read_text() == "".join(golden[:lines]), name


@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["run", "--problem", "nope"],
    ["run", "--problem", "ellipse_test1", "--k", "x"],
    ["run", "--problem", "ellipse_test1", "--bogus"],
])
def test_usage_error_exits_1(argv, capsys):
    # exit code 2 is kept for numerical failure, so argparse's own 2 is mapped
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage: shiftfem") and out == ""


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: shiftfem")


@pytest.mark.parametrize("content", [b'\xff\xfe{"k": 2}', None])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is None:  # a directory cannot be read as a file
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}:")
    assert "Traceback" not in err


def test_readme_python_api_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    report, kt_dev = capsys.readouterr().out.splitlines()
    # the J=16 row of the golden ellipse k=2 run; 16 boundary elements
    with open(GOLDEN / "ellipse_k2" / "table.csv", newline="") as f:
        row = next(r for r in csv.DictReader(f) if r["param"] == "16")
    assert f"grad_err={row['grad_err']}," in report
    assert kt_dev == f"16 {row['kt_dev']}"


def test_readme_config_block_matches_the_config_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"mirrors `shiftfem\.cli\.ExperimentConfig`.*?```json\n(.*?)```",
                      readme, re.S)
    assert block is not None
    assert json.loads(block.group(1)) == json.loads(_json(ExperimentConfig()))


def test_ray_failure_names_stage_and_element(tmp_path, capsys):
    # e = 0.95 leaves the I=4 annulus mesh too coarse: a ray from the outer
    # arc's opposite vertex misses the outer circle inside its bracket
    cfg = ExperimentConfig(problem="annulus_test2", e=0.95, sweep=(4,), out_dir=str(tmp_path))
    with pytest.raises(MeshAssumptionViolated, match="too coarse for the curved boundary"):
        run_experiment(cfg)
    rc = main(["run", "--problem", "annulus_test2", "--e", "0.95", "--sweep", "4",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("sweep entry param=4: node layouts: element 0, edge 2: "
            "no sign change of g in bracket (0.5, 2.0)") in err
    assert "the mesh is too coarse for the curved boundary, refine it" in err


@pytest.mark.parametrize("k, sweep", [(3, "4"), (2, "8")])
def test_thin_annulus_runs_where_the_mesh_resolves_it(k, sweep, tmp_path):
    # the coarse-mesh rejection above must not reach well-posed neighbours
    assert main(["run", "--problem", "annulus_test2", "--e", "0.95", "--k", str(k),
                 "--sweep", sweep, "--out", str(tmp_path)]) == 0


def test_cli_exit_non_spd_gram(tmp_path, capsys, monkeypatch):
    # A trial Gram that is not positive definite (as a broken shift update
    # would give: Q - c I makes it G_trial - c L L^T) is a numerical failure
    # naming the sweep entry.
    def spoiled(dofmap, blocks, bases):
        update = assembly.shift_update(dofmap, blocks, bases)
        return replace(update, Q=update.Q - 1e3 * np.abs(blocks).max() * np.eye(len(update.Q)))

    monkeypatch.setattr(cli, "shift_update", spoiled)
    rc = main(["run", "--problem", "ellipse_test1", "--sweep", "4,8",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param=4: trial-space Gram: gram matrix is not positive definite" in err


def test_work_per_sweep_entry(tmp_path, monkeypatch):
    """Per entry that reports alpha_h: one element-block kernel, shared by A,
    the test Gram and the shift update, three sparse LUs (the solve, and one
    bordered factor per Gram that proves it SPD and holds its Schur
    complement) and one incomplete LU that orders both bordered factors."""
    calls = {"splu": 0, "spilu": 0, "blocks": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linsolve, "splu", counted("splu", linsolve.splu))
    monkeypatch.setattr(linsolve, "spilu", counted("spilu", linsolve.spilu))
    monkeypatch.setattr(assembly, "_stiffness_blocks",
                        counted("blocks", assembly._stiffness_blocks))
    cfg = ExperimentConfig(problem="ellipse_test1", k=2, sweep=(4, 8),
                           out_dir=str(tmp_path))
    run_experiment(cfg)
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    with_alpha = sum(1 for row in rows if row.split(",")[4])
    assert with_alpha == 2
    assert calls == {"splu": 3 * with_alpha, "spilu": with_alpha, "blocks": with_alpha}


def test_cli_config_file_with_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_json(_patch_cfg(tmp_path)))
    rc = main(["run", "--config", str(path), "--sweep", "2"])
    assert rc == 0
    assert len((tmp_path / "diagnostics.csv").read_text().splitlines()) == 2


def test_config_and_problem_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "x.json",
                                   "--problem", "ellipse_test1"])


def _rows(*reports, alpha_h=(None, None), kt_dev=(0.0, 0.0)):
    return [EntryResult(report=r, n_unknowns=1, kt_dev=kt, alpha_h=a, chord_gap=0.0,
                        residual=0.0, runtime_s=0.0)
            for r, a, kt in zip(reports, alpha_h, kt_dev)]


def test_markdown_layout_mirrors_reference_tables():
    reps = (ErrorReport(0.5, 0.25, 0.125, 0.5, 4),
            ErrorReport(0.125, 0.03125, 0.03125, 0.25, 8))
    md = render(_rows(*reps), "J", True)["table.md"].splitlines()
    assert md[0].split("|")[1].strip() == "J"
    assert "5.000000E-01" in md[2] and "--" in md[2]
    assert "2.000" in md[3] and "3.000" in md[3]


def test_csv_serialization_golden():
    reps = (ErrorReport(0.5, 0.25, 0.125, 0.5, 4),
            ErrorReport(0.125, 0.03125, 0.03125, 0.25, 8))
    rows = _rows(*reps, alpha_h=(0.5, None), kt_dev=(0.25, 0.125))
    out = render(rows, "J", True)["table.csv"]
    expected = (
        TABLE_HEADER + "\n"
        "4,0.5,0.5,,0.25,,0.125,,0.5,0.25\n"
        "8,0.25,0.125,2.0,0.03125,3.0,0.03125,2.0,,0.125\n"
    )
    assert out == expected
