"""Experiment configuration, runner artifacts, and command-line behavior."""

import json
import math
import re
from pathlib import Path

import pytest

from shiftfem import assembly, cli, linsolve
from shiftfem.analysis import CSV_HEADER
from shiftfem.cli import (DIAG_HEADER, ENV_OUT_DIR, ExperimentConfig,
                          build_parser, config_from_args, main, markdown_table,
                          run_experiment)
from shiftfem.errors import ConfigError
from shiftfem.mesh import gen_unit_square_mesh, load_mesh
from shiftfem.problems import polygon_patch


def _patch_cfg(tmp_path, **kw):
    base = dict(problem="polygon_patch", sweep=(2, 4), out_dir=str(tmp_path))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_round_trip():
    for cfg in (ExperimentConfig(),
                ExperimentConfig(problem="annulus_test2", e=0.3, k=3,
                                 sweep=(4, 8), extension_mode="zero_outside",
                                 angular_range="quarter_pi",
                                 out_dir="elsewhere", deterministic=False,
                                 dump_meshes=True)):
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_defaults_match_reference_experiment():
    cfg = ExperimentConfig()
    assert cfg.problem == "ellipse_test1"
    assert cfg.sweep == (4, 8, 16, 32, 64)
    assert cfg.k == 2 and cfg.e == 0.5
    assert cfg.extension_mode == "analytic"
    cfg.validate()


@pytest.mark.parametrize("kw", [
    {"problem": "torus_test"},
    {"k": 4},
    {"e": 1.5},
    {"sweep": ()},
    {"sweep": (8, 4)},
    {"sweep": (4, 4)},
    {"sweep": (0, 2)},
    {"problem": "annulus_test2", "sweep": (3, 6)},
    {"extension_mode": "extrapolate"},
    {"angular_range": "full_pi"},
    {"angular_range": "quarter_pi"},  # only annulus supports it
    {"sweep": (4, 6)},
    {"problem": "polygon_patch", "extension_mode": "zero_outside"},
])
def test_config_validation_rejects(kw):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kw).validate()


def test_quarter_pi_valid_for_annulus():
    ExperimentConfig(problem="annulus_test2",
                     angular_range="quarter_pi").validate()


@pytest.mark.parametrize("text", ["not json", "[1,2]", '{"sweep": 4}',
                                  '{"mystery_key": 1}'])
def test_config_parse_rejects(text):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(text)


def test_patch_run_errors_vanish_orders_sentinel(tmp_path):
    table = run_experiment(_patch_cfg(tmp_path))
    for r in table.reports:
        assert max(r.grad_err, r.l2_err, r.max_nodal_err) <= 1e-10
    assert all(math.isnan(o) for o in table.grad_orders)
    csv = (tmp_path / "table.csv").read_text()
    assert csv.splitlines()[0] == CSV_HEADER
    assert ",nan," in csv.splitlines()[2]


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


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    override = tmp_path / "override"
    monkeypatch.setenv(ENV_OUT_DIR, str(override))
    run_experiment(_patch_cfg(tmp_path / "ignored"))
    assert (override / "table.csv").is_file()
    assert not (tmp_path / "ignored").exists()


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


def test_custom_problem_requires_injection(tmp_path):
    cfg = _patch_cfg(tmp_path, problem="custom")
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    table = run_experiment(cfg, problem=polygon_patch(2),
                           mesh_for=gen_unit_square_mesh)
    assert len(table.reports) == 2
    assert table.reports[0].grad_err <= 1e-10


def test_extension_flag_shorthand(tmp_path):
    args = build_parser().parse_args(
        ["run", "--problem", "annulus_test2", "--sweep", "4,8",
         "--extension", "zero", "--out", str(tmp_path)])
    cfg = config_from_args(args)
    assert cfg.extension_mode == "zero_outside"
    assert cfg.sweep == (4, 8)


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
    ("problem", ["ellipse_test1"]), ("extension_mode", None), ("angular_range", 0.5),
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
    path.write_text(_patch_cfg(tmp_path).to_json())
    rc = main(["run", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param=2: sparse LU factorization failed" in err


def test_cli_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = main(["run", "--problem", "polygon_patch", "--sweep", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert "Traceback" not in err


def test_readme_config_block_matches_the_config_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"mirrors `shiftfem\.cli\.ExperimentConfig`.*?```json\n(.*?)```",
                      readme, re.S)
    assert block is not None
    assert json.loads(block.group(1)) == json.loads(ExperimentConfig().to_json())


def test_ray_failure_names_stage_and_element(tmp_path, capsys):
    # e = 0.95 leaves the I=4 annulus mesh too coarse: a ray from the outer
    # arc's opposite vertex misses the outer circle inside its bracket
    rc = main(["run", "--problem", "annulus_test2", "--e", "0.95", "--sweep", "4",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("sweep entry param=4: node layouts: element 0, edge 2: "
            "no sign change of g in bracket (0.5, 2.0)") in err


def test_cli_exit_non_spd_gram(tmp_path, capsys, monkeypatch):
    # A trial Gram that is not positive definite (as a broken dof map would
    # give) is a numerical failure naming the sweep entry.
    def negated(system, bases, choice="test_space"):
        G = assembly.assemble_gram(system, bases, choice)
        return -G if choice == "trial_space" else G

    monkeypatch.setattr(cli, "assemble_gram", negated)
    rc = main(["run", "--problem", "ellipse_test1", "--sweep", "4,8",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param=4" in err and "not positive definite" in err


def test_work_per_sweep_entry(tmp_path, monkeypatch):
    """Per entry that reports alpha_h: one element-block kernel, shared by A and
    both Grams, three sparse LUs (the solve, and one bordered factor per Gram
    that proves it SPD and holds its Schur complement) and one incomplete LU
    that orders both bordered factors."""
    calls = {"splu": 0, "spilu": 0, "blocks": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (linsolve, assembly):
        monkeypatch.setattr(module, "splu", counted("splu", module.splu))
    monkeypatch.setattr(assembly, "spilu", counted("spilu", assembly.spilu))
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
    path.write_text(_patch_cfg(tmp_path).to_json())
    rc = main(["run", "--config", str(path), "--sweep", "2"])
    assert rc == 0
    assert len((tmp_path / "diagnostics.csv").read_text().splitlines()) == 2


def test_config_and_problem_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "x.json",
                                   "--problem", "ellipse_test1"])


def test_markdown_layout_mirrors_reference_tables():
    from shiftfem.analysis import ConvergenceTable, ErrorReport
    reps = (ErrorReport(0.5, 0.25, 0.125, 0.5, 4),
            ErrorReport(0.125, 0.03125, 0.03125, 0.25, 8))
    tab = ConvergenceTable(reps, (2.0,), (3.0,), (2.0,))
    md = markdown_table(tab, "J").splitlines()
    assert md[0].split("|")[1].strip() == "J"
    assert "5.000000E-01" in md[2] and "--" in md[2]
    assert "2.000" in md[3] and "3.000" in md[3]
