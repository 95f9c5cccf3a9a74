"""Experiment configuration, runner artifacts, and command-line behavior."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from shiftfem import analysis, assembly, linsolve
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
                                 angular_range="quarter_pi", load_degree=8,
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
    {"stiffness_degree": 17},
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


def test_cli_exit_numerical_failure(tmp_path, capsys):
    # A one-point stiffness rule under-integrates P2 and the system is
    # singular; the failing sweep entry is named.
    cfg = _patch_cfg(tmp_path, stiffness_degree=1)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    rc = main(["run", "--config", str(path)])
    assert rc == 2
    assert "param=2" in capsys.readouterr().err


def test_cli_exit_inf_sup_no_convergence(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(analysis, "eigsh", stalled)
    rc = main(["run", "--problem", "polygon_patch", "--sweep", "2,4",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "param=2" in capsys.readouterr().err


def test_work_per_sweep_entry(tmp_path, monkeypatch):
    """Per entry that reports alpha_h: one element-block kernel, shared by A and
    both Grams, and four sparse LUs (the solve, one SPD proof per Gram, and
    the inf-sup factor of A)."""
    calls = {"splu": 0, "blocks": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (linsolve, assembly, analysis):
        monkeypatch.setattr(module, "splu", counted("splu", module.splu))
    monkeypatch.setattr(assembly, "_stiffness_blocks",
                        counted("blocks", assembly._stiffness_blocks))
    cfg = ExperimentConfig(problem="ellipse_test1", k=2, sweep=(4, 8),
                           out_dir=str(tmp_path))
    run_experiment(cfg)
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    with_alpha = sum(1 for row in rows if row.split(",")[4])
    assert with_alpha == 2
    assert calls == {"splu": 4 * with_alpha, "blocks": with_alpha}


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
