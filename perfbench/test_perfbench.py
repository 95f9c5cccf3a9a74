"""Self-checks of the benchmark: seeds, output checks, and count repeatability.

Run from the repository root with ``python3 -m pytest perfbench``. The
count test makes real traced shiftfem runs and takes about a minute.
"""

import json
import shutil
import time

import pytest

import run
import tracing

EXACT_COUNTS = ("mesh.triangles", "mesh.boundary_elements", "spaces.unknowns",
                "assembly.a_nnz", "linsolve.lu_nnz", "geometry.ray_calls",
                "assembly.gram_calls", "analysis.alpha_h_fill")
COUNT_SEED = 7


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_default_seed_gives_e_half_and_other_seeds_stay_on_the_grid(workload):
    assert run.geometry_parameter(workload, run.DEFAULT_SEED) == 0.5
    lo, hi = run.WORKLOADS[workload]["e_range"]
    grid = {round(lo + (hi - lo) * j / run.E_STEPS, 6) for j in range(run.E_STEPS + 1)}
    drawn = {run.geometry_parameter(workload, seed) for seed in range(1, 200)}
    assert drawn == grid


def test_config_is_what_the_program_receives(tmp_path):
    cfg = run.make_config("annulus_cubic", 3, tmp_path)
    assert set(cfg) == {"problem", "k", "sweep", "extension_mode", "e",
                        "out_dir", "deterministic"}
    assert cfg["e"] == run.geometry_parameter("annulus_cubic", 3)
    assert json.loads(json.dumps(cfg)) == cfg


def _fake_outputs(tmp_path, workload, table_text):
    (tmp_path / "table.csv").write_text(table_text)
    for name in ("table.md", "diagnostics.csv"):
        (tmp_path / name).write_text("")
    return run.make_config(workload, run.DEFAULT_SEED, tmp_path)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reference_tables_pass_the_output_check(tmp_path, workload):
    text = (run.REFERENCE / f"{workload}.table.csv").read_text()
    cfg = _fake_outputs(tmp_path, workload, text)
    assert run.check_outputs(workload, run.DEFAULT_SEED, cfg, tmp_path) == []


def test_output_check_catches_a_changed_value_and_an_order_outside_its_band(tmp_path):
    lines = (run.REFERENCE / "ellipse_fine.table.csv").read_text().splitlines()
    header, first, second = lines
    cells = second.split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))  # grad_err, beyond REFERENCE_RTOL
    cfg = _fake_outputs(tmp_path, "ellipse_fine", "\n".join([header, first, ",".join(cells)]))
    assert any("differ from the reference" in p
               for p in run.check_outputs("ellipse_fine", run.DEFAULT_SEED, cfg, tmp_path))
    cells = second.split(",")
    cells[5] = "2.5"  # l2_order, below L2_BAND
    _fake_outputs(tmp_path, "ellipse_fine", "\n".join([header, first, ",".join(cells)]))
    assert any("L2 order" in p for p in run.check_outputs("ellipse_fine", 1, cfg, tmp_path))


def _traced_counts(workload, tmp):
    res, problems = run.one_run(workload, COUNT_SEED, tmp, True, time.perf_counter() + 300)
    assert problems == []
    metrics = tracing.layer_metrics(res["spans"], res["wall_s"], res["wall_s"])
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly(tmp_path, monkeypatch, workload):
    # The dense SVD at J = 32 (I = 32) takes most of a minute; smaller sizes
    # still cover the Gram and inf-sup counters.
    smaller = {"paper_sweep": [4, 8, 16], "annulus_dense": [8, 16]}
    if workload in smaller:
        monkeypatch.setitem(run.WORKLOADS, workload,
                            {**run.WORKLOADS[workload], "sweep": smaller[workload]})
    first = _traced_counts(workload, tmp_path / "a")
    shutil.rmtree(tmp_path / "a")
    second = _traced_counts(workload, tmp_path / "b")
    assert first == second
    assert first["mesh.triangles"] > 0 and first["linsolve.lu_nnz"] > 0
    if workload == "paper_sweep":
        assert first["assembly.gram_calls"] == 6
        assert first["analysis.alpha_h_fill"] == 1.0
