"""The contract between the CLI and the benchmark's tracer, ``perfbench/tracing.py``.

The tracer wraps every public shiftfem function bound in ``shiftfem.cli``
and reads work counts off their arguments and results; among them, the
unknown count of each inf-sup estimate is ``args[0].shape[0]``. This test
loads the tracer read-only and fails if the CLI stops honouring that.
"""

import importlib.util
import inspect
from pathlib import Path

from shiftfem import cli, spaces

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_grams_and_fills_alpha_h(tmp_path, monkeypatch, capsys):
    tracing = _load_tracing()
    # install() rebinds names in cli and spaces; record them so they are restored
    for name, obj in list(vars(cli).items()):
        if inspect.isfunction(obj):
            monkeypatch.setattr(cli, name, obj)
    monkeypatch.setattr(spaces, "ray_boundary_intersection", spaces.ray_boundary_intersection)
    tracer = tracing.install(cli, spaces)
    assert cli.main(["run", "--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8",
                     "--out", str(tmp_path)]) == 0
    spans = tracer.spans
    unknowns = {s[tracing.PARAM]: s[tracing.COUNTS]["unknowns"]
                for s in spans if s[tracing.NAME] == "build_dof_map"}
    infsup = {s[tracing.PARAM]: s[tracing.COUNTS]["n"]
              for s in spans if s[tracing.NAME] == "inf_sup_estimate"}
    assert infsup == unknowns == {4: 60, 8: 248}, (
        "inf_sup_estimate's first positional argument must be n x n: "
        "the tracer reads the unknown count from its shape[0]")
    metrics = tracing.layer_metrics(spans, 1.0, 1.0)
    assert metrics["assembly.gram_calls"][0] == 2
    assert metrics["analysis.alpha_h_fill"][0] == 1
    # one ray solve per curved sweep entry, through the binding in spaces
    # that the tracer wraps
    assert metrics["geometry.ray_calls"][0] == 2
