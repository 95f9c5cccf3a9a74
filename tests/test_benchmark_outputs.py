"""The benchmark's own output check, ``perfbench/run.py``'s ``check_outputs``.

The benchmark compares every ``table.csv`` cell of its default-seed runs with
``perfbench/reference`` at a relative ``REFERENCE_RTOL`` and holds the
convergence orders to its bands. This test loads the benchmark read-only and
runs its two gated workloads in-process, so a change that moves a cell past
that tolerance fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from shiftfem import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["paper_sweep", "annulus_dense"])
def test_default_seed_run_passes_the_benchmark_check(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # run.py imports its sibling as ``tracing``
    monkeypatch.setitem(sys.modules, "tracing", _load("tracing"))
    bench = _load("run")
    out = tmp_path / "out"
    config = bench.make_config(workload, bench.DEFAULT_SEED, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert bench.check_outputs(workload, bench.DEFAULT_SEED, config, out) == []
