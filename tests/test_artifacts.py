"""Byte identity of the CLI's deterministic artifacts.

These goldens, with the benchmark's reference tables (compared at a relative
``REFERENCE_RTOL`` = 1e-9), are what pins bits; the loop and scalar oracles
of the other tests only bound rounding. The files under ``tests/golden/``
were written by ``shiftfem run`` with the arguments below, before dof
numbering moved from coordinate matching to the mesh topology. Their
refreezes, each made with ``refreeze_goldens.py``:

- the ``alpha_h`` cells, when the inf-sup estimate became an exact low-rank
  reduction: at most 2.1e-15 relative (the polygon's to exactly 1.0);
- the ``polygon_k2`` files, when its patch polynomial became one table for
  every degree: rounding-level errors only;
- the error cells, when ``error_norms`` contracted the coefficients first
  and summed with plain reductions and the load became one ``F - lift``
  scatter: ``grad_err``, ``l2_err`` and their orders moved by at most
  5.0e-15 (``ellipse_k2``) and 4.7e-13 (``annulus_k3_zero``) relative, the
  ``polygon_k2`` patch errors and residuals at rounding level; every other
  column, and both curved ``diagnostics.csv`` files, stayed byte-identical.

Any change meant to keep results bit for bit (reordering work, batching a
loop, renumbering) must reproduce them byte for byte; a change that moves a
table cell on purpose must refreeze them and say why.
"""

from pathlib import Path

import pytest

from shiftfem.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = ("table.csv", "table.md", "diagnostics.csv")
RUNS = {
    "ellipse_k2": ["--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8,16"],
    "annulus_k3_zero": ["--problem", "annulus_test2", "--k", "3", "--sweep", "8,16",
                        "--extension", "zero_outside"],
    "polygon_k2": ["--problem", "polygon_patch", "--k", "2", "--sweep", "2,4,8"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_artifacts_are_byte_identical(name, tmp_path, capsys):
    assert main(["run", *RUNS[name], "--out", str(tmp_path)]) == 0
    for fname in OUTPUTS:
        got = (tmp_path / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"
