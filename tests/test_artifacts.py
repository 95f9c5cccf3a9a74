"""Byte identity of the CLI's deterministic artifacts.

The files under ``tests/golden/`` were written by ``shiftfem run`` with the
arguments below, before dof numbering moved from coordinate matching to the
mesh topology. Their ``alpha_h`` cells were refrozen when the inf-sup
estimate became an exact low-rank reduction, which moved them by at most
2.1e-15 relative (the polygon's to exactly 1.0). Any change meant to keep
results bit for bit (reordering work, batching a loop, renumbering) must
reproduce them byte for byte; a change that moves a table cell on purpose
must refreeze them and say why.
"""

from pathlib import Path

import pytest

from shiftfem.cli import ENV_OUT_DIR, main

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = ("table.csv", "table.md", "diagnostics.csv")
RUNS = {
    "ellipse_k2": ["--problem", "ellipse_test1", "--k", "2", "--sweep", "4,8,16"],
    "annulus_k3_zero": ["--problem", "annulus_test2", "--k", "3", "--sweep", "8,16",
                        "--extension", "zero_outside"],
    "polygon_k2": ["--problem", "polygon_patch", "--k", "2", "--sweep", "2,4,8"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_artifacts_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_OUT_DIR, raising=False)
    assert main(["run", *RUNS[name], "--out", str(tmp_path)]) == 0
    for fname in OUTPUTS:
        got = (tmp_path / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"
