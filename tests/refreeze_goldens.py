"""Rewrite the golden artifacts of named ``test_artifacts.RUNS`` entries.

    PYTHONPATH=src python tests/refreeze_goldens.py polygon_k2 [NAME ...]

Each named run goes through ``shiftfem run`` with its ``RUNS`` arguments, and
its ``table.csv``, ``table.md`` and ``diagnostics.csv`` replace the files in
``tests/golden/<name>/``. For every column of the two CSV files the script
prints the largest relative change against the old file (``inf`` where a zero
or a non-number moved), so a refreeze can state how far each cell went. Use
it only for a change that moves cells on purpose; a change meant to be exact
must pass ``test_artifacts`` unchanged.
"""

import contextlib
import csv
import io
import math
import sys
import tempfile
from pathlib import Path

from shiftfem.cli import main

from test_artifacts import GOLDEN, OUTPUTS, RUNS


def _relative_change(old: str, new: str) -> float:
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if math.isnan(a) or math.isnan(b) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def column_changes(old_text: str, new_text: str) -> dict[str, float]:
    """Largest relative change per column of two CSV texts with one header."""
    old = list(csv.DictReader(io.StringIO(old_text)))
    new = list(csv.DictReader(io.StringIO(new_text)))
    if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
        raise SystemExit("the rows or the columns changed; compare the files by hand")
    cols = new[0].keys() if new else []
    return {c: max(_relative_change(o[c], n[c]) for o, n in zip(old, new)) for c in cols}


def refreeze(name: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", *RUNS[name], "--out", tmp])
        if code != 0:
            raise SystemExit(f"{name}: shiftfem run exited {code}")
        (GOLDEN / name).mkdir(exist_ok=True)
        for fname in OUTPUTS:
            new, path = (Path(tmp) / fname).read_bytes(), GOLDEN / name / fname
            if fname.endswith(".csv") and path.exists():
                print(f"{name}/{fname}: largest relative change per column")
                for col, rel in column_changes(path.read_text(), new.decode()).items():
                    print(f"  {col:<12} {rel:.2e}")
            path.write_bytes(new)


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(RUNS))
    if len(sys.argv) < 2 or unknown:
        raise SystemExit(f"usage: refreeze_goldens.py NAME ...; NAME is one of {sorted(RUNS)}")
    for run_name in sys.argv[1:]:
        refreeze(run_name)
