"""Declared dependencies cover what the code calls."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_has_vecdot():
    # analysis.error_norms and mesh.make_mesh call np.vecdot, new in NumPy 2.0
    floor = re.search(r'"numpy>=(\d+)(?:\.\d+)*"', PYPROJECT.read_text())
    assert floor is not None, "pyproject.toml declares no numpy minimum"
    assert int(floor.group(1)) >= 2
