"""The README's `` `NAME` = value `` claims name module-level constants of
src/shiftfem or of the benchmark runner, with those values."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = [*sorted((ROOT / "src" / "shiftfem").glob("*.py")), ROOT / "perfbench" / "run.py"]
CLAIM = re.compile(r"`([A-Z][A-Z0-9_]*)` = ([-+]?[0-9][0-9.]*(?:[eE][-+]?[0-9]+)?)")


def _module_constants(path):
    """(name, value) of each module-level ``NAME = <literal>`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        try:
            literal = ast.literal_eval(value)
        except ValueError:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, literal


def test_readme_constants_match_the_code():
    claims = CLAIM.findall(README.read_text())
    assert claims, "the README states no `NAME` = value claim"
    defined = {}
    for path in SOURCES:
        for name, value in _module_constants(path):
            defined.setdefault(name, []).append((path.name, value))
    for name, text in claims:
        claimed = float(text.rstrip("."))
        assert name in defined, f"README names {name}, which no module defines"
        for module, value in defined[name]:
            assert value == claimed, f"README says {name} = {text}; {module} has {value!r}"
