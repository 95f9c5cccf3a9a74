"""Module layering: one module owns the sparse factorizations and one calls
them, one holds the formats of the run's artifacts, src/ defines only what
src/ uses and no method that doubles a function, a src/ dataclass stores only
fields that src/ or the benchmark's tracer reads as attributes, and the tests
reach src/ only through its public names."""

import ast
from pathlib import Path

from shiftfem.cli import DIAG_HEADER, TABLE_HEADER
from shiftfem.problems import PROBLEM_NAMES

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftfem"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TESTS = Path(__file__).resolve().parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_linsolve_imports_sparse_linalg():
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        if any(m == "scipy.sparse.linalg" or m.startswith("scipy.sparse.linalg.")
               for m in _imported_modules(ast.parse(path.read_text()))))
    assert importers == ["linsolve.py"]


def _called(tree, names):
    """The names in ``names`` a module calls, bare or as ``module.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                yield func.id
            elif (isinstance(func, ast.Attribute) and func.attr in names
                  and isinstance(func.value, ast.Name)
                  and func.value.id in ("linsolve", "analysis")):
                yield func.attr


def test_only_cli_runs_the_factorizations():
    # the runner's stages decide what is alive under each SuperLU factor; a
    # call from another module would factor outside that structure
    callers = sorted({(path.name, name) for path in SRC.glob("*.py")
                      for name in _called(ast.parse(path.read_text()),
                                          {"solve", "inf_sup_estimate"})})
    assert callers == [("cli.py", "inf_sup_estimate"), ("cli.py", "solve")]


def test_only_cli_holds_the_artifact_headers():
    holders = sorted(path.name for path in SRC.glob("*.py")
                     if any(h in path.read_text() for h in (TABLE_HEADER, DIAG_HEADER)))
    assert holders == ["cli.py"]


def _definitions(tree):
    """Public functions, classes and methods defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_definition_is_used_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = {name for tree in trees for name in _references(tree)}
    unused = sorted(name for tree in trees for name in _definitions(tree)
                    if not name.startswith("_") and name not in used)
    assert unused == []


def _dataclass_fields(tree):
    """(class, field) of every field of the dataclasses a module defines."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list):
            yield from ((cls.name, node.target.id) for node in cls.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))


def test_every_dataclass_field_is_read():
    # a field no stage reads is state carried for nothing; the tracer reads
    # its work counts off results, so its attribute reads count too. A read
    # through getattr with a computed name is not seen, and so not counted.
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {node.attr for tree in trees + [ast.parse(TRACER.read_text())]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{field}" for tree in trees
                    for cls, field in _dataclass_fields(tree) if field not in read)
    assert unread == []


def test_no_src_method_is_named_like_a_src_function():
    # a method named like a module-level function is most likely a second
    # door to it, which the check above cannot see: the shared name is used
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    functions = {node.name for tree in trees for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    twins = sorted(f"{cls.name}.{m.name}" for tree in trees for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for m in cls.body
                   if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                   and m.name in functions)
    assert twins == []


def _config_problem_default(tree):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "ExperimentConfig":
            return next(node.value for node in cls.body if isinstance(node, ast.AnnAssign)
                        and node.target.id == "problem")
    return None


def _mesh_family_keys(tree):
    return [key for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["MESH_FAMILIES"]
            for key in node.value.keys]


def test_only_problems_py_names_the_problems():
    # outside problems.py a problem is named only as the config default and
    # as its key in cli.MESH_FAMILIES, the one table of which mesh it sweeps
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "problems.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = [_config_problem_default(tree), *_mesh_family_keys(tree)]
        stray += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in PROBLEM_NAMES
                  and not any(node is a for a in allowed)]
    assert stray == []


def test_no_test_imports_a_private_name_from_shiftfem():
    # an oracle that imports the code it checks cannot catch that code's faults
    private = []
    for path in sorted(TESTS.glob("*.py")):
        for name in _imported_modules(ast.parse(path.read_text())):
            parts = name.split(".")
            if parts[0] == "shiftfem" and any(p.startswith("_") for p in parts):
                private.append((path.name, name))
    assert private == []
