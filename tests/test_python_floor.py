"""Every Python file of the project parses as the oldest supported Python,
the ``requires-python`` floor in pyproject.toml, so syntax newer than
that fails here and not only in a CI job on the old interpreter."""

import ast
import os
import re

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_FLOOR = (3, 10)


def _sources():
    yield os.path.join(_ROOT, "conftest.py")
    for top in ("src", "tests", "perfbench"):
        for folder, _, files in os.walk(os.path.join(_ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def test_floor_matches_pyproject():
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', fh.read(), re.M)
    assert tuple(map(int, floor.groups())) == _FLOOR


def test_every_source_parses_as_the_floor_version():
    paths = list(_sources())
    assert any(path.endswith("_kernels.py") for path in paths)
    assert any(path.endswith("tracer.py") for path in paths)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=_FLOOR)


def _referenced_names(node):
    """Names that node refers to: plain names, attributes, import aliases
    and string constants, the way ``perfbench/tracer.py`` binds by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_public_definition_has_a_caller_in_the_project():
    # no public API that the library itself does not use: every top-level
    # public def or class of the package is named somewhere in src or
    # perfbench other than in its own body
    statements = []
    for path in _sources():
        rel = os.path.relpath(path, _ROOT)
        if rel.startswith(("src", "perfbench")):
            with open(path, encoding="utf-8") as fh:
                statements += [(rel, stmt) for stmt in ast.parse(fh.read()).body]
    uses = [(stmt, _referenced_names(stmt)) for _, stmt in statements]
    public = [
        (rel, stmt)
        for rel, stmt in statements
        if rel.startswith(os.path.join("src", "mecdsa"))
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
    ]
    assert "point_add" in {stmt.name for _, stmt in public}
    unused = [
        (rel, stmt.name)
        for rel, stmt in public
        if not any(stmt.name in names for other, names in uses if other is not stmt)
    ]
    assert unused == []



_PACKAGE = os.path.join(_ROOT, "src", "mecdsa")


def test_package_root_holds_only_its_docstring():
    # the modules are the API: each name has one home, its module
    with open(os.path.join(_PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)


def test_no_module_defines_all():
    for path in _sources():
        if path.startswith(_PACKAGE):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert "__all__" not in names, path
