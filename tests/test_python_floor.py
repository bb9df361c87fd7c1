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
