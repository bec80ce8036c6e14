"""Packaging checks: the runtime has no dependencies outside the standard
library, which keeps pyproject.toml's `dependencies = []` true, and parses
under the oldest Python its `requires-python` admits."""

from __future__ import annotations

import ast
import pathlib
import re
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "methodgit"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(PACKAGE)}: {name}")
    assert outside == []


def test_modules_parse_under_the_declared_python_floor():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor is not None
    version = tuple(map(int, floor.groups()))
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
