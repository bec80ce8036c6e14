"""Packaging checks: the runtime has no dependencies outside the standard
library, which keeps pyproject.toml's `dependencies = []` true, parses
under the oldest Python its `requires-python` admits, and provides the
console script that `[project.scripts]` declares."""

from __future__ import annotations

import ast
import importlib
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


def test_declared_console_script_prints_help(capsys, monkeypatch):
    # An installed console script imports module:function, calls it with
    # no arguments and exits with what it returns.  tomllib is not in the
    # Python floor, so the table is read by regex.
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^\[project\.scripts\]\nmethodgit = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert script is not None
    module, function = script.groups()
    monkeypatch.setattr(sys, "argv", ["methodgit", "--help"])
    assert getattr(importlib.import_module(module), function)() == 0
    out = capsys.readouterr().out
    assert "convert" in out and "track" in out
