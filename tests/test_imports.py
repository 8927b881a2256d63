"""Modules reach each other only through public names, and the CLI reaches computation only
through repro."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridgate"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offenders == []


def test_cli_imports_no_domain_function():
    # The CLI parses and writes; every computation reaches it through repro.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    callables = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module in ("dynamics", "gate", "hyperfine", "budget")
                 for alias in node.names
                 if callable(getattr(importlib.import_module(f"hybridgate.{node.module}"),
                                     alias.name))]
    assert callables == []
