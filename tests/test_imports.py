"""Modules reach each other only through public names."""

import ast
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
