"""Every public function of the package is reached by the package or its scripts.

A function that only tests call restates something the package already
does; this guard keeps such surface from growing back unnoticed.  Imports
and docstrings do not count as uses: only a name or an attribute in code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cvcloner").glob("*.py"))


def _public_functions():
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _names_used():
    used = set()
    for path in PACKAGE + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_function_is_used_outside_the_tests():
    used = _names_used()
    unused = [qualified for qualified, name in _public_functions() if name not in used]
    assert unused == []
