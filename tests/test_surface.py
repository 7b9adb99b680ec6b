"""Every public function and every class field of the package is reached by
the package or its scripts.

A function that only tests call restates something the package already
does, and a field that only tests read is state kept for nobody; this guard
keeps such surface from growing back unnoticed.  Imports and docstrings do
not count as uses: only a name or an attribute in code.
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


def _class_fields():
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", item.target.id


def _uses():
    """Names used in code, and attribute names read, across the package and scripts."""
    names, attributes = set(), set()
    for path in PACKAGE + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    return names, attributes


def test_every_public_function_is_used_outside_the_tests():
    used, _ = _uses()
    unused = [qualified for qualified, name in _public_functions() if name not in used]
    assert unused == []


def test_every_class_field_is_read_outside_the_tests():
    _, read = _uses()
    unread = [qualified for qualified, name in _class_fields() if name not in read]
    assert unread == []
