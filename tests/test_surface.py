"""Every public function, public class and class field of the package is
reached by the package or its scripts.

A function or class that only tests use restates something the package
already does, and a field that only tests read is state kept for nobody;
this guard keeps such surface from growing back unnoticed.  Imports,
docstrings and ``__all__`` do not count as uses: only a name or an
attribute in code, and for a class only one outside its own body.
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


def _public_classes():
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _uses_outside_classes():
    """Names used in code, and attribute names, across the package and
    scripts, each with the names of the classes whose bodies the use sits in."""
    uses = set()

    def visit(node, inside):
        if isinstance(node, ast.ClassDef):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            uses.add((node.id, inside))
        elif isinstance(node, ast.Attribute):
            uses.add((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in PACKAGE + sorted((ROOT / "scripts").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return uses


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


def test_every_public_class_is_named_outside_its_own_body():
    uses = _uses_outside_classes()
    unused = [qualified for qualified, name in _public_classes()
              if not any(used == name and name not in inside for used, inside in uses)]
    assert unused == []
