"""The package holds only code that its routes, checks, scripts or
benchmark reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icewall"


def identifiers(tree):
    """(name, line) of every name, attribute and imported name in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_top_level_name_is_used_outside_its_definition():
    # code that only tests reach does not grow back: each top-level def or
    # class of src/icewall is named in src/icewall, scripts/ or perfbench/
    # somewhere outside its own body
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    uses = [(f, name, line) for f, tree in trees.items() for name, line in identifiers(tree)]
    unused = [f"{f.name}: {node.name}"
              for f in PACKAGE.glob("*.py") for node in trees[f].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(name == node.name
                          and not (g == f and node.lineno <= line <= node.end_lineno)
                          for g, name, line in uses)]
    assert unused == []
