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


def workprec_blocks(fn):
    """The `with mpmath.workprec(...)` statements in the body of `fn`."""
    return [node for node in ast.walk(fn) if isinstance(node, ast.With)
            and any(isinstance(item.context_expr, ast.Call)
                    and isinstance(item.context_expr.func, ast.Attribute)
                    and item.context_expr.func.attr == "workprec" for item in node.items)]


def called_names(tree):
    """The names of the functions called anywhere in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_one_precision_scope_per_route():
    # only a route's entry point sets the working precision; everything it
    # calls inside that scope runs at the caller's precision and never enters
    # another one, directly or through a helper of src/icewall
    functions = [node for f in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)]
    reaches = {fn.name for fn in functions if workprec_blocks(fn)}
    while True:   # close over callers: a function reaches a scope through its callees
        callers = {fn.name for fn in functions if not reaches.isdisjoint(called_names(fn))}
        if callers <= reaches:
            break
        reaches |= callers
    nested = sorted({f"{fn.name} -> {name}" for fn in functions for block in workprec_blocks(fn)
                     for name in called_names(block) if name in reaches})
    assert nested == []


def imported_packages(tree, in_functions=True):
    """The top-level package of every absolute import in `tree`, or only of
    those outside any function body: the imports that run on import."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]
        if in_functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, about 12 ms of every cold start;
    # the package's records are NamedTuples
    offenders = [f.name for f in PACKAGE.glob("*.py")
                 if "dataclasses" in imported_packages(ast.parse(f.read_text(encoding="utf-8")))]
    assert offenders == []


def test_only_lazy_imports_numpy_or_mpmath_at_module_level():
    # every other module takes them from icewall.lazy, which loads each on
    # first use, so that `import icewall.cli` loads neither
    offenders = [f"{f.name}: {name}" for f in PACKAGE.glob("*.py") if f.name != "lazy.py"
                 for name in imported_packages(ast.parse(f.read_text(encoding="utf-8")),
                                               in_functions=False)
                 if name in ("numpy", "mpmath")]
    assert offenders == []
