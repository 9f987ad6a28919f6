"""Every name a module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))

# observables binds solve_lp without calling it: perfbench's tracer rebinds
# observables.solve_lp by name, and install fails if the name is missing
ALLOWED = {("src/ucpspace/observables.py", "solve_lp")}


def imported_names(tree):
    """(name bound in the module, line) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    """Names loaded anywhere, plus the strings of a module-level __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    # quoted annotations such as "jordan.JordanElement"
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and isinstance(node.annotation, ast.Constant):
            names.update(n.id for n in ast.walk(ast.parse(node.annotation.value)) if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    rel = path.relative_to(ROOT).as_posix()
    return [
        f"{rel}:{line}: {name}"
        for name, line in imported_names(tree)
        if name not in used and (rel, name) not in ALLOWED
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_one_exception_is_still_needed():
    # the exception goes once the tracer stops rebinding observables.solve_lp
    for rel, name in ALLOWED:
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        assert name in dict(imported_names(tree))
        assert name not in referenced_names(tree)
