"""Every name a module imports is referenced in that module, every
module-level definition of the package is reached from outside its tests,
and every optional parameter of a package def is passed by some call."""

import ast
import importlib
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


PACKAGE = ROOT / "src" / "ucpspace"
# Besides the package's own modules, the code that may reach its definitions:
# the benchmark and the acceptance gate.
REACHING = sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# Definitions kept although only unit tests reach them, each because a test
# uses it to pin another artifact to the code.
KEPT = {
    ("fileio", "parse_dump"): "test_cli reads back the .synth.json dumps that synthesize writes",
    ("fileio", "format_observable"): (
        "test_cli writes its observable fixtures with it; test_fileio round-trips parse_observable"
    ),
    ("cayley", "table_text"): "test_cayley pins docs/octonion-table.md to the multiplication table",
}


def loaded_names(node):
    """Every bare name and attribute name used under the node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def is_method(node):
    """A def in a class body that code reaches by name: a method or property, not a dunder."""
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def unreached_definitions(kept):
    """(module, name) of each definition of the package that nothing reaches.

    The definitions are each module-level def or class, and each method or
    property of a module-level class, named "Class.method".  A definition is
    reached when its name is loaded in another package module (the __init__
    re-exports do not count), in a REACHING file, in a module-level statement
    of its own module or in a reached definition of its own module; a method
    needs its class reached as well.  A class brings in its bases and its body
    less those methods.  `kept` counts as reached."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py") if p.stem != "__init__"
    }
    outside = set().union(*(loaded_names(ast.parse(p.read_text(encoding="utf-8"))) for p in REACHING))
    # (module, name) -> (the name that reaches it, its class's key or None, the nodes it brings in)
    defs = {}
    used = {}
    for module, tree in trees.items():
        used[module] = outside.union(*(loaded_names(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used[module].update(loaded_names(node))
                continue
            used[module].update(*(loaded_names(d) for d in node.decorator_list))
            if isinstance(node, ast.FunctionDef):
                defs[module, node.name] = (node.name, None, [node])
                continue
            methods = [m for m in node.body if is_method(m)]
            defs[module, node.name] = (node.name, None, node.bases + [s for s in node.body if s not in methods])
            for m in methods:
                defs[module, f"{node.name}.{m.name}"] = (m.name, (module, node.name), [m])
    reached = set()
    grown = True
    while grown:
        grown = False
        for key, (name, owner, nodes) in defs.items():
            if key not in reached and owner in reached | {None} and (key in kept or name in used[key[0]]):
                reached.add(key)
                used[key[0]].update(*(loaded_names(n) for n in nodes))
                grown = True
    return sorted(set(defs) - reached)


def test_no_unreached_library_surface():
    assert [f"{m}.{name}" for m, name in unreached_definitions(KEPT)] == []


def test_each_kept_definition_is_still_needed():
    # an entry goes once its definition is deleted or something else reaches it
    assert set(KEPT) <= set(unreached_definitions(()))


TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names():
    """(module, dotted attribute) of every name the benchmark's tracer rebinds,
    read from perfbench/tracing.py by AST, without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    install = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "install")
    # the literal tuples install loops over: the modules whose solve_lp it
    # rebinds and the oracle factories whose closures it wraps
    loops = {
        node.target.id: [elt.id if isinstance(elt, ast.Name) else elt.value for elt in node.iter.elts]
        for node in ast.walk(install)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    }
    # synthesis.oracle names the closures the factories return, not an attribute
    names = [tuple(name.split(".", 1)) for name in layers if name != "synthesis.oracle"]
    names += [(mod, "solve_lp") for mod in loops["mod"]]
    names += [("synthesis", factory) for factory in loops["factory"]]
    return names


def test_traced_names_resolve():
    # deleting a name the tracer rebinds would break `python3 -m pytest perfbench` and the benchmark
    names = traced_names()
    assert ("observables", "solve_lp") in names and ("linsolve", "rref") in names
    missing = []
    for module, dotted in names:
        owner = importlib.import_module(f"ucpspace.{module}")
        for attr in dotted.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{dotted}")
    assert missing == []


# The files whose calls may pass a parameter of a package def.
CALLERS = sorted(p for d in ("src", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))


def parameters(fn):
    """(name, positional index or None when keyword-only, has a default) of each named parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((arg.arg, i, i >= first) for i, arg in enumerate(positional))
    yield from ((arg.arg, None, default is not None) for arg, default in zip(args.kwonlyargs, args.kw_defaults))


def calls_in(node, fn=None):
    """(call, the def whose body holds it or None) for every call under the node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, fn
        yield from calls_in(child, child if isinstance(child, ast.FunctionDef) else fn)


def passed_value(call, param, index):
    """The expression a call passes for the parameter, True when a * or ** argument
    may pass it, or None when it passes nothing.  `index` counts the call's own
    arguments, so a method's self is already left out."""
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == param:
            return keyword.value
    for i, arg in enumerate(call.args if index is not None else ()):
        if isinstance(arg, ast.Starred):
            return True
        if i == index:
            return arg
    return None


def unpassed_parameters():
    """"module.def(parameter)" for each optional parameter of a package def that
    no call passes.  Calls match by the def's name (a class's name for __init__),
    whatever object they go through, so the check errs towards "passed".  A call
    that passes on a parameter of the package def it sits in, under the same
    name, counts only if that parameter is passed in turn; a parameter with no
    default and no matching call counts as passed, since its callers are unseen."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in CALLERS}
    params = {}  # (def node, parameter) -> label, None for a parameter without a default
    by_name = {}  # name a call uses -> [(def node, parameter, index in the call's arguments)]
    for path in sorted(PACKAGE.glob("*.py")):
        for owner in ast.walk(trees[path]):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                method = isinstance(owner, ast.ClassDef)
                shift = method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                name = owner.name if method and fn.name == "__init__" else fn.name
                for param, index, optional in parameters(fn):
                    label = f"{path.stem}.{owner.name + '.' if method else ''}{fn.name}({param})"
                    params[fn, param] = label if optional else None
                    by_name.setdefault(name, []).append((fn, param, None if index is None else index - shift))
    # (def node, parameter) -> the keys whose being passed makes it passed; None stands for always
    sources = {key: [] for key in params}
    for tree in trees.values():
        for call, caller in calls_in(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for fn, param, index in by_name.get(name, ()):
                value = passed_value(call, param, index)
                if value is not None:
                    forwarded = (caller, getattr(value, "id", None))
                    sources[fn, param].append(forwarded if forwarded in params else None)
    passed = {key for key, label in params.items() if label is None and not sources[key]}
    grown = True
    while grown:
        grown = False
        for key, via in sources.items():
            if key not in passed and any(v is None or v in passed for v in via):
                passed.add(key)
                grown = True
    return sorted(label for key, label in params.items() if label is not None and key not in passed)


def test_every_optional_parameter_is_passed():
    # a parameter that nothing passes is a constant: its default belongs in the body
    assert unpassed_parameters() == []
