"""Static checks on the package source, with the standard library only."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "colombeau"


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "CompactBox"``."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes += [a.annotation for a in every if a is not None and a.annotation is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in filter(None, notes):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never reads, re-exports or annotates with."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def function_imports(path: pathlib.Path) -> list[str]:
    """Import statements inside a function or method body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_import_inside_a_function(path):
    """Every module states what it depends on at its top, where a cycle
    shows up at import time rather than on some later call."""
    assert function_imports(path) == []


ROOT = PACKAGE.parents[1]


def defaulted_parameters() -> dict[tuple[str, str], list[tuple[int, str]]]:
    """(module, function) -> (position, name) of each parameter with a
    default, for every public module-level function of the package;
    keyword-only parameters have position -1."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(-1, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if params:
                out[str(path.relative_to(PACKAGE)), node.name] = params
    return out


def set_parameters() -> set[tuple[str, str]]:
    """(function name, parameter) for each argument some call in src/, tests/
    or perfbench/ passes: the keyword, ``#i`` for the i-th positional
    argument, and ``*`` for every parameter after ``*args`` or ``**kwargs``.
    A call is matched to a function by the name it calls."""
    out = set()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            for i, a in enumerate(call.args):
                out.add((name, "*" if isinstance(a, ast.Starred) else f"#{i}"))
            out |= {(name, kw.arg or "*") for kw in call.keywords}
    return out


def test_every_default_is_set():
    """A default that no call ever overrides is a constant in disguise: each
    one is a setting the tests would have to cover for nothing."""
    given = set_parameters()
    unset = [
        f"{module}:{name}({param})"
        for (module, name), params in defaulted_parameters().items()
        for pos, param in params
        if not given & {(name, "*"), (name, param), (name, f"#{pos}")}
    ]
    assert unset == []
