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
