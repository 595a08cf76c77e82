"""Static checks over the library source."""
import ast
from pathlib import Path

import pytest

import qarith

MODULES = sorted(
    p for p in Path(qarith.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_detector_flags_dead_names():
    tree = ast.parse("import json\nfrom math import pi, tau\nx = tau\n")
    assert _unused_imports(tree) == ["line 1: json", "line 2: pi"]


def _private_definitions(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s that no statement other than their own
    definition reads, by bare name or as an attribute, in any of the
    sources."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = []
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        reads.append(names)
    return [f"{module}: {name}"
            for k, (module, stmt) in enumerate(statements)
            for name in _private_definitions(stmt)
            if not any(name in r for j, r in enumerate(reads) if j != k)]


def test_no_dead_private_names():
    package = Path(qarith.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_dead_private_name_detector():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\n\ndef _recurse(n):\n    return _recurse(n)\n",
        "b.py": "import a\nx = a._USED\n",
    }
    assert _dead_private_names(sources) == ["a.py: _DEAD", "a.py: _recurse"]
