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
