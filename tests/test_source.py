"""Static checks over the library source."""
import ast
from pathlib import Path

import pytest

import qarith
from qarith import catalog
from qarith.circuit import ALL_KINDS
from qarith.resources import CCX_TEMPLATE, SWAP_TEMPLATE

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


def _numpy_random_uses(tree: ast.Module) -> list[str]:
    """Lines that read `np.random` / `numpy.random` or import numpy.random."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.random") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_library_module_uses_numpy_random(path):
    # Seeded draws come from Python's random; numpy.random costs about 6 MB
    # of resident memory to import.
    assert _numpy_random_uses(ast.parse(path.read_text())) == []


def test_numpy_random_detector_flags_each_form():
    tree = ast.parse("import numpy as np\nimport numpy.random\n"
                     "from numpy import random\nfrom numpy.random import default_rng\n"
                     "from numpy import pi\nrng = np.random.default_rng(1)\n"
                     "x = numpy.random\ny = np.linalg\n")
    assert _numpy_random_uses(tree) == ["line 2", "line 3", "line 4", "line 6", "line 7"]


PACKAGE = Path(qarith.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests read, kept on purpose: name -> reason.
TEST_ONLY_PUBLIC = {
    "circuit.py: circuit_to_text": "the golden-file format",
}


def _definitions(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _reads(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unread_names(sources: dict[str, str], private: bool,
                  callers: dict[str, str] | None = None) -> list[str]:
    """Module-level private (`_name`) or public names of the sources that no
    statement other than their own definition reads, by bare name or as an
    attribute, in any of the sources or the callers."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = [_reads(stmt) for _, stmt in statements]
    outside = set().union(*(_reads(stmt) for text in (callers or {}).values()
                            for stmt in ast.parse(text).body))
    return [f"{module}: {name}"
            for k, (module, stmt) in enumerate(statements)
            for name in _definitions(stmt)
            if name.startswith("_") == private and not name.startswith("__")
            and name not in outside
            and not any(name in r for j, r in enumerate(reads) if j != k)]


def _sources(paths) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(paths)}


def test_no_dead_private_names():
    assert _unread_names(_sources(PACKAGE.glob("*.py")), private=True) == []


def test_dead_private_name_detector():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\n\ndef _recurse(n):\n    return _recurse(n)\n",
        "b.py": "import a\nx = a._USED\n",
    }
    assert _unread_names(sources, private=True) == ["a.py: _DEAD", "a.py: _recurse"]


def test_no_test_only_public_names():
    # The library's callers: the benchmark, and the acceptance gate.
    callers = _sources([*(ROOT / "perfbench").glob("*.py"),
                        ROOT / "tests" / "test_acceptance.py"])
    unread = _unread_names(_sources(PACKAGE.glob("*.py")), private=False,
                           callers=callers)
    assert sorted(unread) == sorted(TEST_ONLY_PUBLIC)


def test_test_only_public_name_detector():
    sources = {
        "a.py": "USED = 1\nDEAD = 2\n_private = 3\n\ndef walk(n):\n    return walk(n)\n",
        "b.py": "import a\nx = a.USED\n\ndef called():\n    pass\n",
    }
    callers = {"bench.py": "import b\nb.called()\n"}
    assert _unread_names(sources, private=False, callers=callers) == [
        "a.py: DEAD", "a.py: walk", "b.py: x"]


def test_only_adders_reads_the_ripple_accumulator():
    # Multipliers and modular arithmetic add through adders.inplace_adder, so
    # only adders.py knows how the ripple's carry register is sized.
    readers = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        if "emit_accumulate_add" in _reads(tree) | imported:
            readers.append(path.name)
    assert sorted(readers) == ["adders.py"]


def test_only_parse_name_reads_decimal_digits():
    # Algorithm names have one grammar, circuit.parse_name; a builder that
    # read its own integers would be another parser with its own refusals.
    readers = {(path.name, function) for path in PACKAGE.glob("*.py")
               for attr in ("isdecimal", "isdigit")
               for function in _functions_reading(ast.parse(path.read_text()),
                                                  None, attr)}
    assert sorted(readers) == [("circuit.py", "parse_name")]


def _functions_reading(tree: ast.AST, owner: str | None, attr: str) -> list[str]:
    """Names of the innermost functions that load `owner.attr` (`attr` of
    any value when owner is None)."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Load)
                and (owner is None or isinstance(node.value, ast.Name)
                     and node.value.id == owner)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_builder_and_the_two_closed_forms_branch_on_build_mode():
    # Builder.adjoint and Builder.within take one path for both modes; the
    # mode decides only how a register holds its qubit ids (_alloc: a range
    # when counting, a tuple when recording), how a gate is kept (by x, cnot
    # and ccx, and by _emit for the other kinds), the tally-only calls, the
    # two counting memos (cached and repeat) and the two closed forms that
    # tally through bulk.
    builder = _functions_reading(ast.parse((PACKAGE / "circuit.py").read_text()),
                                 "self", "counting")
    assert sorted(builder) == ["_alloc", "_emit", "bulk", "cached", "ccx", "cnot",
                               "finalize", "repeat", "x"]
    constructions = [name for module in ("adders.py", "muldiv.py", "modexp.py")
                     for name in _functions_reading(
                         ast.parse((PACKAGE / module).read_text()), "bld", "counting")]
    assert sorted(constructions) == ["emit_copy", "emit_lookup"]


def test_every_gate_kind_has_a_producer():
    # A gate kind that no construction emits and no lowering template names
    # costs every builder, cache merge and lowering a branch for nothing.
    produced = {kind for template in (CCX_TEMPLATE, SWAP_TEMPLATE)
                for kind, _ in template}
    for op, algo, _ in catalog.catalog():
        for n in (2, 3) if op in ("modexp", "modmul_const") else (3,):
            produced.update(kind for kind, _, _ in catalog.build(op, algo, n).gates)
    assert sorted(ALL_KINDS - produced) == []


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(qarith.__all__) == sorted(imported)
