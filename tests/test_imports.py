"""Every name a module imports is used in it, every import sits at module
level, every private helper is used somewhere in the package, and no
function rebinds a module-level name.

Stdlib `ast` scans of the modules under src/prymcover/.  An imported name
that never appears as a Name node, nor as the base of an attribute chain, is
a leftover (the package's __init__.py re-exports on purpose and is skipped).
An import inside a function body hides a dependency from the module header.
A module-level `_`-prefixed function, class or constant that no module of
the package loads, by name, attribute or import, is dead.  A `global`
statement makes module state that changes behind its callers' backs; a cache
belongs in `functools.lru_cache`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "prymcover"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_name():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: List[int] = []\n") == [
        (1, "os"),
        (2, "Tuple"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_level_imports(source: str):
    """(line, function) for each import statement inside a function body."""
    tree = ast.parse(source)
    return sorted(
        (node.lineno, func.name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_scan_finds_a_function_level_import():
    source = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class C:\n"
        "    def g(self):\n"
        "        from . import modp\n"
        "        return modp\n"
    )
    assert function_level_imports(source) == [(3, "f"), (7, "g")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text()) == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(sources):
    """(module, line, name) for each private module-level definition in the
    {module: source} map that no module references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = {ref for tree in trees.values() for ref in _references(tree)}
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in used
    )


def test_private_scan_finds_a_dead_helper():
    sources = {
        "a": "_LIMIT = 3\n_Alias = int\ndef _dead():\n    return _LIMIT\n"
        "def _kept(x: _Alias):\n    return x\n",
        "b": "from a import _kept\nclass _Unused:\n    pass\n",
    }
    assert unused_private_names(sources) == [("a", 3, "_dead"), ("b", 2, "_Unused")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def global_statements(source: str):
    """(line, names) for each `global` statement in the source."""
    return sorted(
        (node.lineno, tuple(node.names))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    )


def test_scan_finds_a_global_statement():
    source = (
        "_cache = {}\n"
        "_count = 0\n"
        "def f(x):\n"
        "    _cache[x] = x\n"
        "    global _count, _last\n"
        "    _count += 1\n"
    )
    assert global_statements(source) == [(5, ("_count", "_last"))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []
