"""Every module under src/chunkwise uses every name it imports, and imports
only at module level.

A deletion can leave an import behind that nothing reads any more. The check
parses each module with ast: a name imported at any level must appear as a
name somewhere in the module, or, for the package's __init__, in __all__.
An import inside a function hides a module's dependencies and runs on every
call; no module of the package needs one to break an import cycle.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chunkwise"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_detected():
    source = "import os\nfrom json import dumps, loads\n\nprint(loads('1'))\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]
    assert unused_imports("from .x import a\n\n__all__ = ['a']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {
        path.name: unused
        for path in modules
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def imports_in_functions(source: str) -> list[str]:
    lines = {
        node.lineno
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(lines)]


def test_imports_inside_functions_are_detected():
    source = (
        "import os\n\n\ndef f():\n    from json import dumps\n\n"
        "    def g():\n        import re\n\n\nclass C:\n    def m(self):\n        import io\n"
    )
    assert imports_in_functions(source) == ["line 5", "line 8", "line 13"]
    assert imports_in_functions("import os\n\n\ndef f():\n    return os\n") == []


def test_no_module_imports_inside_a_function():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := imports_in_functions(path.read_text(encoding="utf-8")))
    }
    assert found == {}
