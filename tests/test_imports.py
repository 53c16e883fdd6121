"""Every module under src/chunkwise uses every name it imports.

A deletion can leave an import behind that nothing reads any more. The check
parses each module with ast: a name imported at any level must appear as a
name somewhere in the module, or, for the package's __init__, in __all__.
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
