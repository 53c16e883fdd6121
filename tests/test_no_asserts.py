"""No module under src/chunkwise uses an `assert` statement.

`python -O` strips asserts, so an invariant written as one would vanish
there; the package raises InvariantViolation instead. The check parses each
module with ast, so it also finds an assert that no test reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chunkwise"


def assert_lines(source: str) -> list[int]:
    """Line of every assert statement in source, ascending."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_asserts_are_detected():
    source = 'def f(x):\n    assert x, "x"\n    return "assert x"\n\nassert True\n'
    assert assert_lines(source) == [2, 5]
    assert assert_lines("def assert_ok(x):\n    return x\n") == []


def test_no_module_uses_an_assert_statement():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {
        path.name: lines
        for path in modules
        if (lines := assert_lines(path.read_text(encoding="utf-8")))
    }
    assert found == {}
