"""Every file under src/chunkwise is read and written as bytes or with an
explicit encoding.

A text-mode `open`, `read_text` or `write_text` without `encoding=` uses the
locale's encoding, so the same file could read differently on another
machine; graphs and plans are UTF-8. The check parses each module with ast,
so it also finds a call that no test reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chunkwise"
TEXT_CALLS = ("open", "read_text", "write_text")


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an `open` call: builtin open's second positional
    argument, a method's first, or the `mode=` keyword."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def unencoded_lines(source: str) -> list[int]:
    """Line of every text-mode open, read_text or write_text call in source
    that passes no `encoding=`, ascending."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in TEXT_CALLS or any(k.arg == "encoding" for k in node.keywords):
            continue
        mode = _mode(node) if name == "open" else None
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        lines.append(node.lineno)
    return sorted(lines)


def test_unencoded_calls_are_detected():
    source = (
        'open("b.json")\n'
        'open("g.json", "rb")\n'
        'open("g.json", encoding="utf-8")\n'
        'path.open("w")\n'
        'path.open(mode="wb")\n'
        'path.read_text()\n'
        'path.read_text(encoding="utf-8")\n'
        'path.read_bytes()\n'
        'path.write_text(text)\n'
        'path.write_text(text, encoding="utf-8")\n'
    )
    assert unencoded_lines(source) == [1, 4, 6, 9]


def test_every_text_call_names_its_encoding():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {
        path.name: lines
        for path in modules
        if (lines := unencoded_lines(path.read_text(encoding="utf-8")))
    }
    assert found == {}
