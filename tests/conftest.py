from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from chunkwise import BiasProfile, TaskGraph, best_alternative
from chunkwise.errors import DeadEnd

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def outside_alpha(g, dist, b: Fraction, u: str, v: str):
    """Perceived cost of u's best option other than (u, v); None if no other."""
    try:
        return best_alternative(g, dist, BiasProfile(b), u, exclude_head=v)[1]
    except DeadEnd:
        return None


def s32_graph() -> TaskGraph:
    """The reference branching instance: three routes out of u.

    True route costs from u: 67 via w, 74.1 via v, 76 via z. A bias-2 agent
    perceives 132 / 88.1 / 76 and takes the worst route.
    """
    return TaskGraph(
        ["u", "w", "v", "z", "t"],
        [
            ("u", "w", "65"),
            ("w", "t", "2"),
            ("u", "v", "14"),
            ("v", "t", "60.1"),
            ("u", "z", "0"),
            ("z", "t", "76"),
        ],
        source="u",
        sink="t",
    )


@pytest.fixture
def s32() -> TaskGraph:
    return s32_graph()


@pytest.fixture
def s32_path() -> Path:
    return FIXTURES / "s32.json"


def series_gadgets() -> TaskGraph:
    """Two copies of the reference instance glued sink-to-source."""

    def gadget(u, w, v, z, t):
        return [
            (u, w, "65"),
            (w, t, "2"),
            (u, v, "14"),
            (v, t, "60.1"),
            (u, z, "0"),
            (z, t, "76"),
        ]

    return TaskGraph(
        ["u1", "w1", "v1", "z1", "m", "w2", "v2", "z2", "t"],
        gadget("u1", "w1", "v1", "z1", "m") + gadget("m", "w2", "v2", "z2", "t"),
        source="u1",
        sink="t",
    )


def frac(text: str) -> Fraction:
    return Fraction(text)
