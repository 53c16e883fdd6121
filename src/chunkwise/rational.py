"""Exact rational parsing and rendering on top of fractions.Fraction.

Every cost, bias, and perceived cost in this package is a Fraction; nothing
is ever rounded. Machine output renders as "p/q" in lowest terms (plain
integers render without the "/1").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("74.1", "741/10") to Fraction.

    Floats are rejected: they would silently lose exactness. So are bools,
    which Python counts as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty rational literal")
        return Fraction(text)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rat(value: Fraction) -> str:
    """Render a Fraction in lowest terms, e.g. "741/10" or "76"."""
    return str(value)
