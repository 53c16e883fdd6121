"""Exact rational parsing and rendering on top of fractions.Fraction.

Every cost, bias, and perceived cost in this package is a Fraction; nothing
is ever rounded. Machine output renders as "p/q" in lowest terms (plain
integers render without the "/1").
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rat = Fraction
RatLike = Union[Fraction, int, str]

MAX_DIGITS = 4300  # Python's int-to-str limit: every value rat accepts renders and reparses
RULE = ("an optional sign, then ASCII digits with an optional '.digits', or digits '/' digits,"
        f" with at most {MAX_DIGITS} digits above and below the bar")
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("74.1", "741/10") to Fraction.

    A string, stripped of surrounding whitespace, must be an optional sign,
    then ASCII digits with an optional ".digits", or digits "/" digits, with
    at most MAX_DIGITS digits above the bar (a decimal's on both sides of
    the point) and below it, checked before any int(); any other string, or
    a zero denominator, raises ValueError naming this rule (RULE). Floats
    (inexact) and bools (which Python counts as ints) raise TypeError.
    """
    if isinstance(value, str):
        text = value.strip()
        m = _LITERAL.fullmatch(text)
        if m is not None:
            num, frac, den = m.groups("")
            if len(num.lstrip("+-")) + len(frac) <= MAX_DIGITS and len(den) <= MAX_DIGITS:
                denominator = int(den) if den else 10 ** len(frac)
                if denominator:
                    return Fraction(int(num + frac), denominator)
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(f"not an exact rational: {shown!r}; expected {RULE}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rat(value: Fraction) -> str:
    """Render a Fraction in lowest terms, e.g. "741/10" or "76"."""
    return str(value)
