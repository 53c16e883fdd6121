"""Exact rational parsing and rendering on top of fractions.Fraction; the JSON writer.

Every cost, bias, and perceived cost in this package is a Fraction; nothing
is ever rounded. Machine output renders as "p/q" in lowest terms (plain
integers render without the "/1").
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Union

Rat = Fraction
RatLike = Union[Fraction, int, str]

MAX_DIGITS = 4300  # Python's int-to-str limit: every value rat accepts renders and reparses
RULE = ("an optional sign, then ASCII digits with an optional '.digits', or digits '/' digits,"
        f" with at most {MAX_DIGITS} digits above and below the bar")


def parse_rat(text: str) -> tuple[int, int]:
    """The (numerator, denominator) in lowest terms of an exact string such
    as "74.1" or "741/10"; the denominator is positive.

    The string, stripped of surrounding whitespace, must be an optional sign,
    then ASCII digits with an optional ".digits", or digits "/" digits, with
    at most MAX_DIGITS digits above the bar (a decimal's on both sides of
    the point) and below it, checked before any int(); any other string, or
    a zero denominator, raises ValueError naming this rule (RULE).

    The forms every saved graph holds, unsigned digits or "p/q" with no
    whitespace, are read first; any other string takes the full rule above.
    """
    num, sep, low = text.partition("/")
    if (
        text.isascii() and num.isdigit() and (not sep or low.isdigit())
        and len(low) <= MAX_DIGITS and len(num) <= MAX_DIGITS
    ):
        if not sep:
            return int(num), 1
        n, d = int(num), int(low)
    else:
        text = text.strip()
        # Split at "/" for "p/q", else at "." for a decimal; sep is "" for an integer.
        num, sep, low = text.partition("/")
        if not sep:
            num, sep, low = num.partition(".")
        digits = num[1:] if num[:1] in "+-" else num
        body = digits + low
        top = body if sep == "." else digits  # a decimal's numerator: both sides of the point
        n = d = 0
        if (
            body.isascii() and body.isdigit() and digits and (low or not sep)
            and len(top) <= MAX_DIGITS and len(low) <= MAX_DIGITS
        ):
            if sep == ".":
                n, d = int(num + low), 10 ** len(low)
            else:
                n, d = int(num), int(low) if sep else 1
    if d:
        common = gcd(n, d)
        return n // common, d // common
    shown = text if len(text) <= 40 else text[:40] + "..."
    raise ValueError(f"not an exact rational: {shown!r}; expected {RULE}")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("74.1", "741/10") to Fraction.

    A string is read by `parse_rat`, whose ValueError it raises. Floats
    (inexact) and bools (which Python counts as ints) raise TypeError.
    """
    if isinstance(value, str):
        return Fraction(*parse_rat(value))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rat(value: Fraction) -> str:
    """Render a Fraction in lowest terms, e.g. "741/10" or "76"."""
    return str(value)


def dump_json(value: object, indent: str = "\n") -> str:
    """What `json.dumps` writes at an indent of 2, for str dict keys: strings go
    through the C string encoder, lists, tuples and dicts are laid out here,
    one item a line, and every other value is handed to `json.dumps`. Types
    match exactly: no caller passes a dict, list or tuple subclass."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if kind is dict:
        items = [
            encode_basestring_ascii(k) + ": "
            + (encode_basestring_ascii(v) if type(v) is str else dump_json(v, inner))
            for k, v in value.items()
        ]
    elif kind is list or kind is tuple:
        items = [
            encode_basestring_ascii(v) if type(v) is str else dump_json(v, inner)
            for v in value
        ]
    else:
        return json.dumps(value)
    brackets = "{}" if kind is dict else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]
