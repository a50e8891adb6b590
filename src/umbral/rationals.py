"""Exact rational scalars and their canonical text form.

The coefficient field everywhere is the rationals, realised by
:class:`fractions.Fraction`, which already keeps values in canonical
form (reduced, positive denominator) and compares structurally.
This module owns the text representation used by the CLI and all
exporters, ``p`` or ``p/q`` with an optional sign and no whitespace; the
aligned-column layout of the plain-text tables; and
:func:`scaled_to_integers`, which puts rationals over their least common
denominator wherever integer arithmetic starts from them (a ``Series``
built from rationals, triangle products, the identity factor tables).
Text past Python's int/str digit limit, which is left as the caller set
it, is an error of this package that names ``sys.set_int_max_str_digits``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .errors import InvalidParameterError, OutOfRangeError

RationalLike = Union[Fraction, int]

_DIGIT_LIMIT = "exceeds the int/str digit limit; raise it with sys.set_int_max_str_digits"

_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?")


def scaled_to_integers(values: Iterable[RationalLike]) -> Tuple[List[int], int]:
    """The values as integer numerators over their lcm denominator, and that
    denominator (1 for no values)."""
    values = list(values)
    den = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (den // value.denominator) for value in values], den


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``; the written denominator must be positive."""
    if not _RATIONAL_PATTERN.fullmatch(text):
        raise InvalidParameterError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise InvalidParameterError(f"rational of {len(text)} characters {_DIGIT_LIMIT}") from exc
    if den == 0:
        raise InvalidParameterError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: RationalLike) -> str:
    """Canonical ``p`` or ``p/q`` text, the inverse of :func:`parse_rational`."""
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        raise OutOfRangeError(f"rational {_DIGIT_LIMIT}") from exc


def align_columns(rows: Sequence[Sequence[str]]) -> Iterator[str]:
    """Lay out rows of text cells, each column as wide as its widest cell,
    two spaces apart, with trailing blanks cut.  Rows may be ragged."""
    widths = [max(len(cell) for cell in column)
              for column in zip_longest(*rows, fillvalue="")]
    for row in rows:
        yield "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
