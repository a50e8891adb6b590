"""Exact rational scalars and their canonical text form.

The coefficient field everywhere is the rationals, realised by
:class:`fractions.Fraction`, which already keeps values in canonical
form (reduced, positive denominator) and compares structurally.
This module owns the text representation used by the CLI and all
exporters: ``p`` or ``p/q`` with an optional sign and no whitespace, and
the aligned-column layout of the plain-text tables.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, Sequence, Union

from .errors import InvalidParameterError

Rational = Fraction
RationalLike = Union[Fraction, int]

_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``; the written denominator must be positive."""
    if not _RATIONAL_PATTERN.fullmatch(text):
        raise InvalidParameterError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InvalidParameterError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: RationalLike) -> str:
    """Canonical ``p`` or ``p/q`` text, the inverse of :func:`parse_rational`."""
    return str(Fraction(value))


def align_columns(rows: Sequence[Sequence[str]]) -> Iterator[str]:
    """Lay out rows of text cells, each column as wide as its widest cell,
    two spaces apart, with trailing blanks cut.  Rows may be ragged."""
    widths = [max(len(cell) for cell in column)
              for column in zip_longest(*rows, fillvalue="")]
    for row in rows:
        yield "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
