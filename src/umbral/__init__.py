"""Exact umbral calculus: Sheffer sequences, their powers under umbral
composition, and the combinatorial identities they satisfy."""

from .errors import (
    ClassMismatchError,
    InvalidInputError,
    InvalidParameterError,
    OutOfRangeError,
    UmbralError,
)
from .identities import IdentityCase, IdentityReport, verify
from .rationals import format_rational, parse_rational
from .series import Series
from .sheffer import (
    SequenceFamily,
    ShefferPair,
    apply_operator,
    family,
    pair_power,
    pairing,
    sheffer_triangle,
    transfer,
    umbral_power_gf,
    verify_orthogonality,
)
from .special import (
    abel_triangle,
    bernoulli_high,
    bernoulli_series,
    compositions,
    euler_high,
    euler_series,
    lah,
    lah_triangle,
    mittag_leffler_triangle,
    multinomial,
    stirling1_signed,
    stirling1_triangle,
    stirling1_unsigned,
)
from .triangles import CoeffTriangle

__version__ = "0.1.0"

__all__ = [
    "CoeffTriangle",
    "ClassMismatchError",
    "IdentityCase",
    "IdentityReport",
    "InvalidInputError",
    "InvalidParameterError",
    "OutOfRangeError",
    "SequenceFamily",
    "Series",
    "ShefferPair",
    "UmbralError",
    "abel_triangle",
    "apply_operator",
    "bernoulli_high",
    "bernoulli_series",
    "compositions",
    "euler_high",
    "euler_series",
    "family",
    "format_rational",
    "lah",
    "lah_triangle",
    "mittag_leffler_triangle",
    "multinomial",
    "pair_power",
    "pairing",
    "parse_rational",
    "sheffer_triangle",
    "stirling1_signed",
    "stirling1_triangle",
    "stirling1_unsigned",
    "transfer",
    "umbral_power_gf",
    "verify",
    "verify_orthogonality",
]
