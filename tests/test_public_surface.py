"""The public surface: ``umbral.__all__`` is exactly this list, so every
addition or removal of a public name is made on purpose."""

import umbral

PUBLIC_NAMES = [
    "ClassMismatchError",
    "CoeffTriangle",
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


def test_all_is_the_pinned_list():
    assert sorted(umbral.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_name():
    namespace = {}
    exec("from umbral import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []
