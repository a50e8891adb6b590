"""The public surface: ``umbral.__all__`` is exactly this list, so every
addition or removal of a public name is made on purpose.  Importing the
package loads no standard module that no result needs."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_import_path_leaves_out_unused_stdlib_modules():
    # a fresh interpreter without site, so only the package's own imports count
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, umbral.cli; print(umbral.__file__); "
            "print(*[name for name in ('dataclasses', 'inspect', 'json') if name in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    origin, loaded = result.stdout.splitlines()
    assert Path(origin).is_relative_to(src)
    assert loaded == ""
