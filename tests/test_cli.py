"""Command surface: output formats, exit-status contract, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbral import InvalidParameterError, OutOfRangeError, format_rational, parse_rational, special
from umbral.cli import IDENTITIES, SERIES_OPS, main
from umbral.rationals import scaled_to_integers
from umbral.sheffer import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table ------------------------------------------------------------------------


def test_table_lah_csv(capsys):
    code, out, err = run(capsys, "table", "--family", "lah", "--n-max", "3",
                         "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "3,1,6" in lines
    assert "3,2,6" in lines
    assert err == ""


def test_table_stirling_plain(capsys):
    code, out, _ = run(capsys, "table", "--family", "stirling1u", "--n-max", "3")
    assert code == 0
    assert out.splitlines()[0].startswith("n\\k")
    assert "2  3  1" in out


def test_table_signed_families(capsys):
    code, out, _ = run(capsys, "table", "--family", "stirling1s", "--n-max", "3",
                       "--format", "csv")
    assert code == 0
    assert "3,2,-3" in out.splitlines()
    code, out, _ = run(capsys, "table", "--family", "lah-signed", "--n-max", "3",
                       "--format", "csv")
    assert "3,1,-6" in out.splitlines()


def test_table_abel_json_carries_parameter(capsys):
    code, out, _ = run(capsys, "table", "--family", "abel", "--n-max", "2",
                       "--a", "1/2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["a"] == "1/2"
    assert obj["rows"][2] == ["0", "-1", "1"]


def test_table_mittag_leffler(capsys):
    code, out, _ = run(capsys, "table", "--family", "mittag-leffler", "--n-max", "2",
                       "--format", "csv")
    assert code == 0
    assert "2,2,4" in out.splitlines()


def test_table_abel_rejects_zero_parameter(capsys):
    code, out, err = run(capsys, "table", "--family", "abel", "--n-max", "2", "--a", "0")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_table_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "bell", "--n-max", "2")
    assert code == 2
    assert err != ""


# -- series ----------------------------------------------------------------------------


def test_series_revert(capsys):
    code, out, _ = run(capsys, "series", "revert",
                       "--coeffs", "0,1,-1/2,1/6,-1/24", "--trunc", "5")
    assert code == 0
    assert out == "0,1,1/2,1/3,1/4\n"


def test_series_compose(capsys):
    code, out, _ = run(capsys, "series", "compose",
                       "--coeffs", "0,0,1,0", "--inner", "0,1,1,0")
    assert code == 0
    assert out == "0,0,1,2\n"


def test_series_pow_integer_and_rational(capsys):
    code, out, _ = run(capsys, "series", "pow", "--coeffs", "1,1,0,0", "--alpha", "2")
    assert code == 0
    assert out == "1,2,1,0\n"
    code, out, _ = run(capsys, "series", "pow", "--coeffs", "1,2,1", "--alpha", "1/2")
    assert out == "1,1,0\n"


def test_series_generating_functions(capsys):
    code, out, _ = run(capsys, "series", "bernoulli-gf", "--trunc", "4")
    assert code == 0
    assert out == "1,-1/2,1/12,0\n"
    code, out, _ = run(capsys, "series", "euler-gf", "--alpha", "1", "--trunc", "4")
    assert out == "1,-1/2,0,1/24\n"


def test_series_missing_arguments(capsys):
    code, _, err = run(capsys, "series", "revert", "--trunc", "4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "series", "compose", "--coeffs", "0,1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "series", "pow", "--coeffs", "1,1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "series", "bernoulli-gf")
    assert code == 2 and "error:" in err


def test_series_malformed_rational(capsys):
    code, _, err = run(capsys, "series", "revert", "--coeffs", "0,1/-2", "--trunc", "3")
    assert code == 2
    assert "error:" in err


def test_series_precondition_failure_is_parameter_error(capsys):
    code, _, err = run(capsys, "series", "revert", "--coeffs", "1,1", "--trunc", "3")
    assert code == 2
    assert "delta" in err


# -- verify -----------------------------------------------------------------------------------


def test_verify_t2_json(capsys):
    code, out, _ = run(capsys, "verify", "t2", "--n-max", "6", "--m-max", "3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["identity"] == "t2"
    assert obj["all_equal"] is True
    assert len(obj["cases"]) == 21 * 3


def test_verify_t3_csv(capsys):
    code, out, _ = run(capsys, "verify", "t3", "--n-max", "4", "--m-max", "2",
                       "--a", "-1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,n,m,k,lhs,rhs,equal"
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_xcheck_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "xcheck", "--family", "lah",
                       "--n-max", "6", "--m-max", "3", "--format", "plain")
    assert code == 0
    assert out.rstrip().endswith("all_equal: true")


def test_verify_remark_exits_one_but_reports(capsys):
    code, out, _ = run(capsys, "verify", "remark", "--n-max", "3", "--m-max", "1",
                       "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["all_equal"] is False
    interpretations = {c["interpretation"] for c in obj["cases"]}
    assert interpretations == {"literal", "indexed"}
    assert all(("diagnostics" in c) == (not c["equal"]) for c in obj["cases"])


@pytest.mark.parametrize("identity, n_max, m_max", [("remark", "30", "10"), ("t1", "30", "8")])
def test_verify_over_the_size_limit_is_a_usage_error(capsys, identity, n_max, m_max):
    special._bernoulli_series.cache_clear()
    special._euler_series.cache_clear()
    code, out, err = run(capsys, "verify", identity, "--n-max", n_max, "--m-max", m_max)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "compositions" in err
    assert special._bernoulli_series.cache_info().misses == 0
    assert special._euler_series.cache_info().misses == 0


def test_verify_xcheck_requires_family(capsys):
    code, _, err = run(capsys, "verify", "xcheck", "--n-max", "4", "--m-max", "2")
    assert code == 2
    assert "family" in err


def test_verify_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "verify", "t1", "--n-max", "0", "--m-max", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("table", "--family", "abel", "--n-max", "3", "--a", "-1/2"),
    ("verify", "t3", "--n-max", "3", "--m-max", "2", "--a", "-3/2"),
    ("verify", "xcheck", "--n-max", "3", "--m-max", "2", "--family", "abel", "--a", "-2/3"),
    ("series", "pow", "--coeffs", "-1,1", "--alpha", "2"),
    ("series", "pow", "--coeffs", "1,1", "--alpha", "-2/3", "--trunc", "4"),
    ("series", "compose", "--coeffs", "-1/2,1,3", "--inner", "0,1,-1"),
    ("series", "compose", "--coeffs", "1,2,3", "--inner", "-0,1,-1"),
    ("series", "bernoulli-gf", "--alpha", "-1/2", "--trunc", "4"),
    ("series", "revert", "--coeffs", "-1,1"),  # a parameter error in both forms
], ids=" ".join)
def test_signed_values_as_separate_words(argv, capsys):
    # the value after the last flag starts with "-" and is not a plain number;
    # "--flag value" must mean exactly what "--flag=value" means
    i = max(j for j, word in enumerate(argv) if word.startswith("-") and word[1:2].isdigit())
    joined = argv[:i - 1] + (f"{argv[i - 1]}={argv[i]}",) + argv[i + 1:]
    result = run(capsys, *argv)
    assert result == run(capsys, *joined)
    assert result[0] == (2 if argv[1] == "revert" else 0)


def test_negative_count_is_still_a_parameter_error(capsys):
    for argv in (("table", "--family", "lah", "--n-max", "-1"),
                 ("series", "revert", "--coeffs", "0,1", "--trunc", "-2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


# -- shared behaviour -----------------------------------------------------------------------------


def test_output_is_byte_deterministic(capsys):
    first = run(capsys, "verify", "t1", "--n-max", "5", "--m-max", "2", "--format", "json")
    second = run(capsys, "verify", "t1", "--n-max", "5", "--m-max", "2", "--format", "json")
    assert first == second
    a = run(capsys, "table", "--family", "mittag-leffler", "--n-max", "6", "--format", "csv")
    b = run(capsys, "table", "--family", "mittag-leffler", "--n-max", "6", "--format", "csv")
    assert a == b


def test_output_file(tmp_path, capsys):
    target = tmp_path / "triangle.csv"
    code, out, _ = run(capsys, "table", "--family", "lah", "--n-max", "2",
                       "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,k,value"


def test_unwritable_output_is_an_error_not_a_failure(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "verify", "t1", "--n-max", "2", "--m-max", "1",
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [
    ("verify", "t1", "--n-max", "2", "--m-max", "1", "--a", "2"),
    ("verify", "remark", "--n-max", "2", "--m-max", "1", "--a", "2"),
    ("verify", "t2", "--n-max", "2", "--m-max", "1", "--family", "abel"),
    ("verify", "xcheck", "--n-max", "2", "--m-max", "1", "--family", "lah", "--a", "2"),
    ("table", "--family", "lah", "--n-max", "2", "--a", "5"),
    ("series", "revert", "--coeffs", "0,1", "--alpha", "3"),
    ("series", "pow", "--coeffs", "1,1", "--alpha", "2", "--inner", "0,1"),
    ("series", "euler-gf", "--coeffs", "1,1", "--trunc", "3"),
], ids=" ".join)
def test_inapplicable_parameter_is_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_results_past_the_int_str_digit_limit(capsys):
    # (10^3000 - 1)^3 truncated to 3 terms: 3N = 2 9..9 7 and 3N^2 = 2 9..9 4 0..0 3
    nines = "9" * 3000
    code, out, err = run(capsys, "series", "pow", "--coeffs", f"1,{nines}",
                         "--alpha", "3", "--trunc", "3")
    assert (code, err) == (0, "")
    assert out == f"1,2{'9' * 2999}7,2{'9' * 2999}4{'0' * 2999}3\n"


def test_inputs_past_the_int_str_digit_limit(capsys):
    digits = "7" * 5000
    code, out, err = run(capsys, "series", "pow", "--coeffs", f"1,{digits}/3",
                         "--alpha", f"{digits}/{digits}")
    assert (code, err) == (0, "")
    assert out == f"1,{digits}/3\n"


@pytest.mark.parametrize("argv", [
    ("table", "--family", "lah", "--n-max", "1"),
    ("table", "--family", "lah", "--n-max", "-1"),
], ids=" ".join)
def test_main_restores_the_int_str_digit_limit(argv, default_int_digits, capsys):
    before = sys.get_int_max_str_digits()
    main(list(argv))
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == before


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


# -- properties at the boundary --------------------------------------------------------------------


@contextlib.contextmanager
def unlimited_int_digits():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def default_int_digits():
    # the interpreter's default limit, whatever an earlier test set
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


HUGE = 10 ** 5000


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(), st.integers(-HUGE, HUGE)),
       st.one_of(st.integers(1, 10 ** 6), st.integers(1, HUGE)))
def test_rational_text_round_trip(num, den):
    x = Fraction(num, den)
    with unlimited_int_digits():
        assert parse_rational(format_rational(x)) == x


@given(st.lists(st.one_of(st.integers(-10 ** 9, 10 ** 9),
                          st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                                    st.integers(1, 10 ** 9))), max_size=6))
def test_scaled_to_integers_is_exact_over_the_least_denominator(values):
    nums, den = scaled_to_integers(values)
    assert [Fraction(x, den) for x in nums] == values
    # no factor of den cancels from every numerator, so no smaller one exists
    assert math.gcd(den, *nums) == 1


def test_rational_text_past_the_digit_limit_is_an_umbral_error(default_int_digits):
    with pytest.raises(OutOfRangeError, match="set_int_max_str_digits"):
        format_rational(Fraction(1, HUGE))
    for text in ("1" * 5000, "-1/" + "7" * 5000):
        with pytest.raises(InvalidParameterError, match="set_int_max_str_digits"):
            parse_rational(text)


# about one in six rationals has a zero denominator and one in six is malformed
WELL_FORMED = [str(p) for p in range(-4, 5)] + [f"{p}/{q}" for p in range(-4, 5) for q in (1, 2, 3)]
RATIONAL_TEXT = st.sampled_from(
    WELL_FORMED + [f"{p}/0" for p in range(-4, 5)]
    + ["", "1/", "/2", "1.5", "x", "1/-2", "--1", "+3", "1/2/3"])
SERIES_TEXT = st.one_of(st.lists(st.sampled_from(WELL_FORMED), min_size=1, max_size=5),
                        st.lists(RATIONAL_TEXT, min_size=1, max_size=5),
                        st.sampled_from([[""], ["", ""], ["0", "", "1"], [" 1"]])).map(",".join)


def int_text(low, high):
    return st.sampled_from([str(i) for i in range(low, high + 1)] + ["x"])


def flag(name, values, optional=True):
    """``name`` and one drawn value, as one ``name=value`` word or as two
    words, or when ``optional`` possibly nothing."""
    given_flag = st.builds(lambda joined, v: [f"{name}={v}"] if joined else [name, v],
                           st.booleans(), values)
    return st.one_of(st.just([]), given_flag) if optional else given_flag


def argv_of(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


FAMILY_TEXT = st.sampled_from(
    [row.table for row in FAMILIES] + [n for row in FAMILIES for n in row.names] + ["nope"])
FORMAT_TEXT = st.sampled_from(["plain", "csv", "json"])
ARGV = st.one_of(
    argv_of(st.just(["table"]), flag("--family", FAMILY_TEXT, optional=False),
            flag("--n-max", int_text(-1, 5), optional=False),
            flag("--a", RATIONAL_TEXT), flag("--format", FORMAT_TEXT)),
    argv_of(st.just(["series"]), st.sampled_from(SERIES_OPS).map(lambda op: [op]),
            flag("--coeffs", SERIES_TEXT), flag("--inner", SERIES_TEXT),
            flag("--alpha", RATIONAL_TEXT), flag("--trunc", int_text(-1, 10))),
    argv_of(st.just(["verify"]), st.sampled_from(IDENTITIES).map(lambda i: [i]),
            flag("--n-max", int_text(-1, 5), optional=False),
            flag("--m-max", int_text(-1, 3), optional=False),
            flag("--a", RATIONAL_TEXT), flag("--family", FAMILY_TEXT),
            flag("--format", FORMAT_TEXT)),
    st.sampled_from([[], ["bogus"], ["--help"], ["table", "--n-max", "2"],
                     ["table", "--family", "lah", "--n-max", "2", "--format", "xml"],
                     ["series", "bogus"], ["verify", "t9", "--n-max", "2", "--m-max", "1"],
                     ["verify", "t1", "--n-max", "2"]]),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_every_argv_keeps_the_exit_code_contract(argv):
    # an exception escaping main fails the test: no input may end in a traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
