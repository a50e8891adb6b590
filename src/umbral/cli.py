"""Command-line surface: emit triangles and series, run identity checks.

Exit status:

- 0: the command succeeded and, for ``verify``, every case passed.
- 1: at least one identity case failed; the full report is still emitted.
- 2: a usage or parameter error, including a parameter that does not apply
  to the command (such as ``--a`` with ``verify t1``), an I/O error such
  as an ``--output`` path that cannot be written, or running out of memory.
  The message goes to stderr after ``error:``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .errors import UmbralError
from .identities import IDENTITY_IDS, verify
from .rationals import format_rational, parse_rational
from .series import Series
from .sheffer import FAMILIES
from .special import bernoulli_series, euler_series

SERIES_OPS = ("revert", "compose", "pow", "bernoulli-gf", "euler-gf")
# the series operations that each of these options applies to
SERIES_OPTIONS = {"coeffs": ("revert", "compose", "pow"), "inner": ("compose",),
                  "alpha": ("pow", "bernoulli-gf", "euler-gf")}
IDENTITIES = tuple(identity.lower() for identity in IDENTITY_IDS)
FORMATS = ("plain", "csv", "json")
# options whose value may start with "-" and still not be a plain number
SIGNED_VALUE_OPTIONS = ("--a", "--coeffs", "--inner", "--alpha")


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except UmbralError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _join_signed_values(argv: List[str]) -> List[str]:
    """Rewrite ``--a -1/2`` as ``--a=-1/2``.

    argparse reads a separate word such as ``-1/2`` or ``-1,1`` as an option
    and rejects the value.  No option of this CLI starts with ``-`` and a
    digit, so such a word after a value option is that option's value.
    """
    out: List[str] = []
    for word in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and word[:1] == "-" and word[1:2].isdigit():
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbral",
        description="Exact umbral-calculus tables, series operations and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a coefficient triangle")
    table.add_argument("--family", choices=[row.table for row in FAMILIES], required=True)
    table.add_argument("--a", type=_rational_arg, default=None,
                       help="abel parameter p/q, nonzero; only for --family abel (default 1)")
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--format", choices=FORMATS, default="plain")
    table.add_argument("--output", default=None, help="write to this path instead of stdout")
    table.set_defaults(handler=_cmd_table)

    series = sub.add_parser("series", help="run one series operation")
    series.add_argument("op", choices=SERIES_OPS)
    series.add_argument("--coeffs", default=None,
                        help='series literal "c0,c1,..."; for revert, compose and pow')
    series.add_argument("--inner", default=None, help="inner series literal; only for compose")
    series.add_argument("--alpha", type=_rational_arg, default=None,
                        help="exponent p/q for pow; order p/q for bernoulli-gf and euler-gf"
                             " (default 1)")
    series.add_argument("--trunc", type=int, default=None)
    series.add_argument("--output", default=None)
    series.set_defaults(handler=_cmd_series)

    ver = sub.add_parser("verify", help="verify an identity on an (n, m, k) grid")
    ver.add_argument("identity", choices=IDENTITIES)
    ver.add_argument("--n-max", type=int, required=True)
    ver.add_argument("--m-max", type=int, required=True)
    ver.add_argument("--a", type=_rational_arg, default=None,
                     help="abel parameter p/q; only for t3 (default 1) and xcheck --family abel")
    ver.add_argument("--family", choices=[name for row in FAMILIES for name in row.names],
                     default=None, help="sequence family; only for xcheck, which requires it")
    ver.add_argument("--format", choices=FORMATS, default="plain")
    ver.add_argument("--output", default=None)
    ver.set_defaults(handler=_cmd_verify)

    return parser


def _write(lines, output: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UmbralError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _emit(args, plain_lines, csv_lines, to_json_obj) -> None:
    """Render in the ``--format`` chosen, from whichever renderer it names."""
    if args.format == "csv":
        lines = csv_lines()
    elif args.format == "json":
        import json  # only here: no other format needs it, and it costs every start
        lines = [json.dumps(to_json_obj(), indent=2)]
    else:
        lines = plain_lines()
    _write(lines, args.output)


def _cmd_table(args) -> int:
    if args.n_max < 0:
        raise UmbralError("--n-max must be nonnegative")
    row = next(row for row in FAMILIES if row.table == args.family)
    params = ()
    if row.takes_a:
        params = (Fraction(1) if args.a is None else args.a,)
    elif args.a is not None:
        raise UmbralError(f"--a does not apply to table family {args.family!r}")
    triangle = row.closed_triangle(args.n_max, *params)

    def to_json_obj() -> dict:
        obj = {
            "family": args.family,
            "n_max": triangle.n_max,
            "rows": [[format_rational(c) for c in r] for r in triangle.rows],
        }
        if params:
            obj["a"] = format_rational(params[0])
        return obj

    _emit(args, triangle.plain_lines, triangle.csv_lines, to_json_obj)
    return 0


def _series_from_args(args, flag: str, value: Optional[str]) -> Series:
    if value is None:
        raise UmbralError(f"series {args.op!r} needs {flag}")
    return Series.from_text(value, trunc=args.trunc)


def _cmd_series(args) -> int:
    if args.trunc is not None and args.trunc < 1:
        raise UmbralError("--trunc must be a positive integer")
    for name, ops in SERIES_OPTIONS.items():
        if getattr(args, name) is not None and args.op not in ops:
            raise UmbralError(f"--{name} does not apply to series {args.op!r}")
    if args.op == "revert":
        result = _series_from_args(args, "--coeffs", args.coeffs).revert()
    elif args.op == "compose":
        outer = _series_from_args(args, "--coeffs", args.coeffs)
        inner = _series_from_args(args, "--inner", args.inner)
        result = outer.compose(inner)
    elif args.op == "pow":
        if args.alpha is None:
            raise UmbralError("series 'pow' needs --alpha")
        result = _series_from_args(args, "--coeffs", args.coeffs) ** args.alpha
    else:
        if args.trunc is None:
            raise UmbralError(f"series {args.op!r} needs --trunc")
        alpha = args.alpha if args.alpha is not None else Fraction(1)
        builder = bernoulli_series if args.op == "bernoulli-gf" else euler_series
        result = builder(alpha, args.trunc)
    _write([result.to_text()], args.output)
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.identity, args.n_max, args.m_max,
                    a=args.a, family_name=args.family)
    _emit(args, report.plain_lines, report.csv_lines, report.to_json_obj)
    return 0 if report.all_equal else 1


def main(argv: Optional[List[str]] = None) -> int:
    # exact results and inputs may have any number of digits, so the limit is
    # lifted for this call and the caller's value put back after it; the guard
    # is for early 3.10 releases, which have neither the limit nor these calls
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UmbralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
