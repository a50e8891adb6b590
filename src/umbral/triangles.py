"""Lower-triangular coefficient matrices of polynomial sequences.

Row ``n`` holds the coefficients ``s_{n,0} .. s_{n,n}`` of the n-th
polynomial, lowest degree first, and is that polynomial wherever one is
needed; entries above the diagonal are implicitly zero.  Umbral
composition of sequences is matrix multiplication of these triangles,
so the class carries exact matmul and ``powers`` (P^1 .. P^m in one
chain of matmuls) alongside row access.  Rows 0..n of a power depend only
on rows 0..n of the triangle, so one power list serves every smaller n.
A product runs over integer rows and columns, each scaled to its own lcm
denominator, and builds one ``Fraction`` per entry.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator

from .errors import InvalidInputError, InvalidParameterError, OutOfRangeError
from .rationals import RationalLike, align_columns, format_rational, scaled_to_integers


class CoeffTriangle:
    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        packed = []
        for n, row in enumerate(rows):
            entries = tuple(c if type(c) is Fraction else Fraction(c) for c in row)
            if len(entries) != n + 1:
                raise InvalidInputError(f"row {n} must have {n + 1} entries, got {len(entries)}")
            packed.append(entries)
        if not packed:
            raise InvalidInputError("a triangle needs at least row 0")
        self._rows = tuple(packed)

    @classmethod
    def identity(cls, n_max: int) -> "CoeffTriangle":
        return cls.from_entries(n_max, lambda n, k: Fraction(1) if n == k else Fraction(0))

    @classmethod
    def from_entries(cls, n_max: int, entry: Callable[[int, int], RationalLike]) -> "CoeffTriangle":
        if n_max < 0:
            raise InvalidParameterError("n_max must be nonnegative")
        return cls([[entry(n, k) for k in range(n + 1)] for n in range(n_max + 1)])

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    @property
    def rows(self) -> tuple:
        return self._rows

    def row(self, n: int) -> tuple:
        if not 0 <= n <= self.n_max:
            raise OutOfRangeError(f"row {n} outside triangle of size {self.n_max}")
        return self._rows[n]

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= n <= self.n_max:
            raise OutOfRangeError(f"row {n} outside triangle of size {self.n_max}")
        if k < 0 or k > n:
            return Fraction(0)
        return self._rows[n][k]

    def matmul(self, other: "CoeffTriangle") -> "CoeffTriangle":
        """Triangle product ``result[n][j] = sum_k self[n][k] * other[k][j]``.

        Each row of ``self`` and each column of ``other`` is scaled to
        integers over its own lcm denominator, so an entry costs one integer
        dot product and one ``Fraction``.
        """
        if self.n_max != other.n_max:
            raise InvalidInputError(
                f"triangle sizes differ: {self.n_max} vs {other.n_max}")
        size = self.n_max + 1
        columns = [scaled_to_integers(other._rows[k][j] for k in range(j, size))
                   for j in range(size)]
        rows = []
        for row in self._rows:
            left, d = scaled_to_integers(row)
            # column j pairs left[j:] with rows j.. of other; map stops at row n
            rows.append([Fraction(sum(map(mul, left[j:], column)), d * e)
                         for j, (column, e) in enumerate(columns[:len(row)])])
        return CoeffTriangle(rows)

    __matmul__ = matmul

    def powers(self, m_max: int) -> list:
        """The matrix powers P^1 .. P^m_max in order, from m_max - 1 matmuls
        (m_max >= 1; the identity is available explicitly)."""
        if m_max < 1:
            raise InvalidParameterError("matrix power needs m >= 1")
        result = [self]
        for _ in range(m_max - 1):
            result.append(result[-1].matmul(self))
        return result

    def plain_lines(self) -> Iterator[str]:
        """Aligned columns: a ``n\\k`` header, then ``n`` and row n's entries."""
        header = ["n\\k"] + [str(k) for k in range(self.n_max + 1)]
        rows = [[str(n)] + [format_rational(c) for c in row] for n, row in enumerate(self._rows)]
        return align_columns([header] + rows)

    def csv_lines(self) -> Iterator[str]:
        yield "n,k,value"
        for n, row in enumerate(self._rows):
            for k, value in enumerate(row):
                yield f"{n},{k},{format_rational(value)}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffTriangle):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"CoeffTriangle(n_max={self.n_max})"
