"""Independent reference computations used to pin expected test values.

Everything here is deliberately naive (direct recurrences, brute-force
sums, schoolbook products) and shares no code path with the package, so
a value confirmed by an oracle is evidence, not circularity.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def conv_product(a, b, n_terms):
    """Schoolbook Cauchy product of two coefficient lists."""
    out = []
    for k in range(n_terms):
        acc = Fraction(0)
        for i in range(k + 1):
            ai = a[i] if i < len(a) else Fraction(0)
            bj = b[k - i] if k - i < len(b) else Fraction(0)
            acc += Fraction(ai) * Fraction(bj)
        out.append(acc)
    return out


def conv_inverse(a, n_terms):
    """Solve c * a = 1 term by term; a[0] must be nonzero."""
    a = [Fraction(x) for x in a]
    out = [1 / a[0]]
    for k in range(1, n_terms):
        acc = Fraction(0)
        for i in range(1, k + 1):
            ai = a[i] if i < len(a) else Fraction(0)
            acc += ai * out[k - i]
        out.append(-out[0] * acc)
    return out


def conv_power(a, m, n_terms):
    """a^m by m schoolbook products; for m < 0, |m| products of
    :func:`conv_inverse` (a[0] must then be nonzero)."""
    base = a if m >= 0 else conv_inverse(a, n_terms)
    power = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for _ in range(abs(m)):
        power = conv_product(power, base, n_terms)
    return power


def exp_sum(s, n_terms):
    """exp(s) as the finite sum of s^j / j! for j < n_terms; s[0] must be 0,
    so s^j vanishes below t^j and the later terms add nothing."""
    assert Fraction(s[0]) == 0
    total = [Fraction(0)] * n_terms
    power = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for j in range(n_terms):
        for k in range(n_terms):
            total[k] += power[k] / math.factorial(j)
        power = conv_product(power, s, n_terms)
    return total


def brute_compose(outer, inner, n_terms):
    """Compose by explicitly summing outer_k * inner^k; inner[0] must be 0."""
    assert Fraction(inner[0]) == 0
    result = [Fraction(0)] * n_terms
    power = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for k in range(n_terms):
        if k < len(outer):
            c = Fraction(outer[k])
            if c:
                for j in range(n_terms):
                    result[j] += c * power[j]
        power = conv_product(power, inner, n_terms)
    return result


def lagrange_revert(f, n_terms):
    """Compositional inverse of a delta series f (f[0] = 0, f[1] != 0) by
    Lagrange inversion: [t^m] fbar = [t^(m-1)] (t/f)^m / m, one power of
    t/f per coefficient."""
    assert Fraction(f[0]) == 0 and Fraction(f[1]) != 0
    u = conv_inverse(f[1:], n_terms - 1)
    out = [Fraction(0)]
    power = [Fraction(1)]
    for m in range(1, n_terms):
        power = conv_product(power, u, n_terms - 1)
        out.append(power[m - 1] / m)
    return out


def classical_bernoulli(n_top):
    """B_0..B_n via the recurrence sum_{j<=m} C(m+1, j) B_j = 0 (B_1 = -1/2)."""
    values = [Fraction(1)]
    for m in range(1, n_top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


def egf_coeffs_from_ordinary(ordinary):
    return [math.factorial(k) * Fraction(c) for k, c in enumerate(ordinary)]


def poly_product(a, b):
    """Schoolbook polynomial product of coefficient lists (lowest degree first)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def mittag_leffler_row(n):
    """Row n of the Mittag-Leffler triangle: sum_{r=1..n} C(n,r) (n-1)!/(r-1)! 2^r
    times x(x-1)...(x-r+1), each falling factorial expanded factor by factor
    with :func:`poly_product`; row 0 is [1]."""
    if n == 0:
        return [Fraction(1)]
    row = [Fraction(0)] * (n + 1)
    falling = [Fraction(1)]
    for r in range(1, n + 1):
        falling = poly_product(falling, [-(r - 1), 1])
        weight = Fraction(math.comb(n, r) * math.factorial(n - 1), math.factorial(r - 1)) * 2**r
        for k, c in enumerate(falling):
            row[k] += weight * c
    return row


def naive_matmul(a, b):
    """Product of two lower-triangular matrices given as row lists (row n has
    n + 1 entries), entry by entry: result[n][j] = sum_k a[n][k] * b[k][j]."""
    out = []
    for n in range(len(a)):
        row = []
        for j in range(n + 1):
            acc = Fraction(0)
            for k in range(j, n + 1):
                acc += Fraction(a[n][k]) * Fraction(b[k][j])
            row.append(acc)
        out.append(row)
    return out


def naive_chain_sum(entry, n, k, m):
    """Literal nested sum over chain indices l_1..l_{m-1} in 0..n of
    entry(n, l_1) entry(l_1, l_2) ... entry(l_{m-1}, k)."""
    if m == 1:
        return Fraction(entry(n, k))
    total = Fraction(0)
    indices = [0] * (m - 1)
    while True:
        prod = Fraction(entry(n, indices[0]))
        for i in range(m - 2):
            if not prod:
                break
            prod *= entry(indices[i], indices[i + 1])
        if prod:
            prod *= entry(indices[-1], k)
            total += prod
        pos = m - 2
        while pos >= 0 and indices[pos] == n:
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return total
        indices[pos] += 1


def lagrange_interpolate(points):
    """Coefficients (lowest first) of the polynomial through (x_i, y_i)."""
    degree = len(points) - 1
    coeffs = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = poly_product(basis, [-Fraction(xj), Fraction(1)])
            denom *= Fraction(xi) - Fraction(xj)
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs


@functools.lru_cache(maxsize=None)
def higher_order_number(kind, p, order):
    """p! [t^p] of (t/(e^t - 1))^order for ``kind`` "bernoulli", or of
    (2/(e^t + 1))^order for "euler", at an integer order: |order| schoolbook
    products of the base series or of its inverse."""
    if kind == "bernoulli":
        reciprocal = [Fraction(1, math.factorial(j + 1)) for j in range(p + 1)]  # (e^t - 1)/t
    else:
        reciprocal = [Fraction(1)] + [Fraction(1, 2 * math.factorial(j)) for j in range(1, p + 1)]
    return math.factorial(p) * conv_power(reciprocal, -order, p + 1)[p]


def composition_terms(n, k, m, factor):
    """(parts, multinomial(n-1; parts, k-1) * factor(parts)) for every m-tuple of
    nonnegative integers summing to n - k, in the lexicographic order of an
    ``itertools.product`` listing."""
    terms = []
    for parts in itertools.product(range(n - k + 1), repeat=m):
        if sum(parts) == n - k:
            mult = Fraction(math.factorial(n - 1), math.factorial(k - 1))
            for part in parts:
                mult /= math.factorial(part)
            terms.append((parts, mult * factor(parts)))
    return terms


def composition_sum(n, k, m, factor):
    """Plain ``Fraction`` sum of :func:`composition_terms`."""
    return sum((term for _, term in composition_terms(n, k, m, factor)), Fraction(0))
