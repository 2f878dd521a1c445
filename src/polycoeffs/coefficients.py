"""Coefficients of integer powers of 1 + t + ... + t^m.

``coeff(n, k, m)`` is the coefficient of t^k in (1 + t + ... + t^m)^n for any
integer n (negative included), with the convention that it is 0 for k < 0.

The default path computes row prefixes by the paper's horizontal recurrence
T2-ix, k<n,k> = sum_{i<=m} ((n+1)i - k) <n,k-i>, which is J.C.P. Miller's
rule for powers of a series (``series.power``).  It needs no earlier row, so
a prefix of length k of any row, of either sign, costs O(k m) operations and
nothing is kept between calls.  Direct series expansion
(``coeff_by_series``) goes through the same ``power`` helper, so it checks
the plumbing rather than the recurrence.  The independent oracles, which
share no code path with Miller's rule, are the closed form
sum_j (-1)^j C(n,j) C(n+k-j(m+1)-1, k-j(m+1)), the recursive reduction of
the degree m down to ordinary binomials, and (for n >= 0) the multinomial
enumeration.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import NegativeN
from .series import TruncatedSeries, power


def _require_degree(m: int) -> None:
    if m < 1:
        raise ValueError("m must be at least 1")


def chi(m: int, k: int) -> int:
    """The coefficient of t^k in 1 / (1 + t + ... + t^m), in {-1, 0, 1}.

    Periodic with period m + 1: +1 when k = 0 (mod m+1), -1 when
    k = 1 (mod m+1), 0 otherwise, and 0 for all k < 0.  The degenerate
    m = 0 case is the indicator [k = 0].
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if k < 0:
        return 0
    if m == 0:
        return 1 if k == 0 else 0
    r = k % (m + 1)
    if r == 0:
        return 1
    if r == 1:
        return -1
    return 0


def coeff_by_recurrence(n: int, k: int, m: int) -> int:
    """Miller's row recurrence T2-ix (the default path)."""
    _require_degree(m)
    if k < 0 or (n >= 0 and k > m * n):
        return 0
    return power((1,) * (m + 1), n, k + 1)[k]


def coeff_by_series(n: int, k: int, m: int) -> int:
    """Direct extraction of [t^k] (1 + t + ... + t^m)^n via series powering."""
    _require_degree(m)
    if k < 0 or (n > 0 and k > m * n):
        return 0
    p = TruncatedSeries([1] * (m + 1), k)
    return (p ** n)[k]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n and k.

    Negative upper index follows upper negation,
    C(-n, k) = (-1)^k C(n + k - 1, k); k < 0 gives 0.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k & 1 else 1
    return sign * math.comb(-n + k - 1, k)


@lru_cache(maxsize=1 << 16)
def _reduce_degree(n: int, k: int, m: int) -> int:
    if k < 0:
        return 0
    if m == 1:
        return binom(n, k)
    total = 0
    for i in range(-(-k // m), k + 1):
        w = binom(n, i)
        if w:
            total += _reduce_degree(i, k - i, m - 1) * w
    return total


def coeff_by_binom_reduction(n: int, k: int, m: int) -> int:
    """Recursive reduction in m down to plain binomials at m = 1."""
    _require_degree(m)
    return _reduce_degree(n, k, m)


def coeff_by_closed_form(n: int, k: int, m: int) -> int:
    """The closed form of (1 - t^(m+1))^n (1 - t)^(-n), in O(k/m) terms:
    sum_j (-1)^j C(n, j) C(n + k - j(m+1) - 1, k - j(m+1))."""
    _require_degree(m)
    total = 0
    for j in range(k // (m + 1) + 1):
        r = k - j * (m + 1)
        term = binom(n, j) * binom(n + r - 1, r)
        total += -term if j & 1 else term
    return total


def coeff(n: int, k: int, m: int) -> int:
    """The default algorithm: Miller's row recurrence T2-ix."""
    return coeff_by_recurrence(n, k, m)


def row(n: int, m: int, limit: int) -> list[int]:
    """Coefficients of row n for k = 0..limit, zero-padded beyond the support."""
    _require_degree(m)
    if limit < 0:
        raise ValueError("limit must be non-negative")
    width = limit if n < 0 else min(limit, m * n)
    out = power((1,) * (m + 1), n, width + 1)
    out.extend([0] * (limit - width))
    return out


def multinomial_oracle(n: int, k: int, m: int) -> int:
    """Brute-force factorial expansion, for n >= 0 only.

    Enumerates all tuples (n_1, ..., n_m) with n_1 + ... + n_m <= n and
    sum(i * n_i) = k, adding n! / ((n - sum n_i)! n_1! ... n_m!) for each.
    Exponential-time reference oracle; keep the arguments desk-sized.
    """
    _require_degree(m)
    if n < 0:
        raise NegativeN("the factorial expansion needs n >= 0")
    if k < 0:
        return 0
    fact = math.factorial
    n_fact = fact(n)
    total = 0

    def descend(size: int, used: int, weight: int, denom: int) -> None:
        nonlocal total
        if weight == 0:
            total += n_fact // (fact(n - used) * denom)
            return
        if size == 0 or weight > size * (n - used):
            return
        for count in range(min(n - used, weight // size) + 1):
            descend(size - 1, used + count, weight - size * count, denom * fact(count))

    descend(m, 0, k, 1)
    return total
