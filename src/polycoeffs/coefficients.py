"""Coefficients of integer powers of 1 + t + ... + t^m.

``coeff(n, k, m)`` is the coefficient of t^k in (1 + t + ... + t^m)^n for any
integer n (negative included), with the convention that it is 0 for k < 0.

``row`` computes row prefixes by the paper's horizontal recurrence T2-ix,
k<n,k> = sum_{i<=m} ((n+1)i - k) <n,k-i>, in its own kernel
(``_row_prefix``), whose window sums move from one k to the next in O(1).
It needs no earlier row, so a prefix of length k of any row, of either sign,
costs O(k) operations on integers, and nothing is kept between calls.

``coeff`` reads <n,k> for either sign of n from the factorisation
(1 + t + ... + t^m)^n = (1 - t^(m+1))^n (1 - t)^(-n), as a finite sum
(``_finite_sum``) of at most |n|/2 + 1 terms, each stepped from its
neighbour by a ratio of small integers; at m = 1 it is one binomial.  For
n >= 0 it reads <n,k> as <n,mn-k> past the middle of the row.  ``row`` does
not mirror, so row symmetry (T2-ii) stays a check of its kernel, and
``coeff_by_recurrence`` keeps T2-ix as an oracle for single coefficients.
Each kernel prices itself, in work units of about a nanosecond: ``row``
costs ``row_cost`` and ``coeff`` costs ``coeff_cost``.

Direct series expansion (``coeff_by_series``) goes through J.C.P. Miller's
rule for powers of a series (``series.power``), the general form of T2-ix
with one multiply-add per term of the base, which shares no code with
either kernel and so cross-checks them.  The oracles that share no code
path with any of these are the closed form
sum_j (-1)^j C(n,j) C(n+k-j(m+1)-1, k-j(m+1)), each term a product of two
``binom`` calls (the sum ``coeff`` steps through, but none of its code), the
recursive reduction of the degree m down to ordinary binomials, and (for
n >= 0) the multinomial enumeration.
"""
from __future__ import annotations

import math

from .errors import NegativeN
from .series import TruncatedSeries


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


def _row_prefix(n: int, m: int, length: int) -> list[int]:
    """<n,0>, ..., <n,length-1> by T2-ix, carrying its window sums.

    k b_k = (n+1) W - k S with S = sum_{i=1..m} b_{k-i} and
    W = sum_{i=1..m} i b_{k-i}, b_j = 0 for j < 0; each step adds the
    newest term to both sums and drops b_{k-1-m}.  The division is exact.
    """
    b = [0] * m + [1]  # b_j sits at index j + m, so the window never leaves the list
    s = w = 0
    n1 = n + 1
    for k in range(1, length):
        old = b[k - 1]
        s += b[-1] - old
        w += s - m * old
        b.append((n1 * w - k * s) // k)
    del b[:m]  # in place: a copy would double the peak memory of a long row
    return b


def row_length(n: int, m: int, limit: int) -> int:
    """The length of the T2-ix prefix that ``row(n, m, limit)`` builds."""
    return limit + 1 if n < 0 else min(limit, m * n) + 1


def value_bits(n: int, m: int, last: int) -> float:
    """A bound on the bit length of <n,k>_m for 0 <= k <= last, ``last`` of
    any size: C(|n|+last-1, last), the coefficient of t^last in (1-t)^(-|n|),
    and for n >= 0 also (m+1)^n."""
    if n > 0:
        return min(n * math.log2(m + 1), _binom_bits(n + last - 1, last)) + 1
    return _binom_bits(last - n - 1, last) + 1 if n else 1


def row_cost(n: int, m: int, limit: int) -> int:
    """``row``'s price in work units of about a nanosecond: ``row_length``
    T2-ix steps of 300 units plus ``value_bits`` each, as an int, so a
    ``limit`` of any size prices without float overflow."""
    return row_length(n, m, limit) * math.ceil(300 + value_bits(n, m, limit))


def coeff_by_recurrence(n: int, k: int, m: int) -> int:
    """The row recurrence T2-ix, from the short side of the row when
    n >= 0."""
    _require_degree(m)
    if k < 0 or (n >= 0 and k > m * n):
        return 0
    if n >= 0 and 2 * k > m * n:
        k = m * n - k
    return _row_prefix(n, m, k + 1)[k]


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


def _reduce_degree(n: int, k: int, m: int, memo: dict) -> int:
    # branches meet three degrees down: (i, k-i, m-1), then (j, k-i-j, m-2),
    # reach the same points of degree m - 3 wherever i + j agrees
    if k < 0 or m == 1:
        return binom(n, k)  # 0 for k < 0
    if (n, k, m) not in memo:
        total = 0
        for i in range(-(-k // m), k + 1):
            if w := binom(n, i):
                total += w * _reduce_degree(i, k - i, m - 1, memo)
        memo[n, k, m] = total
    return memo[n, k, m]


def coeff_by_binom_reduction(n: int, k: int, m: int) -> int:
    """Recursive reduction in m down to plain binomials at m = 1, each
    point of the recursion evaluated once per call and nothing kept after."""
    _require_degree(m)
    return _reduce_degree(n, k, m, {})


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


def _finite_sum(n: int, k: int, m: int) -> int:
    """<n,k> for n < 0, or for n >= 1 and 0 <= k <= mn/2, from
    (1 - t^(m+1))^n (1 - t)^(-n): the closed form
    sum_j (-1)^j C(n,j) C(n+r-1, r), r = k - j(m+1), over the j where both
    factors are nonzero.  For n >= 0 those are 0 <= j <= k/(m+1) < n/2.  For
    n = -p < 0, C(n+r-1, r) = (-1)^r C(p, r) needs r <= p, so j starts at
    ceil((k - p)/(m+1)), and there are at most min(p, k)/(m+1) + 1.  Each term
    follows from its neighbour by term_{j+1} / term_j =
    (j - n) prod_{i<=m} (r - i) over (j + 1) prod_{i<=m} (n + r - 1 - i),
    two falling products of small integers; every division is exact.  For
    n < 0 the sum steps up from its first term.  For n >= 0 it steps down
    from its last, C(n, j) C(n+r-1, r) with r <= m, because the term at
    j = 0, C(n+k-1, k), costs the most to compute directly.
    """
    step = m + 1
    first, last = 0, k // step
    if n < 0:
        first = max(0, -((n + k) // -step))  # ceil((k - p) / (m+1))
        if first > last:
            return 0
        r = k - first * step
        term = math.comb(first - n - 1, first) * math.comb(-n, r)
        odd = r & 1
    else:
        r = k - last * step
        term = math.comb(n, last) * math.comb(n + r - 1, r)
        odd = last & 1
    if odd:
        term = -term
    if first == last:
        return term
    total = term
    # prod_{i<=m} (n + r - 1 - i) has only negative factors when n < 0:
    # it is then (-1)^(m+1) perm(m + 1 - n - r, m + 1)
    flip = -1 if step & 1 else 1
    for j in range(first, last) if n < 0 else range(last - 1, -1, -1):
        r = k - j * step
        up = (j - n) * math.perm(r, step)
        if n < 0:
            term = term * up // (flip * (j + 1) * math.perm(step - n - r, step))
        else:
            term = term * ((j + 1) * math.perm(n + r - 1, step)) // up
        total += term
    return total


def _binom_bits(top: int, bottom: int) -> float:
    """A bound on log2 C(top, bottom), 0 <= bottom <= top, for top of any size
    and within 2% of it: C(N, K) <= (N - (K-1)/2)^K / K!, K <= N/2."""
    low = min(bottom, top - bottom)
    return low * (math.log2(2 * top - low + 1) - 1) - math.lgamma(low + 1) / math.log(2)


def _coeff_size(n: int, k: int, m: int) -> tuple[int, float, float]:
    """The steps ``coeff``'s finite sum takes, one fewer than its terms (0
    for one ``math.comb``), a bound on the bits of every term in it, and the
    width of what it divides by: at m = 1 the smaller index K of its
    math.comb(N, K), which divides by C(K, K/2), a K-bit integer; else a
    bound on the bits of each step's two math.perm(., m+1) products,
    (m+1) log2 of their largest factor."""
    if n >= 0:
        k = min(k, m * n - k)  # below 0 past the row's support too
    if k <= 0:
        return 0, 0.0, 0.0
    if m == 1:
        if n >= 0:
            return 0, _binom_bits(n, k), k
        return 0, _binom_bits(k - n - 1, k), min(k, -n - 1)
    last = k // (m + 1)
    if n >= 0:  # C(n, j) C(n+r-1, r) with j <= last < n/2 and r <= k
        width = (m + 1) * math.log2(n + k - 1)
        return last, _binom_bits(n, last) + _binom_bits(n + k - 1, k), width
    # C(p+j-1, j) C(p, r) with ceil((k - p)/(m+1)) <= j <= last and r <= min(k, p)
    steps = last - max(0, -((n + k) // -(m + 1)))
    bits = _binom_bits(last - n - 1, last) + _binom_bits(-n, min(k, -n // 2))
    return max(steps, 0), bits, (m + 1) * math.log2(m + 1 - n)


def coeff_cost(n: int, k: int, m: int) -> float:
    """``coeff``'s price in work units of about a nanosecond, from
    ``_coeff_size``'s bound b on the bits of its terms and width w.  At
    m = 1, 400 a call, and b w / 40 and b^1.585/2 for its math.comb's
    division by a w-bit binomial and product of halves (CPython multiplies
    large integers by Karatsuba).  Else 2500 a call, b^2/64 for the starting
    binomials (CPython divides in quadratic time), and per step 400 for its
    bytecode, b (m+14)/20 for its product and exact division, and
    w^1.585/16 for its two math.perm products."""
    steps, bits, width = _coeff_size(n, k, m)
    if m == 1:
        return 400 + bits * (width / 40 + bits ** 0.585 / 2)
    return (2500 + bits * bits / 64
            + steps * (400 + bits * (m + 14) / 20 + width ** 1.585 / 16))


def coeff(n: int, k: int, m: int) -> int:
    """The default algorithm, priced by ``coeff_cost``: one finite sum for
    either sign of n (``_finite_sum``), or at m = 1 one binomial, C(n, k) or
    (-1)^k C(p+k-1, k) for n = -p; for n >= 0, <n,mn-k> past mid-row."""
    _require_degree(m)
    if n >= 0:
        k = min(k, m * n - k)  # below 0 past the row's support too
    if k < 0:
        return 0
    if m == 1:
        value = math.comb(n, k) if n >= 0 else math.comb(k - n - 1, k)
        return -value if n < 0 and k & 1 else value
    return _finite_sum(n, k, m) if k or n < 0 else 1


def row(n: int, m: int, limit: int) -> list[int]:
    """Coefficients of row n for k = 0..limit, zero-padded beyond the support.

    Degree 0 is allowed: the base polynomial is then the constant 1, so every
    row of degree 0, of either sign, is 1, 0, 0, ...  Identities that step the
    degree down read it here.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if limit < 0:
        raise ValueError("limit must be non-negative")
    out = _row_prefix(n, m, row_length(n, m, limit))
    out.extend([0] * (limit + 1 - len(out)))
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
