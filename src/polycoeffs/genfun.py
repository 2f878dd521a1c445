"""Column and diagonal generating functions of the coefficient triangle.

The k-th column of the triangle is generated by
P_k(x) / (1 - x)^(k+1) on the non-negative rows and by a mirrored companion
on the negative rows, where P_k is an integer polynomial.  Diagonals of the
form <a + b*k, k> are generated by a Carlitz-style construction driven by the
solution of y = x * p_m(y)^b.  Lagrange inversion gives its coefficients as
single entries of the triangle, [x^k] y = <b k, k-1>_m / k, each read by
``coeff`` (``series.solve_carlitz_y``).  The construction itself, the powers
of y summed into p_m(y) and p_m(y) - b y p_m'(y), then one power of the
first and one division by the second, is independent of that formula, and
its check reads ``coeff`` at other points, <a + b j, j>.
Every series built here is checked against direct coefficient computation
before it is returned, and every check here, of a series or of an identity,
goes through one comparison, ``_require_agreement``: it returns ``True`` or
raises ``MismatchError`` with the parameters and both values of the first
term that differs.  Each expansion is priced next to its code, in work
units of about a nanosecond, as ``coefficients`` prices ``coeff``:
``pk_cost``, ``column_cost`` and ``carlitz_cost``.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator

from .coefficients import _require_degree, coeff, coeff_cost, row, value_bits
from .errors import MismatchError
from .series import IntPolynomial, TruncatedSeries, solve_carlitz_y


def _shift_kernel(m: int) -> IntPolynomial:
    # x (1 - x)^m, the lag term of the column-polynomial recurrence
    return IntPolynomial([0, 1]) * IntPolynomial([1, -1]) ** m


def _pk_sequence(m: int) -> Iterator[IntPolynomial]:
    """P_0, P_1, ... without end, by P_k = P_{k-1} - x(1-x)^m P_{k-m-1}.

    P_k = x for 1 <= k <= m, so the kernel x(1-x)^m is built only when
    P_(m+1) is asked for, and only the last m + 1 polynomials are held.
    """
    one, x = IntPolynomial([1]), IntPolynomial([0, 1])
    yield one
    for _ in range(m):
        yield x
    recent = deque([one] + [x] * m)  # P_(j-m-1) .. P_(j-1)
    kernel = _shift_kernel(m)
    while True:
        p = recent[-1] - kernel * recent.popleft()
        recent.append(p)
        yield p


def pk_by_recurrence(m: int, k: int) -> IntPolynomial:
    """The k-th column polynomial from its three-term recurrence.

    Seeds are P_0 = 1, P_1 = x and P_k = 0 for k < 0; in particular
    P_k = x for 1 <= k <= m.
    """
    _require_degree(m)
    if k < 0:
        return IntPolynomial()
    return next(islice(_pk_sequence(m), k, None))


def pk_cost(m: int, k: int) -> float:
    """``pk_by_recurrence``'s price in work units of about a nanosecond:
    k steps that rewrite P_(j-1), 300 units a term, and past j = m the
    kernel, m Miller steps on binomials of up to m bits, and its product,
    (m+2) terms by P_(j-m-1), below j - m terms of ``_pk_bits``."""
    lag = max(k - m, 0)
    term = 100 + _pk_bits(m, k) * (m + 30) / 800
    kernel = m * (1000 + m / 3) if lag else 0
    return kernel + 150 * k * k + (m + 2) * lag * lag / 2 * term


def _pk_bits(m: int, k: int) -> int:
    """About the bits of P_k's largest coefficient, as measured: 1 at m = 1,
    0.55 k at m = 2, 0.9 k at m = 5 and k at m = 100."""
    return k - k // m + 1


def pk_by_explicit(m: int, k: int) -> IntPolynomial:
    """The k-th column polynomial from its closed sum,
    sum_i <i, k-i>_{m-1} x^i (1-x)^(k-i) with i running from ceil(k/m) to k;
    for k < 0 the sum is empty, and P_k = 0."""
    _require_degree(m)
    one_minus_x = IntPolynomial([1, -1])
    total = IntPolynomial()
    for i in range(max(-(-k // m), 0), k + 1):
        c = row(i, m - 1, k - i)[k - i]
        if c:
            total = total + (one_minus_x ** (k - i) * c).shifted(i)
    return total


def pk_gf_check(m: int, order_y: int) -> bool:
    """Verify the bivariate generating identity of the column polynomials.

    In cleared form: (1 - y + x(1-x)^m y^(m+1)) * sum_k P_k(x) y^k must equal
    1 + (x - 1) y, coefficient by coefficient in y up to ``order_y``.  The
    P_k are taken from the explicit sum so the check is independent of the
    recurrence.
    """
    _require_degree(m)
    if order_y < 0:
        raise ValueError("order_y must be non-negative")
    ps = [pk_by_explicit(m, j) for j in range(-m - 1, order_y + 1)]  # P_(-m-1) .. P_order_y
    kernel = _shift_kernel(m)
    lhs = [ps[j + m + 1] - ps[j + m] + kernel * ps[j] for j in range(order_y + 1)]
    rhs = [IntPolynomial([1]), IntPolynomial([-1, 1]), *[IntPolynomial()] * order_y]
    return _require_agreement(lhs, rhs[:order_y + 1], "P_k generating identity", {"m": m}, "j",
                              at="y^{}", sides=("the cleared sum", "1 + (x - 1) y"))


def _require_agreement(computed, expected, what: str, params: dict, index: str,
                       at: str = "x^{}", sides=("series", "direct computation")) -> bool:
    """Every self-check here: ``True`` when the equal-length sequences
    ``computed`` and ``expected`` agree term by term, else ``MismatchError``
    at the first term that differs.  Its params are ``params`` plus that
    term's index under the name ``index``; the message places the term by
    ``at`` and names the two sides by ``sides``."""
    for i, (got, want) in enumerate(zip(computed, expected, strict=True)):
        if got != want:
            fixed = ", ".join(f"{key}={value}" for key, value in params.items())
            raise MismatchError(
                f"{what} ({fixed}) disagrees at {at.format(i)}: "
                f"{sides[0]} gives {got}, {sides[1]} gives {want}",
                params={**params, index: i},
                computed=got,
                expected=want,
            )
    return True


@dataclass(frozen=True)
class ColumnGF:
    """One column generating function: coefficient of x^n is <n,k> for the
    "+" sign and <-n,k> (n >= 1) for the "-" sign."""

    k: int
    m: int
    sign: str
    series: TruncatedSeries


def column_gf(k: int, m: int, sign: str, order: int) -> ColumnGF:
    """Build the column series from its closed form and cross-check it.

    "+" gives P_k(x) / (1-x)^(k+1); "-" gives
    (-1)^k x (1-x)^-(k+1) * rev(P_k) where rev(P_k) = x^k P_k(1/x) is the
    coefficient reversal (an honest polynomial).  The numerator's
    coefficients, zero-padded to ``order``, are divided by (1 - x) k + 1
    times, each time by one pass of running sums.  Disagreement with
    directly computed coefficients raises ``MismatchError``.
    """
    _require_degree(m)
    if k < 0:
        raise ValueError("k must be non-negative")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if order < 0:
        raise ValueError("order must be non-negative")
    pk = pk_by_recurrence(m, k)
    if sign == "+":
        numerator = pk.coeffs
        expected = [coeff(n, k, m) for n in range(order + 1)]
    else:
        numerator = (0,) + tuple((-1) ** k * c for c in pk.reversal(k + 1).coeffs)
        expected = [0] + [coeff(-n, k, m) for n in range(1, order + 1)]
    terms = TruncatedSeries(numerator, order).coeffs
    for _ in range(k + 1):  # divide by 1 - x
        terms = accumulate(terms)
    series = TruncatedSeries(terms)
    _require_agreement(series.coeffs, expected, "column GF", {"k": k, "m": m, "sign": sign}, "n")
    return ColumnGF(k, m, sign, series)


def column_cost(k: int, m: int, order: int) -> float:
    """``column_gf``'s price in work units, either sign: ``pk_cost``, then
    for each of the order + 1 terms k + 1 running sums, whose last terms
    C(n+k, k) bound the series' own, the comparison with a direct
    coefficient, priced at the farthest row's, and the printing."""
    bits = value_bits(-(k + 1), m, order)
    check = max(coeff_cost(order, k, m), coeff_cost(-order, k, m))
    return pk_cost(m, k) + (order + 1) * (
        3000 + bits / 8 + (k + 1) * (100 + bits / 800) + check)


def pk2_closed_form_check(k_max: int) -> bool:
    """Check the m = 2 closed form of the column polynomials.

    ((x+s)^(k+1) - (x-s)^(k+1)) / (2^(k+1) s) with s^2 = x(4-3x) is expanded
    binomially; only even powers of s survive, so 2^k times it is an integer
    polynomial.  Compared against 2^k P_k from one pass of the recurrence
    for every k up to ``k_max``.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    s_squared = IntPolynomial([0, 4, -3])
    closed = [
        sum(((s_squared ** i * math.comb(k + 1, 2 * i + 1)).shifted(k - 2 * i)
             for i in range(k // 2 + 1)), IntPolynomial())
        for k in range(k_max + 1)
    ]
    scaled = [p * 2 ** k for k, p in enumerate(islice(_pk_sequence(2), k_max + 1))]
    return _require_agreement(closed, scaled, "P_k closed form", {"m": 2}, "k",
                              at="k={}", sides=("the closed form", "2^k P_k"))


@dataclass(frozen=True)
class FNumberSeq:
    """Integers f_n = 2^n P_n(1/2), satisfying f_n = 2 f_{n-1} - f_{n-m-1}."""

    m: int
    values: tuple[int, ...]


def _f_number_sides(m: int, count: int) -> tuple[list[Fraction], list[int]]:
    """f_0 .. f_(count-1) two ways: 2^n P_n(1/2), exactly, from one pass of
    the column polynomials, and the recurrence f_n = 2 f_(n-1) - f_(n-m-1)
    from f_0 = f_1 = 1, terms with negative index read as 0."""
    half = Fraction(1, 2)
    direct = [2 ** n * p(half) for n, p in enumerate(islice(_pk_sequence(m), count))]
    recurrence = [1, 1][:count]
    for n in range(2, count):
        recurrence.append(2 * recurrence[n - 1] - (recurrence[n - m - 1] if n > m else 0))
    return direct, recurrence


def f_numbers(m: int, count: int) -> FNumberSeq:
    """The first ``count`` values f_0, f_1, ... for the given degree.

    Each value is computed exactly as 2^n P_n(1/2) and compared with the
    recurrence f_n = 2 f_{n-1} - f_{n-m-1}; a value that is not an integer
    cannot agree.  For m = 2 these are the Fibonacci numbers shifted by one.
    """
    _require_degree(m)
    if count < 1:
        raise ValueError("count must be at least 1")
    direct, recurrence = _f_number_sides(m, count)
    _require_agreement(direct, recurrence, "f-numbers", {"m": m}, "n",
                       at="n={}", sides=("2^n P_n(1/2)", "the recurrence"))
    return FNumberSeq(m, tuple(recurrence))


def carlitz_cost(a: int, b: int, m: int, order: int) -> float:
    """``carlitz_gf``'s price in work units of about a nanosecond.

    The m - 1 products that give y^2 .. y^m, 3000 units plus 300 a term each
    with their summation; then, over the order + 1 terms, the multiply-adds
    of those products that are not 0, of the power when a != 0 and of the
    division, priced by the bits of the farthest row the diagonal reads, and
    the solve's and the check's ``coeff`` calls, each priced at its dearest.
    The check reads <a + b j, j>, priced at its last read when a >= 0 and
    b > 0, at row a's middle or column ``order``, whichever comes first,
    when a >= 0 and b = 0, and else at the farthest row of either sign.
    A pass over a full operand takes terms/2 multiply-adds a term, one over
    a polynomial its terms.  When b = 0, y = x: its powers are shifts, and
    p_m(y) and the denominator have m + 1 terms; when m = b = 1 the
    denominator 1 + (1 - b) y is 1, and the division copies.
    """
    terms = order + 1
    far = abs(a) + abs(b) * order
    bits = value_bits(far if a >= 0 and b >= 0 else -far, m, order)
    y_terms = terms if b else 1
    pass_work = min(terms / 2, m * y_terms + 1)  # of the power or the division
    division = 0 if m == b == 1 else pass_work
    powers = min(m, terms) - 1  # y^i vanishes to the order past i = order
    products = powers * y_terms / 2 + (pass_work if a else 0) + division  # multiply-adds a term
    solve = coeff_cost(b * order, order - 1, m) if order else 0
    if a >= 0 and b > 0:  # both j and m(a + b j) - j grow with j
        check = coeff_cost(far, order, m)
    elif a >= 0 and b == 0:  # row a, read up to its middle
        check = coeff_cost(a, min(order, m * a // 2), m)
    else:
        check = max(coeff_cost(far, order, m), coeff_cost(-far, order, m))
    return (m - 1) * (3000 + 300 * terms) + terms * (
        2000 + products * (100 + bits * bits / 6000) + solve + check)


def carlitz_gf(a: int, b: int, m: int, order: int) -> TruncatedSeries:
    """The diagonal generating series sum_k <a + b*k, k>_m x^k.

    Built as p_m(y)^(a+1) / (p_m(y) - b y p_m'(y)) with y(x) solving
    y = x p_m(y)^b.  The powers y^2 .. y^m are taken once, m - 1 products,
    and summed as they come into p_m(y) = sum_i y^i and the denominator
    sum_i (1 - b i) y^i; one power (a copy when a = 0) and one division
    follow.  Every coefficient up to ``order`` is verified against direct
    computation before the series is returned.
    """
    _require_degree(m)
    if order < 0:
        raise ValueError("order must be non-negative")
    y = solve_carlitz_y(m, b, order)
    y_i = y
    py = [1, *y.coeffs[1:]]  # p_m(y) = sum_i y^i
    denominator = [1, *((1 - b) * c for c in y.coeffs[1:])]  # sum_i (1 - b i) y^i
    for i in range(2, m + 1):
        y_i = y_i * y
        weight = 1 - b * i
        for j, c in enumerate(y_i.coeffs):
            if c:
                py[j] += c
                denominator[j] += weight * c
    series = TruncatedSeries(py) ** (a + 1) / TruncatedSeries(denominator)
    expected = (coeff(a + b * j, j, m) for j in range(order + 1))
    _require_agreement(series.coeffs, expected, "diagonal GF", {"a": a, "b": b, "m": m}, "j")
    return series


def euler_gf_check(order: int) -> bool:
    """Check S(x)^2 (1+x)(1-3x) = 1 for the central coefficients <k,k>_2.

    Squaring the known closed form 1/sqrt((1+x)(1-3x)) keeps the whole
    verification inside exact integer series arithmetic.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    s = TruncatedSeries([coeff(k, k, 2) for k in range(order + 1)])
    product = s * s * TruncatedSeries([1, -2, -3], order)
    return _require_agreement(product.coeffs, [1] + [0] * order, "Euler GF", {"m": 2}, "n",
                              sides=("S(x)^2 (1+x)(1-3x)", "1"))
