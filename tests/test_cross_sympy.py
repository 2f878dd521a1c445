"""Cross-validation against sympy, an entirely independent implementation.

These tests are skipped when sympy is not installed; they exist to check the
package against code that shares none of its algorithms.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_pow, rs_series_inversion
from sympy.polys.rings import ring

from polycoeffs import coeff, gegenbauer, pk_by_recurrence
from polycoeffs.coefficients import coeff_by_closed_form, coeff_by_series


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [-4, -1, 0, 3, 6])
def test_coefficients_match_sympy_series(m, n):
    t = sympy.symbols("t")
    pm = sum(t ** i for i in range(m + 1))
    order = 14
    if n < 0:
        expr = sympy.series(pm ** n, t, 0, order).removeO()
    else:
        expr = sympy.expand(pm ** n)
    poly = sympy.Poly(expr, t)
    for k in range(order):
        want = poly.coeff_monomial(t ** k) if k <= poly.degree() else 0
        assert coeff(n, k, m) == int(want), (m, n, k)


def _sympy_coeff(n, k, m):
    """[t^k] (1 + t + ... + t^m)^n by sympy's sparse ring series over QQ."""
    ring_, t = ring("t", QQ)
    base = sum((t ** i for i in range(m + 1)), ring_(0))
    if n < 0:
        base, n = rs_series_inversion(base, t, k + 1), -n
    return int(rs_pow(base, n, t, k + 1).coeff(t ** k))


# sympy.series costs 0.1-0.2 s a call even at |n| <= 9; the ring series
# costs milliseconds, so it can follow the sampled queries out to far rows
@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_sampled_coefficients_match_sympy_ring_series(m, far, data):
    if far:
        n = data.draw(st.integers(-10 ** 5, 10 ** 5), label="n")
        k = data.draw(st.integers(0, 30), label="k")
    else:
        n = data.draw(st.integers(-60, 60), label="n")
        k = data.draw(st.integers(0, min(m * abs(n) + 5, 80)), label="k")
    want = _sympy_coeff(n, k, m)
    assert coeff(n, k, m) == want
    assert coeff_by_series(n, k, m) == want
    assert coeff_by_closed_form(n, k, m) == want


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_gegenbauer_matches_sympy(alpha):
    for j in range(8):
        ours = gegenbauer(alpha, j, Fraction(-1, 2))
        theirs = sympy.Rational(sympy.gegenbauer(j, alpha, sympy.Rational(-1, 2)))
        assert sympy.Rational(ours.numerator, ours.denominator) == theirs


def _sympy_gegenbauer_series(alpha, degree, x):
    """[t^degree] (1 - 2xt + t^2)^(-alpha) by sympy's ring series over QQ."""
    ring_, t = ring("t", QQ)
    base = 1 - 2 * QQ(x.numerator, x.denominator) * t + t ** 2
    if alpha > 0:
        base, alpha = rs_series_inversion(base, t, degree + 1), -alpha
    return rs_pow(base, -alpha, t, degree + 1).coeff(t ** degree)


# away from x = +-1/2 the denominator q of x = p/q is not 2, so these are
# the points where gegenbauer's substitution t = q u shows
@pytest.mark.parametrize(
    "x", [Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(3, 2), Fraction(2)]
)
@pytest.mark.parametrize("alpha", range(-3, 5))
def test_gegenbauer_matches_sympy_away_from_one_half(alpha, x):
    sx = sympy.Rational(x.numerator, x.denominator)
    for j in range(13):
        ours = gegenbauer(alpha, j, x)
        assert type(ours) is Fraction
        value = sympy.Rational(ours.numerator, ours.denominator)
        assert value == _sympy_gegenbauer_series(alpha, j, x), (alpha, j)
        # sympy.gegenbauer returns 0 for a = -1 by convention, where the
        # generating function gives 1, -2x, 1
        if alpha != -1:
            assert value == sympy.gegenbauer(j, alpha, sx), (alpha, j)


def test_degree_two_closed_form_matches_sympy_radicals():
    x = sympy.symbols("x")
    s = sympy.sqrt(x * (4 - 3 * x))
    for k in range(7):
        closed = sympy.expand(
            sympy.simplify(((x + s) ** (k + 1) - (x - s) ** (k + 1)) / (2 ** (k + 1) * s))
        )
        ours = sum(c * x ** i for i, c in enumerate(pk_by_recurrence(2, k).coeffs))
        assert sympy.simplify(closed - ours) == 0, k


def test_central_coefficients_match_sympy_sqrt_series():
    x = sympy.symbols("x")
    series = sympy.series(1 / sympy.sqrt((1 + x) * (1 - 3 * x)), x, 0, 12).removeO()
    poly = sympy.Poly(series, x)
    for k in range(12):
        assert int(poly.coeff_monomial(x ** k)) == coeff(k, k, 2)
