"""Tests for the exact series kernel."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycoeffs.coefficients import coeff_by_closed_form
from polycoeffs.errors import NonzeroInnerConstant, ZeroConstantTerm
from polycoeffs.series import (
    IntPolynomial,
    TruncatedSeries,
    power,
    solve_carlitz_y,
)


# a polynomial embedded as a series, TruncatedSeries(coeffs, order); the
# from_poly alias that these tests are named after is folded into it


def test_from_poly_pads_to_order():
    s = TruncatedSeries([1, 1, 1], 5)
    assert s.coeffs == (1, 1, 1, 0, 0, 0)
    assert s.order == 5


def test_from_poly_constant():
    assert TruncatedSeries([1], 3).coeffs == (1, 0, 0, 0)


def test_from_poly_truncates():
    assert TruncatedSeries([1, 1, 1, 1], 2).coeffs == (1, 1, 1)


def test_mul_square_of_trinomial():
    s = TruncatedSeries([1, 1, 1], 4)
    assert (s * s).coeffs == (1, 2, 3, 2, 1)


def test_mul_by_one_is_identity():
    a = TruncatedSeries([3, -1, 7], 4)
    assert a * TruncatedSeries([1], 4) == a


def test_mul_difference_of_squares():
    product = TruncatedSeries([1, 1], 2) * TruncatedSeries([1, -1], 2)
    assert product.coeffs == (1, 0, -1)


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1, 1], 5)
    b = TruncatedSeries([1, 1], 2)
    assert (a * b).order == 2


def test_inverse_of_quadrinomial_is_periodic():
    inv = TruncatedSeries([1, 1, 1, 1], 9).inverse()
    assert inv.coeffs == (1, -1, 0, 0, 1, -1, 0, 0, 1, -1)


def test_inverse_of_one():
    assert TruncatedSeries([1], 4).inverse().coeffs == (1, 0, 0, 0, 0)


def test_inverse_geometric():
    assert TruncatedSeries([1, 1], 4).inverse().coeffs == (1, -1, 1, -1, 1)


def test_inverse_requires_unit():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1], 3).inverse()


def test_pow_positive():
    s = TruncatedSeries([1, 1, 1, 1], 9)
    assert (s ** 3).coeffs == (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)


def test_pow_negative():
    s = TruncatedSeries([1, 1, 1, 1], 9)
    assert (s ** -2).coeffs == (1, -2, 1, 0, 2, -4, 2, 0, 3, -6)


def test_pow_zero_is_one():
    s = TruncatedSeries([5, 2, 8], 4)
    assert (s ** 0).coeffs == (1, 0, 0, 0, 0)


def test_pow_negative_requires_unit():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1], 3) ** -1


def test_compose_square_substitution():
    outer = TruncatedSeries([1, 1, 1], 4)
    inner = TruncatedSeries([0, 0, 1], 4)
    assert outer.compose(inner).coeffs == (1, 0, 1, 0, 1)


def test_compose_with_zero_gives_constant():
    outer = TruncatedSeries([9, 4, 4], 5)
    zero = TruncatedSeries([0], 5)
    assert outer.compose(zero).coeffs == (9, 0, 0, 0, 0, 0)


def test_compose_linear():
    outer = TruncatedSeries([1, 1], 2)
    inner = TruncatedSeries([0, 1, 1], 2)
    assert outer.compose(inner).coeffs == (1, 1, 1)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(NonzeroInnerConstant):
        TruncatedSeries([1, 1], 3).compose(TruncatedSeries([1, 1], 3))


def test_getitem_beyond_order_raises():
    with pytest.raises(IndexError):
        TruncatedSeries([1, 1], 1)[2]


small_int_series = st.builds(
    TruncatedSeries,
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)
unit_series = st.builds(
    lambda tail: TruncatedSeries([1] + tail),
    st.lists(st.integers(-9, 9), min_size=0, max_size=7),
)


@given(small_int_series, small_int_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_int_series, small_int_series, small_int_series)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(unit_series)
def test_mul_by_inverse_is_one(a):
    assert a * a.inverse() == TruncatedSeries([1], a.order)


@given(unit_series, st.integers(-4, 4), st.integers(-4, 4))
def test_pow_adds_exponents(a, e1, e2):
    assert a ** (e1 + e2) == (a ** e1) * (a ** e2)


def _convolution(a, b, length):
    """The first ``length`` coefficients of the product of two coefficient
    lists, every term of each sum written out; ``_repeated_product`` and
    the power tests rest on ``__mul__``, so it is checked against this."""
    a = list(a) + [0] * (length - len(a))
    b = list(b) + [0] * (length - len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(length)]


# entries with many zeros, all-zero lists among them, embedded at an order of
# their own: padded past their length or truncated below it
sparse_entries = st.lists(
    st.one_of(st.just(0), st.integers(-9, 9)), max_size=8
) | st.lists(st.just(0), max_size=8)


@given(sparse_entries, sparse_entries, st.integers(0, 12), st.integers(0, 12),
       st.booleans(), st.booleans())
def test_mul_matches_a_direct_convolution(a, b, order_a, order_b, frac_a, frac_b):
    if frac_a:
        a = [Fraction(c, 4) for c in a]
    if frac_b:
        b = [Fraction(c, 3) for c in b]
    sa, sb = TruncatedSeries(a, order_a), TruncatedSeries(b, order_b)
    order = min(order_a, order_b)
    product = sa * sb
    assert product.order == order
    assert list(product.coeffs) == _convolution(sa.coeffs, sb.coeffs, order + 1)
    # past the last nonzero terms, ta + tb, the tail is zero
    ta = max((i for i, c in enumerate(sa.coeffs) if c), default=None)
    tb = max((i for i, c in enumerate(sb.coeffs) if c), default=None)
    start = 0 if ta is None or tb is None else ta + tb + 1
    assert all(c == 0 for c in product.coeffs[start:])
    if not (frac_a or frac_b):
        assert all(isinstance(c, int) for c in product.coeffs)


@given(sparse_entries, sparse_entries, st.integers(0, 20))
def test_both_types_multiply_by_the_same_kernel(a, b, order):
    # a polynomial product keeps full degree, trailing zeros trimmed; a
    # series product at any order is its prefix
    full = _convolution(a, b, max(len(a) + len(b) - 1, 0))
    while full and full[-1] == 0:
        full.pop()
    assert (IntPolynomial(a) * IntPolynomial(b)).coeffs == tuple(full)
    product = TruncatedSeries(a, order) * TruncatedSeries(b, order)
    assert list(product.coeffs) == (full + [0] * (order + 1))[: order + 1]


def test_mul_by_a_shift_costs_the_order_not_its_square():
    # a full series times t: 2 * 10^8 multiply-adds as a schoolbook product
    order = 20_000
    full = TruncatedSeries(range(1, order + 2))
    shift = TruncatedSeries([0, 1], order)
    start = time.perf_counter()
    products = (full * shift, shift * full)
    elapsed = time.perf_counter() - start
    assert products == (TruncatedSeries(range(order + 1)),) * 2
    assert elapsed < 0.5


def _repeated_product(coeffs, e, length):
    # e-fold product by the series multiplication, not by power()
    base = TruncatedSeries(coeffs, length - 1)
    result = TruncatedSeries([1], length - 1)
    for _ in range(e):
        result = result * base
    return list(result.coeffs)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.integers(0, 6),
    st.integers(1, 12),
    st.booleans(),
)
def test_power_matches_repeated_multiplication(coeffs, e, length, fractional):
    # covers zero and non-unit constant terms, and the zero series
    if fractional:
        coeffs = [Fraction(c, 3) for c in coeffs]
    got = power(coeffs, e, length)
    assert got == _repeated_product(coeffs, e, length)
    if not fractional:
        assert all(isinstance(c, int) for c in got)


@given(
    st.integers(-9, 9).filter(bool),
    st.lists(st.integers(-9, 9), max_size=5),
    st.integers(1, 5),
    st.integers(1, 12),
    st.booleans(),
)
def test_negative_power_inverts_repeated_multiplication(c0, tail, e, length, fractional):
    coeffs = [c0] + tail
    if fractional:
        coeffs = [Fraction(c, 3) for c in coeffs]
    got = power(coeffs, -e, length)
    product = TruncatedSeries(got) * TruncatedSeries(_repeated_product(coeffs, e, length))
    assert product == TruncatedSeries([1], length - 1)
    if fractional or c0 not in (1, -1):
        assert all(isinstance(c, Fraction) for c in got)
    else:
        assert all(isinstance(c, int) for c in got)


@given(
    st.lists(st.integers(-9, 9), max_size=8),
    st.integers(0, 12),
    st.booleans(),
)
def test_first_power_is_the_padded_base(coeffs, length, fractional):
    if fractional:
        coeffs = [Fraction(c, 3) for c in coeffs]
    got = power(coeffs, 1, length)
    assert got == (coeffs + [0] * length)[:length]
    assert [type(c) for c in got] == [type(c) for c in (coeffs + [0] * length)[:length]]


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(-3, 3),
    st.lists(st.integers(-9, 9), max_size=8),
    st.booleans(),
    st.booleans(),
)
def test_division_inverts_multiplication(a, d0, tail, frac_a, frac_d):
    # unit, non-unit and zero constant terms of the divisor, to either order
    d = [d0] + tail
    if frac_a:
        a = [Fraction(c, 3) for c in a]
    if frac_d:
        d = [Fraction(c, 2) for c in d]
    sa, sd = TruncatedSeries(a), TruncatedSeries(d)
    if not d0:
        with pytest.raises(ZeroConstantTerm):
            sa / sd
        return
    quotient = sa / sd
    order = min(sa.order, sd.order)
    assert quotient.order == order
    assert quotient * sd == TruncatedSeries(sa.coeffs, order)
    if d0 in (1, -1) and not (frac_a or frac_d):
        assert all(isinstance(c, int) for c in quotient.coeffs)
    else:
        assert all(isinstance(c, Fraction) for c in quotient.coeffs)


def test_division_by_a_polynomial_costs_the_order_times_its_degree():
    # a full divisor would take 2 * 10^8 multiply-adds at this order
    order = 20_000
    full = TruncatedSeries(range(1, order + 2))
    divisor = TruncatedSeries([1, -1], order)
    start = time.perf_counter()
    quotient = full / divisor
    elapsed = time.perf_counter() - start
    assert quotient == TruncatedSeries([(k + 1) * (k + 2) // 2 for k in range(order + 1)])
    assert elapsed < 0.5


@pytest.mark.parametrize("coeffs", [[1, 1], [0, 2], [], [3]])
@pytest.mark.parametrize("e", [-1, 0, 1, 2])
def test_power_to_length_zero_is_empty(coeffs, e):
    if e < 0 and not (coeffs and coeffs[0]):
        with pytest.raises(ZeroConstantTerm):
            power(coeffs, e, 0)
    else:
        assert power(coeffs, e, 0) == []


def test_power_negative_needs_nonzero_constant():
    with pytest.raises(ZeroConstantTerm):
        power([0, 1, 1], -2, 4)


@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.integers(0, 8),
    st.integers(-4, 6),
    st.integers(1, 12),
    st.booleans(),
)
def test_power_ignores_zero_padding(coeffs, z, e, length, fractional):
    # the all-zero list and a zero constant term are drawn too
    if fractional:
        coeffs = [Fraction(c, 3) for c in coeffs]
    padded = coeffs + [0] * z
    if e < 0 and not (coeffs and coeffs[0]):
        with pytest.raises(ZeroConstantTerm):
            power(padded, e, length)
        return
    got, want = power(padded, e, length), power(coeffs, e, length)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_int_polynomial_power_with_zero_constant_term():
    s_squared = IntPolynomial([0, 4, -3])
    expected = IntPolynomial([1])
    for e in range(7):
        assert s_squared ** e == expected
        expected = expected * s_squared
    assert IntPolynomial() ** 0 == IntPolynomial([1])
    assert IntPolynomial() ** 3 == IntPolynomial()


@given(st.lists(st.integers(-9, 9), min_size=0, max_size=6))
def test_inverse_of_integer_unit_series_is_integral(tail):
    # build an integer-valued series with unit constant term out of fractions
    coeffs = [Fraction(1)] + [Fraction(value) for value in tail]
    inv = TruncatedSeries(coeffs).inverse()
    assert all(c.denominator == 1 for c in inv.coeffs)


def _assert_carlitz_residual_vanishes(m, b, order):
    # y = x p_m(y)^b checked through compose, not through Lagrange inversion
    y = solve_carlitz_y(m, b, order)
    assert y.order == order
    assert y.coeffs[0] == 0
    pm = TruncatedSeries([1] * (m + 1))
    x = TruncatedSeries([0, 1], order)
    residual = y - x * (pm.compose(y) ** b)
    assert residual == TruncatedSeries([0], order)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [-2, -1, 0, 1, 2])
def test_carlitz_solution_residual_vanishes(m, b):
    _assert_carlitz_residual_vanishes(m, b, 12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("order", [0, 40])
def test_carlitz_solution_residual_vanishes_at_order(m, b, order):
    _assert_carlitz_residual_vanishes(m, b, order)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("b", [-3, -2, -1, 0, 1, 2, 3])
def test_carlitz_solution_matches_closed_form(m, b):
    # Lagrange inversion: k [x^k] y = <b k, k - 1>_m, from the closed-form oracle
    y = solve_carlitz_y(m, b, 60)
    assert all(isinstance(c, int) for c in y.coeffs)
    for k in range(1, 61):
        assert y[k] * k == coeff_by_closed_form(b * k, k - 1, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("b", [-3, -2, -1, 0, 1, 2, 3])
def test_carlitz_solution_matches_series_power_reading(m, b):
    # the same Lagrange coefficients read by Miller's rule instead of coeff:
    # one series power of p_m per coefficient
    pm = (1,) * (m + 1)
    expected = [0] + [power(pm, b * k, k)[k - 1] // k for k in range(1, 61)]
    assert list(solve_carlitz_y(m, b, 60).coeffs) == expected


def test_carlitz_b_zero_is_x():
    y = solve_carlitz_y(2, 0, 6)
    assert y.coeffs == (0, 1, 0, 0, 0, 0, 0)


def test_carlitz_m2_b1_counts_motzkin_paths():
    # y/x is the Motzkin generating series: y = x(1 + y + y^2)
    y = solve_carlitz_y(2, 1, 6)
    assert y.coeffs == (0, 1, 1, 2, 4, 9, 21)


def test_int_polynomial_trims_and_compares():
    assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
    assert IntPolynomial([0, 0]).degree == -1
    assert not IntPolynomial([])
    assert IntPolynomial([3]).degree == 0


def test_int_polynomial_arithmetic():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([1, -1])
    assert (p * q).coeffs == (1, 0, -1)
    assert (p + q).coeffs == (2,)
    assert (p - q).coeffs == (0, 2)
    assert (p ** 3).coeffs == (1, 3, 3, 1)
    assert (p * 2).coeffs == (2, 2)


def test_int_polynomial_eval_and_reversal():
    p = IntPolynomial([0, 0, 2, -1])  # 2x^2 - x^3
    assert p(2) == 0
    assert p(Fraction(1, 2)) == Fraction(3, 8)
    assert p.reversal(4).coeffs == (-1, 2)
    assert IntPolynomial([1]).reversal(1).coeffs == (1,)


def test_int_polynomial_shift():
    assert IntPolynomial([1, 2]).shifted(2) == IntPolynomial([0, 0, 1, 2])
    assert IntPolynomial().shifted(3) == IntPolynomial()
    with pytest.raises(ValueError):
        IntPolynomial([0, 1]).shifted(-1)


@pytest.mark.parametrize(
    "operation",
    [
        lambda: TruncatedSeries([1, 1]) * IntPolynomial([1, 2]),
        lambda: IntPolynomial([1, 2]) * TruncatedSeries([1, 1]),
        lambda: TruncatedSeries([1, 1]) + IntPolynomial([1, 2]),
        lambda: IntPolynomial([1, 2]) - TruncatedSeries([1, 1]),
        lambda: TruncatedSeries([1, 1]) / IntPolynomial([1]),
        lambda: IntPolynomial([1, 2]) * Fraction(1, 2),
        lambda: IntPolynomial([1, 2]) + Fraction(1, 2),
        lambda: TruncatedSeries([1, 1]) * 0.5,
        lambda: IntPolynomial([1, 2]) * 2.0,
    ],
)
def test_mixed_operands_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation()


def test_exact_scalar_operands():
    p = IntPolynomial([1, 2])
    assert p + 1 == 1 + p == IntPolynomial([2, 2])
    assert p - 1 == IntPolynomial([0, 2])
    assert 1 - p == IntPolynomial([0, -2])
    assert 3 * p == p * 3 == IntPolynomial([3, 6])
    s = TruncatedSeries([1, 2], 2)
    half = Fraction(1, 2)
    assert s * half == half * s == TruncatedSeries([half, 1, 0])
    assert s + half == half + s == TruncatedSeries([Fraction(3, 2), 2, 0])
    assert 1 - s == TruncatedSeries([0, -2, 0])
    assert s / 2 == s * half
