"""Tests for column polynomials, column/diagonal generating functions."""
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycoeffs.coefficients import coeff, coeff_by_closed_form, coeff_cost
from polycoeffs.errors import MismatchError
from polycoeffs.genfun import (
    carlitz_cost,
    carlitz_gf,
    column_gf,
    euler_gf_check,
    f_numbers,
    pk2_closed_form_check,
    pk_by_explicit,
    pk_by_recurrence,
    pk_gf_check,
)
from polycoeffs.series import IntPolynomial, TruncatedSeries, solve_carlitz_y


def test_pk_seeds():
    assert pk_by_recurrence(2, 0) == IntPolynomial([1])
    assert pk_by_recurrence(3, -2) == IntPolynomial([])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_pk_is_x_through_degree(m):
    for k in range(1, m + 1):
        assert pk_by_recurrence(m, k) == IntPolynomial([0, 1])


def test_pk_one_step():
    assert pk_by_recurrence(2, 3) == IntPolynomial([0, 0, 2, -1])


def test_pk_explicit_matches_hand_expansion():
    # <2,1>_1 x^2 (1-x) + <3,0>_1 x^3 = 2x^2 - x^3
    assert pk_by_explicit(2, 3) == IntPolynomial([0, 0, 2, -1])
    assert pk_by_explicit(2, 0) == IntPolynomial([1])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pk_recurrence_equals_explicit(m):
    for k in range(-3, 21):
        assert pk_by_recurrence(m, k) == pk_by_explicit(m, k)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pk_degree_and_low_coefficients(m):
    # degree can drop below k through cancellation (e.g. P_5 for m = 2 has
    # degree 4), but never exceeds it, and coefficients below ceil(k/m) vanish
    for k in range(1, 16):
        p = pk_by_recurrence(m, k)
        assert 1 <= p.degree <= k
        cutoff = -(-k // m)  # ceil(k/m)
        assert not any(p.coeffs[:cutoff])
        assert p(1) == 1
    if m == 1:
        assert all(
            pk_by_recurrence(1, k).coeffs == (0,) * k + (1,) for k in range(1, 16)
        )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pk_generating_identity(m):
    assert pk_gf_check(m, 12)


def test_pk_generating_identity_trivial_order():
    assert pk_gf_check(2, 0)


def test_pk2_closed_form():
    assert pk2_closed_form_check(12)


def test_column_gf_positive_constant_column():
    gf = column_gf(0, 2, "+", 6)
    assert gf.series.coeffs == (1,) * 7


def test_column_gf_positive_linear_column():
    gf = column_gf(1, 3, "+", 6)
    assert gf.series.coeffs == (0, 1, 2, 3, 4, 5, 6)


def test_column_gf_negative_example():
    gf = column_gf(4, 3, "-", 6)
    assert gf.series[2] == coeff(-2, 4, 3) == 2
    assert gf.series[0] == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_column_gf_agrees_with_rows(m, sign):
    for k in range(0, 11):
        gf = column_gf(k, m, sign, 30)
        for n in range(31):
            want = coeff(n, k, m) if sign == "+" else (coeff(-n, k, m) if n else 0)
            assert gf.series[n] == want


def test_column_gf_validates_arguments():
    with pytest.raises(ValueError):
        column_gf(-1, 2, "+", 5)
    with pytest.raises(ValueError):
        column_gf(1, 2, "x", 5)


def test_f_numbers_fibonacci_for_trinomials():
    values = f_numbers(2, 12).values
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert list(values) == fib


def test_f_numbers_degree_three():
    assert f_numbers(3, 7).values == (1, 1, 2, 4, 7, 13, 24)


def test_f_numbers_start_at_one():
    for m in range(1, 6):
        assert f_numbers(m, 3).values[0] == 1


def test_f_numbers_count_validation():
    with pytest.raises(ValueError):
        f_numbers(2, 0)


def test_f_number_column_sums_converge():
    # raw form of the identity: sum_l <l,n> / 2^l approaches 2 f_n
    for m in (2, 3):
        values = f_numbers(m, 6).values
        for n in range(6):
            partial = sum(coeff(l, n, m) / 2 ** l for l in range(60))
            assert abs(partial - 2 * values[n]) < 1e-6, (m, n)


def test_carlitz_central_trinomials():
    series = carlitz_gf(0, 1, 2, 5)
    assert series.coeffs == (1, 1, 3, 7, 19, 51)


def test_carlitz_zero_slope_is_row_series():
    for a in (-2, 0, 3):
        series = carlitz_gf(a, 0, 2, 8)
        assert series.coeffs == tuple(coeff(a, k, 2) for k in range(9))


def test_carlitz_negative_slope():
    series = carlitz_gf(1, -1, 2, 10)
    for k in range(11):
        assert series[k] == coeff(1 - k, k, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_carlitz_self_check_grid(m):
    for a in range(-2, 3):
        for b in range(-2, 3):
            carlitz_gf(a, b, m, 12)  # raises MismatchError on disagreement


@pytest.mark.parametrize("a, b, m", [(0, 1, 2), (1, -1, 2), (2, -3, 4)])
def test_carlitz_high_order(a, b, m):
    series = carlitz_gf(a, b, m, 120)  # raises MismatchError on disagreement
    assert series.order == 120
    if (a, b, m) == (0, 1, 2):
        assert series.coeffs == tuple(coeff_by_closed_form(k, k, 2) for k in range(121))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-30, 30), st.integers(-3000, 3000)), st.integers(-4, 4),
       st.sampled_from([1, 2, 3, 5, 10, 100]),
       st.one_of(st.integers(0, 150), st.integers(0, 3000)))
@example(1000, 0, 2, 2999)  # the dearest read is mid-row, <1000, 1000>
@example(-300, 0, 1, 1000)  # row -300, read past column 300
def test_carlitz_cost_covers_every_check_read(a, b, m, order):
    # the check reads <a + b j, j> for j = 0..order, and each is priced
    # within the order + 1 check terms
    dearest = max(coeff_cost(a + b * j, j, m) for j in range(order + 1))
    assert carlitz_cost(a, b, m, order) >= (order + 1) * dearest


def test_euler_generating_function():
    assert euler_gf_check(0)
    assert euler_gf_check(5)
    assert euler_gf_check(50)


def test_column_mismatch_is_distinguishable():
    # MismatchError exists for self-check failures and is not a ValueError
    assert issubclass(MismatchError, RuntimeError)
    assert not issubclass(MismatchError, ValueError)


def _skewed_coeff(exact):
    # one off by one in the column k = 2 and one on the diagonal <j, j>
    def skewed(n, k, m):
        return exact(n, k, m) + ((n, k, m) in ((3, 2, 2), (3, 3, 2)))
    return skewed


def _skewed_pk(n, skew):
    # P_n replaced by skew(P_n) in every pass of the recurrence
    def wrap(exact):
        def skewed(m):
            for j, p in enumerate(exact(m)):
                yield skew(p) if j == n else p
        return skewed
    return wrap


def _skewed_explicit(exact):
    # P_4 plus 1 at m = 2
    def skewed(m, k):
        return exact(m, k) + int((m, k) == (2, 4))
    return skewed


@pytest.mark.parametrize(
    "target, skew, build, message, params, computed, expected",
    [
        (
            "coeff", _skewed_coeff, lambda: column_gf(2, 2, "+", 5),
            "column GF (k=2, m=2, sign=+) disagrees at x^3: "
            "series gives 6, direct computation gives 7",
            {"k": 2, "m": 2, "sign": "+", "n": 3}, 6, 7,
        ),
        (
            "coeff", _skewed_coeff, lambda: carlitz_gf(0, 1, 2, 5),
            "diagonal GF (a=0, b=1, m=2) disagrees at x^3: "
            "series gives 7, direct computation gives 8",
            {"a": 0, "b": 1, "m": 2, "j": 3}, 7, 8,
        ),
        (
            # 2^3 * (1/2)^4 = 1/2, never an integer
            "_pk_sequence", _skewed_pk(3, lambda p: IntPolynomial([0, 0, 0, 0, 1])),
            lambda: f_numbers(2, 8),
            "f-numbers (m=2) disagrees at n=3: 2^n P_n(1/2) gives 1/2, the recurrence gives 3",
            {"m": 2, "n": 3}, Fraction(1, 2), 3,
        ),
        (
            # 2^4 (P_4(1/2) + 1) = f_4 + 16
            "_pk_sequence", _skewed_pk(4, lambda p: p + 1), lambda: f_numbers(2, 8),
            "f-numbers (m=2) disagrees at n=4: 2^n P_n(1/2) gives 21, the recurrence gives 5",
            {"m": 2, "n": 4}, 21, 5,
        ),
        (
            # the cleared sum's y^4 term is P_4 - P_3 + x(1-x)^2 P_1, plus 1
            "pk_by_explicit", _skewed_explicit, lambda: pk_gf_check(2, 6),
            "P_k generating identity (m=2) disagrees at y^4: "
            "the cleared sum gives IntPolynomial([1]), 1 + (x - 1) y gives IntPolynomial([])",
            {"m": 2, "j": 4}, IntPolynomial([1]), IntPolynomial(),
        ),
        (
            # 2^3 P_3 = 16x^2 - 8x^3, and 8 more from P_3 + 1
            "_pk_sequence", _skewed_pk(3, lambda p: p + 1), lambda: pk2_closed_form_check(6),
            "P_k closed form (m=2) disagrees at k=3: the closed form gives "
            "IntPolynomial([0, 0, 16, -8]), 2^k P_k gives IntPolynomial([8, 0, 16, -8])",
            {"m": 2, "k": 3}, IntPolynomial([0, 0, 16, -8]), IntPolynomial([8, 0, 16, -8]),
        ),
        (
            # S's x^3 term 7 + 1 adds 2 S_0 = 2 to S(x)^2 at x^3
            "coeff", _skewed_coeff, lambda: euler_gf_check(6),
            "Euler GF (m=2) disagrees at x^3: S(x)^2 (1+x)(1-3x) gives 2, 1 gives 0",
            {"m": 2, "n": 3}, 2, 0,
        ),
    ],
    ids=["column", "diagonal", "f-numbers-integral", "f-numbers-recurrence",
         "pk-identity", "pk2-closed-form", "euler"],
)
def test_forced_mismatch_carries_params_and_both_values(
    monkeypatch, target, skew, build, message, params, computed, expected
):
    from polycoeffs import genfun

    monkeypatch.setattr(genfun, target, skew(getattr(genfun, target)))
    with pytest.raises(MismatchError) as caught:
        build()
    assert str(caught.value) == message
    assert caught.value.params == params
    assert (caught.value.computed, caught.value.expected) == (computed, expected)


def test_mismatch_context_defaults_to_none():
    error = MismatchError("plain")
    assert str(error) == "plain"
    assert (error.params, error.computed, error.expected) == (None, None, None)


def _carlitz_by_composition(a, b, m, order):
    # the construction written out: p_m and p_m' composed with y, a power,
    # an inverse and a product
    y = solve_carlitz_y(m, b, order)
    pm = TruncatedSeries([1] * (m + 1))
    pm_prime = TruncatedSeries(range(1, m + 1))
    py = pm.compose(y)
    denominator = py - (y * pm_prime.compose(y)) * b
    return (py ** (a + 1)) * denominator.inverse()


def _column_by_inverse_power(k, m, sign, order):
    # (1 - x)^-(k+1) by a negative power, times the numerator
    inv_geom = TruncatedSeries([1, -1], order) ** (-(k + 1))
    pk = pk_by_recurrence(m, k)
    if sign == "+":
        return inv_geom * TruncatedSeries(pk.coeffs, order)
    reversed_pk = TruncatedSeries(pk.reversal(k + 1).coeffs, order)
    series = inv_geom * reversed_pk * TruncatedSeries([0, 1], order)
    return -series if k & 1 else series


def _same(got, want):
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_carlitz_matches_the_composed_construction(m):
    for a in (-3, -1, 0, 2):
        for b in (-2, -1, 0, 1, 3):
            for order in (0, 1, 9):
                _same(carlitz_gf(a, b, m, order), _carlitz_by_composition(a, b, m, order))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_column_matches_the_inverse_power(m):
    for k in range(7):
        for sign in "+-":
            for order in (0, 1, 12):
                _same(column_gf(k, m, sign, order).series,
                      _column_by_inverse_power(k, m, sign, order))


def _count_series_passes(monkeypatch):
    counts = {"__mul__": 0, "__pow__": 0, "inverse": 0}
    for name in counts:
        method = getattr(TruncatedSeries, name)

        def counted(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    return counts


@pytest.mark.parametrize("b", [-1, 0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_carlitz_takes_m_minus_one_products_and_no_inverse(monkeypatch, m, b):
    counts = _count_series_passes(monkeypatch)
    carlitz_gf(0, b, m, 20)
    assert counts == {"__mul__": m - 1, "__pow__": 1, "inverse": 0}


@pytest.mark.parametrize("sign", ["+", "-"])
def test_column_takes_no_product(monkeypatch, sign):
    counts = _count_series_passes(monkeypatch)
    column_gf(6, 3, sign, 20)
    assert counts == {"__mul__": 0, "__pow__": 0, "inverse": 0}


def test_pk_past_the_degree_needs_no_kernel():
    # P_k = 1 or x for k <= m: no m Miller steps for x(1-x)^m
    start = time.perf_counter()
    for k in (0, 1, 5):
        assert pk_by_recurrence(100_000, k) == IntPolynomial([1] if k == 0 else [0, 1])
    assert time.perf_counter() - start < 0.5
