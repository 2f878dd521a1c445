"""Tests for the coefficient algorithms, their statelessness, and cross-agreement."""
import gc
import math
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycoeffs.coefficients import (
    binom,
    chi,
    coeff,
    coeff_by_binom_reduction,
    coeff_by_closed_form,
    coeff_by_recurrence,
    coeff_by_series,
    multinomial_oracle,
    row,
)
from polycoeffs.errors import NegativeN

# degree-3 triangle rows, k = 0..9
ROWS_DEGREE_3 = {
    -3: [1, -3, 3, -1, 3, -9, 9, -3, 6, -18],
    -2: [1, -2, 1, 0, 2, -4, 2, 0, 3, -6],
    -1: [1, -1, 0, 0, 1, -1, 0, 0, 1, -1],
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    2: [1, 2, 3, 4, 3, 2, 1, 0, 0, 0],
    3: [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
}


def test_chi_degree_three():
    assert [chi(3, k) for k in range(6)] == [1, -1, 0, 0, 1, -1]


def test_chi_degree_one_alternates():
    assert all(chi(1, k) == (-1) ** k for k in range(12))


def test_chi_degree_zero_is_indicator():
    assert chi(0, 0) == 1
    assert chi(0, 3) == 0


def test_chi_negative_k_is_zero():
    assert chi(3, -1) == 0
    assert chi(0, -2) == 0


def test_chi_rejects_negative_degree():
    with pytest.raises(ValueError):
        chi(-1, 0)


@given(st.integers(0, 6), st.integers(0, 40))
def test_chi_is_periodic(m, k):
    if m > 0:
        assert chi(m, k) == chi(m, k + m + 1)


@given(st.integers(0, 6), st.integers(0, 30))
def test_chi_matches_row_minus_one(m, k):
    if m >= 1:
        assert chi(m, k) == coeff(-1, k, m)


@pytest.mark.parametrize("n,values", sorted(ROWS_DEGREE_3.items()))
def test_degree_three_rows(n, values):
    assert row(n, 3, 9) == values


@pytest.mark.parametrize(
    "fn",
    [coeff_by_series, coeff_by_recurrence, coeff_by_binom_reduction, coeff_by_closed_form],
)
def test_all_algorithms_reproduce_degree_three(fn):
    for n, values in ROWS_DEGREE_3.items():
        assert [fn(n, k, 3) for k in range(10)] == values


def test_boundary_clauses():
    assert coeff(0, 0, 2) == 1
    assert coeff(5, -1, 2) == 0
    assert coeff(2, 7, 3) == 0  # beyond the support of a non-negative row
    assert coeff_by_series(0, 0, 2) == 1
    assert coeff_by_series(5, -1, 2) == 0


def test_known_point_values():
    assert coeff(3, 4, 3) == 12
    assert coeff_by_series(-3, 9, 3) == -18
    assert coeff_by_binom_reduction(3, 3, 3) == 10
    assert coeff_by_binom_reduction(-1, 8, 3) == 1
    assert coeff(2, 2, 2) == 3
    assert coeff_by_closed_form(-2, 5, 3) == -4
    assert coeff_by_closed_form(3, 10, 3) == 0


def test_degree_rejected_below_one():
    for fn in (
        coeff,
        coeff_by_series,
        coeff_by_recurrence,
        coeff_by_binom_reduction,
        coeff_by_closed_form,
    ):
        with pytest.raises(ValueError):
            fn(1, 1, 0)


def test_binom_upper_negation():
    assert binom(-2, 2) == 3
    assert binom(-1, 5) == -1
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0


@given(st.integers(-8, 8), st.integers(-2, 25))
def test_degree_one_degenerates_to_binomials(n, k):
    assert coeff(n, k, 1) == binom(n, k)


def test_rows_pad_with_zeros():
    assert row(0, 4, 5) == [1, 0, 0, 0, 0, 0]
    assert row(1, 2, 6) == [1, 1, 1, 0, 0, 0, 0]


def test_row_rejects_negative_limit():
    with pytest.raises(ValueError):
        row(1, 2, -1)


@given(st.integers(0, 8), st.integers(1, 5))
def test_row_symmetry(n, m):
    values = row(n, m, m * n)
    assert values == values[::-1]


@given(st.integers(0, 9), st.integers(1, 5))
def test_row_sums_are_powers(n, m):
    assert sum(row(n, m, m * n)) == (m + 1) ** n


@given(st.integers(-7, 7), st.integers(0, 20), st.integers(1, 4))
def test_four_term_recurrence_all_signs(n, k, m):
    lhs = coeff(n, k, m)
    rhs = (
        coeff(n, k - 1, m)
        + coeff(n - 1, k, m)
        - coeff(n - 1, k - m - 1, m)
    )
    assert lhs == rhs


def test_multinomial_oracle_values():
    assert multinomial_oracle(2, 2, 3) == 3
    assert multinomial_oracle(3, 5, 3) == 12
    assert multinomial_oracle(4, 0, 5) == 1
    assert multinomial_oracle(3, 100, 3) == 0


def test_multinomial_oracle_rejects_negative_rows():
    with pytest.raises(NegativeN):
        multinomial_oracle(-1, 0, 2)


def test_three_way_agreement_sampled():
    for m in range(1, 6):
        for n in range(-5, 6):
            for k in range(0, 18):
                a = coeff_by_series(n, k, m)
                b = coeff_by_recurrence(n, k, m)
                c = coeff_by_binom_reduction(n, k, m)
                assert a == b == c, (n, k, m)


def test_oracle_agreement_sampled():
    for m in range(1, 5):
        for n in range(0, 5):
            for k in range(0, m * n + 1):
                assert multinomial_oracle(n, k, m) == coeff(n, k, m)


def pascal_row(n, m, length):
    """Row n, k = 0..length-1, by Pascal's rule alone: row 0 convolved n times
    with 1 + t + ... + t^m, or deconvolved -n times (a left-to-right solve,
    valid because the constant term is 1).  Shares no code with the package."""
    current = [1] + [0] * (length - 1)
    for _ in range(abs(n)):
        following = []
        for k in range(length):
            window = range(1, min(m, k) + 1)
            if n > 0:
                following.append(current[k] + sum(current[k - i] for i in window))
            else:
                following.append(current[k] - sum(following[k - i] for i in window))
        current = following
    return current


@pytest.mark.parametrize("m", range(1, 6))
def test_rows_match_pascal_oracle(m):
    for n in range(-8, 9):
        assert row(n, m, 49) == pascal_row(n, m, 50), n


@given(st.integers(-300, 300), st.integers(1, 5), st.data())
def test_differential_against_independent_oracles(n, m, data):
    k = data.draw(st.integers(0, m * abs(n) + 5), label="k")
    expected = coeff_by_closed_form(n, k, m)
    assert coeff(n, k, m) == expected
    assert row(n, m, k)[k] == expected
    if abs(n) <= 12 and k <= 40:
        assert coeff_by_binom_reduction(n, k, m) == expected
    if 0 <= n <= 6:
        assert multinomial_oracle(n, k, m) == expected


def test_cache_transparency():
    # a short prefix, then a longer one, then single reads
    for n in (-7, -4, -1, 0, 2, 5):
        for m in (2, 3):
            short = row(n, m, 5)
            long = row(n, m, 40)
            singles = [coeff(n, k, m) for k in range(41)]
            assert short == long[:6]
            assert long == singles == pascal_row(n, m, 41)


def test_cache_extends_negative_rows():
    assert coeff(-3, 4, 3) == 3
    # a longer request afterwards must extend, not corrupt
    assert row(-3, 3, 9) == ROWS_DEGREE_3[-3]


def test_cache_is_thread_safe():
    expected = pascal_row(-6, 3, 41)
    results = []

    def worker():
        results.append(row(-6, 3, 40))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r == expected for r in results)


def test_far_reads_retain_nothing():
    # every row and coefficient is computed afresh, so nothing outlives a call
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(391, 401):
            row(n, 4, 4 * n)
            row(-n, 4, 1600)
            coeff(-n, 1500, 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@given(st.integers(1, 5), st.integers(0, 10))
def test_deconvolution_inverts_addition(m, k):
    # row(-1) convolved with the base polynomial gives row(0)
    total = sum(coeff(-1, k - i, m) for i in range(m + 1))
    assert total == (1 if k == 0 else 0)


def test_binom_reduction_matches_math_comb_for_large_values():
    assert coeff_by_binom_reduction(12, 6, 1) == math.comb(12, 6)
