"""Tests for the coefficient algorithms, their statelessness, and cross-agreement."""
import gc
import math
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycoeffs import coefficients, series
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
        with pytest.raises(ValueError):
            fn(-1, 1, 0)


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


@pytest.mark.parametrize("n", [-9, -1, 0, 1, 7])
def test_degree_zero_rows_are_the_constant_one(n):
    # (1)^n = 1 for every n; the identities that step the degree down read it
    for limit in (0, 1, 12):
        assert row(n, 0, limit) == [1] + [0] * limit


@pytest.mark.parametrize("n", [-3, 0, 3])
def test_row_rejects_negative_degree(n):
    with pytest.raises(ValueError):
        row(n, -1, 4)


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


def _package_calls(oracle, points=((5, 7, 3), (-5, 7, 3))):
    """The polycoeffs functions that ``oracle`` runs at ``points``, skipping
    n < 0 where it needs n >= 0, as (module, qualified name) pairs."""
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("polycoeffs"):
            seen.add((module, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        for n, k, m in points:
            if n >= 0 or oracle is not multinomial_oracle:
                oracle(n, k, m)
    finally:
        sys.setprofile(None)
    return seen


REQUIRE_DEGREE = ("polycoeffs.coefficients", "_require_degree")


@pytest.mark.parametrize(
    "first, second",
    [
        (coeff_by_recurrence, coeff_by_series),
        (coeff_by_recurrence, coeff_by_closed_form),
        (coeff_by_recurrence, multinomial_oracle),
        (coeff_by_series, coeff_by_closed_form),
        (coeff_by_series, multinomial_oracle),
        (coeff_by_closed_form, multinomial_oracle),
    ],
    ids=lambda oracle: oracle.__name__,
)
def test_independent_oracles_share_no_code_path(first, second):
    # a cross-check means something only while no oracle runs another's code
    assert _package_calls(first) & _package_calls(second) == {REQUIRE_DEGREE}


DEFAULT_PATH_ORACLES = pytest.mark.parametrize(
    "oracle",
    [coeff_by_recurrence, coeff_by_series, coeff_by_closed_form],
    ids=lambda oracle: oracle.__name__,
)


def _assert_default_path_shares_no_code(oracle, points):
    default = _package_calls(coeff, points)
    assert default & _package_calls(oracle, points) == {REQUIRE_DEGREE}
    assert default & _package_calls(oracle) == {REQUIRE_DEGREE}
    assert ("polycoeffs.coefficients", "binom") not in default
    assert ("polycoeffs.coefficients", "_row_prefix") not in default


@DEFAULT_PATH_ORACLES
def test_default_path_for_negative_rows_shares_no_code_path(oracle):
    # for n < 0, coeff is a fourth algorithm: k inside and past the first
    # factor's p + 1 terms, and m = 1
    _assert_default_path_shares_no_code(oracle, [(-5, 7, 3), (-5, 40, 3), (-5, 7, 1)])


@DEFAULT_PATH_ORACLES
def test_default_path_for_nonnegative_rows_shares_no_code_path(oracle):
    # the same finite sum for n >= 0: before and past the middle of the row,
    # row 0, and m = 1
    _assert_default_path_shares_no_code(oracle, [(5, 7, 3), (5, 12, 3), (0, 0, 3), (6, 4, 1)])


def test_binom_reduction_shares_only_binom_with_the_closed_form():
    shared = _package_calls(coeff_by_closed_form) & _package_calls(coeff_by_binom_reduction)
    assert shared == {REQUIRE_DEGREE, ("polycoeffs.coefficients", "binom")}


def test_binom_reduction_keeps_nothing_between_calls():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert coeff_by_binom_reduction(-20, 60, 6) == coeff_by_closed_form(-20, 60, 6)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024


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


@settings(deadline=None, max_examples=500)
@given(st.integers(1, 6), st.sampled_from(["near", "far", "long"]), st.data())
def test_sampled_oracles_agree(m, region, data):
    # the oracles that share no code path, and the default path, on rows near
    # 0 across the whole window, on far rows of both signs at small k, and on
    # near rows far past the window, where a negative row's terms are bounded
    # by |n| and not by k
    if region == "far":
        n = data.draw(st.integers(-10 ** 5, 10 ** 5), label="n")
        k = data.draw(st.integers(-1, 30), label="k")
    elif region == "long":
        n = data.draw(st.integers(-12, 12), label="n")
        k = data.draw(st.integers(-1, 3000), label="k")
    else:
        n = data.draw(st.integers(-30, 30), label="n")
        k = data.draw(st.integers(-1, m * abs(n) + 5), label="k")
    expected = coeff_by_closed_form(n, k, m)
    assert coeff(n, k, m) == expected
    assert coeff_by_recurrence(n, k, m) == expected
    assert coeff_by_series(n, k, m) == expected
    if 0 <= n <= 8:
        assert multinomial_oracle(n, k, m) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 6])
@pytest.mark.parametrize("n", [-7, -1, 0, 1, 2, 7, 8])
def test_default_path_at_the_edges_of_the_row(n, m):
    # k < 0, k past a non-negative row's support, both middles of the row,
    # its two ends, and k past a negative row's first factor (1 - t)^|n|
    span = m * abs(n)
    ks = {-3, -1, 0, 1, span // 2, (span + 1) // 2, span, span + 1, span + 7, 3 * span + 5}
    for k in sorted(ks):
        assert coeff(n, k, m) == coeff_by_recurrence(n, k, m), k


@settings(max_examples=300)
@given(st.integers(-80, 80), st.integers(1, 9), st.data())
def test_default_path_matches_the_recurrence(n, m, data):
    # k over the whole row for n >= 0, and out past (1 - t)^|n| for n < 0
    k = data.draw(st.integers(-2, m * abs(n) + (2 if n >= 0 else 3 * abs(n) + 40)), label="k")
    assert coeff(n, k, m) == coeff_by_recurrence(n, k, m)


@pytest.mark.parametrize(
    "n,k,expected", [(1000000, 1, 1000000), (-1000000, 2, 499999500000)]
)
def test_coeff_far_rows(n, k, expected):
    # one coefficient of a far row costs O(k), whatever |n| is
    assert coeff(n, k, 2) == expected


def test_negative_row_cost_is_bounded_by_n_not_k():
    # (1 - t)^3 (1 - t^3)^(-3): r = 0..3 from the first factor, and
    # C(j + 2, 2) at t^(3j) from the second
    k = 10 ** 7
    expected = sum(
        (-1) ** r * math.comb(3, r) * math.comb((k - r) // 3 + 2, 2)
        for r in range(4)
        if (k - r) % 3 == 0
    )
    start = time.perf_counter()
    value = coeff(-3, k, 2)
    elapsed = time.perf_counter() - start
    assert value == expected
    assert elapsed < 0.05


def _traced_sum(n, k, m):
    """coeff(n, k, m), the math.perm calls its finite sum makes (two a step),
    the widest term it holds, read from the kernel's frame, and the widest of
    those products, rebuilt from the r each step reads."""
    seen = {"perms": 0, "widest": 0, "products": 0}
    step = m + 1

    def profile(frame, event, arg):
        if frame.f_code is not coefficients._finite_sum.__code__:
            return
        if (event == "c_call" and arg is math.perm) or event == "return":
            term = frame.f_locals.get("term", 0)
            seen["widest"] = max(seen["widest"], term.bit_length())
        if event == "c_call" and arg is math.perm:
            seen["perms"] += 1
            r = frame.f_locals["r"]
            other = step - n - r if n < 0 else n + r - 1
            seen["products"] = max(seen["products"], math.perm(r, step).bit_length(),
                                   math.perm(other, step).bit_length())

    sys.setprofile(profile)
    try:
        value = coeff(n, k, m)
    finally:
        sys.setprofile(None)
    return value, seen["perms"], seen["widest"], seen["products"]


def _assert_priced(n, k, m):
    # the price counts every step and bounds every term's bits and each
    # step's math.perm products, and a single math.comb's value at m = 1; a
    # b-bit bound allows a bit length of b + 1
    steps, bits, width = coefficients._coeff_size(n, k, m)
    value, perms, widest, products = _traced_sum(n, k, m)
    assert perms == 2 * steps
    assert widest <= bits + 1
    assert products <= width + 1
    if m == 1:
        assert value.bit_length() <= bits + 1


@settings(max_examples=300)
@given(st.integers(-60, 60), st.integers(1, 8), st.data())
def test_coeff_price_counts_what_the_kernel_computes(n, m, data):
    # k < 0, k' = 0, both sides of the middle, and past the support
    k = data.draw(st.integers(-3, m * abs(n) + 3 * abs(n) + 10), label="k")
    _assert_priced(n, k, m)


@pytest.mark.parametrize(
    "n,k,m",
    [(0, 0, 2), (0, 5, 3), (7, 0, 2), (7, 14, 2), (-7, 0, 2), (-1, 10 ** 9, 2),
     (-4, 10 ** 30, 3), (-300, 10 ** 6, 2), (500, 700, 3), (-500, 2000, 8),
     (-2000, 1999, 1), (2000, 1000, 1), (40, 10 ** 5, 10 ** 5), (100, 50000, 1000),
     (-3000, 100000, 1000), (3, 43715, 33333)],
)
def test_coeff_price_counts_what_the_kernel_computes_far_out(n, k, m):
    _assert_priced(n, k, m)


@given(
    st.one_of(st.integers(-300, 300), st.just(0)),
    st.integers(1, 8),
    st.data(),
)
def test_row_kernel_matches_series_power(n, m, data):
    # lengths up to m + 1 end while the window sums are still filling
    limit = data.draw(
        st.one_of(st.integers(0, m), st.integers(0, m * abs(n) + 2 * m + 2)),
        label="limit",
    )
    width = limit if n < 0 else min(limit, m * n)
    expected = series.power((1,) * (m + 1), n, width + 1) + [0] * (limit - width)
    assert row(n, m, limit) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
def test_coeff_reads_the_mirrored_side(n, m):
    # k = mn, every 2k > mn, and both middles when mn is odd
    span = m * n
    ks = {span, span - 1, span // 2, (span + 1) // 2, span // 2 + 1}
    ks |= set(range(span // 2 + 1, span + 1, max(1, span // 7)))
    for k in sorted(k for k in ks if 0 <= k <= span):
        assert coeff(n, k, m) == coeff_by_closed_form(n, k, m), k
    if span % 2:
        assert coeff(n, span // 2, m) == coeff(n, span // 2 + 1, m)
    assert coeff(n, span + 1, m) == 0


def test_default_path_needs_no_series_power(monkeypatch):
    # coeff and row have their own kernel, so they stay independent of the
    # series code that coeff_by_series cross-checks them against
    def forbidden(*args):
        raise AssertionError("series.power was called")

    monkeypatch.setattr(series, "power", forbidden)
    # and under the name coefficients.py would import it by
    monkeypatch.setattr(coefficients, "power", forbidden, raising=False)
    for n, k, m in [(7, 9, 3), (7, 20, 3), (-6, 14, 2), (0, 0, 4)]:
        expected = coeff_by_closed_form(n, k, m)
        assert coeff(n, k, m) == expected
        assert row(n, m, k)[k] == expected
        assert coeff_by_binom_reduction(n, k, m) == expected
    with pytest.raises(AssertionError, match="series.power"):
        coeff_by_series(-6, 14, 2)


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
