"""Tests for the trinomial specializations and numeric verifications."""
import math
from fractions import Fraction

import pytest

from polycoeffs import trinomial
from polycoeffs.coefficients import coeff
from polycoeffs.errors import DomainError, NegativeN, TooLarge
from polycoeffs.trinomial import (
    _GL_POINTS,
    NUMERIC_CHECKS,
    NumericCheck,
    brafman_partial,
    dilcher_sum,
    gegenbauer,
    hgf_series,
    integral_coeff,
    numeric_binomial_check,
    pochhammer,
    rainville_32,
    rainville_36,
    _integral_points,
    verification_suite,
)


def test_gegenbauer_degree_zero_is_one():
    assert gegenbauer(5, 0, Fraction(1, 3)) == 1
    assert gegenbauer(-2, 0, Fraction(-1, 2)) == 1


def test_gegenbauer_trinomial_connection_values():
    assert gegenbauer(-3, 3, Fraction(-1, 2)) == 7
    assert -gegenbauer(-2, 1, Fraction(1, 2)) == 2


@pytest.mark.parametrize("n", range(-4, 7))
def test_gegenbauer_connection_both_conventions(n):
    for k in range(0, 16):
        value = coeff(n, k, 2)
        assert gegenbauer(-n, k, Fraction(-1, 2)) == value
        assert (-1) ** k * gegenbauer(-n, k, Fraction(1, 2)) == value


def test_pochhammer():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


def test_dilcher_empty_product():
    assert dilcher_sum(4, 0) == 1.0


def test_dilcher_single_tuple():
    assert abs(dilcher_sum(1, 1) - coeff(-1, 1, 2)) < 1e-12


def test_dilcher_agreement_grid():
    for n in range(1, 7):
        for k in range(0, 7):
            assert abs(dilcher_sum(n, k) - coeff(-n, k, 2)) <= 1e-6, (n, k)


def test_dilcher_guards():
    with pytest.raises(TooLarge):
        dilcher_sum(7, 8)
    with pytest.raises(ValueError):
        dilcher_sum(0, 1)


def test_rainville_32_single_terms():
    assert rainville_32(1, 0) == (Fraction(1, 2), Fraction(1, 2))
    assert rainville_32(2, 0) == (Fraction(1, 2), Fraction(1, 2))


def test_rainville_36_single_terms():
    lhs, rhs = rainville_36(1, 1)
    assert lhs == rhs == -1
    lhs, rhs = rainville_36(1, 0)
    assert lhs == rhs == 1


def test_rainville_exact_grids():
    for p in range(1, 7):
        for n in range(0, 9):
            lhs, rhs = rainville_32(p, n)
            assert lhs == rhs, ("32", p, n)
        for n in range(0, 11):
            lhs, rhs = rainville_36(p, n)
            assert lhs == rhs, ("36", p, n)


def test_rainville_validation():
    with pytest.raises(ValueError):
        rainville_32(0, 1)
    with pytest.raises(ValueError):
        rainville_36(1, -1)


def test_brafman_fast_case():
    check = brafman_partial(3, 5000)
    assert check.passed
    assert check.tolerance == 1e-6


def test_brafman_cesaro_is_informational():
    check = brafman_partial(1, 30000)
    assert "cesaro" in check.description
    assert abs(check.computed - check.expected) < 1e-3


# the floats brafman_partial returned when it summed its own loop; reading
# the shared partial-sum generator must not move them by one bit
@pytest.mark.parametrize(
    "args,computed",
    [
        ((2, 100_000, 1e-3), 0.08957033898934413),
        ((3, 5_000), 0.00041467749525245007),
        ((2, 2_000, 1e-2), 0.08957037592834824),
        ((1, 30_000), 1.2092065483643226),
    ],
)
def test_brafman_partial_values_are_pinned(args, computed):
    assert brafman_partial(*args).computed == computed


def test_id14_catches_a_closed_form_off_by_one_part_in_a_million(monkeypatch):
    exact = trinomial._brafman_closed_form
    monkeypatch.setattr(
        trinomial, "_brafman_closed_form", lambda n: exact(n) * (1 + 1e-6)
    )
    (report,) = verification_suite(only="ID14")
    assert report.grid == (
        "mean of the last 6 partial sums: n=2 (2400 terms, tol=1e-9), "
        "n=3 (600 terms, tol=1e-12)"
    )
    assert report.checked == 2
    assert [f["params"]["n"] for f in report.failures] == [2, 3]
    # the former registry check, raw partial sums at 1e-3 and 1e-6, passes
    assert brafman_partial(2, 100_000, 1e-3).passed
    assert brafman_partial(3, 5_000, 1e-6).passed


def test_brafman_validation():
    with pytest.raises(ValueError):
        brafman_partial(0, 100)


def test_hgf_at_zero():
    check = hgf_series(2, 0.0, 50)
    assert check.computed == 1.0
    assert abs(check.expected - 1.0) < 1e-15


def test_hgf_sample_points():
    assert hgf_series(1, 0.25, 200).passed
    assert hgf_series(3, -0.5, 400).passed


def test_hgf_domain():
    with pytest.raises(DomainError):
        hgf_series(1, 1.0, 10)


def test_integral_row_zero():
    assert integral_coeff(0, 0, 2).passed
    check = integral_coeff(0, 3, 2)
    assert abs(check.computed) < 1e-10 and check.expected == 0.0


def test_integral_known_values():
    assert integral_coeff(3, 4, 3).passed
    assert integral_coeff(2, 2, 2).passed


@pytest.mark.parametrize("n, m", [(700, 2), (1024, 1), (1, 2 ** 1024), (0, 2 ** 1024)])
def test_integral_refuses_a_kernel_past_float_range(n, m):
    # past float range the kernel's power, float(coeff) or the frequency
    # (m+1) t overflowed, or at (1024, 1) the quadrature read 1.2e306
    with pytest.raises(TooLarge):
        integral_coeff(n, 5, m)


def test_integral_evaluates_a_kernel_just_inside_float_range():
    assert math.isfinite(integral_coeff(1023, 0, 1).computed)


def _integral_reference(n, k, m):
    # the quadrature one k at a time, every node and power recomputed
    total = 0.0
    for node, weight in _GL_POINTS:
        t = (node + 1.0) * math.pi / 4.0
        s = math.sin(t)
        ratio = float(m + 1) if abs(s) < 1e-15 else math.sin((m + 1) * t) / s
        total += weight * (ratio ** n * math.cos((n * m - 2 * k) * t))
    return total / 2.0


def test_integral_grid_is_bit_identical_to_per_k_quadrature():
    # sharing the samples over k keeps every product and the summation order
    blocks = list(_integral_points())
    assert len(blocks) == 238
    for block in blocks:
        assert list(block.mismatches()) == []
        params = block.params
        assert block.lhs[0] == _integral_reference(params["n"], params["k"], params["m"])
    for n, k, m in [(3, 4, 3), (5, 1, 2), (0, 2, 1)]:
        check = integral_coeff(n, k, m)
        assert check.computed == _integral_reference(n, k, m)


def test_integral_rejects_negative_rows():
    with pytest.raises(NegativeN):
        integral_coeff(-1, 0, 2)


def test_numeric_binomial_samples():
    assert numeric_binomial_check(-1, 2, 0.1, 1.0, 60).passed
    assert numeric_binomial_check(-2, 3, -0.05, 1.0, 60).passed


def test_numeric_binomial_zero_x():
    check = numeric_binomial_check(-3, 2, 0.0, 1.0, 5)
    assert check.computed == check.expected == 1.0


def test_numeric_binomial_domain():
    with pytest.raises(DomainError):
        numeric_binomial_check(-1, 2, 0.9, 1.0, 10)
    with pytest.raises(DomainError):
        numeric_binomial_check(-1, 2, 0.1, 0.0, 10)
    with pytest.raises(ValueError):
        numeric_binomial_check(1, 2, 0.1, 1.0, 10)


def test_numeric_check_invariant():
    good = NumericCheck("x", 1.0, 1.0 + 5e-9, 1e-8)
    assert good.passed
    bad = NumericCheck("x", 1.0, 1.1, 1e-8)
    assert not bad.passed
    # the verdict follows from the numbers and cannot be set beside them
    with pytest.raises(TypeError):
        NumericCheck("x", 1.0, 1.1, 1e-8, True)
    # Fractions at tolerance 0 compare exactly
    assert NumericCheck("x", Fraction(1, 3), Fraction(2, 6), 0).passed
    tiny = Fraction(1, 10**30)
    assert not NumericCheck("x", Fraction(1, 3), Fraction(1, 3) + tiny, 0).passed


def test_verification_suite_runs_everything():
    reports = verification_suite()
    assert [r.id for r in reports] == [spec.id for spec in NUMERIC_CHECKS]
    for report in reports:
        assert report.passed, (report.id, report.failures[:2])


# the same at every profile: the numeric grids do not scale
NUMERIC_CHECKED = {
    "ID11": 42, "ID12": 54, "ID13": 66, "ID14": 2, "ID15": 12, "INTEGRAL": 238,
    "T2-vi-numeric": 4,
}


def test_numeric_checked_counts_are_pinned():
    reports = verification_suite()
    assert {r.id: r.checked for r in reports} == NUMERIC_CHECKED
    assert sum(r.checked for r in reports) == 418


def test_verification_suite_single_selection():
    (report,) = verification_suite(only="ID13")
    assert report.id == "ID13"
    assert report.passed
    with pytest.raises(KeyError):
        verification_suite(only="nope")


def test_integral_uses_expected_tolerance():
    assert integral_coeff(2, 1, 2).tolerance == 1e-8


def test_brafman_term_decay_matches_float_sum():
    # terms fall like ~1/k^2 at n=2, so a short prefix already lands within 1e-2
    short = brafman_partial(2, 2000, 1e-2)
    assert short.passed
    assert abs(short.computed - short.expected) < 1e-2
    assert math.isfinite(short.computed)
