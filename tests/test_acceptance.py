"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance and grid bound is pinned here;
nothing is deferred to later calibration.
"""
import time
from fractions import Fraction

from click.testing import CliRunner

from polycoeffs.cli import cli
from polycoeffs.coefficients import (
    chi,
    coeff,
    coeff_by_binom_reduction,
    coeff_by_recurrence,
    coeff_by_series,
    multinomial_oracle,
)
from polycoeffs.genfun import (
    carlitz_gf,
    column_gf,
    euler_gf_check,
    f_numbers,
    pk2_closed_form_check,
    pk_by_explicit,
    pk_by_recurrence,
    pk_gf_check,
)
from polycoeffs.identities import Block, IdentitySpec, run_identity, run_suite
from polycoeffs.trinomial import (
    brafman_partial,
    dilcher_sum,
    gegenbauer,
    hgf_series,
    integral_coeff,
    numeric_binomial_check,
    rainville_32,
    rainville_36,
)

TABLE_DEGREE_3 = {
    -3: [1, -3, 3, -1, 3, -9, 9, -3, 6, -18],
    -2: [1, -2, 1, 0, 2, -4, 2, 0, 3, -6],
    -1: [1, -1, 0, 0, 1, -1, 0, 0, 1, -1],
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    2: [1, 2, 3, 4, 3, 2, 1, 0, 0, 0],
    3: [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
}


def _criterion(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    result = CliRunner().invoke(
        cli, ["table", "-m", "3", "--rows", "-3..3", "--kmax", "9", "--format", "csv"]
    )
    elapsed = time.perf_counter() - start
    ok = result.exit_code == 0
    values_checked = 0
    if ok:
        lines = result.output.strip().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            n = int(cells[0])
            got = [int(c) for c in cells[1:]]
            if got != TABLE_DEGREE_3[n]:
                ok = False
                break
            values_checked += len(got)
        ok = ok and values_checked == 70
    ok = ok and elapsed < 1.0
    _criterion(1, "CLI table reproduces the degree-3 triangle",
               ok, f"70 values, {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    points = 0
    for m in range(1, 6):
        for n in range(-8, 9):
            for k in range(0, 41):
                points += 1
                a = coeff_by_series(n, k, m)
                b = coeff_by_recurrence(n, k, m)
                c = coeff_by_binom_reduction(n, k, m)
                if not (a == b == c):
                    mismatches += 1
    oracle_points = 0
    for m in range(1, 6):
        for n in range(0, 7):
            for k in range(0, m * n + 1):
                oracle_points += 1
                if multinomial_oracle(n, k, m) != coeff(n, k, m):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _criterion(2, "three algorithms and the factorial oracle agree on the grid",
               ok, f"{points}+{oracle_points} points, {elapsed:.2f}s")


def _mutated_symmetry(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            ks = range(0, m * n + 6)
            yield Block({"m": m, "n": n, "k": ks}, ("k",),
                        [coeff(n, k, m) for k in ks],
                        [coeff(n, m * n - k + 1, m) for k in ks])


def _mutated_diagonal(grid):
    for m in grid["m"]:
        ns = grid["n"]
        lhs = [sum((-1) ** (n - k) * coeff(n - k, k, m) for k in range(n + 1))
               for n in ns]
        yield Block({"m": m, "n": ns}, ("n",), lhs, [chi(m, n) for n in ns])


def _caught(report) -> bool:
    # counterexamples with both sides, not a checker that raised
    return report.checked > 0 and bool(report.failures) and all(
        "error" not in f and {"lhs", "rhs"} <= set(f) for f in report.failures
    )


def test_criterion_3_identity_suite_desk():
    start = time.perf_counter()
    reports = run_suite("desk")
    elapsed = time.perf_counter() - start
    failing = [r.id for r in reports if not r.passed]
    ok = len(reports) == 26 and not failing and elapsed < 120.0
    grid = {"m": range(1, 4), "n": range(0, 5)}
    for checker in (_mutated_symmetry, _mutated_diagonal):
        mutant = run_identity(IdentitySpec("mutant", "-", "-", grid, checker))
        ok = ok and _caught(mutant)
    _criterion(3, "all 26 checks pass on the desk profile, mutations are caught",
               ok, f"failing={failing or 'none'}, {elapsed:.2f}s")


def test_criterion_4_fibonacci_specialization():
    values = f_numbers(2, 31).values
    fib = [1, 1]
    while len(fib) < 31:
        fib.append(fib[-1] + fib[-2])
    ok = list(values) == fib
    _criterion(4, "degree-2 f-numbers are the shifted Fibonacci numbers", ok,
               "n <= 30, exact")


def test_criterion_5_euler_generating_function():
    ok = euler_gf_check(50)
    _criterion(5, "central trinomial series squares against (1+x)(1-3x)", ok,
               "order 50, exact")


def test_criterion_6_carlitz_self_consistency():
    start = time.perf_counter()
    ok = True
    try:
        for m in range(1, 4):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    series = carlitz_gf(a, b, m, 25)
                    for k in range(26):
                        if series[k] != coeff(a + b * k, k, m):
                            ok = False
    except Exception:
        ok = False
    elapsed = time.perf_counter() - start
    _criterion(6, "diagonal series match direct coefficients", ok,
               f"(a,b) in [-2,2]^2, m <= 3, k <= 25, {elapsed:.2f}s")


def test_criterion_7_column_generating_functions():
    ok = all(
        pk_by_recurrence(m, k) == pk_by_explicit(m, k)
        for m in range(1, 5)
        for k in range(0, 16)
    )
    ok = ok and all(pk_gf_check(m, 12) for m in range(1, 5))
    ok = ok and pk2_closed_form_check(12)
    try:
        for m in range(1, 5):
            for sign in ("+", "-"):
                for k in range(0, 11):
                    column_gf(k, m, sign, 30)
    except Exception:
        ok = False
    _criterion(7, "column polynomials and column series agree across routes", ok,
               "m <= 4, k <= 15; GF identity to y^12; closed form to k=12; 30 terms")


def test_criterion_8_gegenbauer_connection():
    ok = True
    for n in range(-4, 7):
        for k in range(0, 16):
            value = coeff(n, k, 2)
            if gegenbauer(-n, k, Fraction(-1, 2)) != value:
                ok = False
            if (-1) ** k * gegenbauer(-n, k, Fraction(1, 2)) != value:
                ok = False
    _criterion(8, "ultraspherical values at +-1/2 give the trinomial triangle",
               ok, "n in -4..6, k <= 15, exact")


def test_criterion_9_numeric_identities():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for k in range(0, 7):
            if abs(dilcher_sum(n, k) - coeff(-n, k, 2)) > 1e-6:
                ok = False
    for m in range(1, 5):
        for n in range(0, 7):
            for k in range(0, m * n + 1):
                if not integral_coeff(n, k, m, tolerance=1e-8).passed:
                    ok = False
    for n in (1, 2, 3):
        for t in (0.25, -0.25, 0.5, -0.5):
            if not hgf_series(n, t, 400, tolerance=1e-10).passed:
                ok = False
    ok = ok and brafman_partial(2, 100_000, tolerance=1e-3).passed
    ok = ok and brafman_partial(3, 5_000, tolerance=1e-6).passed
    ok = ok and numeric_binomial_check(-1, 2, 0.1, 1.0, 60, tolerance=1e-10).passed
    ok = ok and numeric_binomial_check(-2, 3, -0.05, 1.0, 60, tolerance=1e-10).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _criterion(9, "analytic identities hold at their stated tolerances", ok,
               f"{elapsed:.2f}s")


def test_criterion_10_rainville_formulas():
    ok = True
    for p in range(1, 7):
        for n in range(0, 9):
            lhs, rhs = rainville_32(p, n)
            if lhs != rhs:
                ok = False
        for n in range(0, 11):
            lhs, rhs = rainville_36(p, n)
            if lhs != rhs:
                ok = False
    _criterion(10, "both Rainville summations hold exactly", ok,
               "p <= 6, zero tolerance")
