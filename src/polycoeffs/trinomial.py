"""Trinomial specializations and numerically verified summation formulas.

The m = 2 coefficients coincide with Gegenbauer polynomial values at
arguments +-1/2, which yields several classical summation formulas.  Where a
formula is rational it is checked exactly; where it is genuinely analytic
(cosine products, an integral representation, convergent series) it is
evaluated in floating point against a stated tolerance, always with a fixed
summation order so results are reproducible bit for bit.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy.polynomial.legendre

from .coefficients import coeff, row
from .errors import DomainError, NegativeN, TooLarge
from .identities import Block, IdentityReport, IdentitySpec, holds, run_identity
from .series import TruncatedSeries

_GL_NODES, _GL_WEIGHTS = numpy.polynomial.legendre.leggauss(64)
_GL_POINTS = list(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))


@dataclass(frozen=True)
class NumericCheck:
    """A computed value against an expected one, within an explicit
    tolerance, compared by ``holds`` as a ``Block``'s points are."""

    description: str
    computed: float | Fraction
    expected: float | Fraction
    tolerance: float

    @property
    def passed(self) -> bool:
        return holds(self.computed, self.expected, self.tolerance)


def gegenbauer(alpha: int, degree: int, argument) -> Fraction:
    """Coefficient of t^degree in (1 - 2xt + t^2)^(-alpha), exactly.

    Integer ``alpha`` of either sign is supported: negative alpha expands a
    plain polynomial power, positive alpha goes through exact series
    inversion.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    x = Fraction(argument)
    base = TruncatedSeries([1, -2 * x, 1], degree)
    return Fraction((base ** (-alpha))[degree])


def dilcher_sum(n: int, k: int) -> float:
    """Cosine-product expansion of <-n, k>_2 for n >= 1.

    Sums prod_i (1 + 2 cos(j_i pi / (n+k))) over strictly increasing
    k-tuples 1 <= j_1 < ... < j_k <= n+k-1, with sign (-1)^k.  The tuple
    count explodes combinatorially, so k <= 8 and n + k <= 14 are enforced.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > 8 or n + k > 14:
        raise TooLarge("dilcher_sum is limited to k <= 8 and n + k <= 14")
    if k == 0:
        return 1.0
    modulus = n + k
    factors = [1.0 + 2.0 * math.cos(j * math.pi / modulus) for j in range(1, modulus)]
    total = 0.0
    for combo in itertools.combinations(range(modulus - 1), k):
        product = 1.0
        for index in combo:
            product *= factors[index]
        total += product
    return -total if k & 1 else total


def pochhammer(x, count: int):
    """Rising factorial x (x+1.) ... (x+count-1) with (x)_0 = 1."""
    if count < 0:
        raise ValueError("count must be non-negative")
    result = 1
    for i in range(count):
        result = result * (x + i)
    return result


def rainville_32(p: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the first Rainville-type summation, as exact rationals."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    lhs = Fraction(0)
    for k in range(n + 1):
        c = coeff(-p, k, 2)
        numerator = (-1 if k & 1 else 1) * (k + p) * c
        denominator = (
            math.factorial(n - k)
            * math.factorial(k + n + 1)
            * math.comb(2 * p + k + n, 2 * p - 1)
        )
        lhs += Fraction(numerator, denominator)
    rhs = Fraction(3, 4) ** n / (
        2 * math.factorial(n) * pochhammer(p + Fraction(1, 2), n)
    )
    return lhs, rhs


def rainville_36(p: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the second Rainville-type summation, as exact rationals."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    lhs = Fraction(0)
    for k in range(n // 2 + 1):
        c = coeff(-p, n - 2 * k, 2)
        lhs += Fraction(
            (p + n - 2 * k) * c, math.factorial(k) * pochhammer(p, n + 1 - k)
        )
    rhs = Fraction((-1) ** n, math.factorial(n))
    return lhs, rhs


def _brafman_default_tolerance(n: int) -> float:
    if n >= 3:
        return 1e-6
    if n == 2:
        return 1e-3
    return 1e-2


def _brafman_closed_form(n: int) -> float:
    """The sum of the cubed-coefficient series, for n >= 1."""
    return (2 ** n * math.sqrt(3.0) * math.pi) / (
        3 ** (3 * n - 1) * math.factorial(n - 1) ** 4
    )


def _brafman_partial_sums(n: int, terms: int):
    """The partial sums after terms 0, 1, ..., terms - 1 of
    sum_k (-1)^k (k+n) <-n,k>_2^3 / ((k+1) ... (k+2n-1))^2.

    Terms are computed exactly as integer ratios and accumulated in floats in
    index order (term decay is ~k^(3-2n), so truncation error dwarfs float
    roundoff).
    """
    values = row(-n, 2, terms - 1)
    partial = 0.0
    for k in range(terms):
        c = values[k]
        if c:
            numerator = (k + n) * c ** 3
            denominator = 1
            for j in range(k + 1, k + 2 * n):
                denominator *= j
            term = numerator / denominator ** 2
            partial += -term if k & 1 else term
        yield partial


def brafman_partial(n: int, terms: int, tolerance: float | None = None) -> NumericCheck:
    """Partial sums of the cubed-coefficient series against its closed form.

    n = 1 converges too slowly for raw partial sums and is reported with
    Cesaro averaging, informational rather than tight.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    cesaro_acc = 0.0
    for partial in _brafman_partial_sums(n, terms):
        cesaro_acc += partial
    computed = cesaro_acc / terms if n == 1 else partial
    tol = _brafman_default_tolerance(n) if tolerance is None else tolerance
    label = "cesaro" if n == 1 else "partial"
    return NumericCheck(
        f"cubed trinomial series n={n} ({label}, {terms} terms)",
        computed,
        _brafman_closed_form(n),
        tol,
    )


def hgf_series(
    n: int, t: float, terms: int, tolerance: float = 1e-10
) -> NumericCheck:
    """Hypergeometric-flavoured series in t against its closed form, |t| < 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if abs(t) >= 1:
        raise DomainError("the series requires |t| < 1")
    values = row(-n, 2, terms - 1)
    total = 0.0
    ratio = 1.0  # (n + 1/2)_k / (2n)_k
    t_power = 1.0
    for k in range(terms):
        total += ratio * values[k] * t_power
        ratio *= (n + 0.5 + k) / (2 * n + k)
        t_power *= t
    root = math.sqrt(1.0 + t + t * t)
    expected = 2 ** (n - 0.5) / root * (1.0 + t / 2.0 + root) ** (0.5 - n)
    return NumericCheck(
        f"hypergeometric-type series n={n} t={t:g} ({terms} terms)",
        total,
        expected,
        tolerance,
    )


def _integral_checks(n: int, m: int, ks, tolerance: float, panels: int):
    """``integral_coeff`` for each k in ``ks``, sharing one set of samples.

    The nodes t and the kernel (sin((m+1)t) / sin t)^n depend on (n, m)
    only, so they are computed once; each k then costs one cosine per node.
    """
    width = (math.pi / 2.0) / panels
    samples = []
    for p in range(panels):
        left = p * width
        for node, weight in _GL_POINTS:
            t = left + (node + 1.0) * width / 2.0
            s = math.sin(t)
            ratio = float(m + 1) if abs(s) < 1e-15 else math.sin((m + 1) * t) / s
            samples.append((t, weight, ratio ** n))
    for k in ks:
        frequency = n * m - 2 * k
        total = 0.0
        for t, weight, ratio_n in samples:
            total += weight * (ratio_n * math.cos(frequency * t))
        value = (2.0 / math.pi) * total * width / 2.0
        yield NumericCheck(
            f"integral representation n={n} k={k} m={m}",
            value,
            float(coeff(n, k, m)),
            tolerance,
        )


def integral_coeff(
    n: int, k: int, m: int, tolerance: float = 1e-8, panels: int = 8
) -> NumericCheck:
    """Quadrature of the cosine-kernel integral representation of <n,k>_m.

    Composite Gauss-Legendre, 64 nodes per panel over [0, pi/2]; the
    integrand's removable singularity at t = 0 is patched with its limit
    (m+1)^n.  Only n >= 0 keeps the integrand bounded.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 0:
        raise NegativeN("the integral representation needs n >= 0")
    return next(_integral_checks(n, m, (k,), tolerance, panels))


def numeric_binomial_check(
    n: int, m: int, x: float, y: float, terms: int, tolerance: float = 1e-10
) -> NumericCheck:
    """Numeric two-variable expansion check for negative row index.

    Compares the partial sum sum_k <n,k>_m x^k y^(mn-k) against
    (x^0 y^m + ... + x^m y^0)^n; convergence needs |p_m(x/y) - 1| < 1,
    otherwise ``DomainError`` is raised.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n >= 0:
        raise ValueError("this check covers negative n only")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if y == 0:
        raise DomainError("y must be nonzero")
    ratio = x / y
    p_ratio = sum(ratio ** i for i in range(m + 1))
    if abs(p_ratio - 1.0) >= 1.0:
        raise DomainError("|p_m(x/y) - 1| < 1 fails at this sample point")
    values = row(n, m, terms - 1)
    partial = 0.0
    for k in range(terms):
        partial += values[k] * x ** k * y ** (m * n - k)
    closed = sum(x ** i * y ** (m - i) for i in range(m + 1)) ** n
    return NumericCheck(
        f"negative-row expansion n={n} m={m} x={x:g} y={y:g} ({terms} terms)",
        partial,
        closed,
        tolerance,
    )


# ---------------------------------------------------------------------------
# the numeric registry: IdentitySpecs whose grid is the report's text and
# whose checkers yield one Block per point, with its tolerance, for
# run_identity to report as it does the exact identities


def _point(params: dict, check: NumericCheck) -> Block:
    return Block(params, (), [check.computed], [check.expected], check.tolerance)


def _dilcher_points():
    for n in range(1, 7):
        for k in range(0, 7):
            expected = float(coeff(-n, k, 2))
            yield Block({"n": n, "k": k}, (), [dilcher_sum(n, k)], [expected], 1e-6)


def _rainville_points(formula):
    n_top = 8 if formula is rainville_32 else 10
    for p in range(1, 7):
        for n in range(0, n_top + 1):
            lhs, rhs = formula(p, n)
            yield Block({"p": p, "n": n}, (), [lhs], [rhs])


def _brafman_points():
    # 1/p_2 = (1-t)/(1-t^3), so <-n,k>_2 repeats its sign pattern every 3
    # terms and, with the alternating sign, the partial sums oscillate with
    # period 6; their mean over one period cancels that oscillation (Cohen,
    # Rodriguez Villegas & Zagier, Exp. Math. 9, 2000), landing within
    # 1.4e-11 at n=2 and 1.1e-15 at n=3 on these term counts
    for n, terms, tol in ((2, 2_400, 1e-9), (3, 600, 1e-12)):
        last = deque(_brafman_partial_sums(n, terms), maxlen=6)
        params = {"n": n, "terms": terms, "tolerance": tol}
        mean = math.fsum(last) / len(last)
        yield Block(params, (), [mean], [_brafman_closed_form(n)], tol)


def _hgf_points():
    for n in (1, 2, 3):
        for t in (0.25, -0.25, 0.5, -0.5):
            yield _point({"n": n, "t": t}, hgf_series(n, t, 400))


def _integral_points():
    for m in range(1, 5):
        for n in range(0, 7):
            checks = _integral_checks(n, m, range(m * n + 1), 1e-8, 8)
            for k, check in enumerate(checks):
                yield _point({"n": n, "k": k, "m": m}, check)


def _binomial_numeric_points():
    samples = (
        (-1, 2, 0.1, 1.0, 60),
        (-2, 3, -0.05, 1.0, 60),
        (-1, 3, 0.0, 1.0, 10),
        (-3, 2, 0.05, 1.0, 80),
    )
    for n, m, x, y, terms in samples:
        check = numeric_binomial_check(n, m, x, y, terms)
        yield _point({"n": n, "m": m, "x": x, "y": y, "terms": terms}, check)


# in report order: id, description, source, grid text, checker
NUMERIC_CHECKS = (
    IdentitySpec("ID11", "cosine-product expansion of <-n,k>_2",
                 "Dilcher's cosine products, Gegenbauer at x = -1/2",
                 "n=1..6, k=0..6, tol=1e-6", lambda grid: _dilcher_points()),
    IdentitySpec("ID12", "first Rainville-type summation, exactly",
                 "a Rainville-type Gegenbauer summation", "p=1..6, n=0..8, exact",
                 lambda grid: _rainville_points(rainville_32)),
    IdentitySpec("ID13", "second Rainville-type summation, exactly",
                 "a Rainville-type Gegenbauer summation", "p=1..6, n=0..10, exact",
                 lambda grid: _rainville_points(rainville_36)),
    IdentitySpec("ID14", "alternating sum of cubed coefficients, closed form",
                 "a Brafman-type series",
                 "mean of the last 6 partial sums: n=2 (2400 terms, tol=1e-9), "
                 "n=3 (600 terms, tol=1e-12)", lambda grid: _brafman_points()),
    IdentitySpec("ID15", "hypergeometric-type series in t, closed form",
                 "a Gegenbauer generating function in hypergeometric form",
                 "n=1..3, t in {+-0.25, +-0.5}, tol=1e-10", lambda grid: _hgf_points()),
    IdentitySpec("INTEGRAL", "cosine-kernel integral representation of <n,k>_m",
                 "composite Gauss-Legendre quadrature",
                 "n=0..6, m=1..4, k=0..mn, tol=1e-8", lambda grid: _integral_points()),
    IdentitySpec("T2-vi-numeric", "two-variable expansion of a negative row",
                 "extends the binomial theorem (T2-vi)",
                 "sampled (n,m,x,y), tol=1e-10",
                 lambda grid: _binomial_numeric_points()),
)
_BY_ID = {spec.id: spec for spec in NUMERIC_CHECKS}
NUMERIC_CHECK_IDS = tuple(_BY_ID)


def _report(spec: IdentitySpec) -> IdentityReport:
    # perfbench's tracer spans this step as trinomial.<ID> (ROADMAP item 1);
    # were it an alias of run_identity, the tracer would wrap that twice
    return run_identity(spec)


def verification_suite(only: str | None = None) -> list[IdentityReport]:
    """Reports for the numeric and trinomial checks, in table order; an
    unknown ``only`` raises ``KeyError``."""
    specs = NUMERIC_CHECKS if only is None else (_BY_ID[only],)
    return [_report(spec) for spec in specs]
