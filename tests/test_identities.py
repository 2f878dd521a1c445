"""Tests for the identity registry, its reports, and the Gaussian helper."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycoeffs import identities
from polycoeffs.coefficients import chi, coeff, row
from polycoeffs.identities import (
    PROFILES,
    GaussianInt,
    IdentitySpec,
    _at,
    _pack,
    _unpack,
    _width,
    build_registry,
    gaussian_pow,
    run_identity,
    run_suite,
)

EXPECTED_IDS = (
    "T2-i", "T2-ii", "T2-iii", "T2-iv", "T2-v", "T2-vi", "T2-vii", "T2-viii",
    "T2-ix", "ID1", "ID2", "ID3", "ID4", "ID5", "ID6", "ID7", "ID8", "ID9",
    "ID10",
)


def test_registry_contains_all_entries_in_order():
    assert tuple(s.id for s in build_registry("quick")) == EXPECTED_IDS


def test_quick_suite_is_green():
    for report in run_suite("quick"):
        assert report.passed, (report.id, report.failures[:3])
        assert report.checked > 0


def test_suite_accepts_profile_objects():
    reports = run_suite(PROFILES["quick"])
    assert len(reports) == len(EXPECTED_IDS)


def test_report_is_deterministic():
    spec = next(s for s in build_registry("quick") if s.id == "ID3")
    first = run_identity(spec)
    second = run_identity(spec)
    assert first.to_dict() == second.to_dict()
    assert first.checked == second.checked


def test_empty_grid_yields_empty_report():
    spec = IdentitySpec("empty", "nothing", "-", {}, lambda grid: iter(()))
    report = run_identity(spec)
    assert report.checked == 0
    assert report.passed


def test_report_json_schema():
    spec = next(s for s in build_registry("quick") if s.id == "T2-ii")
    report = run_identity(spec)
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"id", "grid", "checked", "failures"}
    assert payload["id"] == "T2-ii"
    assert isinstance(payload["checked"], int)
    assert payload["failures"] == []


def test_failures_carry_params_and_sides():
    spec = IdentitySpec(
        "broken",
        "always wrong",
        "-",
        {"n": range(2)},
        lambda grid: (({"n": n}, 0, 1) for n in grid["n"]),
    )
    report = run_identity(spec)
    assert not report.passed
    assert report.checked == 2
    rendered = report.to_dict()["failures"][0]
    assert rendered == {"params": {"n": 0}, "lhs": "0", "rhs": "1"}
    assert report.rendered_failures(1) == [rendered]


@pytest.mark.parametrize("points, params", [(3, {"n": 2}), (0, {})], ids=["late", "first"])
def test_raising_checker_becomes_one_failure(points, params):
    def checker(grid):
        for n in range(points):
            yield ({"n": n}, n, n)
        raise ZeroDivisionError("forced")

    report = run_identity(IdentitySpec("raises", "-", "-", {}, checker))
    assert report.checked == points
    assert report.to_dict()["failures"] == [
        {"params": params, "error": "ZeroDivisionError: forced"}
    ]


def test_interrupt_in_checker_is_not_swallowed():
    def checker(grid):
        yield ({"n": 0}, 0, 0)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_identity(IdentitySpec("interrupted", "-", "-", {}, checker))


def test_at_reads_zero_before_the_row_and_raises_past_its_prefix():
    values = row(-2, 3, 9)
    assert [_at(values, k) for k in range(-3, 10)] == [0, 0, 0] + values
    # the prefix of a negative row is not followed by zeros
    assert coeff(-2, 10, 3) != 0
    with pytest.raises(IndexError):
        _at(values, 10)


# Kronecker substitution: packed products against the schoolbook sum


def _schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_slots = st.one_of(
    st.lists(st.integers(-(2**200), 2**200), max_size=12),
    st.lists(st.integers(-3, 3), max_size=12),
    st.lists(st.just(0), max_size=12),
)


@given(_slots, _slots, st.integers(0, 30))
def test_packed_product_matches_schoolbook(a, b, count):
    width = _width([a, b], min(len(a), len(b)))
    full = _schoolbook(a, b)
    padded = full + [0] * count
    assert _unpack(_pack(a, width) * _pack(b, width), width, len(full)) == full
    assert _unpack(_pack(a, width) * _pack(b, width), width, count) == padded[:count]
    # the low slots of a product need only the low slots of its factors
    mask = (1 << (8 * width * count)) - 1
    masked = (_pack(a, width) & mask) * (_pack(b, width) & mask)
    assert _unpack(masked, width, count) == padded[:count]


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_product_at_the_width_boundary(sign):
    # top^2 * terms = 127 = 2^7 - 1 fits one signed byte exactly; 128 does not
    ones = [1] * 127
    assert _width([ones], 127) == 1 and _width([ones], 128) == 2
    product = _unpack(_pack(ones, 1) * _pack([sign] * 127, 1), 1, 253)
    assert product == [sign * c for c in _schoolbook(ones, ones)]
    assert product[126] == sign * 127


def test_kronecker_checkers_catch_one_wrong_coefficient(monkeypatch):
    exact_row = identities.row

    def skewed_row(n, m, limit):
        values = exact_row(n, m, limit)
        if (n, m) == (3, 2):
            values[4] += 1
        return values

    monkeypatch.setattr(identities, "row", skewed_row)
    specs = {s.id: s for s in build_registry("quick")}
    # each point reads <3,4>_2 on its right-hand side only, from row r + s = 3
    expected = {
        "T2-iv": {"m": 2, "r": 1, "s": 2, "k": 4},
        "ID6": {"m": 2, "r": 1, "s": 2, "q": 0, "k": 2, "side": "first"},
    }
    for identity_id, params in expected.items():
        report = run_identity(specs[identity_id])
        assert params in [f["params"] for f in report.failures], identity_id
        assert all(f["params"]["m"] == 2 for f in report.failures)


# spot values quoted throughout the registry descriptions


def test_vandermonde_spot_value():
    lhs = sum(coeff(1, i, 2) * coeff(1, 2 - i, 2) for i in range(3))
    assert lhs == 3 == coeff(2, 2, 2)


def test_alternating_diagonal_spot_value():
    total = sum((-1) ** (5 - k) * coeff(5 - k, k, 2) for k in range(6))
    assert total == -1 == chi(3, 5)


def test_symmetry_spot_value():
    assert coeff(3, 2, 3) == 6 == coeff(3, 7, 3)


def test_upper_summation_spot_value():
    lhs = sum(coeff(l, 2, 2) for l in range(3))
    rhs = sum(chi(1, i) * coeff(3, 3 - i, 2) for i in range(3))
    assert lhs == rhs == 4


def test_weighted_diagonal_spot_value():
    # m=2, n=4: 1 - 4 + 6 = 3 = m + 1
    total = sum(
        Fraction((-1) ** (4 - k) * coeff(4 - k, k, 2) * 4, 4 - k)
        for k in range(2 * 4 // 3 + 1)
    )
    assert total == 3


def test_square_sum_spot_values():
    values = [coeff(2, k, 2) for k in range(5)]
    assert sum(c * c for c in values) == 19 == coeff(4, 4, 2)
    assert sum(k * c * c for k, c in enumerate(values)) == 38


def test_alternating_square_spot_value():
    values = [coeff(2, k, 2) for k in range(5)]
    assert sum((-1) ** k * c * c for k, c in enumerate(values)) == 3 == coeff(2, 2, 2)


def test_quadrinomial_square_spot_value():
    values = [coeff(2, k, 3) for k in range(7)]
    assert sum((-1) ** k * c * c for k, c in enumerate(values)) == -4


def test_binomial_weighting_spot_values():
    lhs1 = sum(math.comb(2, l) * coeff(l, 2, 2) for l in range(3))
    assert lhs1 == 5
    lhs2 = sum(coeff(2, l, 2) * math.comb(l, 2) for l in range(2, 5))
    assert lhs2 == 15


# Gaussian integers


def test_gaussian_pow_trinomial():
    assert gaussian_pow(2, 2) == GaussianInt(-1, 0)


def test_gaussian_pow_binomial():
    assert gaussian_pow(1, 2) == GaussianInt(0, 2)


def test_gaussian_pow_identity():
    assert gaussian_pow(3, 0) == GaussianInt(1, 0)


def test_gaussian_arithmetic():
    i = GaussianInt(0, 1)
    assert i * i == GaussianInt(-1, 0)
    assert (GaussianInt(1, 1) + GaussianInt(2, -3)) == GaussianInt(3, -2)
    assert GaussianInt(1, 1) ** 4 == GaussianInt(-4, 0)


def test_parity_sums_closed_forms():
    # m = 0 (mod 4): even sum 1, odd sum 0; m = 3 (mod 4): both vanish
    for n in range(1, 9):
        g4 = gaussian_pow(4, n)
        assert (g4.re, g4.im) == (1, 0)
        g3 = gaussian_pow(3, n)
        assert (g3.re, g3.im) == (0, 0)


# mutation smoke tests: a single wrong sign or bound must surface failures


def _mutated_symmetry(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            for k in range(0, m * n + 6):
                yield ({"m": m, "n": n, "k": k}, coeff(n, k, m), coeff(n, m * n - k + 1, m))


def _mutated_alternating_diagonal(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            lhs = sum((-1) ** (n - k) * coeff(n - k, k, m) for k in range(n + 1))
            yield ({"m": m, "n": n}, lhs, chi(m, n))  # chi of the wrong degree


def _mutated_addition(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            for k in range(0, (m * n if n >= 0 else m * -n) + 6):
                lhs = coeff(n, k, m)
                rhs = sum(coeff(n - 1, k - i, m) for i in range(m))  # bound off by one
                yield ({"m": m, "n": n, "k": k}, lhs, rhs)


@pytest.mark.parametrize(
    "checker",
    [_mutated_symmetry, _mutated_alternating_diagonal, _mutated_addition],
    ids=["sign-shift", "wrong-chi-degree", "short-bound"],
)
def test_mutated_checkers_produce_counterexamples(checker):
    grid = {"m": range(1, 4), "n": range(0, 5)}
    report = run_identity(IdentitySpec("mutant", "-", "-", grid, checker))
    assert report.failures, "a broken checker must be caught by the report"
