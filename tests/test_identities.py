"""Tests for the identity registry, its reports, and its exact helpers."""
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycoeffs import identities
from polycoeffs.coefficients import chi, coeff, row
from polycoeffs.identities import (
    PROFILES,
    Block,
    IdentitySpec,
    _at,
    _p_m_at_i,
    _pack,
    _unpack,
    _width,
    build_registry,
    run_identity,
    run_suite,
)
from polycoeffs.trinomial import NUMERIC_CHECKS

EXPECTED_IDS = (
    "T2-i", "T2-ii", "T2-iii", "T2-iv", "T2-v", "T2-vi", "T2-vii", "T2-viii",
    "T2-ix", "ID1", "ID2", "ID3", "ID4", "ID5", "ID6", "ID7", "ID8", "ID9",
    "ID10", "ID11", "ID12", "ID13", "ID14", "ID15", "INTEGRAL", "T2-vi-numeric",
)
NUMERIC_IDS = {spec.id for spec in NUMERIC_CHECKS}


def test_registry_contains_all_entries_in_order():
    assert tuple(s.id for s in build_registry("quick")) == EXPECTED_IDS


def test_quick_suite_is_green():
    for report in run_suite("quick"):
        assert report.passed, (report.id, report.failures[:3])
        assert report.checked > 0


# points per check, the exact ones pinned from the point-at-a-time checkers:
# a checker that yields blocks must still visit every point of its grid
# exactly once; the numeric grids are the same at every profile
NUMERIC_CHECKED = {
    "ID11": 42, "ID12": 54, "ID13": 66, "ID14": 2, "ID15": 12, "INTEGRAL": 238,
    "T2-vi-numeric": 4,
}
CHECKED = {
    "quick": {
        "T2-i": 180, "T2-ii": 180, "T2-iii": 309, "T2-iv": 3501, "T2-v": 336,
        "T2-vi": 15, "T2-vii": 150, "T2-viii": 75, "T2-ix": 336, "ID1": 336,
        "ID2": 15, "ID3": 15, "ID4": 12, "ID5": 24, "ID6": 8550, "ID7": 45,
        "ID8": 15, "ID9": 5, "ID10": 300, **NUMERIC_CHECKED,
    },
    "desk": {
        "T2-i": 595, "T2-ii": 1265, "T2-iii": 2385, "T2-iv": 73185, "T2-v": 2490,
        "T2-vi": 55, "T2-vii": 1155, "T2-viii": 605, "T2-ix": 2490, "ID1": 2490,
        "ID2": 55, "ID3": 55, "ID4": 50, "ID5": 100, "ID6": 148830, "ID7": 165,
        "ID8": 55, "ID9": 11, "ID10": 2310, **NUMERIC_CHECKED,
    },
    "deep": {
        "T2-i": 777, "T2-ii": 2925, "T2-iii": 5628, "T2-iv": 248472, "T2-v": 5802,
        "T2-vi": 90, "T2-vii": 2745, "T2-viii": 1350, "T2-ix": 5802, "ID1": 5802,
        "ID2": 90, "ID3": 90, "ID4": 84, "ID5": 168, "ID6": 486000, "ID7": 270,
        "ID8": 90, "ID9": 15, "ID10": 5490, **NUMERIC_CHECKED,
    },
}


@pytest.mark.parametrize("profile", sorted(CHECKED))
def test_checked_counts_are_pinned(profile):
    reports = run_suite(profile)
    assert {r.id: r.checked for r in reports} == CHECKED[profile]
    assert all(r.passed for r in reports)
    if profile == "deep":
        exact = sum(r.checked for r in reports if r.id not in NUMERIC_IDS)
        numeric = sum(r.checked for r in reports if r.id in NUMERIC_IDS)
        assert (exact, numeric) == (771_690, 418)


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
        lambda grid: iter([Block(grid, ("n",), [0, 0], [1, 1])]),
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
            yield Block({"n": n}, (), [n], [n])
        raise ZeroDivisionError("forced")

    report = run_identity(IdentitySpec("raises", "-", "-", {}, checker))
    assert report.checked == points
    assert report.to_dict()["failures"] == [
        {"params": params, "error": "ZeroDivisionError: forced"}
    ]


def test_interrupt_in_checker_is_not_swallowed():
    def checker(grid):
        yield Block({"n": 0}, (), [0], [0])
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


PINNED_FAILURES = Path(__file__).parent / "data" / "quick_one_wrong_coefficient.json"


def test_one_wrong_coefficient_reproduces_the_pinned_reports(monkeypatch):
    # <3,4>_2 off by one wherever a checker reads it, through row or coeff
    # (T2-viii reads its diagonal from rows); the pinned reports come from
    # the point-at-a-time checkers
    exact_row, exact_coeff = identities.row, identities.coeff

    def skewed_row(n, m, limit):
        values = exact_row(n, m, limit)
        if (n, m) == (3, 2) and len(values) > 4:
            values[4] += 1
        return values

    def skewed_coeff(n, k, m):
        return exact_coeff(n, k, m) + ((n, k, m) == (3, 4, 2))

    monkeypatch.setattr(identities, "row", skewed_row)
    monkeypatch.setattr(identities, "coeff", skewed_coeff)
    pinned = json.loads(PINNED_FAILURES.read_text())
    exact = [spec for spec in build_registry("quick") if spec.id not in NUMERIC_IDS]
    reports = [run_identity(spec).to_dict() for spec in exact]
    assert [r["id"] for r in reports] == [r["id"] for r in pinned]
    for report, expected in zip(reports, pinned):
        # json.dumps keeps key order, so the params keys must come in pinned order
        assert json.dumps(report) == json.dumps(expected), report["id"]


# packed sides: a block compares one key per side and is decoded only when
# the keys differ, so a fault must never leave the keys equal


def _skew(monkeypatch, changes):
    """Route identities.row through ``changes``, {(n, m): {k: delta}}."""
    exact_row = identities.row

    def skewed_row(n, m, limit):
        values = exact_row(n, m, limit)
        for k, delta in changes.get((n, m), {}).items():
            if k < len(values):
                values[k] += delta
        return values

    monkeypatch.setattr(identities, "row", skewed_row)
    return skewed_row


def _widths(monkeypatch, spec):
    """The slot width each degree m of a clean run of ``spec`` packs with."""
    seen = []
    exact_width = identities._width

    def recording_width(rows, terms):
        seen.append(exact_width(rows, terms))
        return seen[-1]

    monkeypatch.setattr(identities, "_width", recording_width)
    assert run_identity(spec).passed
    monkeypatch.setattr(identities, "_width", exact_width)
    return dict(zip(spec.grid["m"], seen))


def _vandermonde_failures(grid, m, read_row, involved):
    """Failures of T2-iv at degree m, as a point-by-point list comparison,
    over the pairs (r, s) with one of r, s, r + s in ``involved``."""
    failures = []
    for r in grid["r"]:
        for s in grid["s"]:
            if not involved & {r, s, r + s}:
                continue
            kmax = identities._vandermonde_cap(r, s, m)
            product = _schoolbook(read_row(r, m, kmax), read_row(s, m, kmax))
            expected = read_row(r + s, m, kmax)
            for k in range(-1, kmax + 1):
                lhs, rhs = _at(product, k), _at(expected, k)
                if lhs != rhs:
                    params = {"m": m, "r": r, "s": s, "k": k}
                    failures.append({"params": params, "lhs": lhs, "rhs": rhs})
    return failures


def _shifted_product_failures(grid, m, read_row, total):
    """Failures of ID6 at degree m over the pairs with r + s = ``total``,
    summing sum_l <r,q+l><s,k+l> term by term."""
    failures = []
    for r in grid["r"]:
        for s in grid["s"]:
            if r + s != total:
                continue
            row_r, row_s = read_row(r, m, m * r), read_row(s, m, m * s)
            row_rs = read_row(r + s, m, m * (r + s) + 7)
            for q in grid["q"]:
                for k in range(-(m * r + 5), m * s + 6):
                    lhs = sum(
                        row_r[q + l] * row_s[k + l]
                        for l in range(-min(q, k), m * r + 1)
                        if q + l <= m * r and k + l <= m * s
                    )
                    for side, t in (("first", m * r - q + k), ("second", m * s + q - k)):
                        rhs = _at(row_rs, t)
                        if lhs != rhs:
                            params = {"m": m, "r": r, "s": s, "q": q, "k": k, "side": side}
                            failures.append({"params": params, "lhs": lhs, "rhs": rhs})
    return failures


def test_offsets_that_cancel_in_the_packed_row_are_still_reported(monkeypatch):
    # <5,4>_2 + 2^(8 width) and <5,5>_2 - 1 pack to the same integer as the
    # exact row; row 5 is never a factor on the quick grid, so the width that
    # the checker packs with does not see the change
    specs = {s.id: s for s in build_registry("quick")}
    for identity_id in ("T2-iv", "ID6"):
        spec = specs[identity_id]
        width = _widths(monkeypatch, spec)[2]
        exact = row(5, 2, 17)
        read_row = _skew(monkeypatch, {(5, 2): {4: 1 << (8 * width), 5: -1}})
        skewed = read_row(5, 2, 17)
        loose = [sum(c << (8 * width * i) for i, c in enumerate(v)) for v in (exact, skewed)]
        assert loose[0] == loose[1]
        if identity_id == "T2-iv":
            expected = _vandermonde_failures(spec.grid, 2, read_row, {5})
        else:
            expected = _shifted_product_failures(spec.grid, 2, read_row, 5)
        # pairs (1, 4) .. (4, 1) read both entries once in T2-iv, and in ID6
        # on both sides of each of the three q windows
        assert len(expected) == {"T2-iv": 4 * 2, "ID6": 4 * 3 * 2 * 2}[identity_id]
        assert run_identity(spec).failures == expected, identity_id
        monkeypatch.undo()


@pytest.mark.parametrize("identity_id", ["T2-iii", "T2-iv", "T2-v", "T2-vii", "ID1", "ID6"])
def test_correct_rows_are_never_decoded(monkeypatch, identity_id):
    # a key that differed for correct rows would still pass, by decoding
    # every block, so equal keys are checked directly
    def decode(self):
        raise AssertionError("a block of correct rows was decoded")

    monkeypatch.setattr(identities._Packed, "__iter__", decode)
    spec = next(s for s in build_registry("desk") if s.id == identity_id)
    report = run_identity(spec)
    assert report.passed and report.checked == CHECKED["desk"][identity_id]


@pytest.mark.parametrize("identity_id", ["T2-i", "T2-ii", "T2-iii", "T2-v", "T2-ix", "ID1"])
def test_windowed_checkers_build_each_row_once(monkeypatch, identity_id):
    # every row comes from _windows, once per degree: row n of each grid n,
    # and row n - 1 only for the checkers that read it
    built = Counter()
    exact_row = identities.row

    def counting_row(n, m, limit):
        built[n, m] += 1
        return exact_row(n, m, limit)

    monkeypatch.setattr(identities, "row", counting_row)
    spec = next(s for s in build_registry("quick") if s.id == identity_id)
    assert run_identity(spec).passed
    grid = spec.grid
    lags = (0, 1) if identity_id in ("T2-iii", "T2-v", "ID1") else (0,)
    windows = {(n - j, m) for m in grid["m"] for n in grid["n"] for j in lags}
    assert built == Counter(windows)


def _window_failures(grid, m, read_row, sides):
    """Failures of a window sweep at degree m, as a point-by-point list
    comparison: ``sides(n, k, row n, row n - 1)`` gives both sides of a
    point, or None where k is no point."""
    failures = []
    for n in grid["n"]:
        last = m * abs(n) + 5
        values, prior = read_row(n, m, last), read_row(n - 1, m, last)
        for k in range(-2, last + 1):
            point = sides(n, k, values, prior)
            if point is not None and point[0] != point[1]:
                params = {"m": m, "n": n, "k": k}
                failures.append({"params": params, "lhs": point[0], "rhs": point[1]})
    return failures


def _absorption_sides(n, k, values, prior):
    if k != 0:
        return k * _at(values, k), n * sum(i * _at(prior, k - i) for i in range(1, 7))


def _addition_sides(n, k, values, prior):
    return _at(values, k), sum(_at(prior, k - i) for i in range(7))


def _chi_convolution_sides(n, k, values, prior):
    lhs = sum(chi(6, j) * _at(values, k - j) for j in range(k + 1))
    return lhs, _at(prior, k)


def test_an_entry_only_the_deep_grid_reads_is_reported_as_a_list_comparison_would(
    monkeypatch,
):
    # <-14,80>_6 off by one: m = 6 and |n| = 14 lie outside the desk grid
    specs = {s.id: s for s in build_registry("deep")}
    read_row = _skew(monkeypatch, {(-14, 6): {80: 1}})

    vandermonde = run_identity(specs["T2-iv"])
    expected = _vandermonde_failures(specs["T2-iv"].grid, 6, read_row, {-14})
    assert expected and vandermonde.failures == expected

    windows = {
        "T2-iii": _absorption_sides,
        "T2-v": _addition_sides,
        "ID1": _chi_convolution_sides,
    }
    for identity_id, sides in windows.items():
        expected = _window_failures(specs[identity_id].grid, 6, read_row, sides)
        # row -14 is row n at n = -14 and row n - 1 at n = -13
        assert {f["params"]["n"] for f in expected} == {-14, -13}, identity_id
        assert run_identity(specs[identity_id]).failures == expected, identity_id

    # T2-vii reads rows 0..15 only: <14,80>_6 is in the column sums at n = 14
    # and in row n + 1 at n = 13
    monkeypatch.undo()
    read_row = _skew(monkeypatch, {(14, 6): {80: 1}})
    expected = []
    for n in specs["T2-vii"].grid["n"]:
        rows = [read_row(j, 6, 6 * 14 + 6) for j in range(n + 2)]
        for k in range(6 * n + 6):
            lhs = sum(values[k] for values in rows[: n + 1])
            rhs = sum(chi(5, i) * rows[n + 1][k - i + 1] for i in range(k + 1))
            if lhs != rhs:
                params = {"m": 6, "n": n, "k": k}
                expected.append({"params": params, "lhs": lhs, "rhs": rhs})
    assert {f["params"]["n"] for f in expected} == {13, 14}
    assert run_identity(specs["T2-vii"]).failures == expected


# blocks: many grid points with their two sides as two lists


def _block_report(*items):
    def checker(grid):
        yield from items

    return run_identity(IdentitySpec("block", "-", "-", {}, checker))


def test_block_decodes_two_swept_keys_last_fastest():
    sides = ("first", "second")
    block = Block(
        {"m": 2, "k": range(-1, 2), "q": 0, "side": sides},
        ("k", "side"),
        [0] * 6,
        [0] * 6,
    )
    points = [block.point(i) for i in range(6)]
    expected = [{"m": 2, "k": k, "q": 0, "side": s} for k in (-1, 0, 1) for s in sides]
    assert points == expected
    assert all(list(p) == ["m", "k", "q", "side"] for p in points)


def test_block_with_a_list_of_swept_values():
    # T2-iii sweeps k without 0
    ks = [-2, -1, 1, 2]
    report = _block_report(Block({"n": 3, "k": ks}, ("k",), [5, 6, 7, 8], [5, 6, 0, 8]))
    assert report.checked == 4
    assert report.failures == [{"params": {"n": 3, "k": 1}, "lhs": 7, "rhs": 0}]


def test_block_mismatch_in_its_last_element_is_reported():
    block = Block({"n": 0, "k": range(5)}, ("k",), [1, 2, 3, 4, 5], [1, 2, 3, 4, 6])
    before = Block({"n": 1, "k": range(2)}, ("k",), [0, 0], [0, 0])
    report = _block_report(before, block)
    assert report.checked == 7
    assert report.failures == [{"params": {"n": 0, "k": 4}, "lhs": 5, "rhs": 6}]


def test_checker_raising_after_a_block_records_its_last_point():
    def checker(grid):
        yield Block({"n": 6}, (), [0], [0])
        yield Block({"n": 7, "k": range(4)}, ("k",), [0] * 4, [0] * 4)
        yield Block({"n": 8, "k": range(0)}, ("k",), [], [])
        raise ZeroDivisionError("forced")

    report = run_identity(IdentitySpec("raises", "-", "-", {}, checker))
    assert report.checked == 5
    assert report.failures == [
        {"params": {"n": 7, "k": 3}, "error": "ZeroDivisionError: forced"}
    ]


def test_block_sides_must_cover_its_sweep():
    with pytest.raises(ValueError, match="block of 3 points has 3 left and 2 right"):
        Block({"k": range(3)}, ("k",), [0, 0, 0], [0, 0])
    with pytest.raises(ValueError, match="block of 4 points"):
        Block({"k": range(2), "side": ("a", "b")}, ("k", "side"), [0] * 3, [0] * 3)


# one comparison rule, holds, for a Block's points and for NumericCheck

NAN = float("nan")
COMPARISONS = [
    # (lhs, rhs, tolerance, holds)
    (float("nan"), 1.0, 0, False),
    (float("nan"), float("nan"), 0, False),
    (float("nan"), float("nan"), 1e-8, False),
    (NAN, NAN, 1e-8, False),  # equal as lists, since an element equals itself
    (float("nan"), 1.0, math.inf, False),
    (1.0, 1.5, 0.5, True),  # a difference exactly at the tolerance
    (1.0, 1.5 + 2 ** -52, 0.5, False),
    (Fraction(1, 3), Fraction(2, 6), 0, True),
    (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), 0, False),
    ((3, -1), (3, -1), 0, True),  # tuple sides, as T2-vi's, at tolerance 0
    ((3, -1), (3, 1), 0, False),
]


@pytest.mark.parametrize("lhs, rhs, tolerance, expected", COMPARISONS)
def test_block_and_numeric_check_share_one_comparison_rule(lhs, rhs, tolerance, expected):
    from polycoeffs.trinomial import NumericCheck

    assert identities.holds(lhs, rhs, tolerance) is expected
    assert NumericCheck("x", lhs, rhs, tolerance).passed is expected
    report = _block_report(Block({"n": 1}, (), [lhs], [rhs], tolerance))
    assert report.checked == 1
    if expected:
        assert report.failures == []
    else:
        # the sides themselves, since a NaN equals nothing
        (failure,) = report.failures
        assert failure["params"] == {"n": 1}
        assert failure["lhs"] is lhs and failure["rhs"] is rhs


def test_a_failing_numeric_block_renders_its_sides_to_twelve_digits():
    report = _block_report(
        Block({"n": 2, "t": 0.25}, (), [1 / 3], [2 / 3], 1e-10),
        Block({"p": 1}, (), [Fraction(1, 3)], [Fraction(1, 2)]),
    )
    assert report.to_dict()["failures"] == [
        {"params": {"n": 2, "t": 0.25}, "lhs": "0.333333333333", "rhs": "0.666666666667"},
        {"params": {"p": 1}, "lhs": "1/3", "rhs": "1/2"},
    ]


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


# p_m(i)^n, the right sides of the parity sums (ID5)


def test_gaussian_pow_trinomial():
    assert _p_m_at_i(2, 2) == (-1, 0)  # (1 + i - 1)^2 = i^2


def test_gaussian_pow_binomial():
    assert _p_m_at_i(1, 2) == (0, 2)  # (1 + i)^2 = 2i


def test_gaussian_pow_identity():
    assert _p_m_at_i(3, 0) == (1, 0)


def test_gaussian_arithmetic():
    assert _p_m_at_i(1, 1) == (1, 1)
    assert _p_m_at_i(1, 4) == (-4, 0)  # (1 + i)^4
    for m in range(1, 9):
        for n in range(7):
            z = sum(1j ** j for j in range(m + 1)) ** n
            assert _p_m_at_i(m, n) == (round(z.real), round(z.imag)), (m, n)


def test_parity_sums_closed_forms():
    # m = 0 (mod 4): even sum 1, odd sum 0; m = 3 (mod 4): both vanish
    for n in range(1, 9):
        assert _p_m_at_i(4, n) == (1, 0)
        assert _p_m_at_i(3, n) == (0, 0)


# mutation smoke tests: a single wrong sign or bound must surface failures


def _mutated_symmetry(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            ks = range(0, m * n + 6)
            lhs = [coeff(n, k, m) for k in ks]
            rhs = [coeff(n, m * n - k + 1, m) for k in ks]
            yield Block({"m": m, "n": n, "k": ks}, ("k",), lhs, rhs)


def _mutated_alternating_diagonal(grid):
    for m in grid["m"]:
        ns = grid["n"]
        lhs = [
            sum((-1) ** (n - k) * coeff(n - k, k, m) for k in range(n + 1)) for n in ns
        ]
        rhs = [chi(m, n) for n in ns]  # chi of the wrong degree
        yield Block({"m": m, "n": ns}, ("n",), lhs, rhs)


def _mutated_addition(grid):
    for m in grid["m"]:
        for n in grid["n"]:
            ks = range(0, (m * n if n >= 0 else m * -n) + 6)
            lhs = [coeff(n, k, m) for k in ks]
            # bound off by one
            rhs = [sum(coeff(n - 1, k - i, m) for i in range(m)) for k in ks]
            yield Block({"m": m, "n": n, "k": ks}, ("k",), lhs, rhs)


@pytest.mark.parametrize(
    "checker",
    [_mutated_symmetry, _mutated_alternating_diagonal, _mutated_addition],
    ids=["sign-shift", "wrong-chi-degree", "short-bound"],
)
def test_mutated_checkers_produce_counterexamples(checker):
    grid = {"m": range(1, 4), "n": range(0, 5)}
    report = run_identity(IdentitySpec("mutant", "-", "-", grid, checker))
    assert report.failures, "a broken checker must be caught by the report"
    # caught as counterexamples, not as a checker that raised
    assert report.checked > 0
    for failure in report.failures:
        assert "error" not in failure and {"lhs", "rhs"} <= set(failure), failure
