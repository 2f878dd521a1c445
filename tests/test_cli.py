"""End-to-end tests of the command-line interface."""
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from polycoeffs import cli as cli_module
from polycoeffs.cli import cli
from polycoeffs.coefficients import (
    chi,
    coeff,
    coeff_by_closed_form,
    coeff_cost,
    row,
    row_cost,
    row_length,
    value_bits,
)
from polycoeffs.genfun import carlitz_cost, column_cost, pk_cost
from polycoeffs.identities import PROFILES, build_registry, run_suite

try:
    import resource
except ImportError:  # not on Windows
    resource = None


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args))


def test_coeff_plain(runner):
    result = invoke(runner, "coeff", "-n", "3", "-k", "4", "-m", "3")
    assert result.exit_code == 0
    assert result.output.strip() == "12"


def test_coeff_negative_row(runner):
    result = invoke(runner, "coeff", "-n", "-2", "-k", "5", "-m", "3")
    assert result.exit_code == 0
    assert result.output.strip() == "-4"


def test_coeff_zero_clause(runner):
    result = invoke(runner, "coeff", "-n", "5", "-k", "-1", "-m", "2")
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_coeff_json_roundtrip(runner):
    result = invoke(runner, "coeff", "-n", "-7", "-k", "33", "-m", "4", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"n": -7, "k": 33, "m": 4, "value": str(coeff(-7, 33, 4))}
    assert int(payload["value"]) == coeff(-7, 33, 4)


def test_coeff_prints_values_past_the_int_string_limit(runner):
    # C(20000, 10000) has 6,019 digits, past Python's default cap of 4,300
    result = invoke(runner, "coeff", "-n", "20000", "-k", "10000", "-m", "1")
    assert result.exit_code == 0
    assert result.output.strip() == str(Decimal(math.comb(20000, 10000)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit cap")
def test_digit_cap_is_restored_after_a_command(runner):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert invoke(runner, "coeff", "-n", "3", "-k", "4", "-m", "3").exit_code == 0
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_table_json_prints_values_past_the_int_string_limit(runner):
    result = invoke(runner, "table", "-m", "1", "--rows", "-100000..-100000",
                    "--kmax", "2100", "--format", "json")
    assert result.exit_code == 0
    last = json.loads(result.output)["rows"][0]["coeffs"][-1]
    assert len(last) > 4300
    assert last == str(Decimal(math.comb(100000 + 2100 - 1, 2100)))


def _forbid_computing(monkeypatch):
    def computed(*args):
        raise AssertionError("the guard ran after computing")

    monkeypatch.setattr(cli_module, "coeff", computed)
    monkeypatch.setattr(cli_module, "row", computed)


@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(("coeff", "-n", "100001", "-k", "0", "-m", "1"),
                     "|n|*m is 100001", id="coeff-span"),
        pytest.param(("coeff", "-n", "-50001", "-k", "3", "-m", "2"),
                     "|n|*m is 100002", id="coeff-span-negative"),
        # the CLI no longer answers rows this far out; the library still does
        pytest.param(("coeff", "-n", "1000000", "-k", "1", "-m", "2"),
                     "|n|*m is 2000000", id="coeff-far-row"),
        pytest.param(("table", "-m", "2", "--rows", "-3..50001", "--kmax", "0"),
                     "|n|*m is 100002", id="table-span"),
        # two million cells of a row of +-1; its first 100,001 are admitted below
        pytest.param(("table", "-m", "1", "--rows", "-1..-1", "--kmax", "2000000"),
                     "table's work estimate is 1804000902", id="table-prefix-negative-row"),
        pytest.param(("table", "-m", "1", "--rows", "100000..100000", "--kmax", "100000"),
                     "table's work estimate is 1676806967902", id="table-prefix-positive-row"),
        pytest.param(("table", "-m", "1", "--rows", "-10..0", "--kmax", "200000"),
                     "table's work estimate is 1672008662", id="table-cells"),
        pytest.param(("coeff", "-n", "-1" + "0" * 400, "-k", "3", "-m", "1"),
                     "|n|*m is 1" + "0" * 400, id="coeff-span-past-floats"),
        # inside the span bound, but the finite sum takes 1.3 to 1.8 s; the
        # prices come from lgamma, so only their leading digits are pinned
        pytest.param(("coeff", "-n", "-50000", "-k", "99999", "-m", "2"),
                     "coeff's work estimate is 20728", id="coeff-work-sum-negative"),
        pytest.param(("coeff", "-n", "50000", "-k", "50000", "-m", "2"),
                     "coeff's work estimate is 23231", id="coeff-work-sum-positive"),
        # 0.82 s in-process, just past the bound with its printing priced
        pytest.param(("coeff", "-n", "-30000", "-k", "130000", "-m", "2"),
                     "coeff's work estimate is 10085", id="coeff-work-sum-just-past"),
        # 0.68 s in-process, past the bound once its 9,999 steps are priced 400
        # units each
        pytest.param(("coeff", "-n", "-30000", "-k", "128000", "-m", "2"),
                     "coeff's work estimate is 10027", id="just-inside"),
        # one math.comb of about 490,000 bits, divided by a 100,000-bit one
        pytest.param(("coeff", "-n", "-100000", "-k", "1000000", "-m", "1"),
                     "coeff's work estimate is 21096", id="coeff-work-binomial"),
        pytest.param(("coeff", "-n", "-1000", "-k", "1" + "0" * 400, "-m", "2"),
                     "coeff's work estimate is 30407", id="coeff-work-past-floats"),
        # 0.47 s in-process, just past the bound once math.comb's halves are
        # priced as Karatsuba products
        pytest.param(("coeff", "-n", "-100000", "-k", "200000", "-m", "1"),
                     "coeff's work estimate is 10293", id="coeff-work-binomial-just-past"),
        # both signs: 1000 rows costing at most row -1000's, 1001 at most row 1000's
        pytest.param(("table", "-m", "5", "--rows", "-1000..1000", "--kmax", "400"),
                     "table's work estimate is 3395881332", id="table-work"),
        # about 30 s, most of it printing 20,001 values of up to 40,000 bits
        pytest.param(("table", "-m", "1", "--rows", "-20000..-20000", "--kmax", "20000"),
                     "table's work estimate is 55628541288", id="table-printing"),
        pytest.param(("table", "-m", "1", "--rows", "9900..9900", "--kmax", "9900"),
                     "table's work estimate is 1724605685", id="table-printing-positive-row"),
    ],
)
def test_guard_rails_refuse_before_computing(runner, monkeypatch, args, message):
    _forbid_computing(monkeypatch)
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert message in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("coeff", "-n", "100000", "-k", "0", "-m", "1"),
        ("coeff", "-n", "-100", "-k", "99999", "-m", "1000"),
        # n >= 0 reads the shorter side: 11 terms, where 99,991 would cost
        # about 10^10 bit steps
        ("coeff", "-n", "100000", "-k", "99990", "-m", "1"),
        ("table", "-m", "1", "--rows", "-1..-1", "--kmax", "99999"),
        ("table", "-m", "1000", "--rows", "100..100", "--kmax", "99999"),
        ("table", "-m", "1", "--rows", "-9..0", "--kmax", "99999"),
        # just inside the price a T2-ix prefix put on coeff, then the table
        # work and printing bounds (0.8 s and 0.9 s)
        ("coeff", "-n", "-22000", "-k", "22000", "-m", "1"),
        ("table", "-m", "1", "--rows", "-100000..-100000", "--kmax", "2100"),
        ("table", "-m", "2", "--rows", "-300..300", "--kmax", "600"),
        # coeff builds no T2-ix prefix: its finite sum has one term here, and
        # m = 1 is one math.comb (0.55 s for the 199,989 bits of coeff-work)
        pytest.param(("coeff", "-n", "-1", "-k", "100000", "-m", "2"), id="coeff-prefix"),
        pytest.param(("coeff", "-n", "-1", "-k", "1000000000", "-m", "2"),
                     id="coeff-runaway-prefix"),
        pytest.param(("coeff", "-n", "-100000", "-k", "99999", "-m", "1"), id="coeff-work"),
        pytest.param(("coeff", "-n", "-25000", "-k", "25000", "-m", "1"),
                     id="coeff-work-just-past"),
        pytest.param(("coeff", "-n", "100000", "-k", "50000", "-m", "1"),
                     id="coeff-work-positive"),
        pytest.param(("coeff", "-n", "-2", "-k", "1" + "0" * 400, "-m", "2"),
                     id="coeff-k-past-floats"),
        # refused by the bounds that priced cells by proxies: 0.05 s and 0.8 s
        # in-process
        pytest.param(("table", "-m", "1", "--rows", "-1..-1", "--kmax", "100000"),
                     id="table-prefix-negative-row"),
        pytest.param(("table", "-m", "1", "--rows", "-10..0", "--kmax", "90909"),
                     id="table-cells"),
    ],
)
def test_guard_rails_admit_queries_at_the_bounds(runner, monkeypatch, args):
    monkeypatch.setattr(cli_module, "coeff", lambda n, k, m: 0)
    monkeypatch.setattr(cli_module, "row", lambda n, m, limit: [0] * (limit + 1))
    result = invoke(runner, *args, "--format", "csv")
    assert result.exit_code == 0, result.output


SPAN = cli_module.MAX_ROW_SPAN
HUGE = 10 ** 400  # past what a float holds


def _near(bound):
    return st.integers(bound - 3, bound + 3)


def _last_admitted(price, top):
    """The largest x in 0..top with price(x) <= MAX_WORK, price growing with
    x, or -1 when there is none."""
    lo, hi = -1, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if price(mid) <= cli_module.MAX_WORK:
            lo = mid
        else:
            hi = mid - 1
    return lo


@st.composite
def _coeff_draws(draw):
    m = draw(st.sampled_from([1, 2, 3, 5, 10, 1000, SPAN]))
    far = SPAN // m
    n = draw(st.one_of(st.integers(-far - 2, far + 2), _near(far), _near(-far),
                       st.sampled_from([HUGE, -HUGE])))
    k = draw(st.one_of(st.integers(-5, -1), st.integers(0, 3 * SPAN),
                       _near(abs(n) * m), st.just(HUGE)))
    return n, k, m


@st.composite
def _table_draws(draw):
    m = draw(st.sampled_from([1, 2, 5, 1000]))
    far = SPAN // m
    lo = draw(st.one_of(st.integers(-far - 2, far + 2), _near(far), _near(-far),
                        st.just(-HUGE)))
    hi = lo + draw(st.integers(0, 300))
    kmaxes = [st.integers(0, 3000), st.just(HUGE)]
    if max(abs(lo), abs(hi)) * m <= SPAN:
        bound = _last_admitted(lambda kmax: cli_module._table_price(m, lo, hi, kmax), 10 ** 7)
        kmaxes.append(_near(max(bound, 3)))
    return m, lo, hi, draw(st.one_of(kmaxes))


def _admits(runner, args, forbid=None, stub=None):
    """True when the CLI admits ``args``, False when it refuses them before
    computing anything; any other outcome fails.  ``forbid`` makes the
    kernels raise and ``stub`` makes them fast, for the admitted run."""
    with pytest.MonkeyPatch.context() as patch:
        (forbid or _forbid_computing)(patch)
        result = invoke(runner, *args)
    if result.exit_code == 2:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        return False
    assert str(result.exception).startswith("the guard ran after"), result.output
    with pytest.MonkeyPatch.context() as patch:
        (stub or _stub_computing)(patch)
        result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    return True


def _stub_computing(patch):
    # empty rows keep a table of a million cells fast to print
    patch.setattr(cli_module, "coeff", lambda n, k, m: 0)
    patch.setattr(cli_module, "row", lambda n, m, limit: [])


@settings(max_examples=300, deadline=None)
@given(_coeff_draws())
def test_coeff_guard_rails_admit_only_what_they_price(draw):
    n, k, m = draw
    if _admits(CliRunner(), ("coeff", "-n", str(n), "-k", str(k), "-m", str(m))):
        assert abs(n) * m <= SPAN
        printing = cli_module._print_cost(1, value_bits(n, m, max(k, 0)))
        assert coeff_cost(n, k, m) + printing <= cli_module.MAX_WORK


@settings(max_examples=200, deadline=None)
@given(_table_draws())
def test_table_guard_rails_admit_only_what_they_price(draw):
    # every row is priced here, not only the two ends the CLI prices
    m, lo, hi, kmax = draw
    args = ("table", "-m", str(m), "--rows", f"{lo}..{hi}", "--kmax", str(kmax))
    if _admits(CliRunner(), args):
        assert max(abs(lo), abs(hi)) * m <= SPAN
        printing = cli_module._print_cost
        price = printing(kmax + 1, 0)  # the csv header
        for n in range(lo, hi + 1):
            length = row_length(n, m, kmax)
            price += (row_cost(n, m, kmax) + printing(length, value_bits(n, m, kmax))
                      + printing(kmax + 1 - length, 0))
        assert price <= cli_module.MAX_WORK


def _closed_form_mod(n, k, m, prime=2 ** 61 - 1):
    """coeff_by_closed_form's sum modulo a prime past |n| + k, through
    tables of factorials."""
    fact = [1]
    for i in range(1, abs(n) + k + 1):
        fact.append(fact[-1] * i % prime)

    def binom(top, bottom):
        if bottom < 0:
            return 0
        if top < 0:
            return (-1) ** bottom * binom(bottom - top - 1, bottom)
        if bottom > top:
            return 0
        return fact[top] * pow(fact[bottom] * fact[top - bottom], -1, prime)

    total = 0
    for j in range(k // (m + 1) + 1):
        r = k - j * (m + 1)
        total += (-1) ** j * binom(n, j) * binom(n + r - 1, r)
    return total % prime


def _limit_memory():
    # in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _coeff_value(n, k, m, check):
    # the printed value is read past the int-from-str digit cap
    return (("coeff", "-n", str(n), "-k", str(k), "-m", str(m)),
            lambda out: check(int(Decimal(out))))


def _series_ends(expected):
    """A check that a genfun's JSON has ``len(expected)`` terms, each None
    there or the integer given."""
    def check(out):
        coeffs = json.loads(out)["coeffs"]
        return len(coeffs) == len(expected) and all(
            want is None or int(Decimal(got)) == want for got, want in zip(coeffs, expected))
    return check


def _column_from_pk(n, k, m):
    # [x^n] P_k(x) / (1-x)^(k+1) is <n,k>_m
    def check(out):
        p = [int(c) for c in json.loads(out)["coeffs"]]
        return sum(c * math.comb(n - i + k, k) for i, c in enumerate(p[:n + 1])) == coeff(n, k, m)
    return check


def _row_end(n, k, m):
    def check(out):
        cells = out.split()
        return cells[0] == f"{n}:" and len(cells) == k + 2 and int(cells[-1]) == coeff(n, k, m)
    return check


@pytest.mark.skipif(resource is None, reason="no resource module on this platform")
@pytest.mark.parametrize(
    "args,check",
    [
        pytest.param(*_coeff_value(-3, 100000, 2,
                                   lambda value: value == coeff_by_closed_form(-3, 100000, 2)),
                     id="short-sum"),
        pytest.param(*_coeff_value(20000, 50000, 5, lambda value: value % (2 ** 61 - 1)
                                   == _closed_form_mod(20000, 50000, 5)),
                     id="sum"),
        pytest.param(*_coeff_value(99999, 49999, 1,
                                   lambda value: value == math.comb(99999, 49999)),
                     id="binomial"),
        pytest.param(*_coeff_value(-1, 10 ** 9, 2, lambda value: value == chi(2, 10 ** 9)),
                     id="one-term"),
        # just inside coeff's work bound: 0.69 s in-process
        pytest.param(*_coeff_value(-30000, 127043, 2, lambda value: value % (2 ** 61 - 1)
                                   == _closed_form_mod(-30000, 127043, 2)),
                     id="just-inside"),
        # the costliest admitted shapes, per work unit, of each genfun kind and
        # of table found while calibrating their prices: 0.6 to 1.1 s in-process
        pytest.param(("genfun", "carlitz", "-a", "0", "-b", "1", "-m", "10", "--terms", "639",
                      "--format", "json"),
                     _series_ends([1, 1] + [None] * 636 + [coeff(638, 638, 10)]),
                     id="carlitz-just-inside"),
        pytest.param(("genfun", "column-", "-k", "100", "-m", "1", "--terms", "24051",
                      "--format", "json"),
                     _series_ends([0, 1] + [None] * 24048 + [coeff(-24050, 100, 1)]),
                     id="column-binomial-just-inside"),
        # the denominator is 1 at m = b = 1, so the division is a copy: 0.24 to
        # 0.39 s in-process
        pytest.param(("genfun", "carlitz", "-a", "5", "-b", "1", "-m", "1", "--terms", "1777",
                      "--format", "json"),
                     _series_ends([1, 6] + [None] * 1774 + [coeff(1781, 1776, 1)]),
                     id="carlitz-copy-just-inside"),
        pytest.param(("genfun", "pk", "-m", "10", "-k", "998", "--format", "json"),
                     _column_from_pk(1000, 998, 10), id="pk-just-inside"),
        pytest.param(("table", "-m", "1", "--rows", "-100..-100", "--kmax", "213628"),
                     _row_end(-100, 213628, 1), id="table-just-inside"),
    ],
)
def test_admitted_coeff_answers_in_time_and_memory(args, check):
    # a fresh process under a 512 MB address-space limit, one BLAS thread so
    # numpy's import reserves the same space on any host
    env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run(
        [sys.executable, "-m", "polycoeffs", *args],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert result.returncode == 0, result.stderr
    # the child's CPU time from its start, which a busy host does not inflate
    # as it does the wall clock
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2.0
    assert check(result.stdout)


def test_coeff_rejects_bad_degree(runner):
    result = invoke(runner, "coeff", "-n", "1", "-k", "1", "-m", "0")
    assert result.exit_code == 2


def test_coeff_rejects_non_integer(runner):
    result = invoke(runner, "coeff", "-n", "x", "-k", "1", "-m", "2")
    assert result.exit_code == 2


def test_table_reproduces_triangle_csv(runner):
    result = invoke(runner, "table", "-m", "3", "--rows", "-3..3", "--kmax", "9",
                    "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n," + ",".join(f"k{k}" for k in range(10))
    expected = {
        "-3": [1, -3, 3, -1, 3, -9, 9, -3, 6, -18],
        "-2": [1, -2, 1, 0, 2, -4, 2, 0, 3, -6],
        "-1": [1, -1, 0, 0, 1, -1, 0, 0, 1, -1],
        "0": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "1": [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        "2": [1, 2, 3, 4, 3, 2, 1, 0, 0, 0],
        "3": [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
    }
    for line in lines[1:]:
        cells = line.split(",")
        assert [int(c) for c in cells[1:]] == expected[cells[0]]


def test_table_json_row(runner):
    result = invoke(runner, "table", "-m", "3", "--rows", "-1..-1", "--kmax", "9",
                    "--format", "json")
    payload = json.loads(result.output)
    assert payload["m"] == 3
    assert payload["rows"] == [
        {"n": -1, "coeffs": ["1", "-1", "0", "0", "1", "-1", "0", "0", "1", "-1"]}
    ]


def test_table_single_row_zero(runner):
    result = invoke(runner, "table", "-m", "2", "--rows", "0..0", "--kmax", "4")
    assert result.exit_code == 0
    assert result.output.strip() == "0: 1 0 0 0 0"


def test_table_rejects_bad_range(runner):
    assert invoke(runner, "table", "-m", "2", "--rows", "3..1", "--kmax", "4").exit_code == 2
    assert invoke(runner, "table", "-m", "2", "--rows", "junk", "--kmax", "4").exit_code == 2
    assert invoke(runner, "table", "-m", "2", "--rows", "0..1", "--kmax", "-1").exit_code == 2


def test_genfun_carlitz_euler_series(runner):
    result = invoke(runner, "genfun", "carlitz", "-a", "0", "-b", "1", "-m", "2",
                    "--terms", "6")
    assert result.exit_code == 0
    assert result.output.strip() == "1,1,3,7,19,51"


def test_genfun_pk_plain_and_json(runner):
    plain = invoke(runner, "genfun", "pk", "-m", "2", "-k", "3")
    assert plain.exit_code == 0
    assert plain.output.strip() == "2x^2 - x^3"
    as_json = invoke(runner, "genfun", "pk", "-m", "2", "-k", "3", "--format", "json")
    payload = json.loads(as_json.output)
    assert payload["coeffs"] == ["0", "0", "2", "-1"]


def test_genfun_pk_constant(runner):
    assert invoke(runner, "genfun", "pk", "-m", "3", "-k", "0").output.strip() == "1"


def test_genfun_column_plus(runner):
    result = invoke(runner, "genfun", "column+", "-k", "0", "-m", "2", "--terms", "4")
    assert result.exit_code == 0
    assert result.output.strip() == "1,1,1,1"


def test_genfun_column_minus_matches_rows(runner):
    result = invoke(runner, "genfun", "column-", "-k", "2", "-m", "2", "--terms", "7",
                    "--format", "json")
    payload = json.loads(result.output)
    values = [int(c) for c in payload["coeffs"]]
    assert values == [0] + [coeff(-n, 2, 2) for n in range(1, 7)]


def test_genfun_requires_kind_parameters(runner):
    assert invoke(runner, "genfun", "carlitz", "-m", "2").exit_code == 2
    assert invoke(runner, "genfun", "column+", "-m", "2").exit_code == 2
    assert invoke(runner, "genfun", "pk", "-m", "2").exit_code == 2


def test_verify_single_identity(runner):
    result = invoke(runner, "verify", "ID3", "--profile", "quick")
    assert result.exit_code == 0
    assert result.output.startswith("ok ID3 ")


def test_verify_all_quick_json(runner):
    result = invoke(runner, "verify", "all", "--profile", "quick", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 26
    assert all(entry["failures"] == [] for entry in payload)
    assert {e["id"] for e in payload} >= {"T2-i", "ID10", "ID14", "INTEGRAL"}


# sha256 of `verify all` output as the list-comparing checkers wrote it:
# comparing packed sides must not move a point, its order or a failure
VERIFY_DIGESTS = {
    ("quick", "plain"): "bff89bd3989a0dff36d6ebebc5f6284d6b03ef51271eb920a502411659088f61",
    ("quick", "json"): "102705d5a75f6e5f342a78e4ad2351106de79c8bb657e73bebfdd67d9c65006a",
    ("quick", "csv"): "d5ee69e9dcdd6818cd035730049aef4b1e40672bbcacfbfca243a6ac46cc523a",
    ("desk", "plain"): "432121bfa8cf90103950dfc98b10591d907b56184cd8ae51d4db68b14cbc1712",
    ("desk", "json"): "428c32c4f0f215e08de2d6512b16a0a972036d98c15f40edd7c24268e3550c7b",
    ("desk", "csv"): "98be00cb0d10005dadd1c8262ae8c1e323896f375bf83cec69c4022de1439188",
    ("deep", "plain"): "28c4235f497054ee5accc407016248946002a0ff0c245c780de7fcab633ed7f8",
    ("deep", "json"): "7d5c54818359f3075aeafdead65b032b97d013a34b756c5219fb13b7960c7f9c",
    ("deep", "csv"): "8295d2b970e145fd27c02a8b33765fbcf6dea0dda256134b3c8408cc22b403e2",
}


# sha256 of `genfun` output as the full schoolbook series product wrote it:
# stopping each product at its factors' last nonzero terms must not move a
# coefficient; the column series are series-genfun's benchmark requests
GENFUN_DIGESTS = {
    ("column+ -k 20 -m 4 --terms 301", "plain"):
        "2884ce47e39cda04483a1bd0d08cdb4b505ab8fc8ccf37ba056be148531e878c",
    ("column+ -k 20 -m 4 --terms 301", "json"):
        "553964e1a3936c69442d0fd37d2201fc64f2bddfdd926433c28d9c6810aec9e2",
    ("column- -k 10 -m 3 --terms 201", "plain"):
        "297ca9a993c4d2a3b3231f764bf43ef3d1f44f3085ce72d670a41c46b0828038",
    ("column- -k 10 -m 3 --terms 201", "json"):
        "3af338d027e968951ca68b36e31d9ff26fe5ffcab42b6b0e12b82600168df795",
    ("carlitz -a 1 -b 2 -m 3 --terms 26", "plain"):
        "78c98e54865b9338b202214c51ec1787e657d313f6393c7d5b57bd77b3abbc13",
    ("carlitz -a 1 -b 2 -m 3 --terms 26", "json"):
        "4c8c467d7314d6a3436e6ae84a305f99d3230328b3effc737cf1295c36427299",
}


@pytest.mark.parametrize("args, fmt", list(GENFUN_DIGESTS))
def test_genfun_output_is_pinned(runner, args, fmt):
    result = invoke(runner, "genfun", *args.split(), "--format", fmt)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == GENFUN_DIGESTS[args, fmt]


def _cpus(monkeypatch, count):
    """Let the CLI see ``count`` CPUs that it may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# deep JSON is checked by test_verify_all_deep_json_passes_the_benchmark_check;
# one CPU runs every task in this process, four fork three workers
@pytest.mark.parametrize("profile, fmt", [k for k in VERIFY_DIGESTS if k != ("deep", "json")])
def test_verify_all_output_is_pinned(runner, monkeypatch, profile, fmt):
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        result = invoke(runner, "verify", "all", "--profile", profile, "--format", fmt)
        assert result.exit_code == 0
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest == VERIFY_DIGESTS[profile, fmt], cpus
    _no_child_left()


def test_verify_all_deep_json_passes_the_benchmark_check(runner):
    # the same check as perfbench/run.py's check_verify on its verify-deep run
    from polycoeffs.trinomial import NUMERIC_CHECKS

    numeric_ids = {spec.id for spec in NUMERIC_CHECKS}
    result = invoke(runner, "verify", "all", "--profile", "deep", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload) == 26
    assert [e["id"] for e in payload if e["failures"]] == []
    exact = sum(e["checked"] for e in payload if e["id"] not in numeric_ids)
    numeric = sum(e["checked"] for e in payload if e["id"] in numeric_ids)
    assert (exact, numeric) == (771_690, 418)
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS["deep", "json"]


def test_verify_unknown_selector(runner):
    result = invoke(runner, "verify", "NOPE")
    assert result.exit_code == 2
    # every id, exact then numeric, in report order
    assert result.stderr.splitlines()[-1] == (
        "Error: unknown identity 'NOPE' (known: T2-i, T2-ii, T2-iii, T2-iv, T2-v, "
        "T2-vi, T2-vii, T2-viii, T2-ix, ID1, ID2, ID3, ID4, ID5, ID6, ID7, ID8, ID9, "
        "ID10, ID11, ID12, ID13, ID14, ID15, INTEGRAL, T2-vi-numeric, all)"
    )


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_verify_knows_the_registry_and_nothing_else(runner, profile):
    result = invoke(runner, "verify", "NOPE", "--profile", profile)
    assert result.exit_code == 2
    known = result.stderr.splitlines()[-1].split("(known: ", 1)[1].rstrip(")")
    assert known.split(", ") == [spec.id for spec in build_registry(profile)] + ["all"]


@pytest.mark.parametrize("profile", ["quick", "desk"])
def test_run_suite_returns_what_verify_all_prints(runner, profile):
    result = invoke(runner, "verify", "all", "--profile", profile, "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [r.to_dict() for r in run_suite(profile)]


def test_verify_failure_exits_one(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.identities import Block, IdentitySpec

    broken = IdentitySpec(
        "T2-ii", "broken on purpose", "-", {"n": range(3)},
        lambda grid: iter([Block(grid, ("n",), [0, 1, 2], [1, 2, 3])]),
    )
    monkeypatch.setattr(cli_module, "build_registry", lambda profile: [broken])
    result = invoke(runner, "verify", "T2-ii")
    assert result.exit_code == 1
    # three counterexamples with both sides, not a checker that raised
    assert result.output.splitlines() == [
        "FAIL T2-ii checked=3 failures=3",
        "    at {'n': 0}: lhs=0 rhs=1",
        "    at {'n': 1}: lhs=1 rhs=2",
        "    at {'n': 2}: lhs=2 rhs=3",
    ]


def test_verify_raising_checker_fails_without_aborting(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.identities import Block, IdentitySpec

    def explode(grid):
        yield Block({"n": 0}, (), [0], [0])
        raise ValueError("forced")

    raising = IdentitySpec("T2-ii", "raises on purpose", "-", {}, explode)
    passing = IdentitySpec(
        "T2-v", "holds", "-", {}, lambda grid: iter([Block({}, (), [1], [1])])
    )
    monkeypatch.setattr(cli_module, "build_registry", lambda profile: [raising, passing])
    result = invoke(runner, "verify", "all")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "FAIL T2-ii checked=1 failures=1",
        "    at {'n': 0}: raised ValueError: forced",
        "ok T2-v checked=1 failures=0",
    ]


def test_verify_raising_numeric_check_fails_without_aborting(runner, monkeypatch):
    from polycoeffs import trinomial
    from polycoeffs.identities import Block

    exact_points = trinomial._rainville_points

    def raising_points(formula):
        if formula is not trinomial.rainville_32:
            yield from exact_points(formula)
            return
        yield Block({"p": 1, "n": 0}, (), [1], [1])
        raise ValueError("forced")

    monkeypatch.setattr(trinomial, "_rainville_points", raising_points)
    result = invoke(runner, "verify", "all", "--profile", "quick")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    reports = [line for line in lines if not line.startswith(" ")]
    assert len(reports) == 26
    failing = lines.index("FAIL ID12 checked=1 failures=1")
    assert lines[failing + 1] == "    at {'p': 1, 'n': 0}: raised ValueError: forced"
    assert [line for line in reports if not line.startswith("ok ")] == [lines[failing]]


def test_genfun_self_check_trip_exits_one(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.errors import MismatchError

    context = {"params": {"a": 0, "j": 3}, "computed": 10 ** 30, "expected": -7}

    def explode(a, b, m, order):
        raise MismatchError("forced", **context)

    monkeypatch.setattr(cli_module, "carlitz_gf", explode)
    args = ("genfun", "carlitz", "-a", "0", "-b", "1", "-m", "2")
    for fmt in ("plain", "csv"):
        result = invoke(runner, *args, "--format", fmt)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "self-check failed: forced\n"
    for written in (
        {"params": {"a": 0, "j": 3}, "computed": str(10 ** 30), "expected": "-7"},
        {"params": None, "computed": None, "expected": None},
    ):
        result = invoke(runner, *args, "--format", "json")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {"error": "self-check failed: forced",
                                             **written}
        context.clear()  # the second error carries no context


def _forbid_expanding(monkeypatch):
    def expanded(*args):
        raise AssertionError("the guard ran after expanding")

    for name in ("carlitz_gf", "column_gf", "pk_by_recurrence"):
        monkeypatch.setattr(cli_module, name, expanded)


@pytest.mark.parametrize(
    "args,message",
    [
        # the diagonal reaches row |a| + |b|*(terms-1): 5 * (1234 + 33*599) here
        pytest.param(("carlitz", "-a", "-1234", "-b", "-33", "-m", "5", "--terms", "600"),
                     "|n|*m is 105005", id="carlitz-span"),
        pytest.param(("carlitz", "-a", "100001", "-b", "0", "-m", "1", "--terms", "1"),
                     "|n|*m is 100001", id="carlitz-span-a"),
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "759"),
                     "genfun's work estimate is 11580", id="carlitz-terms"),
        pytest.param(("carlitz", "-a", "0", "-b", "0", "-m", "100001", "--terms", "1"),
                     "|n|*m is 100001", id="carlitz-degree"),
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "10000000"),
                     "|n|*m is 20000000", id="carlitz-runaway-terms"),
        # 0.62 s in-process, past the bound since coeff is priced 2500 a call
        # and 400 a step at m >= 2
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "10", "--terms", "645"),
                     "genfun's work estimate is 10303", id="carlitz-just-inside"),
        # admitted by the bounds on (m+1)*terms and |n|*m of 20,000: 0.9-1.6 s
        pytest.param(("carlitz", "-a", "-233", "-b", "-33", "-m", "1", "--terms", "600"),
                     "genfun's work estimate is 13165", id="carlitz-work"),
        pytest.param(("column+", "-k", "0", "-m", "1", "--terms", "100001"),
                     "|n|*m is 100001", id="column-terms"),
        pytest.param(("column-", "-k", "2000", "-m", "1", "--terms", "5"),
                     "genfun's work estimate is 12006", id="column-k"),
        # 0.61 s in-process, 62,167 checking coeff calls at 34,700 units each
        pytest.param(("column-", "-k", "100", "-m", "1", "--terms", "62167"),
                     "genfun's work estimate is 29866", id="column-just-inside"),
        pytest.param(("column+", "-k", "0", "-m", "100001", "--terms", "1"),
                     "|n|*m is 100001", id="column-degree"),
        # admitted by the bound on (m+1)*(k+1): 8 ms
        pytest.param(("column+", "-k", "0", "-m", "1199", "--terms", "1200"),
                     "|n|*m is 1438800", id="column-span"),
        pytest.param(("pk", "-m", "2", "-k", "1600"),
                     "genfun's work estimate is 10583", id="pk-k"),
        pytest.param(("pk", "-m", "100001", "-k", "0"),
                     "|n|*m is 100001", id="pk-degree"),
    ],
)
def test_genfun_guard_rails_refuse_before_expanding(runner, monkeypatch, args, message):
    _forbid_expanding(monkeypatch)
    result = invoke(runner, "genfun", *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


def _stub_expanding(patch):
    from types import SimpleNamespace

    from polycoeffs.series import IntPolynomial, TruncatedSeries

    def zeros(order):
        return TruncatedSeries([0] * (order + 1))

    patch.setattr(cli_module, "carlitz_gf", lambda a, b, m, order: zeros(order))
    patch.setattr(cli_module, "column_gf",
                  lambda k, m, sign, order: SimpleNamespace(series=zeros(order)))
    patch.setattr(cli_module, "pk_by_recurrence", lambda m, k: IntPolynomial([1]))


@pytest.mark.parametrize(
    "args",
    [
        # refused by the bound on (m+1)*terms though it takes 0.06 s in-process
        ("carlitz", "-a", "0", "-b", "1", "-m", "10", "--terms", "200"),
        ("carlitz", "-a", "20000", "-b", "0", "-m", "1", "--terms", "1"),
        ("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "400"),
        ("carlitz", "-a", "0", "-b", "0", "-m", "1199", "--terms", "1"),
        ("column+", "-k", "0", "-m", "1", "--terms", "1200"),
        ("column-", "-k", "599", "-m", "1", "--terms", "1200"),
        # a column series as long as the span bound allows at m = 1: 0.2 s
        ("column+", "-k", "0", "-m", "1", "--terms", "100000"),
        # the two column series of perfbench/run.py's series-genfun
        ("column+", "-k", "20", "-m", "4", "--terms", "301"),
        ("column-", "-k", "10", "-m", "3", "--terms", "201"),
        ("pk", "-m", "2", "-k", "399"),
        ("pk", "-m", "1199", "-k", "0"),
        # refused by coarser bounds or prices; their in-process times from the CLI
        pytest.param(("carlitz", "-a", "20001", "-b", "0", "-m", "1", "--terms", "1"),
                     id="carlitz-span-a"),  # 2 ms
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "700"),
                     id="carlitz-terms"),  # 0.33 s
        pytest.param(("carlitz", "-a", "0", "-b", "0", "-m", "1200", "--terms", "1"),
                     id="carlitz-degree"),  # 10 ms
        pytest.param(("column+", "-k", "0", "-m", "1", "--terms", "1201"),
                     id="column-terms"),  # 4 ms
        pytest.param(("column-", "-k", "600", "-m", "1", "--terms", "5"),
                     id="column-k"),  # 0.06 s
        pytest.param(("column+", "-k", "0", "-m", "1200", "--terms", "1"),
                     id="column-degree"),  # 4 ms
        pytest.param(("pk", "-m", "2", "-k", "400"), id="pk-k"),  # 0.04 s
        pytest.param(("pk", "-m", "60000", "-k", "0"), id="pk-degree"),  # 0.5 ms
    ],
)
def test_genfun_guard_rails_admit_expansions_at_the_bounds(runner, monkeypatch, args):
    _stub_expanding(monkeypatch)
    result = invoke(runner, "genfun", *args, "--format", "csv")
    assert result.exit_code == 0, result.output


def _genfun_price(kind, m, k, a, b, terms):
    """The span and the price of a genfun query, from the library's prices."""
    if kind == "carlitz":
        span = max(abs(a) + abs(b) * (terms - 1), terms) * m
        return span, lambda: carlitz_cost(a, b, m, terms - 1)
    if kind == "pk":
        return (k + 1) * m, lambda: pk_cost(m, k)
    return max(terms, k + 1) * m, lambda: column_cost(k, m, terms - 1)


GENFUN_OPTIONS = {"carlitz": ("a", "b", "terms"), "column+": ("k", "terms"),
                  "column-": ("k", "terms"), "pk": ("k",)}


@st.composite
def _genfun_draws(draw):
    # one option near the price bound, past the span or of 400 digits; the
    # others small
    kind = draw(st.sampled_from(sorted(GENFUN_OPTIONS)))
    m = draw(st.one_of(st.sampled_from([1, 2, 3, 10, 1000]), st.integers(1, SPAN)))
    params = {"k": draw(st.integers(0, 30)), "a": draw(st.integers(-30, 30)),
              "b": draw(st.integers(-3, 3)), "terms": draw(st.integers(1, 60))}
    free = draw(st.sampled_from(GENFUN_OPTIONS[kind]))
    low = 1 if free == "terms" else 0

    def price(x):
        span, cost = _genfun_price(kind, m, **{**params, free: x + low})
        return cost() if span <= SPAN else math.inf

    bound = _last_admitted(price, SPAN) + low
    value = draw(st.one_of(_near(max(bound, low + 3)), st.integers(low, 3000), st.just(HUGE)))
    sign = -1 if free in ("a", "b") and draw(st.booleans()) else 1
    params[free] = sign * value
    return kind, m, params


@settings(max_examples=200, deadline=None)
@given(_genfun_draws())
def test_genfun_guard_rails_admit_only_what_they_price(draw):
    kind, m, params = draw
    args = ["genfun", kind, "-m", str(m)]
    for name in GENFUN_OPTIONS[kind]:
        args += ["--terms" if name == "terms" else f"-{name}", str(params[name])]
    if _admits(CliRunner(), args, forbid=_forbid_expanding, stub=_stub_expanding):
        span, price = _genfun_price(kind, m, **params)
        assert span <= SPAN
        assert price() <= cli_module.MAX_WORK


def test_verify_numeric_entry_csv(runner):
    result = invoke(runner, "verify", "ID13", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "id,checked,failures"
    assert lines[1].startswith("ID13,") and lines[1].endswith(",0")


def test_cli_is_deterministic(runner):
    args = ("verify", "T2-ii", "--profile", "quick", "--format", "json")
    assert invoke(runner, *args).output == invoke(runner, *args).output
    args = ("table", "-m", "4", "--rows", "-2..2", "--kmax", "12", "--format", "csv")
    assert invoke(runner, *args).output == invoke(runner, *args).output


def test_table_values_match_library(runner):
    result = invoke(runner, "table", "-m", "2", "--rows", "-4..4", "--kmax", "8",
                    "--format", "json")
    payload = json.loads(result.output)
    for entry in payload["rows"]:
        assert [int(c) for c in entry["coeffs"]] == row(entry["n"], 2, 8)


# `verify` runs its tasks on every CPU the process may use: forked workers
# take task indices from a pipe and send their reports back pickled


def _in_parent():
    parent = os.getpid()
    return lambda: os.getpid() == parent


def _forbid_forking(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


def _assert_pinned_quick_plain(result):
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS["quick", "plain"]


def test_verify_failures_with_big_integers_and_fractions_cross_the_pipe(
    runner, monkeypatch
):
    from polycoeffs import identities

    # <3,1>_2 off by 2^80 wherever a checker reads it; ID4 then fails with a
    # Fraction, the row sums with integers past 2^64
    delta = 1 << 80
    exact_row, exact_coeff, exact_run = (
        identities.row, identities.coeff, cli_module.run_identity
    )

    def skewed_row(n, m, limit):
        values = exact_row(n, m, limit)
        if (n, m) == (3, 2) and len(values) > 1:
            values[1] += delta
        return values

    monkeypatch.setattr(identities, "row", skewed_row)
    monkeypatch.setattr(identities, "coeff",
                        lambda n, k, m: exact_coeff(n, k, m) + delta * ((n, k, m) == (3, 1, 2)))
    in_parent = _in_parent()

    def dawdling_run(spec):
        # this process waits, so the workers take most of the tasks
        if in_parent():
            time.sleep(0.02)
        return exact_run(spec)

    monkeypatch.setattr(cli_module, "run_identity", dawdling_run)
    outputs = []
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        result = invoke(runner, "verify", "all", "--profile", "quick", "--format", "json")
        assert result.exit_code == 1
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    failures = {e["id"]: e["failures"] for e in json.loads(outputs[1])}
    assert any("/" in f["lhs"] for f in failures["ID4"])
    assert any(abs(int(f["rhs"])) > delta for f in failures["T2-iv"])
    _no_child_left()


def test_run_tasks_returns_worker_results_in_task_order(monkeypatch):
    _cpus(monkeypatch, 4)
    in_parent = _in_parent()

    def task(index):
        def run():
            # this process dawdles, so the workers take some of the tasks
            if in_parent():
                time.sleep(0.2)
            return index, Fraction(1, 3) ** index, 10 ** 40 + index, in_parent()

        return run

    results = cli_module._run_tasks([task(i) for i in range(8)])
    assert [r[:3] for r in results] == [
        (i, Fraction(1, 3) ** i, 10 ** 40 + i) for i in range(8)
    ]
    assert not all(r[3] for r in results)
    _no_child_left()


def test_verify_reruns_the_tasks_of_a_worker_that_dies(runner, monkeypatch):
    exact_run, in_parent = cli_module.run_identity, _in_parent()

    def dying_run(spec):
        if not in_parent():
            os._exit(3)
        return exact_run(spec)

    monkeypatch.setattr(cli_module, "run_identity", dying_run)
    _cpus(monkeypatch, 4)
    _assert_pinned_quick_plain(invoke(runner, "verify", "all", "--profile", "quick"))
    _no_child_left()


def test_verify_reruns_the_tasks_of_a_worker_whose_pickle_will_not_load(
    runner, monkeypatch
):
    exact_run, in_parent = cli_module.run_identity, _in_parent()

    class Unloadable:
        def __reduce__(self):
            return (_refuse, ())

    def run(spec):
        report = exact_run(spec)
        if not in_parent():
            report.elapsed = Unloadable()
        return report

    monkeypatch.setattr(cli_module, "run_identity", run)
    _cpus(monkeypatch, 4)
    _assert_pinned_quick_plain(invoke(runner, "verify", "all", "--profile", "quick"))
    _no_child_left()


def _refuse():
    raise ValueError("this value does not load")


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    _cpus(monkeypatch, 4)
    in_parent = _in_parent()

    def task():
        if in_parent():
            raise KeyboardInterrupt
        time.sleep(60)  # a worker is killed, not waited for

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli_module._run_tasks([task] * 8)
    assert time.perf_counter() - start < 30
    _no_child_left()


@pytest.mark.parametrize("selector", ["T2-iv", "ID14"])
def test_verify_one_identity_forks_nothing(runner, monkeypatch, selector):
    _forbid_forking(monkeypatch)
    _cpus(monkeypatch, 4)
    result = invoke(runner, "verify", selector, "--profile", "quick")
    assert result.exit_code == 0
    assert result.output.startswith(f"ok {selector} ")


def test_verify_forks_nothing_while_another_thread_runs(runner, monkeypatch):
    _forbid_forking(monkeypatch)
    _cpus(monkeypatch, 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        result = invoke(runner, "verify", "all", "--profile", "quick")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    _assert_pinned_quick_plain(result)


def test_verify_leaves_no_process_running():
    # a worker left running would keep the CLI's process group alive
    env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1])}
    process = subprocess.Popen(
        [sys.executable, "-m", "polycoeffs", "verify", "all", "--profile", "quick"],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert process.wait(timeout=120) == 0
    # the session's process group has the CLI's pid as its id
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)
