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

from polycoeffs import cli as cli_module
from polycoeffs.cli import cli
from polycoeffs.coefficients import coeff, row


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
        pytest.param(("coeff", "-n", "-1", "-k", "100000", "-m", "2"),
                     "row prefix length is 100001", id="coeff-prefix"),
        pytest.param(("coeff", "-n", "-1", "-k", "1000000000", "-m", "2"),
                     "row prefix length is 1000000001", id="coeff-runaway-prefix"),
        pytest.param(("table", "-m", "2", "--rows", "-3..50001", "--kmax", "0"),
                     "|n|*m is 100002", id="table-span"),
        pytest.param(("table", "-m", "1", "--rows", "-1..-1", "--kmax", "100000"),
                     "row prefix length is 100001", id="table-prefix-negative-row"),
        pytest.param(("table", "-m", "1", "--rows", "100000..100000", "--kmax", "100000"),
                     "row prefix length is 100001", id="table-prefix-positive-row"),
        pytest.param(("table", "-m", "1", "--rows", "-10..0", "--kmax", "90909"),
                     "table cell count is 1000010", id="table-cells"),
        pytest.param(("coeff", "-n", "-1" + "0" * 400, "-k", "3", "-m", "1"),
                     "|n|*m is 1" + "0" * 400, id="coeff-span-past-floats"),
        # inside the span and prefix bounds, but about 11 s and 1.7 GB; the bit
        # bounds of n < 0 come from lgamma, so only their leading digits are pinned
        pytest.param(("coeff", "-n", "-100000", "-k", "99999", "-m", "1"),
                     "prefix length times value bits is 199989", id="coeff-work"),
        pytest.param(("coeff", "-n", "-25000", "-k", "25000", "-m", "1"),
                     "prefix length times value bits is 124984", id="coeff-work-just-past"),
        pytest.param(("coeff", "-n", "100000", "-k", "50000", "-m", "1"),
                     "prefix length times value bits is 5000150001", id="coeff-work-positive"),
        # both signs: 1000 rows costing at most row -1000's, 1001 at most row 1000's
        pytest.param(("table", "-m", "5", "--rows", "-1000..1000", "--kmax", "400"),
                     "prefix length times value bits is 152060", id="table-work"),
        # about 30 s, most of it printing 20,001 values of up to 40,000 bits
        pytest.param(("table", "-m", "1", "--rows", "-20000..-20000", "--kmax", "20000"),
                     "values printed times value bits squared is 319888",
                     id="table-printing"),
        pytest.param(("table", "-m", "1", "--rows", "9900..9900", "--kmax", "9900"),
                     "values printed times value bits squared is 970593059701",
                     id="table-printing-positive-row"),
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
        # just inside the work and printing bounds (0.8 s and 0.9 s)
        ("coeff", "-n", "-22000", "-k", "22000", "-m", "1"),
        ("table", "-m", "1", "--rows", "-100000..-100000", "--kmax", "2100"),
        ("table", "-m", "2", "--rows", "-300..300", "--kmax", "600"),
    ],
)
def test_guard_rails_admit_queries_at_the_bounds(runner, monkeypatch, args):
    monkeypatch.setattr(cli_module, "coeff", lambda n, k, m: 0)
    monkeypatch.setattr(cli_module, "row", lambda n, m, limit: [0] * (limit + 1))
    result = invoke(runner, *args, "--format", "csv")
    assert result.exit_code == 0, result.output


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
    ("deep", "json"): "7d5c54818359f3075aeafdead65b032b97d013a34b756c5219fb13b7960c7f9c",
}


def _cpus(monkeypatch, count):
    """Let the CLI see ``count`` CPUs that it may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# deep JSON is checked by test_verify_all_deep_json_passes_the_benchmark_check;
# one CPU runs every task in this process, four fork three workers
@pytest.mark.parametrize("profile, fmt", [key for key in VERIFY_DIGESTS if key[0] == "quick"])
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
    from polycoeffs.trinomial import NUMERIC_CHECK_IDS

    result = invoke(runner, "verify", "all", "--profile", "deep", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload) == 26
    assert [e["id"] for e in payload if e["failures"]] == []
    exact = sum(e["checked"] for e in payload if e["id"] not in NUMERIC_CHECK_IDS)
    numeric = sum(e["checked"] for e in payload if e["id"] in NUMERIC_CHECK_IDS)
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
    monkeypatch.setattr(cli_module, "NUMERIC_CHECKS", ())
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
        # the diagonal reaches row |a| + |b|*(terms-1): 234 + 33*599 here
        pytest.param(("carlitz", "-a", "-234", "-b", "-33", "-m", "1", "--terms", "600"),
                     "|n|*m is 20001", id="carlitz-span"),
        pytest.param(("carlitz", "-a", "20001", "-b", "0", "-m", "1", "--terms", "1"),
                     "|n|*m is 20001", id="carlitz-span-a"),
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "401"),
                     "(m+1)*terms is 1203", id="carlitz-terms"),
        pytest.param(("carlitz", "-a", "0", "-b", "0", "-m", "1200", "--terms", "1"),
                     "(m+1)*terms is 1201", id="carlitz-degree"),
        pytest.param(("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "10000000"),
                     "|n|*m is 19999998", id="carlitz-runaway-terms"),
        pytest.param(("column+", "-k", "0", "-m", "1", "--terms", "1201"),
                     "--terms is 1201", id="column-terms"),
        pytest.param(("column-", "-k", "600", "-m", "1", "--terms", "5"),
                     "(m+1)*(k+1) is 1202", id="column-k"),
        pytest.param(("column+", "-k", "0", "-m", "1200", "--terms", "1"),
                     "(m+1)*(k+1) is 1201", id="column-degree"),
        pytest.param(("pk", "-m", "2", "-k", "400"),
                     "(m+1)*(k+1) is 1203", id="pk-k"),
        pytest.param(("pk", "-m", "1200", "-k", "0"),
                     "(m+1)*(k+1) is 1201", id="pk-degree"),
    ],
)
def test_genfun_guard_rails_refuse_before_expanding(runner, monkeypatch, args, message):
    _forbid_expanding(monkeypatch)
    result = invoke(runner, "genfun", *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("carlitz", "-a", "-233", "-b", "-33", "-m", "1", "--terms", "600"),
        ("carlitz", "-a", "20000", "-b", "0", "-m", "1", "--terms", "1"),
        ("carlitz", "-a", "0", "-b", "1", "-m", "2", "--terms", "400"),
        ("carlitz", "-a", "0", "-b", "0", "-m", "1199", "--terms", "1"),
        ("column+", "-k", "0", "-m", "1", "--terms", "1200"),
        ("column-", "-k", "599", "-m", "1", "--terms", "1200"),
        ("column+", "-k", "0", "-m", "1199", "--terms", "1200"),
        # the two column series of perfbench/run.py's series-genfun
        ("column+", "-k", "20", "-m", "4", "--terms", "301"),
        ("column-", "-k", "10", "-m", "3", "--terms", "201"),
        ("pk", "-m", "2", "-k", "399"),
        ("pk", "-m", "1199", "-k", "0"),
    ],
)
def test_genfun_guard_rails_admit_expansions_at_the_bounds(runner, monkeypatch, args):
    from types import SimpleNamespace

    from polycoeffs.series import IntPolynomial, TruncatedSeries

    def zeros(order):
        return TruncatedSeries([0] * (order + 1))

    monkeypatch.setattr(cli_module, "carlitz_gf", lambda a, b, m, order: zeros(order))
    monkeypatch.setattr(cli_module, "column_gf",
                        lambda k, m, sign, order: SimpleNamespace(series=zeros(order)))
    monkeypatch.setattr(cli_module, "pk_by_recurrence", lambda m, k: IntPolynomial([1]))
    result = invoke(runner, "genfun", *args, "--format", "csv")
    assert result.exit_code == 0, result.output


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
