"""End-to-end tests of the command-line interface."""
import json

import pytest
from click.testing import CliRunner

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


@pytest.mark.parametrize(
    "n,k,expected",
    [("1000000", "1", "1000000"), ("-1000000", "2", "499999500000")],
)
def test_coeff_far_rows(runner, n, k, expected):
    # one coefficient of a far row costs O(k m), whatever |n| is
    result = invoke(runner, "coeff", "-n", n, "-k", k, "-m", "2")
    assert result.exit_code == 0
    assert result.output.strip() == expected


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


def test_verify_unknown_selector(runner):
    result = invoke(runner, "verify", "NOPE")
    assert result.exit_code == 2


def test_verify_failure_exits_one(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.identities import IdentitySpec

    broken = IdentitySpec(
        "T2-ii", "broken on purpose", "-", {"n": range(3)},
        lambda grid: (({"n": n}, n, n + 1) for n in grid["n"]),
    )
    monkeypatch.setattr(cli_module, "build_registry", lambda profile: [broken])
    result = invoke(runner, "verify", "T2-ii")
    assert result.exit_code == 1
    assert "FAIL T2-ii" in result.output


def test_verify_raising_checker_fails_without_aborting(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.identities import IdentitySpec

    def explode(grid):
        yield ({"n": 0}, 0, 0)
        raise ValueError("forced")

    raising = IdentitySpec("T2-ii", "raises on purpose", "-", {}, explode)
    passing = IdentitySpec("T2-v", "holds", "-", {}, lambda grid: iter([({}, 1, 1)]))
    monkeypatch.setattr(cli_module, "build_registry", lambda profile: [raising, passing])
    monkeypatch.setattr(cli_module, "verification_suite", lambda: [])
    result = invoke(runner, "verify", "all")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "FAIL T2-ii checked=1 failures=1",
        "    at {'n': 0}: raised ValueError: forced",
        "ok T2-v checked=1 failures=0",
    ]


def test_genfun_self_check_trip_exits_one(runner, monkeypatch):
    from polycoeffs import cli as cli_module
    from polycoeffs.errors import MismatchError

    def explode(a, b, m, order):
        raise MismatchError("forced")

    monkeypatch.setattr(cli_module, "carlitz_gf", explode)
    result = invoke(runner, "genfun", "carlitz", "-a", "0", "-b", "1", "-m", "2")
    assert result.exit_code == 1


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
