"""Command-line interface: coefficient queries, tables, generating
functions, and the identity verification suite.

Exit codes: 0 on success, 1 when a verification or self-check fails, 2 on
usage errors.  Every invocation is deterministic; large integers are always
emitted as decimal strings in JSON so no consumer can lose precision.
"""
from __future__ import annotations

import json
import sys

import click

from . import __version__
from .coefficients import coeff, row
from .errors import MismatchError
from .genfun import carlitz_gf, column_gf, pk_by_recurrence
from .identities import PROFILES, build_registry, run_identity
from .series import IntPolynomial, TruncatedSeries
from .trinomial import NUMERIC_CHECK_IDS, verification_suite

FORMATS = click.Choice(["plain", "json", "csv"])


def _validate_m(ctx, param, value):
    if value < 1:
        raise click.BadParameter("m must be a positive integer")
    return value


def _parse_rows(ctx, param, value):
    head, sep, tail = value.partition("..")
    if not sep:
        raise click.BadParameter("expected a range like -3..3")
    try:
        lo, hi = int(head), int(tail)
    except ValueError:
        raise click.BadParameter("expected a range like -3..3")
    if lo > hi:
        raise click.BadParameter("empty row range")
    return lo, hi


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="polycoeffs")
def cli():
    """Exact coefficients of (1 + t + ... + t^m)^n for any integer n."""


@cli.command("coeff")
@click.option("-n", "n", type=int, required=True, help="Row index (any sign).")
@click.option("-k", "k", type=int, required=True, help="Column index (any sign).")
@click.option("-m", "m", type=int, required=True, callback=_validate_m,
              help="Degree of 1 + t + ... + t^m, at least 1.")
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_coeff(n, k, m, fmt):
    """Print one coefficient exactly."""
    value = coeff(n, k, m)
    if fmt == "json":
        click.echo(json.dumps({"n": n, "k": k, "m": m, "value": str(value)}))
    elif fmt == "csv":
        click.echo("n,k,m,value")
        click.echo(f"{n},{k},{m},{value}")
    else:
        click.echo(str(value))


@cli.command("table")
@click.option("-m", "m", type=int, required=True, callback=_validate_m)
@click.option("--rows", "rows", required=True, callback=_parse_rows,
              help="Inclusive row range, e.g. -3..3.")
@click.option("--kmax", type=int, required=True, help="Last column to emit.")
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_table(m, rows, kmax, fmt):
    """Emit rows of the coefficient triangle, columns 0..kmax."""
    if kmax < 0:
        raise click.BadParameter("kmax must be non-negative", param_hint="--kmax")
    lo, hi = rows
    table = [(n, row(n, m, kmax)) for n in range(lo, hi + 1)]
    if fmt == "json":
        payload = {
            "m": m,
            "rows": [
                {"n": n, "coeffs": [str(c) for c in values]} for n, values in table
            ],
        }
        click.echo(json.dumps(payload))
    elif fmt == "csv":
        click.echo("n," + ",".join(f"k{k}" for k in range(kmax + 1)))
        for n, values in table:
            click.echo(f"{n}," + ",".join(str(c) for c in values))
    else:
        for n, values in table:
            click.echo(f"{n}: " + " ".join(str(c) for c in values))


def _poly_plain(p: IntPolynomial) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        magnitude = abs(c)
        if i == 0:
            term = str(magnitude)
        else:
            power = "x" if i == 1 else f"x^{i}"
            term = power if magnitude == 1 else f"{magnitude}{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _emit_series(coeffs, fmt, meta):
    if fmt == "json":
        click.echo(json.dumps({**meta, "coeffs": [str(c) for c in coeffs]}))
    elif fmt == "csv":
        click.echo("k,value")
        for k, c in enumerate(coeffs):
            click.echo(f"{k},{c}")
    else:
        click.echo(",".join(str(c) for c in coeffs))


@cli.command("genfun")
@click.argument("kind", type=click.Choice(["column+", "column-", "carlitz", "pk"]))
@click.option("-m", "m", type=int, required=True, callback=_validate_m)
@click.option("-k", "k", type=int, default=None, help="Column index (column+/-, pk).")
@click.option("-a", "a", type=int, default=None, help="Diagonal offset (carlitz).")
@click.option("-b", "b", type=int, default=None, help="Diagonal slope (carlitz).")
@click.option("--terms", type=int, default=10, show_default=True,
              help="Number of series coefficients to print.")
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_genfun(kind, m, k, a, b, terms, fmt):
    """Expand a generating function (column series, diagonal series, or the
    column polynomial) with exact coefficients."""
    if kind in ("column+", "column-", "pk"):
        if k is None or k < 0:
            raise click.UsageError(f"{kind} needs a column index -k >= 0")
    if kind == "carlitz" and (a is None or b is None):
        raise click.UsageError("carlitz needs both -a and -b")
    if kind != "pk" and terms < 1:
        raise click.BadParameter("terms must be at least 1", param_hint="--terms")
    try:
        if kind == "pk":
            poly = pk_by_recurrence(m, k)
            if fmt == "plain":
                click.echo(_poly_plain(poly))
            else:
                _emit_series(poly.coeffs, fmt, {"kind": "pk", "m": m, "k": k})
            return
        if kind == "carlitz":
            series: TruncatedSeries = carlitz_gf(a, b, m, terms - 1)
            meta = {"kind": "carlitz", "a": a, "b": b, "m": m}
        else:
            sign = "+" if kind.endswith("+") else "-"
            series = column_gf(k, m, sign, terms - 1).series
            meta = {"kind": kind, "k": k, "m": m}
    except MismatchError as exc:
        click.echo(f"self-check failed: {exc}", err=True)
        sys.exit(1)
    _emit_series(series.coeffs, fmt, meta)


def _emit_reports(reports, fmt):
    if fmt == "json":
        click.echo(json.dumps([r.to_dict() for r in reports], indent=2))
    elif fmt == "csv":
        click.echo("id,checked,failures")
        for r in reports:
            click.echo(f"{r.id},{r.checked},{len(r.failures)}")
    else:
        for r in reports:
            status = "ok" if r.passed else "FAIL"
            click.echo(f"{status} {r.id} checked={r.checked} failures={len(r.failures)}")
            for rendered in r.rendered_failures(3):
                detail = (
                    f"raised {rendered['error']}" if "error" in rendered
                    else f"lhs={rendered['lhs']} rhs={rendered['rhs']}"
                )
                click.echo(f"    at {rendered['params']}: {detail}")


@cli.command("verify")
@click.argument("selector")
@click.option("--profile", type=click.Choice(sorted(PROFILES)), default="desk",
              show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_verify(selector, profile, fmt):
    """Run one identity (by id) or the whole suite ("all").

    Exits 0 when every checked point holds, 1 when any counterexample is
    found.
    """
    registry = {spec.id: spec for spec in build_registry(profile)}
    if selector == "all":
        reports = [run_identity(spec) for spec in registry.values()]
        reports.extend(verification_suite())
    elif selector in registry:
        reports = [run_identity(registry[selector])]
    elif selector in NUMERIC_CHECK_IDS:
        reports = verification_suite(only=selector)
    else:
        known = ", ".join(list(registry) + list(NUMERIC_CHECK_IDS))
        raise click.UsageError(f"unknown identity '{selector}' (known: {known}, all)")
    _emit_reports(reports, fmt)
    if any(r.failures for r in reports):
        sys.exit(1)


def main():
    cli()


if __name__ == "__main__":
    main()
