"""Command-line interface: coefficient queries, tables, generating
functions, and the identity verification suite.

Exit codes: 0 on success, 1 when a verification or self-check fails, 2 on
usage errors and on ``coeff``, ``table`` or ``genfun`` queries past the
guard rails below.  Every invocation is deterministic; integers are printed
in full whatever their size, and emitted as decimal strings in JSON so no
consumer can lose precision.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import pickle
import sys
import threading

import click

from . import __version__
from .coefficients import coeff, coeff_cost, row, row_cost, row_length, value_bits
from .errors import MismatchError
from .genfun import carlitz_cost, carlitz_gf, column_cost, column_gf, pk_by_recurrence, pk_cost
from .identities import PROFILES, build_registry, run_identity
from .series import IntPolynomial

FORMATS = click.Choice(["plain", "json", "csv"])

# Guard rails, checked before anything is computed.  First the span, |n|*m
# of the farthest row a query reads, so no float sees a huge input; for
# genfun the terms it expands, and P_k's k + 1 polynomials, count as rows
# too.  Then its price, in work units of about a nanosecond: what each kernel
# puts on itself next to its code, plus printing for coeff and table (the
# series products of genfun cost more than printing their terms).
MAX_ROW_SPAN = 10 ** 5  # |n|*m, which bounds the size of a row's values
MAX_WORK = 10 ** 9  # about a second


def _check_bounds(command: str, span: int, price) -> None:
    """Refuse the query, ``error: <message>`` on stderr and exit code 2, when
    ``span`` is past ``MAX_ROW_SPAN``, then when ``price()``, rounded up, is
    past ``MAX_WORK``; ``price`` is called only once the span is within its
    bound."""
    if span > MAX_ROW_SPAN:
        message = f"|n|*m is {span}, over the bound of {MAX_ROW_SPAN}"
    elif (work := math.ceil(price())) > MAX_WORK:
        message = f"{command}'s work estimate is {work}, over the bound of {MAX_WORK}"
    else:
        return
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _print_cost(values: int, bits: float) -> int:
    """The work units of printing ``values`` integers of at most ``bits``
    bits: 300 a value for its string and its place in the output, plus
    bits^2/600, as CPython converts an int to decimal in quadratic time."""
    return values * (300 + math.ceil(bits * bits / 600))


def _table_price(m: int, lo: int, hi: int, kmax: int) -> int:
    """``table``'s price: its rows, each of one sign at the price of the one
    farthest from 0, built and printed, zero padding and the csv header
    included.  An int, so a ``kmax`` of any size prices exactly."""
    negative = max(min(hi, -1) - lo + 1, 0)
    price = _print_cost(kmax + 1, 0)
    for n, count in ((lo, negative), (hi, hi - lo + 1 - negative)):
        length = row_length(n, m, kmax)
        printed = _print_cost(length, value_bits(n, m, kmax))
        padding = _print_cost(kmax + 1 - length, 0)
        price += count * (row_cost(n, m, kmax) + printed + padding)
    return price


@contextlib.contextmanager
def _all_digits():
    # Python caps int-to-decimal conversion at 4300 digits where it has
    # sys.set_int_max_str_digits (3.11, and 3.10 from 3.10.7); lift the cap
    # while a command runs, so any value it admits is printed exactly.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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
@click.pass_context
def cli(ctx):
    """Exact coefficients of (1 + t + ... + t^m)^n for any integer n."""
    ctx.with_resource(_all_digits())


@cli.command("coeff")
@click.option("-n", "n", type=int, required=True, help="Row index (any sign).")
@click.option("-k", "k", type=int, required=True, help="Column index (any sign).")
@click.option("-m", "m", type=int, required=True, callback=_validate_m,
              help="Degree of 1 + t + ... + t^m, at least 1.")
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_coeff(n, k, m, fmt):
    """Print one coefficient exactly."""
    _check_bounds("coeff", abs(n) * m, lambda: coeff_cost(n, k, m)
                  + _print_cost(1, value_bits(n, m, max(k, 0))))
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
    _check_bounds("table", max(abs(lo), abs(hi)) * m, lambda: _table_price(m, lo, hi, kmax))
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
    if kind == "pk":
        _check_bounds("genfun", (k + 1) * m, lambda: pk_cost(m, k))
        poly = pk_by_recurrence(m, k)
        if fmt == "plain":
            click.echo(_poly_plain(poly))
        else:
            _emit_series(poly.coeffs, fmt, {"kind": "pk", "m": m, "k": k})
        return
    try:
        if kind == "carlitz":
            # the diagonal reaches rows a + b*j for j < terms, its solve rows b*j
            far = abs(a) + abs(b) * (terms - 1)
            _check_bounds("genfun", max(far, terms) * m, lambda: carlitz_cost(a, b, m, terms - 1))
            series = carlitz_gf(a, b, m, terms - 1)
            meta = {"kind": "carlitz", "a": a, "b": b, "m": m}
        else:
            # the column series reads rows 0..terms-1, of either sign
            _check_bounds("genfun", max(terms, k + 1) * m, lambda: column_cost(k, m, terms - 1))
            series = column_gf(k, m, kind[-1], terms - 1).series
            meta = {"kind": kind, "k": k, "m": m}
    except MismatchError as exc:
        click.echo(_mismatch_text(exc, fmt), err=True)
        sys.exit(1)
    _emit_series(series.coeffs, fmt, meta)


def _mismatch_text(exc: MismatchError, fmt: str) -> str:
    # JSON carries the error's context, its values as strings like every
    # value the CLI prints
    message = f"self-check failed: {exc}"
    if fmt != "json":
        return message
    return json.dumps({
        "error": message,
        "params": exc.params,
        "computed": None if exc.computed is None else str(exc.computed),
        "expected": None if exc.expected is None else str(exc.expected),
    })


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


def _process_count() -> int:
    # one per CPU this process may run on, where the platform can tell; a
    # forked child holds only the forking thread, and a lock another thread
    # held stays locked in it, so a process running other threads forks none
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None or threading.active_count() > 1:
        return 1
    return len(getaffinity(0))


def _take(tasks: list, queue: int) -> dict:
    """Run each task whose index this process reads from ``queue``, one byte
    at a time, until the queue is empty: ``{index: result}``."""
    results = {}
    while index := os.read(queue, 1):
        results[index[0]] = tasks[index[0]]()
    return results


def _work(tasks: list, queue: int, sink: int):
    """A forked worker: take tasks from ``queue``, pickle its results into
    ``sink`` and exit, with status 0 only when they were all written."""
    code = 1
    try:
        results = _take(tasks, queue)
        with open(sink, "wb") as stream:
            pickle.dump(results, stream, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_tasks(tasks: list) -> list:
    """``[task() for task in tasks]``, run by one process per CPU this
    process may use, at most one per task, this process included (only this
    one while it runs other threads).

    The task indices wait in a pipe, one byte each (so at most 256 tasks),
    and every process takes the next one until the pipe is empty.  A forked
    worker sends its results back pickled; the tasks of a worker that does
    not (it exits non-zero or its pickle will not load) are run here, so the
    results are those of a serial run.  An exception or interrupt here kills
    and reaps every worker before it propagates.
    """
    indices = bytes(range(len(tasks)))
    queue, feed = os.pipe()
    os.write(feed, indices)
    os.close(feed)
    children: dict = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(min(_process_count(), len(tasks)) - 1):
            source, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers
                os.close(source)
                os.close(sink)
                break
            if pid == 0:
                _work(tasks, queue, sink)
            os.close(sink)
            children[pid] = open(source, "rb")
        results = _take(tasks, queue)
        for pid, stream in list(children.items()):
            data = stream.read()
            stream.close()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                # whatever stops the pickle loading, its tasks run again here
                with contextlib.suppress(Exception):
                    results.update(pickle.loads(data))
    finally:
        os.close(queue)
        if children:
            from signal import SIGKILL  # imported on this path only

            for pid in children:
                os.kill(pid, SIGKILL)
            for pid, stream in children.items():
                os.waitpid(pid, 0)
                stream.close()
    return [
        results[index] if index in results else task()
        for index, task in enumerate(tasks)
    ]


@cli.command("verify")
@click.argument("selector")
@click.option("--profile", type=click.Choice(sorted(PROFILES)), default="desk",
              show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="plain", show_default=True)
def cmd_verify(selector, profile, fmt):
    """Run one identity (by id) or the whole suite ("all").

    Exits 0 when every checked point holds, 1 when any counterexample is
    found.  The suite is spread over the CPUs the process may use; its
    output is that of a serial run.
    """
    # one task per check; run_identity is read as the command runs, so a rebinding applies
    registry = {spec.id: spec for spec in build_registry(profile)}
    if selector == "all":
        specs = registry.values()
    elif selector in registry:
        specs = [registry[selector]]
    else:
        known = ", ".join(registry)
        raise click.UsageError(f"unknown identity '{selector}' (known: {known}, all)")
    reports = _run_tasks([functools.partial(run_identity, spec) for spec in specs])
    _emit_reports(reports, fmt)
    if any(r.failures for r in reports):
        sys.exit(1)


def main():
    cli()


if __name__ == "__main__":
    main()
