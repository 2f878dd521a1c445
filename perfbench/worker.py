"""One workload pass in a fresh interpreter, so the package's caches start cold.

    python perfbench/worker.py --requests FILE --out FILE [--trace] [--spans FILE]

Reads a JSON list of requests, imports the package, answers every request in
order and writes a JSON result: the import time, the time from the first
request to the last answer, each request's latency, and a digest of each
answer (the checks happen in the parent, outside the timed region).  With
``--trace`` it also records spans (see ``tracer.py``) and adds their summary;
``--spans`` writes the raw spans as well.  A ``["cli", ...]`` request runs
the click command in this process with its output captured.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

from tracer import Tracer


def render(value) -> str:
    """Canonical text of an answer: an int or Fraction, or a sequence of them."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    return ",".join(str(c) for c in value)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _run_cli(args):
    import polycoeffs.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            polycoeffs.cli.cli.main(args=list(args), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return {"exit_code": code, "stdout": out.getvalue()}


def _operations():
    # Attributes are looked up at call time so that traced rebinding applies.
    from polycoeffs import coefficients, genfun, series, trinomial

    return {
        "coeff": lambda n, k, m: coefficients.coeff(n, k, m),
        "row": lambda n, m, limit: coefficients.row(n, m, limit),
        "carlitz_gf": lambda a, b, m, order: genfun.carlitz_gf(a, b, m, order).coeffs,
        "column_gf": lambda k, m, sign, order: genfun.column_gf(k, m, sign, order).series.coeffs,
        "gegenbauer": lambda alpha, d, x: trinomial.gegenbauer(alpha, d, Fraction(x)),
        "solve_carlitz_y": lambda m, b, order: series.solve_carlitz_y(m, b, order).coeffs,
        "cli": lambda *args: _run_cli(args),
    }


def _answer_requests(requests, operations):
    answers, latencies = [], []
    clock = time.perf_counter
    for op, *args in requests:
        start = clock()
        try:
            answer = operations[op](*args)
        except Exception as exc:  # a failed request is counted, not fatal
            answer = exc
        latencies.append(clock() - start)
        answers.append(answer)
    return answers, latencies


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    opts = parser.parse_args()
    with open(opts.requests) as fh:
        requests = json.load(fh)

    import_start = time.perf_counter()
    import polycoeffs.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_s = time.perf_counter() - import_start

    operations = _operations()
    tracer = Tracer() if opts.trace else None
    run = _answer_requests
    if tracer is not None:
        tracer.install()
        # the root span: its layer is "cli" for an in-process CLI call and
        # "harness" (the benchmark's own loop) otherwise
        root = "cli.main" if requests[0][0] == "cli" else "harness.requests"
        run = tracer.wrap(_answer_requests, root)
    start = time.perf_counter()
    try:
        answers, latencies = run(requests, operations)
    finally:
        requests_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()

    result = {
        "import_s": import_s,
        "requests_s": requests_s,
        "latencies_s": latencies,
        "answers": [
            {"error": repr(a)} if isinstance(a, Exception)
            else a if isinstance(a, dict)
            else {"digest": digest(render(a))}
            for a in answers
        ],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if opts.spans:
            with open(opts.spans, "w") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(opts.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
