"""Benchmark for polycoeffs: three workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Every pass runs in a fresh interpreter (one client, closed loop, one process
at a time), so the package's module-level caches start cold as they do for
each CLI call or new library process.  Passes repeat until ``--seconds`` have
been measured; times are medians over passes.  Every answer is checked
against an independent closed form (``oracle.py``) outside the timed region.
The last line of standard output is one JSON object; the lines before it
give the same figures for people, with the input digest and the failure
ratio.  ``--trace 1`` alternates untraced and traced passes of the same
inputs and reports the per-layer figures instead (see ``README.md``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
from tracer import LAYERS
from worker import digest, render

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polycoeffs"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

CHILD_TIMEOUT_S = 150

VERIFY_ARGS = ["verify", "all", "--profile", "deep", "--format", "json"]
NUMERIC_IDS = {"ID11", "ID12", "ID13", "ID14", "ID15", "INTEGRAL", "T2-vi-numeric"}
VERIFY_REPORTS = 26
EXACT_POINTS = 771_690
NUMERIC_POINTS = 418

SERIES_REQUESTS = [
    ["carlitz_gf", 0, 1, 2, 40],
    ["carlitz_gf", 0, -1, 2, 30],
    ["carlitz_gf", 1, 2, 3, 25],
    ["carlitz_gf", 0, 1, 3, 30],
    ["column_gf", 10, 3, "-", 200],
    ["column_gf", 20, 4, "+", 300],
    ["gegenbauer", 5, 300, "-1/2"],
    ["gegenbauer", -3, 200, "1/2"],
    ["solve_carlitz_y", 2, 1, 50],
]

STREAM_LENGTH = 300
STREAM_ROWS = 60
STREAM_N_MAX = 500
STREAM_DEGREES = (2, 3, 4)

END_TO_END = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_TIMES = [f"{layer}.self_s" for layer in LAYERS] + [
    "harness.self_s", "trace.wall_s", "trace.overhead_s",
]
PER_LAYER_COUNTS = [
    "identities.points",
    "trinomial.points",
    "coefficients.coeff.calls",
    "coefficients.row.calls",
    "series.mul.calls",
    "series.inverse.calls",
    "series.pow.calls",
    "series.compose.calls",
    "series.intpoly_mul.calls",
    "series.intpoly_pow.calls",
    "series.solve_carlitz_y.passes",
    "genfun.carlitz_gf.calls",
    "genfun.column_gf.calls",
    "trinomial.gegenbauer.calls",
]
IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*\d+ \|\s*polycoeffs\.(\w+)\s*$")


# --------------------------------------------------------------------------
# inputs


def coeff_stream(seed: int) -> list:
    """The stream for ``seed``: 300 requests, one in five a ``row`` block,
    the rest single coefficients.

    |n| is stratified over 1..500 and each (m, sign) pair gets an even share
    of it; k (or the row limit) is uniform over 0..m|n| and the order is
    shuffled.  The last request of each (m, sign) pair is the whole row at
    |n| = 500, so every stream fills the cache to the same extent and the
    seed moves where the misses fall, not how much they cost.
    """
    rng = random.Random(f"coeff-stream/{seed}")
    pairs = 2 * len(STREAM_DEGREES)
    last = STREAM_LENGTH - pairs
    rows = set(rng.sample(range(last), STREAM_ROWS - pairs)) | set(range(last, STREAM_LENGTH))
    requests = []
    for i in range(STREAM_LENGTH):
        size = 1 + int((i + rng.random()) * STREAM_N_MAX / STREAM_LENGTH)
        m = STREAM_DEGREES[i % len(STREAM_DEGREES)]
        n = size if (i // len(STREAM_DEGREES)) % 2 == 0 else -size
        k = rng.randint(0, m * size)
        if i >= last:
            n, k = STREAM_N_MAX * (1 if n > 0 else -1), m * STREAM_N_MAX
        requests.append(["row", n, m, k] if i in rows else ["coeff", n, k, m])
    rng.shuffle(requests)
    return requests


def inputs(workload: str, seed: int) -> list:
    """The requests of every pass of a run; only coeff-stream uses the seed."""
    if workload == "verify-deep":
        return [["cli", *VERIFY_ARGS]]
    if workload == "series-genfun":
        return SERIES_REQUESTS
    return coeff_stream(seed)


def expected(request):
    """The reference answer to one library request, from the closed form."""
    op, *args = request
    if op == "coeff":
        n, k, m = args
        return oracle.coeff(n, k, m)
    if op == "row":
        n, m, limit = args
        return oracle.row(n, m, limit)
    if op == "carlitz_gf":
        a, b, m, order = args
        return [oracle.coeff(a + b * j, j, m) for j in range(order + 1)]
    if op == "column_gf":
        k, m, sign, order = args
        if sign == "+":
            return [oracle.coeff(n, k, m) for n in range(order + 1)]
        return [0] + [oracle.coeff(-n, k, m) for n in range(1, order + 1)]
    if op == "gegenbauer":
        # 1 - 2xt + t^2 is p_2(t) at x = -1/2 and p_2(-t) at x = 1/2
        alpha, degree, x = args
        if Fraction(x) not in (Fraction(1, 2), Fraction(-1, 2)):
            raise ValueError(f"no reference for gegenbauer at {x}")
        value = oracle.coeff(-alpha, degree, 2)
        return -value if Fraction(x) > 0 and degree & 1 else value
    if op == "solve_carlitz_y":
        # Lagrange inversion: [x^k] y = <bk, k-1>_m / k
        m, b, order = args
        return [0] + [Fraction(oracle.coeff(b * k, k - 1, m), k) for k in range(1, order + 1)]
    raise ValueError(f"unknown request {op}")


def check_verify(answer: dict) -> tuple[int, int]:
    """(0 or 1 failed, identity points) for one ``verify all --profile deep``."""
    try:
        exit_code = answer["exit_code"]
        reports = json.loads(answer["stdout"])
    except (KeyError, json.JSONDecodeError):
        return 1, 0
    exact = sum(r["checked"] for r in reports if r["id"] not in NUMERIC_IDS)
    numeric = sum(r["checked"] for r in reports if r["id"] in NUMERIC_IDS)
    ok = (
        exit_code == 0
        and len(reports) == VERIFY_REPORTS
        and not any(r["failures"] for r in reports)
        and exact == EXACT_POINTS
        and numeric == NUMERIC_POINTS
    )
    return (0 if ok else 1), exact + numeric


# --------------------------------------------------------------------------
# processes


def _on_alarm(signum, frame):
    raise TimeoutError("benchmark child process timed out")


def spawn(argv: list, name: str) -> tuple[int, float, float]:
    """Run one child to completion with its output in files under WORK.

    Returns (exit code, seconds from spawn to exit, peak resident memory in
    MB from ``wait4``).  The kernel starts a spawned child's peak at this
    process's own peak, so the figure is the child's only if it is above
    that floor; a child at or below it raises.
    """
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files = [(WORK / f"{name}.out", 1), (WORK / f"{name}.err", 2)]
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for path, fd in files
    ]
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ENV, file_actions=actions)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    if usage.ru_maxrss <= floor:
        raise RuntimeError(f"child peak {usage.ru_maxrss} KB is not above this process's "
                           f"own peak {floor} KB, so it is not the child's own")
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def run_worker(name: str, python_args=(), worker_args=()) -> dict:
    """One worker pass over ``WORK/requests.json``."""
    out_path = WORK / f"{name}.json"
    code, _, rss = spawn(
        [*python_args, str(WORKER), "--requests", str(WORK / "requests.json"),
         "--out", str(out_path), *worker_args],
        name,
    )
    if code != 0:
        err = (WORK / f"{name}.err").read_text()[-2000:]
        raise RuntimeError(f"benchmark worker exited with {code}:\n{err}")
    result = json.loads(out_path.read_text())
    result["peak_rss_mb"] = rss
    return result


def cli_pass() -> dict:
    """One ``verify all --profile deep`` CLI call, spawn to exit, shaped like
    a worker result."""
    code, wall, rss = spawn(["-m", "polycoeffs", *VERIFY_ARGS], "verify")
    if code not in (0, 1):
        err = (WORK / "verify.err").read_text()[-2000:]
        raise RuntimeError(f"polycoeffs exited with {code}:\n{err}")
    answer = {"exit_code": code, "stdout": (WORK / "verify.out").read_text()}
    return {"requests_s": wall, "latencies_s": [wall], "answers": [answer], "peak_rss_mb": rss}


def tally(workload: str, requests: list, passes: list) -> tuple[int, int, list]:
    """Check every pass, after the timed loop: (attempted, failed, and for
    each pass the identity points (verify-deep) or requests per second)."""
    failed = 0
    rates = []
    if workload == "verify-deep":
        for result in passes:
            bad, points = check_verify(result["answers"][0])
            failed += bad
            rates.append(points / result["requests_s"])
    else:
        want = [digest(render(expected(r))) for r in requests]
        for result in passes:
            answers = result["answers"]
            failed += sum(got.get("digest") != w for got, w in zip(answers, want))
            failed += abs(len(answers) - len(requests))
            rates.append(len(requests) / result["requests_s"])
    return len(requests) * len(passes), failed, rates


# --------------------------------------------------------------------------
# measurement


def setup_sample() -> float:
    """One fresh interpreter importing ``polycoeffs.cli``, spawn to exit."""
    code, wall, _ = spawn(["-c", "import polycoeffs.cli"], "setup")
    if code != 0:
        raise RuntimeError("importing polycoeffs.cli failed: "
                           + (WORK / "setup.err").read_text()[-2000:])
    return wall


def spread(values: list) -> float:
    """Quartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def latency_line(passes: list) -> str:
    """Per-request latency percentiles, printed but not bounded: with the
    cache, the tail depends on which request of a stream fills it."""
    latencies = [x for result in passes for x in result["latencies_s"]]
    if len(latencies) < 2:
        return f"latency {1000 * latencies[0]:.6g} ms (1 request)"
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return (f"latency_p50_ms {1000 * cuts[49]:.6g} ms  latency_p95_ms {1000 * cuts[94]:.6g} ms  "
            f"({len(latencies)} requests)")


def end_to_end(workload: str, requests: list, seconds: float) -> dict:
    """Passes until ``seconds`` are measured, each after one set-up sample,
    so that set-up and passes see the same drift of the host."""
    setup, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup.append(setup_sample())
        passes.append(cli_pass() if workload == "verify-deep" else run_worker("pass"))
    attempted, failed, rates = tally(workload, requests, passes)
    walls = [r["requests_s"] for r in passes]
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "notes": [
            latency_line(passes),
            f"spread (quartile distance over median) within the run: "
            f"setup_s {spread(setup):.3f}  wall_s {spread(walls):.3f}",
            f"this process's own peak {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}"
            f" MB, below every child's peak_rss_mb",
        ],
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "points_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        },
    }


def import_self_s(stderr_text: str) -> dict:
    """Per-layer import time from ``-X importtime`` (self time, excluding the
    modules a layer imports in turn)."""
    seconds: dict = {}
    for line in stderr_text.splitlines():
        match = IMPORT_LINE.match(line)
        if match and match.group(2) in LAYERS:
            seconds[match.group(2)] = int(match.group(1)) / 1e6
    return seconds


def traced(workload: str, requests: list, seconds: float) -> dict:
    """Alternate untraced and traced worker passes over the same inputs,
    both under ``-X importtime``; the per-layer figures come from the traced
    pass with the median window (import plus requests), so its parts sum to
    ``trace.wall_s`` exactly."""
    plain, traces = [], []
    deadline = time.perf_counter() + seconds
    while not traces or time.perf_counter() < deadline:
        spans = [] if traces else ["--spans", str(WORK / f"spans-{workload}.json")]
        plain.append(run_worker("plain", ["-X", "importtime"]))
        trace = run_worker("trace", ["-X", "importtime"], ["--trace", *spans])
        trace["import_layers_s"] = import_self_s((WORK / "trace.err").read_text())
        traces.append(trace)
    attempted, failed, _ = tally(workload, requests, plain + traces)

    def window(result):
        return result["import_s"] + result["requests_s"]

    middle = sorted(traces, key=window)[(len(traces) - 1) // 2]
    summary = middle["trace"]
    layer_s = {
        layer: middle["import_layers_s"].get(layer, 0.0) + summary["self_s"].get(layer, 0.0)
        for layer in LAYERS
    }
    metrics = {f"{layer}.self_s": value for layer, value in layer_s.items()}
    metrics["harness.self_s"] = window(middle) - sum(layer_s.values())
    metrics["trace.wall_s"] = window(middle)
    metrics["trace.overhead_s"] = window(middle) - statistics.median_low(
        window(r) for r in plain)
    for name in PER_LAYER_COUNTS:
        if name.endswith(".points"):
            metrics[name] = summary["points"].get(name, 0)
        elif name == "series.solve_carlitz_y.passes":
            metrics[name] = summary["solve_passes"]
        else:
            metrics[name] = summary["calls"].get(name.removesuffix(".calls"), 0)
    detail = {
        "import_s": middle["import_layers_s"],
        "span_self_s": summary["self_s"],
        "calls": summary["calls"],
        "s": summary["s"],
    }
    return {"passes": len(traces), "attempted": attempted, "failed": failed,
            "notes": [], "metrics": metrics, "detail": detail}


# --------------------------------------------------------------------------
# output


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = inputs(workload, seed)
    text = json.dumps(requests)
    (WORK / "requests.json").write_text(text)
    seeded = "drawn from the seed" if workload == "coeff-stream" else "fixed, the seed is not used"
    print(f"{workload}: {len(requests)} requests per pass, {seeded}; "
          f"inputs digest {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    result = (traced if trace else end_to_end)(workload, requests, seconds)
    units = {name: "count" for name in PER_LAYER_COUNTS}
    units.update({name: "s" for name in PER_LAYER_TIMES})
    units.update(END_TO_END)
    ratio = result["failed"] / result["attempted"]
    print(f"  passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  failed_ratio {ratio:g}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, value in result["metrics"].items():
        print(f"  {name:32} {value:>14.6g} {units[name]}")
    if trace:
        detail = result["detail"]
        path = WORK / f"trace-{workload}.json"
        path.write_text(json.dumps({"metrics": result["metrics"], **detail}, indent=1))
        print(f"  time per span name (outermost spans, s) in the median traced pass; "
              f"all of it in {path.relative_to(ROOT)}")
        for name, value in sorted(detail["s"].items()):
            print(f"    {name + '.s':36} {value:>12.6g}  calls {detail['calls'][name]}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


WORKLOADS = ("verify-deep", "series-genfun", "coeff-stream")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"polycoeffs sources not found under {PACKAGE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = {name: run(name, opts.seed, opts.seconds, bool(opts.trace)) for name in names}
    print(json.dumps(results if opts.workload == "all" else results[opts.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
