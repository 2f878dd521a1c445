"""The benchmark's tracer (perfbench/tracer.py) against the package it traces.

The tracer finds the functions it wraps by name, so a rename in the package
would break a traced benchmark run; this fails first.  It reads perfbench/
and changes nothing there.
"""
import importlib
from pathlib import Path

import polycoeffs.cli  # noqa: F401  (the whole package, as the CLI loads it)
from polycoeffs import identities, trinomial
from polycoeffs.series import TruncatedSeries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_installs_over_the_package_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    originals = (
        identities.run_identity,
        trinomial.verification_suite,
        vars(TruncatedSeries)["__mul__"],
    )
    try:
        tracer.install()
        assert identities.run_identity is not originals[0]
        (report,) = trinomial.verification_suite(only="T2-vi-numeric")
        direct = identities.run_identity(trinomial.NUMERIC_CHECKS[-1])
    finally:
        tracer.restore()
    assert (
        identities.run_identity,
        trinomial.verification_suite,
        vars(TruncatedSeries)["__mul__"],
    ) == originals
    # the suite spans a check as trinomial.<ID> around identities.<ID>, and
    # run_identity called directly only as identities.<ID>
    summary = tracer.summary()
    assert summary["calls"]["trinomial.verification_suite"] == 1
    assert summary["calls"]["trinomial.T2-vi-numeric"] == 1
    assert summary["calls"]["identities.T2-vi-numeric"] == 2
    assert summary["points"] == {"trinomial.points": 4, "identities.points": 8}
    assert report.passed and direct.passed
