"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` rebinds each traced function in every ``polycoeffs``
module that holds it (the defining module and every module that imported
it), and each traced method on its class, including aliases such as
``__rmul__ = __mul__``.  ``Tracer.restore`` puts every original back.  A
span is ``(name, start_ns, end_ns, parent_index)``; spans stay in memory
until the run ends.  The layer of a span is the part of its name before the
first dot.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "identities", "trinomial", "genfun", "series", "coefficients")

# (defining module, function, span name); a name ending in "." is completed
# by the identity id the call is about.
FUNCTIONS = (
    ("coefficients", "coeff", "coefficients.coeff"),
    ("coefficients", "row", "coefficients.row"),
    ("identities", "run_identity", "identities."),
    ("trinomial", "verification_suite", "trinomial.verification_suite"),
    ("trinomial", "_report", "trinomial."),
    ("trinomial", "gegenbauer", "trinomial.gegenbauer"),
    ("genfun", "carlitz_gf", "genfun.carlitz_gf"),
    ("genfun", "column_gf", "genfun.column_gf"),
    ("series", "solve_carlitz_y", "series.solve_carlitz_y"),
)

# (class in polycoeffs.series, method, span name)
METHODS = (
    ("TruncatedSeries", "__mul__", "series.mul"),
    ("TruncatedSeries", "inverse", "series.inverse"),
    ("TruncatedSeries", "__pow__", "series.pow"),
    ("TruncatedSeries", "compose", "series.compose"),
    ("IntPolynomial", "__mul__", "series.intpoly_mul"),
    ("IntPolynomial", "__pow__", "series.intpoly_pow"),
)

SOLVE = "series.solve_carlitz_y"
COMPOSE = "series.compose"


def _identity_id(args) -> str:
    # run_identity(spec) and _report(identity_id, grid_text, points)
    first = args[0]
    return getattr(first, "id", first)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.points: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call; a name ending in "." gets the
        identity id appended and the report's point count recorded."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        per_identity = name.endswith(".")
        points = self.points

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name + _identity_id(args) if per_identity else name
                spans[index] = (label, start, end, parent)
            if per_identity:
                points[name + "points"] += result.checked
            return result

        return traced

    def _rebind(self, namespaces, original, wrapper) -> None:
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._undo.append((namespace, attr, original))

    def install(self) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "polycoeffs" or key.startswith("polycoeffs.")
        ]
        for home, attr, name in FUNCTIONS:
            original = getattr(sys.modules["polycoeffs." + home], attr)
            self._rebind(modules, original, self.wrap(original, name))
        series = sys.modules["polycoeffs.series"]
        for cls_name, attr, name in METHODS:
            cls = getattr(series, cls_name)
            original = vars(cls)[attr]
            self._rebind([cls], original, self.wrap(original, name))

    def restore(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def summary(self) -> dict:
        """Self time per layer, calls and time per span name, and the
        number of ``compose`` passes made under a ``solve_carlitz_y`` span.

        A span's self time is its duration minus its children's; the time
        per name counts only spans not nested in a span of the same name,
        so recursion is not counted twice.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: defaultdict = defaultdict(int)
        calls: Counter = Counter()
        inclusive_ns: defaultdict = defaultdict(int)
        passes = 0
        for index, (name, start, end, parent) in enumerate(spans):
            self_ns[name.split(".", 1)[0]] += end - start - child_ns[index]
            calls[name] += 1
            nested = under_solve = False
            ancestor = parent
            while ancestor >= 0:
                ancestor_name = spans[ancestor][0]
                nested = nested or ancestor_name == name
                under_solve = under_solve or ancestor_name == SOLVE
                ancestor = spans[ancestor][3]
            if not nested:
                inclusive_ns[name] += end - start
            if name == COMPOSE and under_solve:
                passes += 1
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "calls": dict(calls),
            "s": {name: ns / 1e9 for name, ns in inclusive_ns.items()},
            "points": dict(self.points),
            "solve_passes": passes,
        }
