"""Registry of exactly-verifiable coefficient identities.

Each entry pairs a parameter grid with a checker that evaluates both sides
of one identity in exact arithmetic (integers, rationals, Gaussian
integers).  Failures are collected as data rather than aborting, so a report
always describes the whole grid.

Checkers that sweep an index yield a ``Block`` per row or convolution: the
fixed parameters, the swept ones as sequences, and both sides as two
equal-length lists.  ``run_identity`` compares the two lists at once and
decodes points only on a mismatch, so the deep profile's 771,690 points do
not each cost a params dict, a tuple and a comparison.  Identities with one
value per parameter set yield plain ``(params, lhs, rhs)`` points.

Grid conventions: degree m starts at 1; row indices run over both signs
where an identity permits them; column indices sweep the natural support
plus a margin of out-of-support points so the zero clauses are exercised.

T2-iv and ID6 form their left sides by Kronecker substitution: each row is
packed into one integer with a slot of ``_width`` bytes per coefficient, and
one big-integer product gives every convolution sum at once; the product is
exact because the width keeps every slot's sum strictly inside its signed
range, so no slot carries into the next.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping

from .coefficients import binom, chi, coeff, multinomial_oracle, row
from .genfun import pk_by_recurrence

CheckPoint = tuple[dict, Any, Any]


class Block:
    """Grid points sharing ``params``: each key in ``swept`` maps to a
    sequence of values, the last key varying fastest, and ``lhs[i]``,
    ``rhs[i]`` are the two sides at point ``i`` of that sweep."""

    __slots__ = ("params", "swept", "lhs", "rhs")

    def __init__(
        self, params: Mapping[str, Any], swept: tuple[str, ...], lhs: list, rhs: list
    ):
        size = math.prod(len(params[key]) for key in swept)
        if not len(lhs) == len(rhs) == size:
            raise ValueError(
                f"block of {size} points has {len(lhs)} left and {len(rhs)} right sides"
            )
        self.params, self.swept, self.lhs, self.rhs = params, swept, lhs, rhs

    def point(self, index: int) -> dict:
        """The params of point ``index``, keys in ``params`` order."""
        values = {}
        for key in reversed(self.swept):
            index, digit = divmod(index, len(self.params[key]))
            values[key] = self.params[key][digit]
        return {key: values.get(key, value) for key, value in self.params.items()}

    def mismatches(self) -> Iterator[dict]:
        for index, (lhs, rhs) in enumerate(zip(self.lhs, self.rhs)):
            if lhs != rhs:
                yield {"params": self.point(index), "lhs": lhs, "rhs": rhs}


Checker = Callable[[Mapping[str, Any]], Iterator[Block | CheckPoint]]


@dataclass(frozen=True)
class Profile:
    """Grid scaling: maximum degree and maximum absolute row index."""

    name: str
    m_max: int
    n_max: int


PROFILES = {
    "quick": Profile("quick", m_max=3, n_max=4),
    "desk": Profile("desk", m_max=5, n_max=10),
    "deep": Profile("deep", m_max=6, n_max=14),
}

SUPPORT_MARGIN = 5


@dataclass(frozen=True)
class IdentitySpec:
    """One registry entry: an id, a human description, the classical
    identity it extends, concrete grid ranges, and the two-sides checker."""

    id: str
    description: str
    source: str
    grid: Mapping[str, Any]
    checker: Checker


@dataclass
class IdentityReport:
    """Outcome of evaluating one identity over its grid."""

    id: str
    grid: str
    checked: int
    failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def rendered_failures(self, limit: int | None = None) -> list[dict]:
        """The first ``limit`` failures (all by default), values as text."""
        return [
            {k: dict(v) if k == "params" else _render(v) for k, v in f.items()}
            for f in self.failures[:limit]
        ]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "grid": self.grid,
            "checked": self.checked,
            "failures": self.rendered_failures(),
        }


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _grid_text(grid: Mapping[str, Any]) -> str:
    parts = []
    for name, spec in grid.items():
        if isinstance(spec, range):
            parts.append(f"{name}={spec.start}..{spec.stop - 1}")
        elif isinstance(spec, (list, tuple)):
            parts.append(f"{name} in {{{','.join(str(v) for v in spec)}}}")
        else:
            parts.append(f"{name}={spec}")
    return ", ".join(parts)


def _k_last(n: int, m: int) -> int:
    # natural support for n >= 0, the mirrored width for n < 0, plus the margin
    return m * abs(n) + SUPPORT_MARGIN


def _k_values(n: int, m: int) -> range:
    return range(-2, _k_last(n, m) + 1)


def _at(values: list[int], k: int) -> int:
    # past the fetched prefix this raises: a negative row does not end in zeros
    return values[k] if k >= 0 else 0


def _width(rows, terms: int) -> int:
    # bytes per slot so that every entry, and every sum of `terms` products of
    # entries, fits strictly inside a signed slot
    top = max((abs(c) for values in rows for c in values), default=0)
    return (top * top * max(terms, 1)).bit_length() // 8 + 1


def _pack(values: list[int], width: int) -> int:
    """sum_i values[i] * 2^(8*width*i), for signed values."""
    positive = b"".join(max(c, 0).to_bytes(width, "little") for c in values)
    negative = b"".join(max(-c, 0).to_bytes(width, "little") for c in values)
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The first ``count`` signed slots of a packed integer."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = ((packed + bias) & ((1 << (8 * width * count)) - 1)).to_bytes(
        width * count, "little"
    )
    half = 1 << (8 * width - 1)
    return [
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, width * count, width)
    ]


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer, used for evaluating p_m at the imaginary unit."""

    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, n: int) -> "GaussianInt":
        if n < 0:
            raise ValueError("negative Gaussian powers are not needed here")
        result = GaussianInt(1, 0)
        for _ in range(n):
            result = result * self
        return result


def gaussian_pow(m: int, n: int) -> GaussianInt:
    """(1 + i + i^2 + ... + i^m)^n computed exactly in the Gaussian integers."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    counts = [0, 0, 0, 0]
    for j in range(m + 1):
        counts[j % 4] += 1
    base = GaussianInt(counts[0] - counts[2], counts[1] - counts[3])
    return base ** n


# ---------------------------------------------------------------------------
# checkers: a Block per swept row, or (params, lhs, rhs) per grid point


def _k_block(m: int, n: int, ks, lhs: list, rhs: list) -> Block:
    return Block({"m": m, "n": n, "k": ks}, ("k",), lhs, rhs)


_SIDES = ("first", "second")


def _interleave(first: list, second: list) -> list:
    out = [None] * (2 * len(first))
    out[0::2] = first
    out[1::2] = second
    return out


def _check_factorial_expansion(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = _k_values(n, m)
            values = row(n, m, _k_last(n, m))
            lhs = [multinomial_oracle(n, k, m) if k >= 0 else 0 for k in ks]
            yield _k_block(m, n, ks, lhs, [_at(values, k) for k in ks])


def _check_symmetry(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = _k_values(n, m)
            values = row(n, m, _k_last(n, m))
            lhs = [_at(values, k) for k in ks]
            yield _k_block(m, n, ks, lhs, [_at(values, m * n - k) for k in ks])


def _check_absorption(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = [k for k in _k_values(n, m) if k != 0]
            values, prior = row(n, m, _k_last(n, m)), row(n - 1, m, _k_last(n, m))
            lhs = [k * _at(values, k) for k in ks]
            rhs = [n * sum(i * _at(prior, k - i) for i in range(1, m + 1)) for k in ks]
            yield _k_block(m, n, ks, lhs, rhs)


def _vandermonde_cap(r: int, s: int, m: int) -> int:
    if r >= 0 and s >= 0:
        return m * (r + s) + SUPPORT_MARGIN
    return m * max(abs(r), abs(s), abs(r + s)) + SUPPORT_MARGIN


def _check_vandermonde(grid) -> Iterator[Block]:
    pairs = [(r, s) for r in grid["r"] for s in grid["s"]]
    indices = {n for r, s in pairs for n in (r, s, r + s)}
    factors = {*grid["r"], *grid["s"]}
    for m in grid["m"]:
        limit = max(_vandermonde_cap(r, s, m) for r, s in pairs)
        rows = {n: row(n, m, limit) for n in indices}
        width = _width((rows[n] for n in factors), limit + 1)
        packed = {n: _pack(rows[n], width) for n in factors}
        # (s, r) reads the product of (r, s): the cap is symmetric in r and s
        products: dict = {}
        for r, s in pairs:
            kmax = _vandermonde_cap(r, s, m)
            product = products.pop((s, r), None)
            if product is None:
                # a product's slots below kmax + 1 need only its factors' slots there
                mask = (1 << (8 * width * (kmax + 1))) - 1
                product = _unpack(
                    (packed[r] & mask) * (packed[s] & mask), width, kmax + 1
                )
                if r != s:
                    products[r, s] = product
            row_rs = rows[r + s]
            # k = -1 lies before every row, so its sum is empty
            yield Block(
                {"m": m, "r": r, "s": s, "k": range(-1, kmax + 1)},
                ("k",),
                [0, *product],
                [_at(row_rs, -1), *row_rs[: kmax + 1]],
            )


def _check_addition(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = _k_values(n, m)
            values, prior = row(n, m, _k_last(n, m)), row(n - 1, m, _k_last(n, m))
            rhs = [sum(_at(prior, k - i) for i in range(m + 1)) for k in ks]
            yield _k_block(m, n, ks, [_at(values, k) for k in ks], rhs)


def _bivariate_power(base: dict, exponent: int) -> dict:
    result = {(0, 0): 1}
    for _ in range(exponent):
        result = _bivariate_mul(result, base)
    return result


def _bivariate_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _check_binomial_theorem(grid) -> Iterator[CheckPoint]:
    # exact bivariate expansion; valid verbatim for n >= 0
    for m in grid["m"]:
        for n in grid["n"]:
            lhs = {(k, m * n - k): c for k, c in enumerate(row(n, m, m * n)) if c}
            base = {(i, m - i): 1 for i in range(m + 1)}
            rhs = _bivariate_power(base, n)
            yield (
                {"m": m, "n": n},
                sorted(lhs.items()),
                sorted(rhs.items()),
            )


def _check_upper_summation(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = range(m * n + SUPPORT_MARGIN + 1)
            rows = [row(l, m, ks[-1]) for l in range(n + 1)]
            upper = row(n + 1, m, ks[-1] + 1)
            weights = [chi(m - 1, i) for i in ks]
            lhs = [sum(column) for column in zip(*rows)]
            rhs = [sum(weights[i] * upper[k - i + 1] for i in range(k + 1)) for k in ks]
            yield _k_block(m, n, ks, lhs, rhs)


def _check_parallel_summation(grid) -> Iterator[Block]:
    ns, r_top = grid["n"], max(grid["r"])
    for m in grid["m"]:
        # rows r + k hold the diagonal <r+k, mk>, rows r + n + 1 the right sides
        rows = [row(j, m, m * j) for j in range(r_top + max(ns) + 2)]
        weights = [chi(m - 1, i) for i in range(m * r_top + 1)]
        for r in grid["r"]:
            diagonal = [rows[r + k][m * k] for k in range(max(ns) + 1)]
            lhs = [sum(diagonal[: n + 1]) for n in ns]
            rhs = [
                sum(
                    weights[i] * rows[r + n + 1][m * r - i + 1]
                    for i in range(m * r + 1)
                )
                for n in ns
            ]
            yield Block({"m": m, "r": r, "n": ns}, ("n",), lhs, rhs)


def _check_horizontal(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = _k_values(n, m)
            values = row(n, m, _k_last(n, m))
            rhs = [
                sum(((n + 1) * i - k) * _at(values, k - i) for i in range(1, m + 1))
                for k in ks
            ]
            yield _k_block(m, n, ks, [k * _at(values, k) for k in ks], rhs)


def _check_chi_convolution(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = _k_values(n, m)
            values, prior = row(n, m, _k_last(n, m)), row(n - 1, m, _k_last(n, m))
            weights = [chi(m, j) for j in range(_k_last(n, m) + 1)]
            lhs = [
                sum(weights[j] * _at(values, k - j) for j in range(max(k, 0) + 1))
                for k in ks
            ]
            yield _k_block(m, n, ks, lhs, [_at(prior, k) for k in ks])


def _check_f_numbers_column(grid) -> Iterator[CheckPoint]:
    half = Fraction(1, 2)
    for m in grid["m"]:
        n_top = max(grid["n"])
        f_rec = []
        for n in range(n_top + 1):
            if n <= 1:
                f_rec.append(1)
            else:
                lag = f_rec[n - m - 1] if n - m - 1 >= 0 else 0
                f_rec.append(2 * f_rec[n - 1] - lag)
        for n in grid["n"]:
            lhs = 2 ** (n + 1) * pk_by_recurrence(m, n)(half)
            yield ({"m": m, "n": n}, lhs, 2 * f_rec[n])


def _check_alternating_diagonal(grid) -> Iterator[CheckPoint]:
    for m in grid["m"]:
        for n in grid["n"]:
            lhs = sum(
                (-1 if (n - k) & 1 else 1) * coeff(n - k, k, m) for k in range(n + 1)
            )
            yield ({"m": m, "n": n}, lhs, chi(m + 1, n))


def _check_weighted_diagonal(grid) -> Iterator[CheckPoint]:
    for m in grid["m"]:
        for n in grid["n"]:
            lhs = Fraction(0)
            for k in range(m * n // (m + 1) + 1):
                sign = -1 if (n - k) & 1 else 1
                lhs += Fraction(sign * coeff(n - k, k, m) * n, n - k)
            rhs = m + 1 if n % (m + 2) == 0 else -1
            yield ({"m": m, "n": n}, lhs, Fraction(rhs))


def _check_parity_sums(grid) -> Iterator[CheckPoint]:
    for m in grid["m"]:
        for n in grid["n"]:
            g = gaussian_pow(m, n)
            values = row(n, m, m * n)
            even = sum(
                (-1 if k & 1 else 1) * values[2 * k] for k in range(m * n // 2 + 1)
            )
            odd = sum(
                (-1 if k & 1 else 1) * values[2 * k + 1]
                for k in range((m * n - 1) // 2 + 1)
            )
            yield ({"m": m, "n": n, "part": "even"}, even, g.re)
            yield ({"m": m, "n": n, "part": "odd"}, odd, g.im)


def _check_shifted_products(grid) -> Iterator[Block]:
    # entries t < 0 of the product and of row r + s read as 0 from this padding
    pad = SUPPORT_MARGIN + max(grid["q"])
    zeros = [0] * pad
    for m in grid["m"]:
        # the right-hand sides read row r + s out to m(r + s) + SUPPORT_MARGIN + q
        rows = [
            row(n, m, m * n + pad) for n in range(max(grid["r"]) + max(grid["s"]) + 1)
        ]
        supports = {n: rows[n][: m * n + 1] for n in {*grid["r"], *grid["s"]}}
        width = _width(supports.values(), m * max(supports) + 1)
        reversed_r = {r: _pack(supports[r][::-1], width) for r in grid["r"]}
        packed_s = {s: _pack(supports[s], width) for s in grid["s"]}
        for r in grid["r"]:
            for s in grid["s"]:
                # sum_l <r,q+l><s,k+l> is entry t = m*r - q + k of rev(row r) *
                # row s, 0 outside 0..span; the second side reads entry span - t
                span = m * (r + s)
                product = zeros + _unpack(reversed_r[r] * packed_s[s], width, span + 1)
                product += zeros
                row_rs = zeros + rows[r + s]
                # entry t sits at pad + t, entry span - t at mirror - (pad + t)
                mirror = 2 * pad + span
                ks = range(-(m * r + SUPPORT_MARGIN), m * s + SUPPORT_MARGIN + 1)
                for q in grid["q"]:
                    low = pad - q - SUPPORT_MARGIN
                    high = pad + span - q + SUPPORT_MARGIN + 1
                    lhs = product[low:high]
                    second = row_rs[mirror - high + 1 : mirror - low + 1][::-1]
                    yield Block(
                        {"m": m, "r": r, "s": s, "q": q, "k": ks, "side": _SIDES},
                        ("k", "side"),
                        _interleave(lhs, lhs),
                        _interleave(row_rs[low:high], second),
                    )


def _check_square_sums(grid) -> Iterator[CheckPoint]:
    for m in grid["m"]:
        for n in grid["n"]:
            values = row(n, m, m * n)
            central = coeff(2 * n, m * n, m)
            s0 = sum(c * c for c in values)
            s1 = sum(k * c * c for k, c in enumerate(values))
            s2 = sum(k * k * c * c for k, c in enumerate(values))
            yield ({"m": m, "n": n, "moment": 0}, s0, central)
            yield ({"m": m, "n": n, "moment": 1}, 2 * s1, m * n * central)
            rhs2 = n * n * sum(
                i * (m * (n - 1) + i) * coeff(2 * n - 1, m * n - i, m)
                for i in range(1, m + 1)
            )
            yield ({"m": m, "n": n, "moment": 2}, (2 * n - 1) * s2, rhs2)


def _check_alternating_squares(grid) -> Iterator[CheckPoint]:
    for m in grid["m"]:
        for n in grid["n"]:
            values = row(n, m, m * n)
            lhs = sum((-1 if k & 1 else 1) * c * c for k, c in enumerate(values))
            if (m * n) & 1:
                rhs = 0
            elif m % 2 == 0:
                rhs = coeff(n, m * n // 2, m)
            else:
                half_degree = (m - 1) // 2
                # degree 0 means the base polynomial is the constant 1
                rhs = sum(
                    (-1 if i & 1 else 1)
                    * binom(n, i)
                    * (
                        coeff(2 * n, m * n // 2 - i, half_degree)
                        if half_degree
                        else int(m * n // 2 == i)
                    )
                    for i in range(n + 1)
                )
            yield ({"m": m, "n": n}, lhs, rhs)


def _check_quadrinomial_squares(grid) -> Iterator[CheckPoint]:
    for r in grid["r"]:
        values = row(2 * r, 3, 6 * r)
        lhs = sum((-1 if k & 1 else 1) * c * c for k, c in enumerate(values))
        rhs = (-1 if r & 1 else 1) * math.comb(4 * r, r)
        yield ({"r": r}, lhs, rhs)


def _check_binomial_weightings(grid) -> Iterator[Block]:
    for m in grid["m"]:
        for n in grid["n"]:
            ks = range(m * n + SUPPORT_MARGIN + 1)
            rows = [row(l, m, ks[-1]) for l in range(n + 1)]
            # degree 0 means the base polynomial is the constant 1
            lower = [
                row(j, m - 1, ks[-1]) if m > 1 else [1] + [0] * ks[-1]
                for j in range(n + 1)
            ]
            values = rows[n]
            weights = [binom(n, j) for j in range(n + 1)]
            doubled = [2 ** (n - j) * weights[j] for j in range(n + 1)]
            signed = [(-1 if (n - j) & 1 else 1) * weights[j] for j in range(n + 1)]
            lhs1 = [
                sum(w * c for w, c in zip(weights, column)) for column in zip(*rows)
            ]
            rhs1 = [
                sum(doubled[j] * _at(lower[j], k - j) for j in range(n + 1)) for k in ks
            ]
            lhs2 = [
                sum(values[l] * binom(l, k) for l in range(k, m * n + 1)) for k in ks
            ]
            rhs2 = [
                sum(signed[j] * binom((m + 1) * j, k + n) for j in range(n + 1))
                for k in ks
            ]
            yield Block(
                {"m": m, "n": n, "k": ks, "side": _SIDES},
                ("k", "side"),
                _interleave(lhs1, lhs2),
                _interleave(rhs1, rhs2),
            )


# ---------------------------------------------------------------------------


def build_registry(profile: Profile | str = "desk") -> list[IdentitySpec]:
    """All registry entries with grids scaled to the requested profile."""
    p = PROFILES[profile] if isinstance(profile, str) else profile
    ms = range(1, p.m_max + 1)
    n_all = range(-p.n_max, p.n_max + 1)
    n_nonneg = range(0, p.n_max + 1)
    n_pos = range(1, p.n_max + 1)
    n_oracle = range(0, min(p.n_max, 6) + 1)
    k_note = f"support+{SUPPORT_MARGIN}"
    return [
        IdentitySpec(
            "T2-i",
            "factorial expansion agrees with the default algorithm",
            "multinomial theorem",
            {"m": ms, "n": n_oracle, "k": k_note},
            _check_factorial_expansion,
        ),
        IdentitySpec(
            "T2-ii",
            "row symmetry <n,k> = <n,mn-k>",
            "self-reciprocity of 1 + t + ... + t^m",
            {"m": ms, "n": n_nonneg, "k": k_note},
            _check_symmetry,
        ),
        IdentitySpec(
            "T2-iii",
            "absorption: k<n,k> = n * sum_i i <n-1,k-i>",
            "extends the binomial absorption rule",
            {"m": ms, "n": n_all, "k": k_note},
            _check_absorption,
        ),
        IdentitySpec(
            "T2-iv",
            "Vandermonde convolution across rows of either sign",
            "Vandermonde convolution",
            {"m": ms, "r": n_all, "s": n_all, "k": "capped support"},
            _check_vandermonde,
        ),
        IdentitySpec(
            "T2-v",
            "addition rule: <n,k> = sum_{i<=m} <n-1,k-i>",
            "extends Pascal's rule",
            {"m": ms, "n": n_all, "k": k_note},
            _check_addition,
        ),
        IdentitySpec(
            "T2-vi",
            "homogeneous expansion of (x^0 y^m + ... + x^m y^0)^n",
            "extends the binomial theorem (exact branch, n >= 0)",
            {"m": ms, "n": n_nonneg},
            _check_binomial_theorem,
        ),
        IdentitySpec(
            "T2-vii",
            "column partial sums via the chi convolution",
            "extends upper summation",
            {"m": ms, "n": n_nonneg, "k": k_note},
            _check_upper_summation,
        ),
        IdentitySpec(
            "T2-viii",
            "parallel summation along a diagonal",
            "extends parallel summation",
            {"m": ms, "r": n_nonneg, "n": n_nonneg},
            _check_parallel_summation,
        ),
        IdentitySpec(
            "T2-ix",
            "horizontal recurrence within one row",
            "extends the binomial horizontal recurrence",
            {"m": ms, "n": n_all, "k": k_note},
            _check_horizontal,
        ),
        IdentitySpec(
            "ID1",
            "convolving a row with chi steps the row index down",
            "extends Gould 1.5",
            {"m": ms, "n": n_all, "k": k_note},
            _check_chi_convolution,
        ),
        IdentitySpec(
            "ID2",
            "column value at 1/2 reproduces the f-number recurrence",
            "extends Gould 1.23",
            {"m": ms, "n": n_nonneg},
            _check_f_numbers_column,
        ),
        IdentitySpec(
            "ID3",
            "alternating diagonal sums collapse to chi of degree m+1",
            "extends Benjamin-Quinn 175 (snake-oil proof)",
            {"m": ms, "n": n_nonneg},
            _check_alternating_diagonal,
        ),
        IdentitySpec(
            "ID4",
            "weighted alternating diagonal sums detect divisibility by m+2",
            "extends Gould 1.68",
            {"m": ms, "n": n_pos},
            _check_weighted_diagonal,
        ),
        IdentitySpec(
            "ID5",
            "alternating even/odd row sums are Re and Im of p_m(i)^n",
            "extends Gould 1.90 and 1.96",
            {"m": ms, "n": n_pos},
            _check_parity_sums,
        ),
        IdentitySpec(
            "ID6",
            "shifted product sums reduce to a single coefficient",
            "extends Graham-Knuth-Patashnik table 169, 5.23",
            {"m": ms, "r": n_nonneg, "s": n_nonneg, "q": (0, 1, 2), "k": "span+5"},
            _check_shifted_products,
        ),
        IdentitySpec(
            "ID7",
            "square-sum moments of a row",
            "extends Gould 3.78 and 3.79",
            {"m": ms, "n": n_nonneg},
            _check_square_sums,
        ),
        IdentitySpec(
            "ID8",
            "alternating square sums by parity of m and n",
            "extends Gould 3.81",
            {"m": ms, "n": n_nonneg},
            _check_alternating_squares,
        ),
        IdentitySpec(
            "ID9",
            "alternating square sums of even quadrinomial rows",
            "extends Gould 3.57",
            {"r": n_nonneg, "m": "3"},
            _check_quadrinomial_squares,
        ),
        IdentitySpec(
            "ID10",
            "binomially weighted row sums, both orientations",
            "extends Benjamin-Quinn 155",
            {"m": ms, "n": n_nonneg, "k": k_note},
            _check_binomial_weightings,
        ),
    ]


def run_identity(spec: IdentitySpec) -> IdentityReport:
    """Evaluate one identity over its whole grid, collecting all failures; a
    checker that raises adds one failure with the params of the last point
    it yielded and the error."""
    start = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    last: Block | None = None
    params: Mapping[str, Any] = {}
    try:
        for item in spec.checker(spec.grid):
            if isinstance(item, Block):
                checked += len(item.lhs)
                if item.lhs:
                    last = item
                if item.lhs != item.rhs:
                    failures.extend(item.mismatches())
            else:
                params, lhs, rhs = item
                last = None
                checked += 1
                if lhs != rhs:
                    failures.append({"params": params, "lhs": lhs, "rhs": rhs})
    except Exception as exc:
        if last is not None:
            params = last.point(len(last.lhs) - 1)
        failures.append({"params": params, "error": f"{type(exc).__name__}: {exc}"})
    elapsed = time.perf_counter() - start
    return IdentityReport(spec.id, _grid_text(spec.grid), checked, failures, elapsed)


def run_suite(profile: Profile | str = "desk") -> list[IdentityReport]:
    """Run every registry entry; reports come back in registry order."""
    return [run_identity(spec) for spec in build_registry(profile)]
