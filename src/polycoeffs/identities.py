"""Registry of exactly-verifiable coefficient identities.

Each entry pairs a parameter grid with a checker that evaluates both sides
of one identity in exact arithmetic (integers and rationals).  Failures are
collected as data rather than aborting, so a report always describes the
whole grid.

Every checker yields ``Block``s, one per row, convolution or degree: the
fixed parameters, the swept ones as sequences, and both sides as two
equal-length sequences.  ``run_identity`` compares the two sides at once and
decodes points only on a mismatch, so the deep profile's 771,690 points do
not each cost a params dict, a tuple and a comparison.  ``trinomial``'s
numeric checks are specs too, listed by ``build_registry`` after the exact
ones: their grid is the report's text, and they yield one-point blocks with
a tolerance, which ``holds`` applies.

Grid conventions: degree m starts at 1; row indices run over both signs
where an identity permits them; column indices sweep the natural support
plus a margin of out-of-support points so the zero clauses are exercised.
``_k_last`` owns that window's end.  ``_windows`` feeds every checker that
sweeps k over one row's window (T2-i, T2-ii, T2-iii, T2-v, T2-ix and ID1),
building each row once per degree, and row n - 1 only for the three that
read it (T2-iii, T2-v and ID1); T2-vii and ID10 read their ends from
``_k_last`` too.

Six checkers form a convolution side by Kronecker substitution: T2-iii,
T2-v, T2-vii and ID1 convolve one row with fixed weights through
``_convolution_sides``, and T2-iv and ID6 reuse each product across pairs
and windows.  Each factor is packed into one integer with a slot of
``_width`` bytes per coefficient, and one big-integer product gives every
convolution sum at once; the product is exact because the width keeps every
slot's sum strictly inside its signed range, so no slot carries into the
next.  Their sides stay packed: a ``_Packed`` side is one key, the product's
slots over the block's window on one side and the expected row packed the
same way on the other, and the block is decoded into lists only when the
keys differ.  Equal keys mean equal sides: a key holds a side's values as
signed digits in base 2^(8*width), taken modulo a power of the base where
the window is masked, and a number (or residue) has only one set of digits
in the signed range.  That needs every expected value inside its signed
slot, so a row with a value outside it gets no key and its blocks are always
decoded; such a value cannot equal the in-range sum in its slot, so decoding
reports it.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Collection, Iterator, Mapping

from .coefficients import binom, chi, coeff, multinomial_oracle, row
from .genfun import _f_number_sides


def holds(lhs, rhs, tolerance: float = 0) -> bool:
    """Whether one point holds: ``lhs == rhs`` at tolerance 0 (so tuples
    and ``Fraction``s compare exactly), ``abs(lhs - rhs) <= tolerance``
    otherwise; a NaN side never holds."""
    return lhs == rhs if tolerance == 0 else abs(lhs - rhs) <= tolerance


class Block:
    """Grid points sharing ``params``: each key in ``swept`` maps to a
    sequence of values, the last key varying fastest, and ``lhs``, ``rhs``
    give the two sides point by point over that sweep, as lists or as
    ``_Packed`` sides that build their lists when iterated.  Each point
    holds by ``holds`` at ``tolerance``."""

    __slots__ = ("params", "swept", "lhs", "rhs", "tolerance")

    def __init__(
        self,
        params: Mapping[str, Any],
        swept: tuple[str, ...],
        lhs: Collection,
        rhs: Collection,
        tolerance: float = 0,
    ):
        size = math.prod(len(params[key]) for key in swept)
        if not len(lhs) == len(rhs) == size:
            raise ValueError(
                f"block of {size} points has {len(lhs)} left and {len(rhs)} right sides"
            )
        self.params, self.swept, self.lhs, self.rhs = params, swept, lhs, rhs
        self.tolerance = tolerance

    def point(self, index: int) -> dict:
        """The params of point ``index``, keys in ``params`` order."""
        values = {}
        for key in reversed(self.swept):
            index, digit = divmod(index, len(self.params[key]))
            values[key] = self.params[key][digit]
        return {key: values.get(key, value) for key, value in self.params.items()}

    def mismatches(self) -> Iterator[dict]:
        for index, (lhs, rhs) in enumerate(zip(self.lhs, self.rhs)):
            if not holds(lhs, rhs, self.tolerance):
                yield {"params": self.point(index), "lhs": lhs, "rhs": rhs}


Checker = Callable[[Mapping[str, Any] | str], Iterator[Block]]


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
    identity it extends, concrete grid ranges (or the report's grid text
    itself), and the two-sides checker, which is passed the grid."""

    id: str
    description: str
    source: str
    grid: Mapping[str, Any] | str
    checker: Checker


@dataclass
class IdentityReport:
    """Outcome of evaluating one identity over its grid; ``elapsed`` is the
    evaluation's wall time in seconds, measured in the process that ran it."""

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


def _grid_text(grid: Mapping[str, Any] | str) -> str:
    if isinstance(grid, str):
        return grid
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


def _entries(values: list[int], ks) -> list[int]:
    return [_at(values, k) for k in ks]


def _width(rows, terms: int) -> int:
    # bytes per slot so that every entry, and every sum of `terms` products of
    # entries, fits strictly inside a signed slot
    top = max((max(map(abs, values), default=0) for values in rows), default=0)
    return (top * top * max(terms, 1)).bit_length() // 8 + 1


def _slot_bias(width: int, count: int) -> int:
    # half a slot in each of `count` slots
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(values: list[int], width: int) -> int:
    """sum_i values[i] * 2^(8*width*i); raises OverflowError unless every
    value fits a signed slot, -2^(8*width-1) <= value < 2^(8*width-1)."""
    half = 1 << (8 * width - 1)
    data = b"".join([(c + half).to_bytes(width, "little") for c in values])
    return int.from_bytes(data, "little") - _slot_bias(width, len(values))


def _key(values: list[int], width: int) -> int | None:
    """The packed values, or None when one does not fit a signed slot."""
    try:
        return _pack(values, width)
    except OverflowError:
        return None


def _mask(width: int, count: int) -> int:
    """The low ``count`` slots: ``packed & mask`` reads a packed integer
    modulo 2^(8*width*count)."""
    return (1 << (8 * width * count)) - 1


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The first ``count`` signed slots of a packed integer."""
    data = ((packed + _slot_bias(width, count)) & _mask(width, count)).to_bytes(
        width * count, "little"
    )
    half = 1 << (8 * width - 1)
    return [
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, width * count, width)
    ]


def _product_entries(packed: int, width: int, ks: range) -> list[int]:
    """Entries ``ks`` of a packed product, 0 before entry 0."""
    return _entries(_unpack(packed, width, ks[-1] + 1), ks)


class _Packed:
    """One side of a ``Block`` held as an exact key: ``len`` is its point
    count, ``==`` compares keys, and iterating builds the side's list.  A key
    of None equals nothing, so a side whose values do not all fit their
    slots is always decoded."""

    __slots__ = ("key", "count", "build")

    def __init__(self, key, count: int, build: Callable[[], list]):
        self.key, self.count, self.build = key, count, build

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Packed):
            return NotImplemented
        return self.key is not None and self.key == other.key

    __hash__ = None  # type: ignore[assignment]

    def __iter__(self) -> Iterator:
        return iter(self.build())


def _product_sides(
    product: int, width: int, values: list[int], packed: int | None, ks: range
) -> tuple[_Packed, _Packed]:
    """Sides comparing entries ``ks`` of a packed product with those of
    ``values``, whose key is ``packed``: both keys are slots 0..ks[-1], as
    entries before 0 read 0 on both sides."""
    mask = _mask(width, ks[-1] + 1)
    lhs = functools.partial(_product_entries, product, width, ks)
    rhs = functools.partial(_entries, values, ks)
    return (
        _Packed(product & mask, len(ks), lhs),
        _Packed(None if packed is None else packed & mask, len(ks), rhs),
    )


def _convolution_sides(values, weights, expected, ks) -> tuple[_Packed, _Packed]:
    """Sides comparing entries ``ks`` of the lists ``values`` convolved with
    ``weights``, the product first, with those of ``expected``."""
    width = _width([values, weights], min(len(values), len(weights)))
    product = _pack(values, width) * _pack(weights, width)
    return _product_sides(product, width, expected, _key(expected, width), ks)


# ---------------------------------------------------------------------------
# checkers: a Block per swept row, or per degree m for one value per row n


def _k_block(m: int, n: int, ks, lhs: Collection, rhs: Collection) -> Block:
    return Block({"m": m, "n": n, "k": ks}, ("k",), lhs, rhs)


def _n_block(m: int, ns, lhs: list, rhs: list) -> Block:
    return Block({"m": m, "n": ns}, ("n",), lhs, rhs)


def _windows(
    grid, prior: bool = False
) -> Iterator[tuple[int, int, range, list[int], list[int]]]:
    """(m, n, ks, row n, row n - 1) over the grid, both rows read out to
    ``_k_last(n, m)``; each row is built once per degree.  Row n - 1 is
    built only for a checker that reads it (``prior``), and is [] otherwise."""
    lags = (0, 1) if prior else (0,)
    for m in grid["m"]:
        limits: dict = {}
        for n in grid["n"]:
            for j in lags:
                limits[n - j] = max(limits.get(n - j, 0), _k_last(n, m))
        rows = {j: row(j, m, limit) for j, limit in limits.items()}
        for n in grid["n"]:
            last = _k_last(n, m)
            before = rows[n - 1][: last + 1] if prior else []
            yield m, n, _k_values(n, m), rows[n][: last + 1], before


_SIDES = ("first", "second")


def _interleave(first: list, second: list) -> list:
    out = [None] * (2 * len(first))
    out[0::2] = first
    out[1::2] = second
    return out


def _check_factorial_expansion(grid) -> Iterator[Block]:
    for m, n, ks, values, _ in _windows(grid):
        lhs = [multinomial_oracle(n, k, m) if k >= 0 else 0 for k in ks]
        yield _k_block(m, n, ks, lhs, _entries(values, ks))


def _check_symmetry(grid) -> Iterator[Block]:
    for m, n, ks, values, _ in _windows(grid):
        rhs = _entries(values, [m * n - k for k in ks])
        yield _k_block(m, n, ks, _entries(values, ks), rhs)


def _check_absorption(grid) -> Iterator[Block]:
    for m, n, ks, values, prior in _windows(grid, prior=True):
        # n * sum_i i <n-1,k-i> is row n - 1 times the weights n*i; k = 0 is
        # no point, but the keys cover its slot, 0 on both sides
        ks = [k for k in ks if k != 0]
        weights = [n * i for i in range(m + 1)]
        scaled = [k * c for k, c in enumerate(values)]
        sums, expected = _convolution_sides(prior, weights, scaled, ks)
        yield _k_block(m, n, ks, expected, sums)


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
        packed = {n: _key(rows[n], width) for n in indices}
        # (s, r) reads the product of (r, s): the cap is symmetric in r and s
        products: dict = {}
        for r, s in pairs:
            kmax = _vandermonde_cap(r, s, m)
            product = products.pop((s, r), None)
            if product is None:
                # a product's slots below kmax + 1 need only its factors' slots there
                mask = _mask(width, kmax + 1)
                product = (packed[r] & mask) * (packed[s] & mask)
                if r != s:
                    products[r, s] = product
            # k = -1 lies before every row, so its sum is empty
            ks = range(-1, kmax + 1)
            yield Block(
                {"m": m, "r": r, "s": s, "k": ks},
                ("k",),
                *_product_sides(product, width, rows[r + s], packed[r + s], ks),
            )


def _check_addition(grid) -> Iterator[Block]:
    for m, n, ks, values, prior in _windows(grid, prior=True):
        # the sum over i <= m is row n - 1 times 1 + t + ... + t^m
        sums, expected = _convolution_sides(prior, [1] * (m + 1), values, ks)
        yield _k_block(m, n, ks, expected, sums)


def _bivariate_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _check_binomial_theorem(grid) -> Iterator[Block]:
    # exact bivariate expansion; valid verbatim for n >= 0
    ns = grid["n"]
    for m in grid["m"]:
        base = {(i, m - i): 1 for i in range(m + 1)}
        lhs = [
            [((k, m * n - k), c) for k, c in enumerate(row(n, m, m * n)) if c]
            for n in ns
        ]
        powers = [{(0, 0): 1}]
        for _ in range(max(ns, default=0)):
            powers.append(_bivariate_mul(powers[-1], base))
        rhs = [sorted(powers[n].items()) for n in ns]
        yield _n_block(m, ns, lhs, rhs)


def _check_upper_summation(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        # row n + 1 is read out to entry _k_last(n, m) + 1
        limit = _k_last(max(ns), m) + 1
        rows = [row(l, m, limit) for l in range(max(ns) + 2)]
        # column sums of rows 0..n, accumulated over n
        sums = [0] * (limit + 1)
        for n in range(max(ns) + 1):
            sums = [a + b for a, b in zip(sums, rows[n])]
            if n not in ns:
                continue
            ks = range(_k_last(n, m) + 1)
            # sum_{i<=k} chi(m-1,i) <n+1,k-i+1> is the weights times row n + 1
            # read from entry 1
            upper, weights = rows[n + 1][1 : len(ks) + 1], [chi(m - 1, i) for i in ks]
            products, expected = _convolution_sides(upper, weights, sums[: len(ks)], ks)
            yield _k_block(m, n, ks, expected, products)


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
    for m, n, ks, values, _ in _windows(grid):
        rhs = [
            sum(((n + 1) * i - k) * _at(values, k - i) for i in range(1, m + 1))
            for k in ks
        ]
        yield _k_block(m, n, ks, [k * _at(values, k) for k in ks], rhs)


def _check_chi_convolution(grid) -> Iterator[Block]:
    for m, n, ks, values, prior in _windows(grid, prior=True):
        weights = [chi(m, j) for j in range(len(values))]
        yield _k_block(m, n, ks, *_convolution_sides(values, weights, prior, ks))


def _check_f_numbers_column(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        direct, recurrence = _f_number_sides(m, max(ns) + 1)
        yield _n_block(m, ns, [2 * direct[n] for n in ns], [2 * recurrence[n] for n in ns])


def _check_alternating_diagonal(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        lhs = [
            sum((-1 if (n - k) & 1 else 1) * coeff(n - k, k, m) for k in range(n + 1))
            for n in ns
        ]
        yield _n_block(m, ns, lhs, [chi(m + 1, n) for n in ns])


def _check_weighted_diagonal(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        lhs = []
        for n in ns:
            total = Fraction(0)
            for k in range(m * n // (m + 1) + 1):
                sign = -1 if (n - k) & 1 else 1
                total += Fraction(sign * coeff(n - k, k, m) * n, n - k)
            lhs.append(total)
        rhs = [Fraction(m + 1 if n % (m + 2) == 0 else -1) for n in ns]
        yield _n_block(m, ns, lhs, rhs)


def _p_m_at_i(m: int, n: int) -> tuple[int, int]:
    """Re and Im of (1 + i + i^2 + ... + i^m)^n, exactly."""
    # the powers of i cycle through 1, i, -1, -i
    re = sum((1, 0, -1, 0)[j % 4] for j in range(m + 1))
    im = sum((0, 1, 0, -1)[j % 4] for j in range(m + 1))
    power = (1, 0)
    for _ in range(n):
        power = (power[0] * re - power[1] * im, power[0] * im + power[1] * re)
    return power


def _check_parity_sums(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        lhs, rhs = [], []
        for n in ns:
            # sum_k <n,k> i^k: even k give the real part, odd k the imaginary
            values = row(n, m, m * n)
            lhs += [
                sum(values[0::4]) - sum(values[2::4]),
                sum(values[1::4]) - sum(values[3::4]),
            ]
            rhs += _p_m_at_i(m, n)
        yield Block({"m": m, "n": ns, "part": ("even", "odd")}, ("n", "part"), lhs, rhs)


def _shifted_lhs(product: int, width: int, ts: range) -> list[int]:
    entries = _product_entries(product, width, ts)
    return _interleave(entries, entries)


def _shifted_rhs(values: list[int], span: int, ts: range) -> list[int]:
    return _interleave(_entries(values, ts), _entries(values, [span - t for t in ts]))


def _check_shifted_products(grid) -> Iterator[Block]:
    margin = SUPPORT_MARGIN
    for m in grid["m"]:
        # the right-hand sides read row r + s out to m(r + s) + margin + q
        rows = [
            row(n, m, m * n + margin + max(grid["q"]))
            for n in range(max(grid["r"]) + max(grid["s"]) + 1)
        ]
        supports = {n: rows[n][: m * n + 1] for n in {*grid["r"], *grid["s"]}}
        width = _width(supports.values(), m * max(supports) + 1)
        reversed_r = {r: _pack(supports[r][::-1], width) for r in grid["r"]}
        packed_s = {s: _pack(supports[s], width) for s in grid["s"]}
        # window q reads entries t = -q - margin .. mn - q + margin of row n on
        # the first side, keyed by the row's slots up to the window's end, and
        # entries mn - t on the second, keyed by the row reversed from entry
        # mn + q + margin, whose slot j holds entry mn - t at t = j - q - margin
        expected = {}
        for n, values in enumerate(rows):
            packed = _key(values, width)
            for q in grid["q"]:
                reverse = _key(values[m * n + q + margin :: -1], width)
                expected[n, q] = (
                    None
                    if packed is None or reverse is None
                    else (packed & _mask(width, m * n - q + margin + 1), reverse)
                )
        for r in grid["r"]:
            for s in grid["s"]:
                # sum_l <r,q+l><s,k+l> is entry t = m*r - q + k of rev(row r) *
                # row s, 0 outside 0..span; the second side reads entry span - t
                span = m * (r + s)
                product = reversed_r[r] * packed_s[s]
                ks = range(-(m * r + margin), m * s + margin + 1)
                for q in grid["q"]:
                    ts = range(-q - margin, span - q + margin + 1)
                    # shifted by q + margin slots, the product lines up with
                    # the reversed row
                    key = (
                        product & _mask(width, ts[-1] + 1),
                        product << (8 * width * (q + margin)),
                    )
                    lhs = functools.partial(_shifted_lhs, product, width, ts)
                    rhs = functools.partial(_shifted_rhs, rows[r + s], span, ts)
                    yield Block(
                        {"m": m, "r": r, "s": s, "q": q, "k": ks, "side": _SIDES},
                        ("k", "side"),
                        _Packed(key, 2 * len(ts), lhs),
                        _Packed(expected[r + s, q], 2 * len(ts), rhs),
                    )


def _check_square_sums(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        lhs, rhs = [], []
        for n in ns:
            values = row(n, m, m * n)
            central = coeff(2 * n, m * n, m)
            s0 = sum(c * c for c in values)
            s1 = sum(k * c * c for k, c in enumerate(values))
            s2 = sum(k * k * c * c for k, c in enumerate(values))
            rhs2 = n * n * sum(
                i * (m * (n - 1) + i) * coeff(2 * n - 1, m * n - i, m)
                for i in range(1, m + 1)
            )
            lhs += [s0, 2 * s1, (2 * n - 1) * s2]
            rhs += [central, m * n * central, rhs2]
        yield Block({"m": m, "n": ns, "moment": (0, 1, 2)}, ("n", "moment"), lhs, rhs)


def _alternating_square_sum(values: list[int]) -> int:
    return sum(c * c for c in values[0::2]) - sum(c * c for c in values[1::2])


def _alternating_square_closed_form(m: int, n: int) -> int:
    if (m * n) & 1:
        return 0
    half = m * n // 2
    if m % 2 == 0:
        return coeff(n, half, m)
    values = row(2 * n, (m - 1) // 2, half)
    return sum(
        (-1 if i & 1 else 1) * binom(n, i) * _at(values, half - i) for i in range(n + 1)
    )


def _check_alternating_squares(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        lhs = [_alternating_square_sum(row(n, m, m * n)) for n in ns]
        rhs = [_alternating_square_closed_form(m, n) for n in ns]
        yield _n_block(m, ns, lhs, rhs)


def _check_quadrinomial_squares(grid) -> Iterator[Block]:
    rs = grid["r"]
    lhs = [_alternating_square_sum(row(2 * r, 3, 6 * r)) for r in rs]
    rhs = [(-1 if r & 1 else 1) * math.comb(4 * r, r) for r in rs]
    yield Block({"r": rs}, ("r",), lhs, rhs)


def _taylor_shift(values: list[int]) -> list[int]:
    """Coefficients of f(1 + t) from those of f(t), by additions only."""
    out = list(values)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _check_binomial_weightings(grid) -> Iterator[Block]:
    ns = grid["n"]
    for m in grid["m"]:
        limit = _k_last(max(ns), m)
        rows = [row(l, m, limit) for l in range(max(ns) + 1)]
        lower = [row(j, m - 1, limit) for j in range(max(ns) + 1)]
        pascal = [
            [math.comb((m + 1) * j, i) for i in range((m + 1) * j + 1)]
            for j in range(max(ns) + 1)
        ]
        for n in ns:
            ks = range(_k_last(n, m) + 1)
            weights = [binom(n, j) for j in range(n + 1)]
            doubled = [2 ** (n - j) * weights[j] for j in range(n + 1)]
            signed = [(-1 if (n - j) & 1 else 1) * weights[j] for j in range(n + 1)]
            lhs1 = [
                sum(w * rows[j][k] for j, w in enumerate(weights)) for k in ks
            ]
            rhs1 = [
                sum(doubled[j] * _at(lower[j], k - j) for j in range(n + 1)) for k in ks
            ]
            # sum_l <n,l> C(l,k) is [t^k] of row n at 1 + t
            lhs2 = _taylor_shift(rows[n][: m * n + 1]) + [0] * SUPPORT_MARGIN
            # C(N, i) is 0 past N
            rhs2 = [
                sum(
                    signed[j] * pascal[j][k + n]
                    for j in range(n + 1)
                    if k + n < len(pascal[j])
                )
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
    """Every check in report order: the exact identities, grids scaled to
    ``profile``, then ``trinomial.NUMERIC_CHECKS``, which no profile scales."""
    from .trinomial import NUMERIC_CHECKS  # trinomial imports this module

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
        *NUMERIC_CHECKS,
    ]


def run_identity(spec: IdentitySpec) -> IdentityReport:
    """Evaluate one identity over its whole grid, collecting all failures; a
    checker that raises adds one failure with the params of the last point
    it yielded ({} before the first) and the error."""
    start = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    last: Block | None = None
    try:
        for block in spec.checker(spec.grid):
            checked += len(block.lhs)
            if block.lhs:
                last = block
            # at tolerance 0 compare whole: keys, or lists, where a NaN equals itself
            if block.tolerance or block.lhs != block.rhs:
                failures.extend(block.mismatches())
    except Exception as exc:
        params = {} if last is None else last.point(len(last.lhs) - 1)
        failures.append({"params": params, "error": f"{type(exc).__name__}: {exc}"})
    elapsed = time.perf_counter() - start
    return IdentityReport(spec.id, _grid_text(spec.grid), checked, failures, elapsed)


def run_suite(profile: Profile | str = "desk") -> list[IdentityReport]:
    """The reports of ``build_registry(profile)``, what ``verify all`` prints."""
    return [run_identity(spec) for spec in build_registry(profile)]
