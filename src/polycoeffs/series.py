"""Exact truncated power series and dense integer polynomials.

Coefficients are arbitrary-precision: plain ``int`` wherever the arithmetic
stays integral, ``fractions.Fraction`` otherwise.  Both interoperate freely,
and a value is integer-valued exactly when its denominator is 1.

Every integer power, of a series or of a polynomial, goes through ``power``:
J.C.P. Miller's recurrence, which for (1 + t + ... + t^m)^n is the paper's
horizontal recurrence T2-ix.  A quotient of two series is one pass of long
division, ``TruncatedSeries.__truediv__``, over the divisor's nonzero terms.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NonzeroInnerConstant, ZeroConstantTerm

Scalar = Union[int, Fraction]


def _last_nonzero(a: Sequence[Scalar]) -> int:
    """The index of the last nonzero entry of ``a``, or -1 if there is none."""
    return next((i for i in range(len(a) - 1, -1, -1) if a[i]), -1)


def power(a: Sequence[Scalar], e: int, length: int) -> list[Scalar]:
    """The first ``length`` coefficients of A(t)^e, for A(t) = sum a_i t^i.

    J.C.P. Miller's rule (Knuth, TAOCP vol. 2, section 4.7): B = A^e satisfies
    A B' = e A' B, which at t^(k-1) reads
    k a_0 b_k = sum_{i>=1} ((e+1) i - k) a_i b_{k-i}.
    It holds for every integer e, needs nothing but ``a``, and costs
    O(deg A) operations per coefficient, however far ``a`` is zero-padded;
    e = 0 and e = 1 cost nothing but the copy.
    A zero constant term is shifted out when e >= 0 and raises
    ``ZeroConstantTerm`` when e < 0.  Integer input gives integers when
    e >= 0 or a_0 = +-1 (every division is then exact), and ``Fraction``
    coefficients otherwise.
    """
    if e == 0:
        return [1] + [0] * (length - 1)
    if e == 1:
        return list(a[:length]) + [0] * (length - len(a))
    shift = next((i for i, c in enumerate(a) if c), None)
    if shift != 0:
        if e < 0:
            raise ZeroConstantTerm("a series with zero constant term has no negative powers")
        out: list[Scalar] = [0] * length
        if shift is not None and shift * e < length:
            out[shift * e:] = power(a[shift:], e, length - shift * e)
        return out
    a0 = a[0]
    exact = (e >= 0 or a0 in (1, -1)) and all(isinstance(c, int) for c in a)
    b: list[Scalar] = [a0 ** abs(e) if exact else Fraction(a0) ** e]
    top = _last_nonzero(a)
    for k in range(1, length):
        acc = 0
        for i in range(1, min(k, top) + 1):
            acc += ((e + 1) * i - k) * a[i] * b[k - i]
        b.append(acc // (k * a0) if exact else Fraction(acc, k * a0))
    return b


class TruncatedSeries:
    """A formal power series known exactly up to an inclusive truncation order.

    Instances are immutable and all operations are pure, so values can be
    shared between threads freely.  Arithmetic truncates to the minimum order
    of its operands and never silently extends precision: reading a
    coefficient beyond the truncation order raises ``IndexError``.
    ``TruncatedSeries(coeffs, order)`` embeds a polynomial, zero-padded or
    truncated to ``order``; without ``order`` it keeps every coefficient.
    """

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        self.coeffs: tuple[Scalar, ...] = tuple(cs[: order + 1])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
            )
        cs = list(self.coeffs)
        cs[0] = cs[0] + other
        return TruncatedSeries(cs)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product to the smaller order of the two factors.

        The sums stop at each factor's last nonzero term, ``ta`` and ``tb``:
        t^k sums a_i b_(k-i) over k - tb <= i <= ta only, and every
        coefficient past ta + tb is 0.  A product with a zero-padded
        polynomial of degree d so costs O(order * d) operations, not
        O(order^2).
        """
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        length = min(len(a), len(b))
        ta, tb = _last_nonzero(a), _last_nonzero(b)
        top = min(ta + tb, length - 1) if ta >= 0 and tb >= 0 else -1
        out = []
        for k in range(top + 1):
            acc = 0
            for i in range(max(0, k - tb), min(k, ta) + 1):
                acc += a[i] * b[k - i]
            out.append(acc)
        out.extend([0] * (length - 1 - top))
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The quotient to the smaller order of the two, by long division:
        q_k = (a_k - sum_{i>=1} d_i q_(k-i)) / d_0, the sum running over the
        divisor's nonzero terms only, so a polynomial divisor of degree d
        costs O(order * d) operations.  Integer operands give integers when
        d_0 = +-1 and ``Fraction`` coefficients otherwise; d_0 = 0 raises
        ``ZeroConstantTerm``.
        """
        a, d = self.coeffs, other.coeffs
        length = min(len(a), len(d))
        d0 = d[0]
        if not d0:
            raise ZeroConstantTerm("division by a series with zero constant term")
        exact = d0 in (1, -1) and all(isinstance(c, int) for c in a + d)
        support = [(i, d[i]) for i in range(1, length) if d[i]]
        q: list[Scalar] = []
        for k in range(length):
            acc = a[k]
            for i, di in support:
                if i > k:
                    break
                acc -= di * q[k - i]
            q.append(acc * d0 if exact else Fraction(acc, d0))
        return TruncatedSeries(q)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order, ``self ** -1``.

        When the constant term is +-1 every inverse coefficient stays in the
        same ring as the input (no denominators appear).
        """
        return TruncatedSeries(power(self.coeffs, -1, self.order + 1))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return TruncatedSeries(power(self.coeffs, exponent, self.order + 1))

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the order drops by one."""
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries(
            [i * self.coeffs[i] for i in range(1, self.order + 1)]
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (which must vanish at 0) into this series.

        Evaluated by Horner's rule over the series ring, truncated to the
        inner series' order.
        """
        if inner.coeffs[0] != 0:
            raise NonzeroInnerConstant(
                "composition needs an inner series with zero constant term"
            )
        result = TruncatedSeries([0], inner.order)
        for c in reversed(self.coeffs):
            result = result * inner + c
        return result


def solve_carlitz_y(m: int, b: int, order: int) -> TruncatedSeries:
    """The unique series y(x) with y(0) = 0 and y = x * p_m(y)^b.

    Lagrange inversion gives it in closed form: [x^k] y is
    [t^(k-1)] p_m(t)^(b k) / k, that is <b k, k-1>_m / k, each read by one
    ``coefficients.coeff`` call, a finite sum of at most k/(m+1) + 1 terms.
    The division is exact because y = x * p_m(y)^b has integer coefficients:
    p_m^b has constant term 1, so solving for y term by term never divides.
    """
    from .coefficients import _require_degree, coeff  # coefficients imports this module

    _require_degree(m)
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries([0] + [coeff(b * k, k - 1, m) // k for k in range(1, order + 1)])


class IntPolynomial:
    """Dense polynomial with exact integer coefficients.

    Trailing zero coefficients are trimmed, so the highest-index coefficient
    is nonzero unless the polynomial is zero (stored as the empty tuple,
    degree -1).
    """

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def padded(self, length: int) -> tuple[int, ...]:
        return self.coeffs + (0,) * (length - len(self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        return IntPolynomial(power(self.coeffs, exponent, self.degree * exponent + 1))

    def shifted(self, j: int) -> "IntPolynomial":
        """Multiply by x^j."""
        if not self.coeffs:
            return IntPolynomial()
        return IntPolynomial((0,) * j + self.coeffs)

    def reversal(self, length: int | None = None) -> "IntPolynomial":
        """x^(length-1) * p(1/x), the coefficient-reversed polynomial."""
        n = len(self.coeffs) if length is None else length
        if n < len(self.coeffs):
            raise ValueError("reversal length shorter than the polynomial")
        return IntPolynomial(reversed(self.padded(n)))

    def divexact(self, d: int) -> "IntPolynomial":
        """Divide every coefficient by ``d``; all divisions must be exact."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r:
                raise ValueError(f"coefficient {c} is not divisible by {d}")
            out.append(q)
        return IntPolynomial(out)

    def __call__(self, x: Scalar) -> Scalar:
        result: Scalar = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def to_series(self, order: int) -> TruncatedSeries:
        return TruncatedSeries(self.coeffs, order)
