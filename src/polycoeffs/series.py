"""Exact truncated power series and dense integer polynomials.

Coefficients are arbitrary-precision: plain ``int`` wherever the arithmetic
stays integral, ``fractions.Fraction`` otherwise, and a value is
integer-valued exactly when its denominator is 1.  Both types multiply by
one kernel, ``_convolve``, and take every integer power by ``power``:
J.C.P. Miller's recurrence, which for (1 + t + ... + t^m)^n is the paper's
horizontal recurrence T2-ix.  A series product keeps the smaller order of
its factors, a polynomial product the full degree, and a quotient of two
series is one pass of long division.  Operators take their own type or an
exact scalar (``int`` or ``Fraction`` for a series, ``int`` for a
polynomial), so mixing the two types raises ``TypeError``.  Coefficients are
read from ``.coeffs``; ``TruncatedSeries(p.coeffs, order)`` embeds a polynomial.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import starmap, zip_longest
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import NonzeroInnerConstant, ZeroConstantTerm

Scalar = Union[int, Fraction]


def _convolve(a: Sequence[Scalar], b: Sequence[Scalar], length: int) -> list[Scalar]:
    """The first ``length`` coefficients of (sum a_i t^i) (sum b_j t^j), in
    scatter form: each nonzero a_i adds a_i b_j into slot i + j for each
    nonzero b_j with i + j < length.  Zero terms and zero padding cost
    nothing, so a factor with d nonzero terms costs O(length * d), not
    O(length^2)."""
    out: list[Scalar] = [0] * length
    terms = [(j, bj) for j, bj in enumerate(b[:length]) if bj]
    for i, ai in enumerate(a[:length]):
        if ai:
            stop = length - i
            for j, bj in terms:
                if j >= stop:
                    break
                out[i + j] += ai * bj
    return out


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
        return [int(k == 0) for k in range(length)]
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
    if length < 1:
        return []
    a0 = a[0]
    exact = (e >= 0 or a0 in (1, -1)) and all(isinstance(c, int) for c in a)
    b: list[Scalar] = [a0 ** abs(e) if exact else Fraction(a0) ** e]
    top = len(a) - 1  # the last nonzero a_i
    while not a[top]:
        top -= 1
    for k in range(1, length):
        acc = 0
        for i in range(1, min(k, top) + 1):
            acc += ((e + 1) * i - k) * a[i] * b[k - i]
        b.append(acc // (k * a0) if exact else Fraction(acc, k * a0))
    return b


class _Dense:
    """The two types' shared part: an immutable tuple ``coeffs``, lowest power
    first.  Each type's ``_operand`` makes an operand its own type, or None
    for one it does not take, and ``_pairs`` lines two tuples up by power."""

    coeffs: tuple

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def _combine(self, other, op):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return type(self)(starmap(op, self._pairs(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self)._combine(other, add)


class TruncatedSeries(_Dense):
    """A formal power series known exactly up to an inclusive truncation order.

    Instances are immutable and all operations are pure, so values can be
    shared between threads freely.  Arithmetic truncates to the minimum order
    of its operands and never silently extends precision: reading a
    coefficient beyond the truncation order raises ``IndexError``.
    ``TruncatedSeries(coeffs, order)`` embeds a polynomial, zero-padded or
    truncated to ``order``; without ``order`` it keeps every coefficient.
    A scalar operand is the constant series of the other operand's order.
    """

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        self.coeffs: tuple[Scalar, ...] = tuple(cs[: order + 1]) + (0,) * (order + 1 - len(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    def _operand(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([other], self.order)
        return other if isinstance(other, TruncatedSeries) else None

    _pairs = staticmethod(zip)  # to the smaller order

    def __mul__(self, other):
        """The product to the smaller order of the two factors."""
        if (other := self._operand(other)) is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(_convolve(a, b, min(len(a), len(b))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient to the smaller order of the two, by long division:
        q_k = (a_k - sum_{i>=1} d_i q_(k-i)) / d_0, the sum running over the
        divisor's nonzero terms only, so a polynomial divisor of degree d
        costs O(order * d) operations.  Integer operands give integers when
        d_0 = +-1 and ``Fraction`` coefficients otherwise; d_0 = 0 raises
        ``ZeroConstantTerm``.
        """
        if (other := self._operand(other)) is None:
            return NotImplemented
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
        """``self ** -1`` to the truncation order; a constant term of +-1
        keeps every coefficient in the input's ring."""
        return TruncatedSeries(power(self.coeffs, -1, self.order + 1))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return TruncatedSeries(power(self.coeffs, exponent, self.order + 1))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner``, which must vanish at 0, into this series by
        Horner's rule, to the inner series' order."""
        if inner.coeffs[0] != 0:
            raise NonzeroInnerConstant("composition needs an inner series with zero constant term")
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


class IntPolynomial(_Dense):
    """Dense polynomial with exact integer coefficients.

    Trailing zero coefficients are trimmed, so the highest-index coefficient
    is nonzero unless the polynomial is zero (stored as the empty tuple,
    degree -1).  An ``int`` operand is the constant polynomial.
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

    def _operand(self, other):
        if isinstance(other, int):
            return IntPolynomial([other])
        return other if isinstance(other, IntPolynomial) else None

    _pairs = staticmethod(partial(zip_longest, fillvalue=0))  # padded to the longer

    def __mul__(self, other):
        """The full product, by ``_convolve``."""
        if (other := self._operand(other)) is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return IntPolynomial(_convolve(a, b, max(len(a) + len(b) - 1, 0)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        return IntPolynomial(power(self.coeffs, exponent, self.degree * exponent + 1))

    def shifted(self, j: int) -> "IntPolynomial":
        """Multiply by x^j, for j >= 0."""
        if j < 0:
            raise ValueError("a polynomial shift must be non-negative")
        return IntPolynomial((0,) * j + self.coeffs)

    def reversal(self, length: int) -> "IntPolynomial":
        """x^(length-1) * p(1/x), the coefficient-reversed polynomial."""
        if length < len(self.coeffs):
            raise ValueError("reversal length shorter than the polynomial")
        return IntPolynomial((0,) * (length - len(self.coeffs)) + self.coeffs[::-1])

    def __call__(self, x: Scalar) -> Scalar:
        result: Scalar = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result
