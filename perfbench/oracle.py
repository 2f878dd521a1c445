"""Independent reference values for the benchmark's output checks.

Uses the closed form

    <n,k>_m = sum_j (-1)^j C(n,j) C(n+k-j(m+1)-1, k-j(m+1)),

read off (1 + t + ... + t^m)^n = (1 - t^(m+1))^n (1 - t)^(-n).  Binomials come
from ``math.comb`` with upper negation; nothing here imports the package, so
a defect in its coefficient code cannot hide in the reference.
"""
from __future__ import annotations

import math


def binom(a: int, b: int) -> int:
    """C(a, b) for any integer a, with C(-a, b) = (-1)^b C(a+b-1, b)."""
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    value = math.comb(b - a - 1, b)
    return -value if b & 1 else value


def coeff(n: int, k: int, m: int) -> int:
    """[t^k] (1 + t + ... + t^m)^n for any integer n; 0 for k < 0."""
    step = m + 1
    return sum(
        (-1 if j & 1 else 1) * binom(n, j) * binom(n + k - j * step - 1, k - j * step)
        for j in range(k // step + 1)
    )


def row(n: int, m: int, limit: int) -> list[int]:
    """[t^0] .. [t^limit] of (1 + t + ... + t^m)^n, by the same closed form
    with both factors' coefficients built incrementally."""
    step = m + 1
    # [t^i] (1 - t)^(-n) = C(n+i-1, i), by the ratio (n+i-1)/i
    tail = [1]
    for i in range(1, limit + 1):
        tail.append(tail[-1] * (n + i - 1) // i)
    # [t^(j(m+1))] (1 - t^(m+1))^n = (-1)^j C(n, j), by the ratio -(n-j+1)/j
    heads = [1]
    for j in range(1, limit // step + 1):
        heads.append(-heads[-1] * (n - j + 1) // j)
    out = []
    for k in range(limit + 1):
        out.append(sum(heads[j] * tail[k - j * step] for j in range(k // step + 1)))
    return out
