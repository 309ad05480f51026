"""Exact lattice-point enumeration inside ellipsoids of positive definite
rational quadratic forms (Fincke-Pohst style recursion).

No floating point: the per-coordinate interval bounds floor(c + sqrt(q)) are
computed with integer square roots and certified by rational comparisons.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, List, Sequence, Tuple

from .errors import BudgetError
from .linalg import frac_rows


def ldl_decompose(gram: Sequence[Sequence[Fraction]]) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """Q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2 for a PD symmetric Gram."""
    g = frac_rows(gram)
    n = len(g)
    d = [Fraction(0)] * n
    low = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = g[i][i] - sum(d[k] * low[k][i] * low[k][i] for k in range(i))
        if di <= 0:
            raise ValueError("form is not positive definite")
        d[i] = di
        for j in range(i + 1, n):
            low[i][j] = (g[i][j] - sum(d[k] * low[k][i] * low[k][j] for k in range(i))) / di
    return d, low


def _floor_plus_sqrt(c: Fraction, q: Fraction) -> int:
    """Largest integer k with k <= c + sqrt(q); q >= 0."""
    base = isqrt(q.numerator * q.denominator) // q.denominator
    k = (c.numerator // c.denominator) + base + 2
    while True:
        t = k - c
        if t <= 0 or t * t <= q:
            return k
        k -= 1


def _ceil_minus_sqrt(c: Fraction, q: Fraction) -> int:
    return -_floor_plus_sqrt(-c, q)


def enumerate_ellipsoid(gram: Sequence[Sequence[Fraction]], bound: Fraction,
                        budget: int = 1 << 20) -> Iterator[Tuple[int, ...]]:
    """Yield every integer x with Q(x) <= bound (including 0 and both signs).

    Raises BudgetError when more than ``budget`` candidate points would be
    visited.
    """
    bound = Fraction(bound)
    if bound < 0:
        return
    d, low = ldl_decompose(gram)
    n = len(d)
    x = [0] * n
    visited = 0

    def rec(i: int, remaining: Fraction) -> Iterator[Tuple[int, ...]]:
        nonlocal visited
        if i < 0:
            yield tuple(x)
            return
        c = sum((low[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        q = remaining / d[i]
        lo = _ceil_minus_sqrt(-c, q)
        hi = _floor_plus_sqrt(-c, q)
        for xi in range(lo, hi + 1):
            visited += 1
            if visited > budget:
                raise BudgetError(
                    f"ellipsoid enumeration exceeded budget of {budget} points",
                    bound_reached=bound)
            x[i] = xi
            t = Fraction(xi) + c
            yield from rec(i - 1, remaining - d[i] * t * t)
        x[i] = 0

    yield from rec(n - 1, bound)
