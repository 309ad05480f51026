"""Exact lattice-point enumeration inside ellipsoids of positive definite
rational quadratic forms (Fincke-Pohst recursion, integer form).

The rational LDL decomposition Q(x) = sum_i d_i (x_i + c_i)^2, with
c_i = sum_{j>i} l_ij x_j, runs once. The walk then scales every level to
integers: with den_i the least common denominator of row i of l and M the
lcm of every den(d_i) den_i^2, level i keeps the center numerator
cn_i = den_i c_i and the remainder R = floor(M (bound - sum of the levels
above)), and d_i (x_i + c_i)^2 becomes w_i (den_i x_i + cn_i)^2 with the
integer weight w_i = M d_i / den_i^2. Every term compared with or subtracted
from R is an integer, so flooring M bound once loses nothing, and every
range and remainder is plain int arithmetic with isqrt: exact, with no
floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

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


def _level_range(rem: int, w: int, den: int, cn: int) -> range:
    """The integers x with w (den x + cn)^2 <= rem (w, den > 0; rem >= 0).

    (den x + cn)^2 is an integer, so the condition is |den x + cn| <= s with
    s = isqrt(rem // w).
    """
    s = isqrt(rem // w)
    return range(-((s + cn) // den), (s - cn) // den + 1)


def enumerate_ellipsoid(gram: Sequence[Sequence[Fraction]], bound: Fraction,
                        budget: int = 1 << 20,
                        nodes: Optional[List[int]] = None) -> Iterator[Tuple[int, ...]]:
    """Yield every integer x with Q(x) <= bound (including 0 and both signs).

    Points come in walk order: x_{n-1} outermost, every coordinate ascending.
    Raises BudgetError when more than ``budget`` nodes (values tried at any
    level) would be visited. When the walk ends, however it ends, the number
    of nodes it visited (at most the budget) is added to ``nodes[0]``.
    """
    bound = Fraction(bound)
    if bound < 0:
        return
    d, low = ldl_decompose(gram)
    n = len(d)
    if n == 0:
        yield ()
        return
    dens = [lcm(*(low[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    rows = [[int(low[i][j] * dens[i]) for j in range(n)] for i in range(n)]
    scale = lcm(*(d[i].denominator * dens[i] ** 2 for i in range(n)))
    weights = [int(scale * d[i] / dens[i] ** 2) for i in range(n)]
    x = [0] * n
    visited = 0

    def rec(i: int, rem: int) -> Iterator[Tuple[int, ...]]:
        nonlocal visited
        row, den, w = rows[i], dens[i], weights[i]
        cn = sum(row[j] * x[j] for j in range(i + 1, n))
        for xi in _level_range(rem, w, den, cn):
            if visited >= budget:
                raise BudgetError(f"ellipsoid enumeration exceeded budget of {budget} nodes",
                                  bound_reached=bound)
            visited += 1
            x[i] = xi
            if i == 0:
                yield tuple(x)
            else:
                y = den * xi + cn
                yield from rec(i - 1, rem - w * y * y)

    try:
        yield from rec(n - 1, floor(scale * bound))
    finally:
        if nodes is not None:
            nodes[0] += visited
