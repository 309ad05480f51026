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

from .errors import BudgetError, effective_budget
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
                        budget: Optional[int] = None,
                        nodes: Optional[List[int]] = None,
                        limit: Optional[List[Fraction]] = None) -> Iterator[Tuple[int, ...]]:
    """Yield every integer x with Q(x) <= bound (including 0 and both signs).

    Points come in walk order: x_{n-1} outermost, every coordinate ascending.
    Raises BudgetError when more than ``budget`` nodes (values tried at any
    level; ``errors.effective_budget()`` when None) would be visited. When
    the walk ends, however it ends, the number of nodes it visited (at most
    the budget) is added to ``nodes[0]``.

    ``limit`` is a one-item list owned by the caller, who may lower
    ``limit[0]`` between two points to shrink the ellipsoid while the walk
    runs (the Fincke-Pohst radius update); the walk's bound is always
    min(bound, limit[0]), so raising it has no effect. The walk reads the
    cell after every point. When the bound drops from B to B', the integer
    remainder of every open level drops by floor(M B) - floor(M B'), exactly,
    since every term subtracted from it is an integer; each open level then
    clips the rest of its range at its next step. Every point still to come
    with Q(x) <= B' is yielded, and none above it. A walk whose bound is
    never lowered is node for node the walk without ``limit``.
    """
    bound = Fraction(bound)
    budget = effective_budget(budget)
    if limit is not None:
        bound = min(bound, limit[0])
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
    cap = floor(scale * bound)  # floor(M B) for the current bound B
    seen = limit[0] if limit is not None else None

    def rec(i: int, used: int) -> Iterator[Tuple[int, ...]]:
        # ``used`` is the integer sum of the terms of the levels above, so
        # the remainder of this level is cap - used
        nonlocal visited, cap, seen
        row, den, w = rows[i], dens[i], weights[i]
        cn = sum(row[j] * x[j] for j in range(i + 1, n))
        level = _level_range(cap - used, w, den, cn)
        while level:
            top = cap
            for xi in level:
                if visited >= budget:
                    raise BudgetError(f"ellipsoid enumeration exceeded budget of {budget} nodes",
                                      bound_reached=bound)
                visited += 1
                x[i] = xi
                if i == 0:
                    yield tuple(x)
                    if limit is not None and limit[0] is not seen:
                        seen = limit[0]
                        cap = min(cap, floor(scale * seen))
                else:
                    y = den * xi + cn
                    yield from rec(i - 1, used + w * y * y)
                if cap != top:  # the caller lowered the bound: clip the rest
                    left = cap - used
                    if left < 0:
                        return
                    rest = _level_range(left, w, den, cn)
                    level = range(max(xi + 1, rest.start), min(level.stop, rest.stop))
                    break
            else:
                return

    try:
        yield from rec(n - 1, 0)
    finally:
        rec = None  # rec refers to itself through its closure: break the cycle
        if nodes is not None:
            nodes[0] += visited
