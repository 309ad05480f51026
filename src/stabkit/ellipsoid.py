"""Exact lattice-point enumeration inside ellipsoids of positive definite
rational quadratic forms (the Fincke-Pohst walk, integer form).

The LDL decomposition Q(x) = sum_i d_i (x_i + c_i)^2, with
c_i = sum_{j>i} l_ij x_j, runs once, fraction-free on the integer Gram
(``linalg.int_ldl``). The walk then scales every level to integers: with
den_i the least common denominator of row i of l and M the lcm of the
denominators of every d_i / den_i^2, level i keeps the center numerator
cn_i = den_i c_i and the remainder R = floor(M (bound - sum of the levels
above)), and d_i (x_i + c_i)^2 becomes w_i (den_i x_i + cn_i)^2 with the
integer weight w_i = M d_i / den_i^2. Every term compared with or subtracted
from R is an integer, so flooring M bound once loses nothing, and every
range and remainder is plain int arithmetic with isqrt: exact, with no
floating point.

The walk's cost depends on the basis: a skewed basis stretches the boxes
of the levels far past the ellipsoid. ``lll_reduce`` is the exact integral
LLL reduction of a Gram (Lenstra-Lenstra-Lovasz, Math. Ann. 261, 1982;
Cohen's Algorithm 2.6.7) on the same fraction-free elimination: a caller
walks the reduced Gram h G h^T and maps a point y back to x = y h.
``enumerate_ellipsoid`` itself walks the basis it is given.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetError, effective_budget
from .linalg import clear_denominators, int_ldl, int_restrict


def _pd_ldl(rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """The pivots (leading minors) and upper rows of ``int_ldl`` of a Gram
    that must be positive definite."""
    p, a, zero = int_ldl(rows)
    if zero or (p and min(p) <= 0):
        raise ValueError("form is not positive definite")
    return p, a


def _size_reduce(h: List[List[int]], lam: List[List[int]], dl: int, k: int, l: int) -> None:
    """Cohen's REDI(k, l): subtract from vector k the multiple of vector l < k
    (with leading minor dl of order l + 1) that brings |mu_kl| to <= 1/2."""
    if 2 * abs(lam[k][l]) > dl:
        q = (2 * lam[k][l] + dl) // (2 * dl)  # the nearest integer to mu_kl
        h[k] = [x - q * y for x, y in zip(h[k], h[l])]
        lam[k][l] -= q * dl
        row = lam[l]
        for i in range(l):
            lam[k][i] -= q * row[i]


def lll_reduce(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """(h, h G h^T) for a PD integer Gram G: h is unimodular and the rows of h,
    as a new basis, are LLL-reduced for delta = 3/4 (integral LLL, Cohen,
    *A Course in Computational Algebraic Number Theory*, Algorithm 2.6.7).

    Reduced means |mu_kj| <= 1/2 for j < k (size reduction) and
    B_k >= (3/4 - mu_k,k-1^2) B_{k-1} (the Lovasz condition), with mu and
    B_k = |b*_k|^2 the Gram-Schmidt data of the rows of h. The state is
    Cohen's: the leading minors d_k = B_1 ... B_k and lambda_kj = d_j mu_kj,
    all integers. ``int_ldl`` of G gives them at once (lambda_kj is its
    a_jk), so every vector's Gram-Schmidt data is known from the start, and
    only size reductions (REDI) and swaps (SWAPI) update it, each by exact
    integer divisions. A point y of the reduced form is the point x = y h
    of G. Raises ValueError when G is not positive definite."""
    p, a = _pd_ldl(rows)
    n = len(p)
    d = [1] + p  # d[k + 1] is the leading minor of order k + 1
    lam = [[a[j][k] for j in range(k)] for k in range(n)]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        _size_reduce(h, lam, d[k], k, k - 1)
        mu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * mu * mu:
            # the Lovasz condition fails: swap vectors k - 1 and k (SWAPI)
            h[k - 1], h[k] = h[k], h[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for row in lam[k + 1:]:
                t = row[k]
                row[k] = (d[k + 1] * row[k - 1] - mu * t) // d[k]
                row[k - 1] = (b * t + mu * row[k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                _size_reduce(h, lam, d[l + 1], k, l)
            k += 1
    return h, int_restrict(rows, h)


def _level_range(rem: int, w: int, den: int, cn: int) -> range:
    """The integers x with w (den x + cn)^2 <= rem (w, den > 0; rem >= 0).

    (den x + cn)^2 is an integer, so the condition is |den x + cn| <= s with
    s = isqrt(rem // w).
    """
    s = isqrt(rem // w)
    return range(-((s + cn) // den), (s - cn) // den + 1)


def _clip(level: Tuple[int, ...], cap: int, den: int, w: int) -> Tuple[int, ...]:
    """An open level of the walk once the cap drops to ``cap``: the rest of
    its range keeps the values whose term fits the new remainder."""
    nxt, stop, cn, used, part = level
    left = cap - used
    if left < 0:
        return (nxt, nxt, cn, used, part)
    rest = _level_range(left, w, den, cn)
    return (max(nxt, rest.start), min(stop, rest.stop), cn, used, part)


def _exhausted(budget: int, bound: Fraction) -> BudgetError:
    return BudgetError(f"ellipsoid enumeration exceeded budget of {budget} nodes",
                       bound_reached=bound)


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

    The walk is one loop, with no recursion and no closure. Each open level
    keeps its next value, the end of its range, its center numerator, the
    integer sum of the terms of the levels above (its remainder is the cap
    less that sum) and the part of the next level's center numerator that
    the levels above fix. Trying a value computes the range of the level
    below; a value whose range below is empty is one node, and the walk does
    not enter that level. The recursive walk would enter it and try nothing,
    so the nodes, the points and their order are the recursive walk's.

    ``limit`` is a one-item list owned by the caller, who may lower
    ``limit[0]`` between two points to shrink the ellipsoid while the walk
    runs (the Fincke-Pohst radius update); the walk's bound is always
    min(bound, limit[0]), so raising it has no effect. The walk reads the
    cell after every point. When the bound drops from B to B', the integer
    remainder of every open level drops by floor(M B) - floor(M B'), exactly,
    since every term subtracted from it is an integer; each open level then
    clips the rest of its range to the new remainder at once (a level range
    only shrinks with its remainder, so clipping at once or when the level
    resumes leaves the same values). Every point still to come with
    Q(x) <= B' is yielded, and none above it. A walk whose bound is never
    lowered is node for node the walk without ``limit``.
    """
    bound = Fraction(bound)
    budget = effective_budget(budget)
    if limit is not None:
        bound = min(bound, limit[0])
    if bound < 0:
        return
    gram_rows, den = clear_denominators(gram)
    piv, upper = _pd_ldl(gram_rows)
    n = len(piv)
    if n == 0:
        yield ()
        return
    # in lowest terms, l_ij = upper_ij / piv_i = rows_ij / dens_i with
    # dens_i = piv_i / g_i, and d_i / dens_i^2 = g_i^2 / (piv_{i-1} piv_i den)
    gs = [gcd(p, *row[i + 1:]) for i, (p, row) in enumerate(zip(piv, upper))]
    dens = [p // g for p, g in zip(piv, gs)]
    rows = [[x // g if j > i else 0 for j, x in enumerate(row)]
            for i, (row, g) in enumerate(zip(upper, gs))]
    ratios = [Fraction(g * g, prev * p * den) for g, p, prev in zip(gs, piv, [1] + piv)]
    scale = lcm(*(r.denominator for r in ratios))
    weights = [scale // r.denominator * r.numerator for r in ratios]
    cap = floor(scale * bound)  # floor(M B) for the current bound B
    seen = limit[0] if limit is not None else None
    # level i > 0 hands level i - 1 the center numerator part + coef x_i,
    # where part is the sum of tails[i] times the values above level i; per
    # level: its den and w, coef, and the den and w of level i - 1
    levels = [None] + [(dens[i], weights[i], rows[i - 1][i], dens[i - 1], weights[i - 1])
                       for i in range(1, n)]
    tails = [()] + [rows[i - 1][i + 1:] for i in range(1, n)]
    # the open levels: (next value, range stop, center numerator, the integer
    # sum of the terms of the levels above, part); the remainder of a level
    # is cap - that sum
    top = _level_range(cap, weights[-1], dens[-1], 0)
    state = [(0, 0, 0, 0, 0)] * (n - 1) + [(top.start, top.stop, 0, 0, 0)]
    x = [0] * n
    visited = 0
    i = n - 1
    try:
        while i < n:
            xi, stop, cn, u, part = state[i]
            if i == 0:
                while xi < stop:
                    if visited >= budget:
                        raise _exhausted(budget, bound)
                    visited += 1
                    x[0] = xi
                    yield tuple(x)
                    xi += 1
                    if limit is not None and limit[0] is not seen:
                        seen = limit[0]
                        lowered = floor(scale * seen)
                        if lowered < cap:  # the caller lowered the bound: clip every level
                            cap = lowered
                            state[0] = (xi, stop, cn, u, part)
                            state = [_clip(level, cap, dens[k], weights[k])
                                     for k, level in enumerate(state)]
                            break
                else:
                    i = 1
                continue
            den, w, coef, denc, wc = levels[i]
            rem = cap - u
            # each value xi costs one node and the range [lo, hi) of level
            # i - 1 (``_level_range``, inlined)
            while xi < stop:
                if visited >= budget:
                    raise _exhausted(budget, bound)
                visited += 1
                y = den * xi + cn
                s = isqrt((rem - w * y * y) // wc)
                cnc = part + coef * xi
                lo = -((s + cnc) // denc)
                hi = (s - cnc) // denc + 1
                if lo < hi:
                    break
                xi += 1
            else:
                i += 1
                continue
            # descend into level i - 1, which tries lo, ..., hi - 1
            x[i] = xi
            state[i] = (xi + 1, stop, cn, u, part)
            i -= 1
            state[i] = (lo, hi, cnc, u + w * y * y,
                        sum(map(mul, tails[i], x[i + 1:])) if i else 0)
    finally:
        if nodes is not None:
            nodes[0] += visited
