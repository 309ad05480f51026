"""Reference arithmetic for the benchmark's output checks.

Everything here is written apart from stabkit and shares none of its code:
plain-integer Mukai pairings, the wall conic from its closed form, the K3
central charge, a small exact linear solver and the HN polygon of a chain.
The checks in ``checks.py`` compare the CLI's JSON against these.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

IntVec = Tuple[int, ...]


def mukai_gram(gram: Sequence[Sequence[int]]) -> List[List[int]]:
    """Gram of (r, c, s).(r', c', s') = c.c' - r s' - r' s."""
    rho = len(gram)
    n = rho + 2
    m = [[0] * n for _ in range(n)]
    for i in range(rho):
        for j in range(rho):
            m[1 + i][1 + j] = int(gram[i][j])
    m[0][n - 1] = m[n - 1][0] = -1
    return m


def pair(m: Sequence[Sequence], x: Sequence, y: Sequence):
    return sum(x[i] * m[i][j] * y[j]
               for i in range(len(x)) for j in range(len(y)) if m[i][j])


def ns_dot(gram, u, w):
    return sum(u[i] * gram[i][j] * w[j]
               for i in range(len(u)) for j in range(len(w)))


def gcd_all(xs: Sequence[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(int(x)))
    return g


def is_primitive(x: Sequence[int]) -> bool:
    return gcd_all(x) == 1


def canonical_ray(x: Sequence[int]) -> IntVec:
    lead = next((a for a in x if a != 0), 0)
    return tuple(-a for a in x) if lead < 0 else tuple(x)


def minors_gcd(x: Sequence[int], y: Sequence[int]) -> int:
    """gcd of the 2x2 minors of [x; y]: 1 iff x, y span a saturated lattice."""
    n = len(x)
    return gcd_all([x[i] * y[j] - x[j] * y[i] for i in range(n) for j in range(i + 1, n)])


def proportional(x: Sequence[int], y: Sequence[int]) -> bool:
    n = len(x)
    return all(x[i] * y[j] == x[j] * y[i]
               for i in range(n) for j in range(i + 1, n))


# -- K3 central charge ----------------------------------------------------------


def k3_charge_row(gram, beta, omega) -> List[Tuple[Fraction, Fraction]]:
    """Z on the basis (r, c_1..c_rho, s):
    Z(r, c, s) = (beta.c - s - r (beta^2 - omega^2) / 2) + i (omega.c - r beta.omega)."""
    rho = len(gram)
    b2 = ns_dot(gram, beta, beta)
    w2 = ns_dot(gram, omega, omega)
    bw = ns_dot(gram, beta, omega)
    row = [(-(b2 - w2) / 2, -bw)]
    for k in range(rho):
        e = [0] * rho
        e[k] = 1
        row.append((Fraction(ns_dot(gram, beta, e)), Fraction(ns_dot(gram, omega, e))))
    row.append((Fraction(-1), Fraction(0)))
    return row


def charge(row, x) -> Tuple[Fraction, Fraction]:
    return (sum((z[0] * a for z, a in zip(row, x)), Fraction(0)),
            sum((z[1] * a for z, a in zip(row, x)), Fraction(0)))


# -- wall conics ------------------------------------------------------------------


class Slice:
    """beta = beta0 + b H, omega = t H, scaled to integers: q is the common
    denominator of beta0 and B = q beta0."""

    def __init__(self, gram, ample, beta0):
        self.gram = [[int(x) for x in row] for row in gram]
        self.h = [int(x) for x in ample]
        b0 = [Fraction(x) for x in beta0]
        q = 1
        for x in b0:
            q = q * x.denominator // gcd(q, x.denominator)
        self.q = q
        self.big_b = [int(x * q) for x in b0]
        self.d = ns_dot(self.gram, self.h, self.h)
        self.u = ns_dot(self.gram, self.big_b, self.h)
        self.b2 = ns_dot(self.gram, self.big_b, self.big_b)

    def profile(self, x: Sequence[int]):
        """(alpha0, alpha1, alpha2, alpha3, gamma0, gamma1) with
        2 q^2 Re Z = alpha0 + alpha1 b + alpha2 b^2 + alpha3 t^2 and
        q Im Z / t = gamma0 + gamma1 b."""
        r, c, s = x[0], x[1:-1], x[-1]
        q = self.q
        e = ns_dot(self.gram, self.h, c)
        m = ns_dot(self.gram, self.big_b, c)
        return (2 * q * m - 2 * q * q * s - r * self.b2,
                2 * q * q * e - 2 * q * r * self.u,
                -r * q * q * self.d,
                r * q * q * self.d,
                q * e - r * self.u,
                -r * q * self.d)

    def conic(self, v, w) -> Tuple[int, int, int, int]:
        """Integer multiple (by 2 q^3 > 0) of the alignment conic
        Im(Z(w) conj Z(v)) / t = A (b^2 + t^2) + B b + D, as (A, B, 0, D)."""
        a0v, a1v, a2v, a3v, g0v, g1v = self.profile(v)
        a0w, a1w, a2w, a3w, g0w, g1w = self.profile(w)
        a_t = g0w * a3v - a3w * g0v
        a_b = g0w * a2v + g1w * a1v - a2w * g0v - a1w * g1v
        if a_t != a_b:
            raise ValueError("alignment locus is not a circle")
        b_coef = g0w * a1v + g1w * a0v - a1w * g0v - a0w * g1v
        d_coef = g0w * a0v - a0w * g0v
        return (a_t, b_coef, 0, d_coef)


def conic_key(conic: Sequence[int]) -> Tuple[int, ...]:
    g = gcd_all(conic)
    ints = [x // g for x in conic] if g else list(conic)
    return canonical_ray(ints)


def conic_shape(conic):
    """('SEMICIRCLE', center, radius_sq), ('VERTICAL_LINE', center, None),
    ('EMPTY', ..) or ('DEGENERATE', ..) for A (b^2 + t^2) + B b + D = 0, t > 0."""
    a, b, _, d = (Fraction(x) for x in conic)
    if a == 0:
        if b == 0:
            return ("DEGENERATE" if d == 0 else "EMPTY", None, None)
        return ("VERTICAL_LINE", -d / b, None)
    center = -b / (2 * a)
    rad = center * center - d / a
    if rad <= 0:
        return ("EMPTY", None, None)
    return ("SEMICIRCLE", center, rad)


def meets_region(shape, b_min, b_max, t_min, t_max) -> bool:
    kind, c, rad = shape
    if kind == "VERTICAL_LINE":
        return b_min <= c <= b_max
    if kind != "SEMICIRCLE":
        return False
    # t^2 = rad - (b - c)^2 is continuous in b; compare its range on the
    # b-interval with [t_min^2, t_max^2]
    ends = [rad - (b_min - c) ** 2, rad - (b_max - c) ** 2]
    top = rad if b_min <= c <= b_max else max(ends)
    return top >= t_min * t_min and min(ends) <= t_max * t_max


def destabilizing_filter(mg, v, vv, w) -> bool:
    """w and v - w of square >= -2, w not proportional to v, span hyperbolic."""
    if not any(w) or proportional(v, w):
        return False
    ww = pair(mg, w, w)
    if ww < -2:
        return False
    rest = [a - b for a, b in zip(v, w)]
    if pair(mg, rest, rest) < -2:
        return False
    vw = pair(mg, v, w)
    return vw * vw > vv * ww


def reference_walls(gram, ample, beta0, v, bound, region) -> Dict[Tuple[int, ...], IntVec]:
    """Distinct wall conics meeting the region over the box |w_i| <= bound,
    keyed by the normalized conic, each with its smallest w."""
    sl = Slice(gram, ample, beta0)
    mg = mukai_gram(gram)
    vv = pair(mg, v, v)
    out: Dict[Tuple[int, ...], IntVec] = {}
    for w in itertools.product(range(-bound, bound + 1), repeat=len(v)):
        if not destabilizing_filter(mg, v, vv, w):
            continue
        conic = sl.conic(v, w)
        shape = conic_shape(conic)
        if not meets_region(shape, *region):
            continue
        key = conic_key(conic)
        if key not in out or w < out[key]:
            out[key] = w
    return out


# -- exact linear algebra -----------------------------------------------------------


def solve(a: Sequence[Sequence], rhs: Sequence) -> List[Fraction]:
    """Unique solution of a square system by Gauss-Jordan elimination."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def inverse_int(u: Sequence[Sequence[int]]) -> List[List[int]]:
    n = len(u)
    cols = [solve(u, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


# -- HN polygon of a chain ----------------------------------------------------------


def hn_chain(phases: Dict[Tuple[int, int], object], lo: int, hi: int,
             equal) -> List[int]:
    """Break points of the HN filtration of the interval object [lo, hi) of a
    chain: from each break point take the furthest end of maximal phase.
    ``phases[(i, j)]`` is the phase of [i, j); ``equal`` decides ties."""
    steps = [lo]
    cur = lo
    while cur != hi:
        best = cur + 1
        for j in range(cur + 2, hi + 1):
            if equal(phases[(cur, j)], phases[(cur, best)]) or \
                    phases[(cur, j)] > phases[(cur, best)]:
                best = j
        steps.append(best)
        cur = best
    return steps
