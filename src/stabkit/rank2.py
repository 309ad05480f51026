"""Saturated rank-2 sublattices and binary quadratic form searches.

A wall attaches a rank-2 lattice spanned by the fixed class v and a
destabilizing class w; its saturation, roots (square -2) and isotropic rays
drive the wall classification hints.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateError, LatticeError, require_budget
from .gaussian import as_int
from .lattice import MukaiVector, NSLattice, mukai_pairing
from .linalg import minors2_gcd, primitive_vector

Pair = Tuple[int, int]
Gram2 = Tuple[Tuple[int, int], Tuple[int, int]]


class _Rank2Lattice(NamedTuple):
    basis: Tuple[MukaiVector, MukaiVector]
    gram2: Gram2


class Rank2Lattice(_Rank2Lattice):
    """Primitive basis of a saturated rank-2 sublattice with its Gram matrix.

    Use :func:`saturate_rank2` to build one with the invariants guaranteed.
    Direct construction checks only that ``gram2`` is a symmetric 2x2 integer
    matrix (a non-integral entry raises ValueError); the binary-form
    searches build one with an empty basis from a raw form.
    """

    __slots__ = ()
    def __new__(cls, basis: Sequence[MukaiVector], gram2: Gram2) -> "Rank2Lattice":
        g = tuple(tuple(map(as_int, row)) for row in gram2)
        if len(g) != 2 or any(len(r) != 2 for r in g) or g[0][1] != g[1][0]:
            raise LatticeError("gram2 must be a symmetric 2x2 integer matrix")
        return tuple.__new__(cls, (tuple(basis), g))

    def det(self) -> int:
        return self.gram2[0][0] * self.gram2[1][1] - self.gram2[0][1] ** 2

    def pairing(self, a: Pair, b: Pair) -> int:
        g = self.gram2
        return (a[0] * (g[0][0] * b[0] + g[0][1] * b[1])
                + a[1] * (g[1][0] * b[0] + g[1][1] * b[1]))

    def square(self, a: Pair) -> int:
        return self.pairing(a, a)

    def to_ambient(self, coords: Pair) -> MukaiVector:
        b1, b2 = self.basis
        return b1.scale(coords[0]) + b2.scale(coords[1])

    def coords_of(self, v: MukaiVector) -> Pair:
        """Integral coordinates of v in the basis; error if v is outside."""
        r1, r2, rv = self.basis[0].coords(), self.basis[1].coords(), v.coords()
        n = len(r1)
        # pick two coordinate positions where the basis matrix is invertible
        for i in range(n):
            for j in range(i + 1, n):
                det = r1[i] * r2[j] - r1[j] * r2[i]
                if det != 0:
                    x = Fraction(rv[i] * r2[j] - rv[j] * r2[i], det)
                    y = Fraction(r1[i] * rv[j] - r1[j] * rv[i], det)
                    if x.denominator != 1 or y.denominator != 1:
                        raise LatticeError(f"{v} is not integral in the rank-2 basis")
                    if self.to_ambient((int(x), int(y))) != v:
                        raise LatticeError(f"{v} does not lie in the rank-2 lattice")
                    return (int(x), int(y))
        raise LatticeError("degenerate rank-2 basis")


def saturate_rank2(v: MukaiVector, w: MukaiVector, lat: NSLattice) -> Rank2Lattice:
    """Saturation of span(v, w) in the extended lattice.

    Basis choice is deterministic: if (v, w) already generate a saturated
    sublattice (gcd of the 2x2 coordinate minors is 1) they are kept in the
    given order; otherwise the canonical Hermite-normal-form basis of the
    saturation is returned.

    The saturation is built in closed form. A 2 x n integer matrix spans a
    saturated lattice iff the gcd of its 2x2 minors is 1. Let v1 be the
    primitive vector of v, so v = +-g v1 with g = gcd(v), c a Bezout row
    with c . v1 = 1, m1 the minors gcd of (v1, w), and
    u = (w - (c . w) v1) / m1. The division is exact: since c . v1 = 1,
    w_i - (c . w) v1_i = sum_j c_j (w_i v1_j - w_j v1_i), a combination of
    minors. Minors are bilinear and those of (v1, v1) vanish, so the minors
    of (v1, u) are those of (v1, w) divided by m1; their gcd is 1 and
    (v1, u) is saturated. It contains v = +-g v1 and
    w = (c . w) v1 + m1 u and lies in the rational span of (v, w), so it is
    the saturation. The row HNF of a lattice is unique, and for two rows it
    is one extended gcd on the first nonzero column, a positive second
    pivot, and row 1 reduced into [0, p) at that pivot p.
    """
    v_c, w_c = v.coords(), w.coords()
    m = minors2_gcd(v_c, w_c)
    if m == 0:
        raise DegenerateError("v and w are proportional; no rank-2 lattice")
    if m == 1:
        basis = (v, w)
    else:
        basis = tuple(map(MukaiVector.from_coords, _saturated_hnf(v_c, w_c)))
    g01 = mukai_pairing(basis[0], basis[1], lat)
    gram2 = ((mukai_pairing(basis[0], basis[0], lat), g01),
             (g01, mukai_pairing(basis[1], basis[1], lat)))
    return Rank2Lattice(basis, gram2)


def is_hyperbolic(h: Rank2Lattice) -> bool:
    """Signature (1,1), i.e. det(gram2) < 0."""
    return h.det() < 0


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _saturated_hnf(v: Sequence[int], w: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Row HNF of the saturation of span(v, w) for non-proportional integer
    v and w; ``saturate_rank2`` gives the construction and its proof."""
    v1 = primitive_vector(v)
    d, c = 0, []
    for x in v1:  # Bezout row: c . v1 = gcd(v1) = 1
        d, s, t = _ext_gcd(d, x)
        c = [s * ci for ci in c] + [t]
    m1, cw = minors2_gcd(v1, w), sum(map(mul, c, w))
    u = [(wi - cw * vi) // m1 for wi, vi in zip(w, v1)]
    k = next(i for i, (a, b) in enumerate(zip(v1, u)) if a or b)
    p, x, y = _ext_gcd(v1[k], u[k])
    a, b = v1[k] // p, u[k] // p
    r0 = [x * s + y * t for s, t in zip(v1, u)]
    r1 = [a * t - b * s for s, t in zip(v1, u)]
    j = next(i for i, e in enumerate(r1) if e)
    if r1[j] < 0:
        r1 = [-e for e in r1]
    q = r0[j] // r1[j]
    return [s - q * t for s, t in zip(r0, r1)], r1


def _perfect_square(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def roots_of_binary_form(gram2: Sequence[Sequence[int]], v_coords: Pair,
                         pairing_bound: int) -> List[Pair]:
    """All (x, y) with Q(x, y) = -2 and |((x,y), v)| <= pairing_bound.

    Solved exactly: for each admissible pairing value the linear condition cuts
    the conic Q = -2 in at most two integral points. Hyperbolic forms have
    infinitely many roots overall, which is why the bound is mandatory. Only
    the 2 (pairing_bound // g) + 1 multiples of the pairing gcd g are tried,
    and ``errors.require_budget`` counts them before any is.
    """
    if pairing_bound < 0:
        raise ValueError("pairing_bound must be nonnegative")
    h = Rank2Lattice((), gram2)
    l1, l2 = h.pairing((1, 0), v_coords), h.pairing((0, 1), v_coords)
    if l1 == 0 and l2 == 0:
        raise DegenerateError(
            "pairing with v vanishes identically; the bound cuts nothing"
        )
    # u = (u1, u2) pairs to g with v and d spans the pairing's kernel, so the
    # points of pairing m g are m u + t d, with
    # Q(m u + t d) + 2 = kappa2 t^2 + kappa1 t + kappa0
    g, u1, u2 = _ext_gcd(l1, l2)
    require_budget(lambda b: 2 * (b // g) + 1, pairing_bound, "root search",
                   "pairing values")
    d = (l2 // g, -(l1 // g))
    kappa2, ud, qu = h.square(d), h.pairing((u1, u2), d), h.square((u1, u2))
    found = set()
    for m in range(-(pairing_bound // g), pairing_bound // g + 1):
        kappa1 = 2 * m * ud
        kappa0 = m * m * qu + 2
        if kappa2 != 0:
            disc = kappa1 * kappa1 - 4 * kappa2 * kappa0
            root = _perfect_square(disc)
            if root is None:
                continue
            for sgn in ((root,) if root == 0 else (root, -root)):
                num = -kappa1 + sgn
                if num % (2 * kappa2) == 0:
                    t = num // (2 * kappa2)
                    found.add((u1 * m + d[0] * t, u2 * m + d[1] * t))
        elif kappa1 != 0:
            if kappa0 % kappa1 == 0:
                t = -kappa0 // kappa1
                found.add((u1 * m + d[0] * t, u2 * m + d[1] * t))
        elif kappa0 == 0:
            raise DegenerateError("degenerate form: a full line of roots")
    return sorted(found)


def isotropic_rays_of_binary_form(gram2: Sequence[Sequence[int]]) -> List[Pair]:
    """Primitive integral isotropic rays of a binary form (at most two).

    A nonzero binary form represents 0 nontrivially over Z iff -det(gram2) is
    a perfect square; that criterion drives the case split.
    """
    (a, b), (_, c) = Rank2Lattice((), gram2).gram2
    if a == 0 and b == 0 and c == 0:
        raise DegenerateError("zero form: every ray is isotropic")
    rays = set()
    if a != 0:
        e = _perfect_square(b * b - a * c)
        if e is None:
            return []
        for sgn in ((e,) if e == 0 else (e, -e)):
            rays.add(tuple(primitive_vector((-b + sgn, a))))
    else:
        # Q = y (2 b x + c y)
        rays.add((1, 0))
        if b != 0:
            rays.add(tuple(primitive_vector((-c, 2 * b))))
    return sorted(rays)


def rank2_roots(h: Rank2Lattice, v: MukaiVector, pairing_bound: int) -> List[MukaiVector]:
    """Roots delta of h ((delta, delta) = -2) with |(delta, v)| <= pairing_bound."""
    coords = h.coords_of(v)
    pairs = roots_of_binary_form(h.gram2, coords, pairing_bound)
    return [h.to_ambient(p) for p in pairs]


def rank2_isotropic(h: Rank2Lattice) -> List[MukaiVector]:
    """Primitive isotropic rays of h; empty list when the discriminant
    -det(gram2) is not a perfect square (the ``none`` case)."""
    return [h.to_ambient(p) for p in isotropic_rays_of_binary_form(h.gram2)]
