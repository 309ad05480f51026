"""Numerical wall-and-chamber computation for a fixed class in a
two-parameter slice beta = beta0 + b H, omega = t H of stability parameters.

A potential wall for v is the locus where some class w has Z(w) / Z(v) real.
The charge is linear in the class, so this locus, divided by the overall
factor t, is an exact conic A (b^2 + t^2) + B b + D = 0 in closed form: a
semicircle centered on the b-axis, a vertical line, or nothing. Everything
is computed and classified in exact arithmetic. Walls are "potential"
(charge alignment only): among classes w inside the search box (every
coordinate bounded by the search bound) they include every actual wall,
but walls of classes outside the box are not seen, and the sampling oracle
reads the same box, so it cannot find them either.

The scan is decided on integer keys. For fixed (v, slice) the coefficients
(A, B, D) are three integer rows on w over one common denominator
(``_conic_rows``). Along a column of the box (fixed r and NS part c) the
candidate tests on w are two linear inequalities and one quadratic in s,
so the passing s are solved for with ``isqrt`` rather than tried one by
one, and each costs three multiply-adds whose primitive vector, the conic
key (ka, kb, 0, kd), names its wall. The key is a wall's one geometry:
``conic_shape`` reads its kind, center and radius off it (a locus keeps
them as exact ``Fraction``s, built once per distinct key, with the key),
and the region test, the path crossings, the sampling oracle and the
nesting check read the key itself. The distinct loci of the last box are
kept in a one-slot memo, so ``walls --grid`` enumerates the box once for
the scan and its oracle. The box has (2 bound + 1)^(rho + 2) classes; one
that exceeds the enumeration budget (``errors.require_budget``) raises
``BudgetError`` before any work. The nesting check of the walls of one v
on a rank-1 slice is one sweep over their ends on the b-axis, sorted
exactly.
"""
from __future__ import annotations

import bisect
import enum
import functools
import itertools
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .charges import charge_functional, evaluate_charge_row
from .errors import ChargeError, LatticeError, require_budget
from .gaussian import as_fraction
from .lattice import MukaiVector, NSLattice
from .linalg import clear_denominators, primitive_vector


class _SliceParams(NamedTuple):
    lattice: NSLattice
    beta0: Tuple[Fraction, ...]


class SliceParams(_SliceParams):
    """Two-parameter family beta = beta0 + b H, omega = t H along the ample
    class H of the lattice: the standard slice, whose walls are conics."""

    __slots__ = ()
    def __new__(cls, lattice: NSLattice, beta0: Sequence) -> "SliceParams":
        beta0 = tuple(map(as_fraction, beta0))
        if len(beta0) != lattice.rank:
            raise LatticeError("beta0 has wrong NS rank")
        return tuple.__new__(cls, (lattice, beta0))

    def axis_sq(self) -> Fraction:
        return self.lattice.ns_dot(self.lattice.ample, self.lattice.ample)


class _Region(NamedTuple):
    b_min: Fraction
    b_max: Fraction
    t_min: Fraction
    t_max: Fraction


class Region(_Region):
    """Rectangle b in [b_min, b_max], t in [t_min, t_max] with t_min > 0
    (walls accumulate towards t = 0, so the axis is refused)."""

    __slots__ = ()
    def __new__(cls, b_min, b_max, t_min, t_max) -> "Region":
        self = tuple.__new__(cls, map(as_fraction, (b_min, b_max, t_min, t_max)))
        if self.b_min > self.b_max or self.t_min > self.t_max:
            raise ValueError("empty region")
        if self.t_min <= 0:
            raise ValueError("t_min must be strictly positive")
        return self


class WallKind(enum.Enum):
    SEMICIRCLE = "SEMICIRCLE"
    VERTICAL_LINE = "VERTICAL_LINE"
    EMPTY = "EMPTY"
    DEGENERATE = "DEGENERATE"


class _WallLocus(NamedTuple):
    v: MukaiVector
    w: MukaiVector
    conic: Tuple[Fraction, Fraction, Fraction, Fraction]  # A, B, C(=0), D
    kind: WallKind
    center: Optional[Fraction] = None
    radius_sq: Optional[Fraction] = None


class WallLocus(_WallLocus):
    """Conic locus of charge alignment between v and w on the slice. Its
    instance dict holds only the memo of ``key``."""

    def key(self) -> Tuple[int, int, int, int]:
        """Conic normalized to coprime integers with positive leading entry;
        loci with equal keys are the same wall. Computed once per locus and
        kept outside the fields, so equality and hashing are unchanged."""
        try:
            return self.__dict__["_key"]
        except KeyError:
            key = self.__dict__["_key"] = tuple(primitive_vector(self.conic))
            return key

    def keep_key(self, key: Tuple[int, int, int, int]) -> "WallLocus":
        """This locus, with ``key``, the key of its conic, as its memo."""
        self.__dict__["_key"] = key
        return self

    def sort_key(self):
        return (_KIND_RANK[self.kind],
                self.center if self.center is not None else _ZERO,
                self.radius_sq if self.radius_sq is not None else _ZERO,
                self.key())


_KIND_RANK = {WallKind.VERTICAL_LINE: 0, WallKind.SEMICIRCLE: 1,
              WallKind.EMPTY: 2, WallKind.DEGENERATE: 3}
_ZERO = Fraction(0)


# -- exact charge on the slice -------------------------------------------------


def _conic_rows(v: MukaiVector, slice_: SliceParams
                ) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """The wall conic of (v, w) as three integer rows on the coordinates of
    w over one common denominator L > 0: A = rows[0].w / L, B = rows[1].w / L
    and D = rows[2].w / L.

    With d = H^2, a class of rank r has the charge

        Z(b, t) = K + b P - (r d / 2)(b^2 - t^2) + i t (P - r b d)

    on the slice, so its charge Z0 = Z(0, 1) at the base point (beta0, H)
    has P = Im Z0 and K = Re Z0 - r d/2. The alignment expands to
    t (A (b^2 + t^2) + B b + D) with A = (d/2)(r_v P_w - r_w P_v),
    B = d (r_v K_w - r_w K_v) and D = P_w K_v - K_w P_v; the r_v r_w d/2
    terms cancel, which leaves

        A = (d/2)(r_v Im Z0(w) - r_w Im Z0(v)),
        B = d (r_v Re Z0(w) - r_w Re Z0(v)),
        D = Im(Z0(w) conj Z0(v)) - A,

    each linear in w (r_w is its first coordinate).
    """
    lat = slice_.lattice
    z0 = charge_functional(lat, slice_.beta0, lat.ample)
    z_v = evaluate_charge_row(z0, v.coords())
    d = slice_.axis_sq()
    a_row = [d * v.r * z.im / 2 for z in z0]
    b_row = [d * v.r * z.re for z in z0]
    a_row[0] -= d * z_v.im / 2
    b_row[0] -= d * z_v.re
    d_row = [z.im * z_v.re - z.re * z_v.im - a for z, a in zip(z0, a_row)]
    return clear_denominators((a_row, b_row, d_row))


def conic_shape(key: Tuple[int, int, int, int]
                ) -> Tuple[WallKind, Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """The kind in t > 0 of the conic with primitive key (ka, kb, 0, kd),
    first nonzero entry positive, and its center and radius^2 as unreduced
    (numerator, denominator > 0) pairs, None where the kind has none.

    With ka > 0 the conic is the circle of center -kb / 2ka and radius^2
    n / 4ka^2, n = kb^2 - 4 ka kd, a semicircle when n > 0 and empty
    otherwise; with ka = 0 it is the line b = -kd / kb when kb != 0, empty
    when only kd is nonzero, and degenerate when the key is zero. Both
    values are invariant under scaling the conic, so they are those of any
    conic with this key."""
    ka, kb, _, kd = key
    if ka:
        n = kb * kb - 4 * ka * kd
        if n > 0:
            return WallKind.SEMICIRCLE, (-kb, 2 * ka), (n, 4 * ka * ka)
        return WallKind.EMPTY, None, None
    if kb:
        return WallKind.VERTICAL_LINE, (-kd, kb), None
    return (WallKind.EMPTY if kd else WallKind.DEGENERATE), None, None


def _locus(v: MukaiVector, w: MukaiVector, a: int, b: int, d: int, den: int,
           key: Tuple[int, int, int, int]) -> WallLocus:
    """The locus of the conic with coefficients (A, B, D) = (a, b, d) / den
    and primitive integer key (ka, kb, 0, kd), shaped by ``conic_shape``."""
    kind, center, radius_sq = conic_shape(key)
    return WallLocus(v, w, (Fraction(a, den), Fraction(b, den), _ZERO, Fraction(d, den)),
                     kind, Fraction(*center) if center else None,
                     Fraction(*radius_sq) if radius_sq else None).keep_key(key)


def wall_locus(v: MukaiVector, w: MukaiVector, slice_: SliceParams) -> WallLocus:
    """Classify the zero locus of Im(Z(w) conj(Z(v))) within t > 0: the
    conic of ``_conic_rows``, whose closed form gives the nested-semicircle
    shape of the walls."""
    rank = slice_.lattice.rank
    if len(v.c) != rank or len(w.c) != rank:
        raise LatticeError("vector has wrong NS rank")
    rows, den = _conic_rows(v, slice_)
    wc = w.coords()
    a, b, d = (sum(map(mul, row, wc)) for row in rows)
    return _locus(v, w, a, b, d, den, tuple(primitive_vector((a, b, 0, d))))


def locus_meets_region(loc: WallLocus, region: Region) -> bool:
    """Exact test whether the locus meets the closed region, on its key."""
    b1, b2, t1, t2 = region
    q1, q2 = b1.denominator, b2.denominator
    return _meets_box(loc.key(), b1.numerator * q2, b2.numerator * q1, q1 * q2, t1, t2)


def _meets_box(key: Tuple[int, int, int, int], x1: int, x2: int, q: int,
               t1: Fraction, t2: Fraction) -> bool:
    """Whether F(b, t) = ka (b^2 + t^2) + kb b + kd, for a conic key
    (ka, kb, 0, kd) with ka >= 0, has a zero on the closed box
    b in [x1 / q, x2 / q], t in [t1, t2] (q > 0, 0 < t1 <= t2). The box is
    connected, so that is when min F <= 0 <= max F.

    F = g(b) + ka t^2 with g(b) = ka b^2 + kb b + kd, so max F is the larger
    of g at the two ends plus ka t2^2, and min F is ka t1^2 plus the smaller
    of g at the ends, or g at the vertex -kb / 2ka when that lies strictly
    inside, -(kb^2 - 4 ka kd) / 4ka. Each test is cross-multiplied by q^2
    and the denominator of t^2: q^2 g(x / q) = ka x^2 + kb x q + kd q^2. A
    key with ka = kb = 0 meets nothing (F = kd != 0, or a degenerate conic)."""
    ka, kb, _, kd = key
    if not (ka or kb):
        return False
    qq = q * q
    g1 = (ka * x1 + kb * q) * x1 + kd * qq
    g2 = (ka * x2 + kb * q) * x2 + kd * qq
    g_lo, g_hi = (g1, g2) if g1 <= g2 else (g2, g1)
    n, d = t2.numerator, t2.denominator
    if g_hi * d * d + ka * n * n * qq < 0:
        return False
    n, d = t1.numerator, t1.denominator
    if ka and 2 * ka * x1 < -kb * q < 2 * ka * x2:
        return 4 * ka * ka * n * n <= (kb * kb - 4 * ka * kd) * d * d
    return g_lo * d * d + ka * n * n * qq <= 0


# -- candidate enumeration -----------------------------------------------------


def _box_loci(v: MukaiVector, slice_: SliceParams,
              search_bound: int) -> Tuple[WallLocus, ...]:
    """The distinct non-degenerate loci of the box, after the checks that
    come before any enumeration: a K3 lattice, an even Gram, v of the
    lattice's NS rank, and a box of (2 bound + 1)^(rho + 2) classes that
    ``errors.require_budget`` lets through."""
    lat = slice_.lattice
    if not lat.k3:
        raise ChargeError("candidate enumeration uses the K3 square bounds; "
                          "flag the lattice k3 or enumerate classes yourself")
    lat.require_even()
    if len(v.c) != lat.rank:
        raise LatticeError("Mukai vector has wrong NS rank")
    require_budget(lambda b: (2 * b + 1) ** lat.mukai_rank, search_bound, "wall box",
                   "classes")
    return _distinct_loci(v, slice_, search_bound)


def _column_s(r: int, cc: int, vw_head: int, rv: int, vv: int,
              bound: int) -> Tuple[range, ...]:
    """The s in [-bound, bound], as ascending ranges, for which the box
    class w = (r, c, s) passes the candidate tests of ``_distinct_loci``,
    given cc = c.c, vw_head = v.w + r_v s (constant in s), rv = r_v and
    vv = v^2. The tests read

        w^2 = cc - 2 r s >= -2,
        (v - w)^2 = vv - 2 v.w + w^2 >= -2,
        (v.w)^2 - v^2 w^2 = rv^2 s^2 + 2 (vv r - rv vw_head) s
                            + vw_head^2 - vv cc > 0.

    The first two are linear in s and cut the box to one interval. With
    rv != 0 the quadratic is positive outside its closed root interval
    [(-h - sqrt(D)) / rv^2, (-h + sqrt(D)) / rv^2], h half the coefficient of
    s and D = h^2 - rv^2 (vw_head^2 - vv cc). For integers k and m > 0,
    floor((k + sqrt(D)) / m) = floor((k + isqrt(D)) / m), and likewise the
    ceiling with -sqrt(D), so the integers inside come out exact. With
    rv = 0 the quadratic is linear."""
    lo, hi = -bound, bound
    # k s <= m: 2 r s <= cc + 2 and 2 (r - rv) s <= cc + vv + 2 - 2 vw_head
    for k, m in ((2 * r, cc + 2), (2 * (r - rv), cc + vv + 2 - 2 * vw_head)):
        if k > 0:
            hi = min(hi, m // k)
        elif k < 0:
            lo = max(lo, -(m // -k))
        elif m < 0:
            return ()
    if lo > hi:
        return ()
    half = vv * r - rv * vw_head  # half the coefficient of s
    const = vw_head * vw_head - vv * cc
    if not rv:  # 2 half s + const > 0
        if half > 0:
            lo = max(lo, -const // (2 * half) + 1)
        elif half < 0:
            hi = min(hi, -(-const // (-2 * half)) - 1)
        elif const <= 0:
            return ()
        return (range(lo, hi + 1),) if lo <= hi else ()
    sq = rv * rv
    disc = half * half - sq * const  # a quarter of the discriminant
    if disc < 0:
        return (range(lo, hi + 1),)
    root = isqrt(disc)
    # the s that fail run from e_lo to e_hi; e_lo <= e_hi + 1 since the roots
    # are real, so the two ranges below cover the rest of [lo, hi]
    e_lo, e_hi = -((half + root) // sq), (root - half) // sq
    return tuple(rng for rng in (range(lo, min(hi, e_lo - 1) + 1),
                                 range(max(lo, e_hi + 1), hi + 1)) if rng)


@functools.lru_cache(maxsize=1)
def _distinct_loci(v: MukaiVector, slice_: SliceParams,
                   search_bound: int) -> Tuple[WallLocus, ...]:
    """One non-degenerate locus per distinct conic key among the box classes
    w that a destabilizing class could be: w and v - w have square >= -2
    and span(v, w) is hyperbolic, (v.w)^2 > v^2 w^2. Cauchy-Schwarz holds
    with equality for w = 0 and every w proportional to v, so the strict
    test drops those too.

    All of it runs on ints. With the Mukai pairing
    (r, c, s).(r', c', s') = c.c' - r s' - r' s, w^2 = c.c - 2 r s and v.w
    are affine in s, and (v - w)^2 = v^2 - 2 v.w + w^2, so for each head
    (r, c) the passing s are solved for (``_column_s``) rather than tried:
    the box is walked in its lexicographic order, but only at those s. A
    class that passes gets its conic key, the primitive vector of the three
    integer row products of ``_conic_rows``; the representative of a key is
    its least w, which that order meets first. Its exact locus is built then
    and only then: loci with equal keys share kind, center and radius. The
    products that involve c (c.c, v.w and the three conic rows) are taken
    once per NS column c; r and s add their row entries times r and s.
    """
    gram = slice_.lattice.gram
    rv, sv = v.r, v.s
    gv_c = [sum(map(mul, row, v.c)) for row in gram]
    vv = sum(map(mul, v.c, gv_c)) - 2 * rv * sv
    (a_row, b_row, d_row), den = _conic_rows(v, slice_)
    a_r, b_r, d_r = a_row[0], b_row[0], d_row[0]
    a_s, b_s, d_s = a_row[-1], b_row[-1], d_row[-1]
    a_c, b_c, d_c = a_row[1:-1], b_row[1:-1], d_row[1:-1]
    rng = range(-search_bound, search_bound + 1)
    columns = [(c, sum(x * sum(map(mul, row, c)) for x, row in zip(c, gram)),
                sum(map(mul, gv_c, c)), sum(map(mul, a_c, c)),
                sum(map(mul, b_c, c)), sum(map(mul, d_c, c)))
               for c in itertools.product(rng, repeat=len(gv_c))]
    seen = set()
    out = []
    for r in rng:
        for c, cc, vw_c, a_col, b_col, d_col in columns:
            vw_head = vw_c - sv * r  # v.w = vw_head - r_v s
            s_ranges = _column_s(r, cc, vw_head, rv, vv, search_bound)
            if not s_ranges:
                continue
            a_head = a_col + a_r * r
            b_head = b_col + b_r * r
            d_head = d_col + d_r * r
            for s in itertools.chain.from_iterable(s_ranges):
                a = a_head + a_s * s
                b = b_head + b_s * s
                d = d_head + d_s * s
                # primitive_vector((a, b, 0, d)), inlined
                g = gcd(a, b, d)
                if g == 0:
                    continue
                if (a or b or d) < 0:
                    g = -g
                key = (a // g, b // g, 0, d // g)
                if key in seen:
                    continue
                seen.add(key)
                out.append(_locus(v, MukaiVector(r, c, s), a, b, d, den, key))
    return tuple(out)


def scan_walls(v: MukaiVector, slice_: SliceParams, region: Region,
               search_bound: int) -> List[WallLocus]:
    """Potential walls for v meeting the region, one representative per
    distinct conic (the wall only depends on the rank-2 span, so w, v - w and
    w + k v all collapse to the same locus). Deterministically sorted.

    The box is walked on ints and keyed by integer conics (see
    ``_distinct_loci``); its loci are shared with ``sampling_oracle`` for
    the same (v, slice, bound). A box over the enumeration budget raises
    ``BudgetError`` before it is walked."""
    if search_bound <= 0:
        raise ValueError("search_bound must be positive")
    return sorted((loc for loc in _box_loci(v, slice_, search_bound)
                   if locus_meets_region(loc, region)),
                  key=WallLocus.sort_key)


# -- sampling oracle -----------------------------------------------------------


class OracleWall(NamedTuple):
    locus: WallLocus
    detected: bool


def sampling_oracle(v: MukaiVector, slice_: SliceParams, region: Region,
                    grid: int, search_bound: int) -> List[OracleWall]:
    """Sign-flip sampling oracle: evaluate the exact sign of
    Im(Z(w) conj(Z(v))) on a (grid+1) x (grid+1) lattice over the region and
    flag each candidate wall whose sign flips between adjacent nodes (or hits
    an exact zero). Cross-checks the scan at grid scale. It tests every
    non-degenerate locus of the candidate box, those outside the region
    included, but it reads the same box as ``scan_walls`` (one enumeration
    serves both, under the same budget), so it cannot see walls of classes
    outside it. The test of a locus computes grid + 1 column values (see
    ``_signs_flip``); ``errors.require_budget`` counts them for every locus
    before any sign is evaluated, naming the largest grid that fits."""
    if grid < 2:
        raise ValueError("grid too coarse")
    cands = _box_loci(v, slice_, search_bound)
    require_budget(lambda g: (g + 1) * len(cands), grid, "oracle grid",
                   f"values ({len(cands)} loci)", reached="grid")
    b_den = grid * region.b_min.denominator * region.b_max.denominator
    t_den = grid * region.t_min.denominator * region.t_max.denominator
    b_nums = [int((region.b_min + Fraction(i, grid) * (region.b_max - region.b_min)) * b_den)
              for i in range(grid + 1)]
    t_nums = [int((region.t_min + Fraction(j, grid) * (region.t_max - region.t_min)) * t_den)
              for j in range(grid + 1)]
    out = [OracleWall(loc, _signs_flip(loc, b_nums, b_den, t_nums, t_den))
           for loc in cands]
    return sorted(out, key=lambda ow: ow.locus.sort_key())


def _signs_flip(loc: WallLocus, b_nums: List[int], b_den: int,
                t_nums: List[int], t_den: int) -> bool:
    """True when the conic of the locus is zero at a grid node or differs in
    sign between adjacent nodes. The grid is connected, so that is when the
    values on it do not all share one strict sign. The value at node (i, j)
    is cols[i] + t_terms[j], so the values range from
    min(cols) + min(t_terms) to max(cols) + max(t_terms)."""
    # sign changes and zeros survive scaling by a nonzero integer
    ai, bi, _, di = loc.key()
    td2 = t_den * t_den
    bd2 = b_den * b_den
    cols = [ai * bn * bn * td2 + bi * bn * b_den * td2 + di * bd2 * td2
            for bn in b_nums]
    t_terms = [ai * tn * tn * bd2 for tn in t_nums]
    return min(cols) + min(t_terms) <= 0 <= max(cols) + max(t_terms)


# -- chambers along a vertical path --------------------------------------------


class Crossing(NamedTuple):
    t_squared: Fraction  # exact radicand: the crossing is at t = sqrt of this
    wall: WallLocus

    def t_decimal(self, digits: int = 30) -> str:
        return sqrt_decimal(self.t_squared, digits)


class ChamberPath(NamedTuple):
    b_star: Fraction
    t_lo: Fraction
    t_hi: Fraction
    crossings: Tuple[Crossing, ...]
    coincident_walls: Tuple[WallLocus, ...]

    @property
    def chamber_count(self) -> int:
        return len(self.crossings) + 1


def chambers_along_path(b_star, t_lo, t_hi, walls: Sequence[WallLocus]) -> ChamberPath:
    """Exact crossings of the vertical segment b = b_star, t in [t_lo, t_hi]
    with the given walls, sorted by t (compared via the exact radicands).

    Circles centered on the b-axis can only be tangent to a vertical line at
    t = 0, outside the path; the one degenerate case is a vertical wall
    coinciding with the path, which is reported separately and crossed by
    nothing (an infinitesimal perturbation of b_star removes it).

    Each wall is tested on its conic key as the region of width zero at
    b_star = B / G (``_meets_box``). A semicircle that meets it is crossed at
    t^2 = -g(b_star) / ka, with G^2 g(b_star) = ka B^2 + kb B G + kd G^2,
    built as a ``Fraction`` only for a crossing; a line that meets it is the
    path."""
    b_star, t_lo, t_hi = as_fraction(b_star), as_fraction(t_lo), as_fraction(t_hi)
    if not 0 < t_lo <= t_hi:
        raise ValueError("need 0 < t_lo <= t_hi")
    bn, bd = b_star.numerator, b_star.denominator
    crossings, coincident = [], []
    for wall in walls:
        key = wall.key()
        if not _meets_box(key, bn, bn, bd, t_lo, t_hi):
            continue
        ka, kb, _, kd = key
        if ka:
            g = (ka * bn + kb * bd) * bn + kd * bd * bd
            crossings.append(Crossing(Fraction(-g, ka * bd * bd), wall))
        else:
            coincident.append(wall)
    crossings.sort(key=lambda c: (c.t_squared, c.wall.sort_key()))
    return ChamberPath(b_star, t_lo, t_hi, tuple(crossings), tuple(coincident))


def sqrt_decimal(q: Fraction, digits: int = 30) -> str:
    """Decimal approximation of sqrt(q) to the given digits (floor-rounded);
    with no digits, the integer part and no point."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scaled = isqrt(q.numerator * q.denominator * 10 ** (2 * digits)) // q.denominator
    if not digits:
        return str(scaled)
    s = str(scaled).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:]


# -- nesting check --------------------------------------------------------------


class NestingReport(NamedTuple):
    pairs_checked: int
    violations: Tuple[Tuple[WallLocus, WallLocus, str], ...]
    touching: Tuple[Tuple[WallLocus, WallLocus, str], ...]


def nesting_check(slice_: SliceParams, walls: Sequence[WallLocus]) -> NestingReport:
    """Pairwise geometry of the walls of a fixed v on a rank-1 slice: every
    pair of semicircles should be nested or disjoint; anything crossing is a
    finding (reported, not an error), touching pairs are listed separately.
    Pairs are listed in the order of ``itertools.combinations`` over the
    semicircles and lines, and ``pairs_checked`` counts all of them.

    A semicircle centered on the b-axis is fixed by the interval that it
    spans on the axis, so two of them cross when their intervals
    interleave and touch when they share one end; a line crosses a
    semicircle inside its interval and touches it at an end. So one sweep
    decides every pair: the ends (-kb -+ sqrt(n)) / 2 ka of the semicircles
    and the points -kd / kb of the lines, from the conic keys (ka, kb, 0, kd)
    with n = kb^2 - 4 ka kd, are sorted by floor(2^64 x), which isqrt gives
    exactly, and by ``_surd_cmp`` where floors are equal. A semicircle that
    closes crosses each open one that opened strictly after it, a line
    crosses each one open around it, and walls that meet at a point touch."""
    if slice_.lattice.rank != 1:
        raise LatticeError("nesting check is a rank-1 slice statement")
    geoms = [wl for wl in walls
             if wl.kind in (WallKind.SEMICIRCLE, WallKind.VERTICAL_LINE)]
    keys = [wl.key() for wl in geoms]
    # (floor(2^64 x), x as (u, s, n, q), wall, event kind): a semicircle
    # opens (2) and closes (0), a line is met (1)
    points = []
    for i, (ka, kb, _, kd) in enumerate(keys):
        if ka:
            n = kb * kb - 4 * ka * kd
            root = isqrt(n << 128)
            ceil_root = root + (root * root != n << 128)
            points.append(((-(kb << 64) - ceil_root) // (2 * ka), (-kb, -1, n, 2 * ka), i, 2))
            points.append(((-(kb << 64) + root) // (2 * ka), (-kb, 1, n, 2 * ka), i, 0))
        else:
            points.append(((-kd << 64) // kb, (-kd, 0, 0, kb), i, 1))
    points.sort(key=itemgetter(0))
    exact = functools.cmp_to_key(lambda p, q: _surd_cmp(p[1], q[1]))
    # events (place among the distinct points, kind, order, wall); at one
    # place semicircles close, the inner first, then lines, then openings
    events, left = [], [0] * len(geoms)
    pos = -1
    for _, run in itertools.groupby(points, key=itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=exact)
        pos += 1
        for j, (_, x, i, kind) in enumerate(run):
            if j and _surd_cmp(run[j - 1][1], x):
                pos += 1
            if kind:
                left[i] = pos
                events.append((pos, kind, 0, i))
            else:
                events.append((pos, 0, -left[i], i))
    events.sort()
    crossing, touching = [], []
    opened = []  # (place of its left end, wall) of the open semicircles, ascending
    here, at = [], None  # the walls met so far at the current point
    for pos, kind, _, i in events:
        if pos != at:
            here, at = [], pos
        for k, kind_k in here:
            if keys[k] != keys[i]:  # equal keys are one wall
                touching.append((min(i, k), max(i, k), "touching at boundary"
                                 if 1 in (kind, kind_k) else "touching"))
        here.append((i, kind))
        if kind == 0:
            lo = left[i]
            del opened[bisect.bisect_left(opened, (lo, i))]
            for _, k in opened[bisect.bisect_left(opened, (lo + 1,)):]:
                crossing.append((min(i, k), max(i, k)))
        elif kind == 1:
            crossing.extend((min(i, k), max(i, k)) for _, k in opened)
        else:
            opened.append((pos, i))
    crossing.sort()
    touching.sort()
    return NestingReport(len(geoms) * (len(geoms) - 1) // 2,
                         tuple((geoms[i], geoms[k], "crossing") for i, k in crossing),
                         tuple((geoms[i], geoms[k], rel) for i, k, rel in touching))


def _surd_cmp(x: Tuple[int, int, int, int], y: Tuple[int, int, int, int]) -> int:
    """Sign of x - y for numbers (u + s sqrt(n)) / q given as (u, s, n, q)
    with n >= 0 and q > 0. That is the sign of U + A sqrt(n1) - B sqrt(n2)
    (times q1 q2); when X = U + A sqrt(n1) and B sqrt(n2) share a strict
    sign, it is that sign times the sign of their squares' difference,
    again a sum of an integer and a multiple of sqrt(n1)."""
    def sign(u: int, a: int, n: int) -> int:  # of u + a sqrt(n)
        su, sa = (u > 0) - (u < 0), ((a > 0) - (a < 0) if n else 0)
        if su == sa or not sa:
            return su
        if not su:
            return sa
        return su * ((u * u > a * a * n) - (u * u < a * a * n))

    u1, s1, n1, q1 = x
    u2, s2, n2, q2 = y
    u, a, b = u1 * q2 - u2 * q1, s1 * q2, s2 * q1
    sx, sy = sign(u, a, n1), sign(0, b, n2)
    if sx != sy:
        return 1 if sx > sy else -1
    return sx * sign(u * u + a * a * n1 - b * b * n2, 2 * u * a, n1)
