"""Divisor-class layer for moduli of sheaves: the class Omega attached to a
charge, its Beauville-Bogomolov square, moduli dimensions, per-wall rank-2
reports and Lagrangian-fibration candidates.

Omega is pinned by (Omega, w) = Im(Z(w) / Z(v)) for all w; under the
isometry between v-perp and the Neron-Severi group of the moduli space it is
the numerical avatar of the nef class attached to the stability condition.
Everything is solved exactly over Q.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .charges import evaluate_charge_row
from .errors import (BudgetError, ChargeError, DegenerateError, LatticeError,
                     StabkitError, effective_budget, require_budget)
from .gaussian import GaussianRational, as_fraction
from .lattice import MukaiVector, NSLattice, mukai_square
from .linalg import bilinear, mat_vec, minors2_gcd, primitive_vector, solve
from .rank2 import (Rank2Lattice, is_hyperbolic, rank2_isotropic, rank2_roots,
                    saturate_rank2)
from .walls import SliceParams, WallKind, WallLocus, wall_locus


class OmegaClass(NamedTuple):
    """Rational class with (Omega, w) = Im(Z(w) / Z(v)) for every w; in
    particular (Omega, v) = 0 exactly."""

    coords: Tuple[Fraction, ...]
    v: MukaiVector
    z_row: Tuple[GaussianRational, ...]


def omega_class(v: MukaiVector, z_row: Sequence[GaussianRational],
                lat: NSLattice) -> OmegaClass:
    """Solve the defining linear system of Omega over the standard basis.

    Z(w)/Z(v) is Gaussian rational, so the right-hand sides are exact; the
    pairing matrix must be invertible (it is, for any valid lattice)."""
    m = lat.mukai_gram()
    if len(z_row) != len(m):
        raise ChargeError(f"charge row has {len(z_row)} entries, not {len(m)}")
    zv = evaluate_charge_row(z_row, v.coords())
    if zv.is_zero():
        raise ChargeError("Z(v) = 0: Omega undefined")
    # Z(e_i) = z_row[i] on the standard basis vector e_i
    rhs = [(z / zv).im for z in z_row]
    coords = solve(m, rhs)
    omega = OmegaClass(tuple(coords), v, tuple(z_row))
    # re-verify the postcondition on the full basis (m is symmetric)
    if mat_vec(m, coords) != rhs:
        raise StabkitError("Omega postcondition failed on a basis vector")
    if bilinear(coords, m, [Fraction(x) for x in v.coords()]) != 0:
        raise StabkitError("(Omega, v) != 0")
    return omega


def bb_square(omega: OmegaClass, lat: NSLattice) -> Fraction:
    """Beauville-Bogomolov square of the induced nef class: the pairing
    square of Omega (the isometry onto NS of the moduli space preserves it)."""
    m = lat.mukai_gram()
    return bilinear(omega.coords, m, omega.coords)


class ModuliDimension(NamedTuple):
    dimension: int
    rigid: bool        # square -2: a point
    isotropic: bool    # square 0: the underlying surface itself


def moduli_dimension(v: MukaiVector, lat: NSLattice) -> ModuliDimension:
    """dim = (v, v) + 2 for primitive v with (v, v) >= -2; empty otherwise."""
    if not v.is_primitive():
        raise LatticeError(f"{v} is not primitive (gcd of coordinates != 1)")
    sq = mukai_square(v, lat)
    if sq < -2:
        raise LatticeError(f"(v, v) = {sq} < -2: empty moduli space")
    return ModuliDimension(sq + 2, rigid=(sq == -2), isotropic=(sq == 0))


# -- decompositions in the rank-2 wall lattice ----------------------------------


class Decomposition(NamedTuple):
    """Multiset of parts a_i in H_W with sum v, each square >= -2, subject to
    v^2 >= 2(m-1) + sum a_i^2; slack is the difference of the two sides."""

    parts: Tuple[Tuple[int, int], ...]
    slack: int

    @property
    def m(self) -> int:
        return len(self.parts)


def decomposition_scan(v_coords: Tuple[int, int], hw: Rank2Lattice,
                       max_m: int, box: int = 10) -> List[Decomposition]:
    """Enumerate part multisets within the coordinate box |x|, |y| <= box.

    The box is a genuine parameter: the three displayed constraints do not
    bound coordinates on their own (isotropic splits b + c with b + c fixed,
    and root pairs delta, -delta, slide off to infinity in a hyperbolic
    plane), so completeness is certified only within the box.

    The pool holds the nonzero box points a with a^2 >= -2, ordered by the
    cost 2 + a^2 (then by a). Multisets are nondecreasing index sequences
    into it, searched in rounds m = 1..max_m. Two rules keep the search
    small; both are exact, so the result is the full set:

    - Lookup closure: once m - 1 parts are chosen, the last one is forced to
      be v minus their sum. It is looked up in the pool and kept only if its
      index is at least the last chosen one, so each multiset appears once.
    - Slack prune: let s(k) = v^2 + 2 - sum over the k chosen parts of
      (2 + a_i^2), so a decomposition into m parts has slack s(m). Each
      further part a lowers s by its cost 2 + a^2, which is >= 0 because
      a^2 >= -2; once s(k) < 0, every completion has negative slack and the
      branch stops. Costs ascend along the pool, so the first part that
      makes s negative ends its level.

    A third rule skips a part that leaves the rest of v farther than the
    remaining parts can reach inside the box. The (2 box + 1)^2 box points
    count against ``errors.require_budget`` before the pool is built; then
    every part tried at any level counts as one node against the budget,
    and running out raises BudgetError with the round's part count as
    ``bound_reached`` (all decompositions with fewer parts were complete by
    then). Parts are reported in coordinate order and decompositions sorted
    by (m, parts).
    """
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    if box < 1:
        raise ValueError("box must be at least 1")
    require_budget(lambda b: (2 * b + 1) ** 2, box, "decomposition box", "points")
    budget = effective_budget()
    vx, vy = v_coords
    vsq = hw.square(v_coords)
    box_points = ((hw.square((x, y)), (x, y))
                  for x in range(-box, box + 1) for y in range(-box, box + 1))
    ranked = sorted((2 + sq, p) for sq, p in box_points if p != (0, 0) and sq >= -2)
    cost = [c for c, _ in ranked]
    pool = [p for _, p in ranked]
    index = {p: i for i, p in enumerate(pool)}
    out: List[Decomposition] = []
    n = len(pool)
    nodes = 0

    def rec(start: int, chosen: List[Tuple[int, int]], sx: int, sy: int,
            slack: int, left: int):
        nonlocal nodes
        if left == 1:
            idx = index.get((vx - sx, vy - sy))
            if idx is not None and idx >= start and slack >= cost[idx]:
                parts = tuple(sorted((*chosen, pool[idx])))
                out.append(Decomposition(parts, slack - cost[idx]))
            return
        reach = (left - 1) * box  # farthest the remaining parts can move the sum
        for idx in range(start, n):
            if nodes >= budget:
                m = len(chosen) + left
                raise BudgetError(f"decomposition scan exceeded budget of {budget} "
                                  f"nodes in the round for {m} parts", bound_reached=m)
            nodes += 1
            rest = slack - cost[idx]
            if rest < 0:
                break
            px, py = pool[idx]
            if abs(vx - sx - px) > reach or abs(vy - sy - py) > reach:
                continue
            chosen.append(pool[idx])
            rec(idx, chosen, sx + px, sy + py, rest, left - 1)
            chosen.pop()

    try:
        for m in range(1, max_m + 1):
            rec(0, [], 0, 0, vsq + 2, m)
    finally:
        rec = None  # rec refers to itself through its closure: break the cycle
    out.sort(key=lambda d: (d.m, d.parts))
    return out


# -- wall reports ----------------------------------------------------------------


class WallReport(NamedTuple):
    wall: WallLocus
    hw: Rank2Lattice
    v_in_hw: Tuple[int, int]
    roots: Tuple[MukaiVector, ...]
    isotropic: Tuple[MukaiVector, ...]
    decompositions: Tuple[Decomposition, ...]
    has_root: bool
    has_isotropic: bool
    admits_totally_semistable_candidate: bool
    point_residual: Optional[Fraction]  # alignment value at the supplied point


def wall_report(v: MukaiVector, w: MukaiVector, slice_: SliceParams,
                point: Optional[Tuple[Fraction, Fraction]] = None,
                pairing_bound: Optional[int] = None, max_m: int = 3,
                box: int = 10) -> WallReport:
    """Rank-2 analysis of the wall spanned by v and w.

    Hints are advisory flags, never a classification: a totally-semistable
    candidate needs both a nontrivial decomposition (m >= 2) and a root or
    isotropic class in the wall lattice. The optional point is checked
    against the wall equation and its residual reported; it needs t > 0
    (omega = t H). v must be primitive here (the wall scan itself accepts
    any v; the divisor-class statements do not)."""
    if point is not None:
        b, t = map(as_fraction, point)
        if t <= 0:
            raise ValueError(f"the point needs t > 0, got t = {t}")
    if not v.is_primitive():
        raise LatticeError(
            f"{v} is not primitive; the rank-2 wall analysis assumes a "
            "primitive class (divide out the gcd first)")
    loc = wall_locus(v, w, slice_)
    a, b_coef, _, d_coef = loc.conic
    if loc.kind is WallKind.DEGENERATE:
        raise DegenerateError("degenerate wall: charges proportional on the slice")
    if loc.kind is WallKind.EMPTY:
        raise LatticeError(
            f"w = {w.coords()} spans no wall with v: the conic "
            f"A (b^2 + t^2) + B b + D = 0 with (A, B, D) = ({a}, {b_coef}, {d_coef}) "
            "has no point with t > 0")
    lat = slice_.lattice
    hw = saturate_rank2(v, w, lat)
    if not is_hyperbolic(hw):
        raise DegenerateError(
            f"wall lattice is not hyperbolic (det {hw.det()} >= 0); "
            "a genuine wall cannot produce this")
    vsq = mukai_square(v, lat)
    bound = pairing_bound if pairing_bound is not None else max(vsq, 2)
    roots = tuple(rank2_roots(hw, v, bound))
    isotropic = tuple(rank2_isotropic(hw))
    v_in = hw.coords_of(v)
    decs = tuple(decomposition_scan(v_in, hw, max_m=max_m, box=box))
    has_root = bool(roots)
    has_iso = bool(isotropic)
    nontrivial = any(d.m >= 2 for d in decs)
    residual = None
    if point is not None:  # Im(Z(w) conj Z(v)) = t (A (b^2 + t^2) + B b + D)
        residual = t * (a * (b * b + t * t) + b_coef * b + d_coef)
    return WallReport(
        wall=loc, hw=hw, v_in_hw=v_in, roots=roots, isotropic=isotropic,
        decompositions=decs, has_root=has_root, has_isotropic=has_iso,
        admits_totally_semistable_candidate=nontrivial and (has_root or has_iso),
        point_residual=residual)


# -- Lagrangian fibration candidates ---------------------------------------------


def lagrangian_candidates(v: MukaiVector, lat: NSLattice, bound: int) -> List[MukaiVector]:
    """Primitive isotropic classes in v-perp with ambient coordinates bounded
    by ``bound``; each maps to a square-zero line bundle class on the moduli
    space, the numerical hypothesis of a Lagrangian fibration.

    Rays are deduplicated (one canonical representative with positive leading
    coordinate). For (v, v) = 0 the search runs in v-perp / <v>: v lies in
    the radical of v-perp, so squares descend; candidates are reduced modulo
    v to a canonical representative and must be primitive in the quotient.
    The search walks the NS part c of u = (r, c, s) over [-bound, bound]^rho
    and solves (v, u) = 0 and u^2 = 0 for (r, s) (``_isotropic_perp``); only
    the distinct rays become ``MukaiVector``s. ``errors.require_budget``
    counts the (2 bound + 1)^(rho + 1) heads of the v-perp box before any
    work: over it, BudgetError names the largest bound that fits."""
    if not v.is_primitive():
        raise LatticeError(f"{v} is not primitive")
    vsq = mukai_square(v, lat)
    if vsq < 0:
        raise LatticeError("need (v, v) >= 0")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    require_budget(lambda b: (2 * b + 1) ** (lat.rank + 1), bound, "v-perp box", "heads")
    points = _isotropic_perp(v.coords(), lat.gram, bound)
    if vsq == 0:
        rays = _quotient_rays(points, v.coords())
    else:  # the primitive points (the zero point has gcd 0), normalized
        rays = {tuple(primitive_vector(u)) for u in points if gcd(*u) == 1}
    return [MukaiVector.from_coords(ray) for ray in sorted(rays)]


def _isotropic_perp(v: Sequence[int], gram: Sequence[Sequence[int]], bound: int):
    """All integer points u = (r, c, s) of the box |u_i| <= bound with
    (v, u) = 0 and u^2 = 0, for v = (r_v, c_v, s_v) on the NS Gram ``gram``.

    Only c runs over [-bound, bound]^rho. With k = c_v.c and q = c.c the two
    conditions read s_v r + r_v s = k and 2 r s = q, which pin (r, s):

    - q odd: no solution.
    - r_v s_v != 0: x = s_v r is a root of x^2 - k x + r_v s_v q / 2, so
      x = (k +- d) / 2 with d^2 = k^2 - 2 r_v s_v q; then r = x / s_v and
      s = (k - x) / r_v must be integers inside the box.
    - one of r_v, s_v zero: the linear equation pins the other coordinate
      t, and r s = q / 2 pins the remaining one; when t = 0 and q = 0 that
      one runs over the box.
    - r_v = s_v = 0: k must be 0, and r s = q / 2 is solved over the
      divisors r of q / 2 (over both axes when q = 0).

    Each c costs O(1) apart from the divisor walk and the free coordinate,
    whose steps are all points of the same (2 bound + 1)^(rho + 1) box.
    """
    rv, cv, sv = v[0], v[1:-1], v[-1]
    gv = [sum(map(mul, row, cv)) for row in gram]  # k = gv . c
    box = range(-bound, bound + 1)
    p = rv * sv
    for c in itertools.product(box, repeat=len(gram)):
        q = sum(x * sum(map(mul, row, c)) for x, row in zip(c, gram) if x)
        if q & 1:
            continue
        h, k = q >> 1, sum(map(mul, gv, c))
        if p:
            disc = k * k - 2 * p * q
            if disc < 0:
                continue
            d = isqrt(disc)
            if d * d != disc:
                continue
            for x in {(k + d) >> 1, (k - d) >> 1}:  # k = d mod 2: disc = k^2 mod 4
                r, rem_r = divmod(x, sv)
                s, rem_s = divmod(k - x, rv)
                if not (rem_r or rem_s) and -bound <= r <= bound and -bound <= s <= bound:
                    yield (r, *c, s)
        elif rv or sv:
            t, rem = divmod(k, sv or rv)  # r when s_v != 0, else s
            if rem or not -bound <= t <= bound:
                continue
            if t:
                o, rem = divmod(h, t)
                others = () if rem or not -bound <= o <= bound else (o,)
            else:
                others = box if h == 0 else ()
            for o in others:
                yield (t, *c, o) if sv else (o, *c, t)
        elif k == 0:
            if h == 0:
                yield from ((r, *c, 0) for r in box)
                yield from ((0, *c, s) for s in box if s)
                continue
            for r in range(1, bound + 1):
                s, rem = divmod(h, r)
                if not rem and -bound <= s <= bound:
                    yield (r, *c, s)
                    yield (-r, *c, -s)


def _quotient_rays(points, vcs: Sequence[int]) -> set:
    """(v, v) = 0: classes live in v-perp / <v>. Reduce each point modulo v
    deterministically, keep residues primitive in the quotient, and return
    one canonical ambient representative per ray (the square is well
    defined mod v)."""
    rays = set()
    for u in points:
        res = _reduce_mod_v(u, vcs)
        if not any(res):
            continue
        if minors2_gcd(res, vcs) != 1:
            continue  # not primitive in the quotient
        # one representative per quotient ray: reduce both signs, keep the
        # lexicographically smaller residue
        rays.add(min(res, _reduce_mod_v([-x for x in u], vcs)))
    return rays


def _reduce_mod_v(u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    """Canonical representative of u modulo integer multiples of v: floor-
    reduce the first coordinate where v is nonzero."""
    j = next(i for i, x in enumerate(v) if x != 0)
    k = u[j] // v[j]
    return tuple(a - k * b for a, b in zip(u, v))
