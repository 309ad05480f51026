"""Numerical wall-and-chamber computation for a fixed class in a
two-parameter slice beta = beta0 + b H, omega = t H of stability parameters.

A potential wall for v is the locus where some class w has Z(w) / Z(v) real.
The charge is linear in the class, so this locus, divided by the overall
factor t, is an exact conic A (b^2 + t^2) + B b + D = 0 in closed form: a
semicircle centered on the b-axis, a vertical line, or nothing. Everything
is computed and classified in exact rational arithmetic. Walls are
"potential" (charge alignment only): among classes w inside the search box
(every coordinate bounded by the search bound) they include every actual
wall, but walls of classes outside the box are not seen, and the sampling
oracle enumerates the same box, so it cannot find them either.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .charges import charge_functional, evaluate_charge_row
from .errors import ChargeError, LatticeError
from .gaussian import GaussianRational, as_fraction
from .lattice import MukaiVector, NSLattice, mukai_pairing
from .linalg import primitive_vector


@dataclass(frozen=True)
class SliceParams:
    """Two-parameter family beta = beta0 + b * direction, omega = t * t_axis.

    The conic classification below needs direction == t_axis (the standard
    slice along the ample class), which is enforced.
    """

    lattice: NSLattice
    beta0: Tuple[Fraction, ...]
    direction: Tuple[int, ...] = ()
    t_axis: Tuple[int, ...] = ()
    # the charge at the base point (beta0, t_axis), derived on construction
    z0: Tuple[GaussianRational, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta0 = tuple(as_fraction(x) for x in self.beta0)
        if len(beta0) != self.lattice.rank:
            raise LatticeError("beta0 has wrong NS rank")
        direction = tuple(int(x) for x in (self.direction or self.lattice.ample))
        t_axis = tuple(int(x) for x in (self.t_axis or self.lattice.ample))
        if direction != t_axis:
            raise LatticeError("slice needs direction == t_axis for the conic shape")
        if self.lattice.ns_dot(t_axis, t_axis) <= 0:
            raise LatticeError("slice axis must have positive self-intersection")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "t_axis", t_axis)
        object.__setattr__(self, "z0", tuple(charge_functional(self.lattice, beta0, t_axis)))

    def axis_sq(self) -> Fraction:
        return self.lattice.ns_dot(self.t_axis, self.t_axis)


@dataclass(frozen=True)
class Region:
    """Rectangle b in [b_min, b_max], t in [t_min, t_max] with t_min > 0
    (walls accumulate towards t = 0, so the axis is refused)."""

    b_min: Fraction
    b_max: Fraction
    t_min: Fraction
    t_max: Fraction

    def __post_init__(self):
        vals = {k: as_fraction(getattr(self, k)) for k in
                ("b_min", "b_max", "t_min", "t_max")}
        for k, v in vals.items():
            object.__setattr__(self, k, v)
        if self.b_min > self.b_max or self.t_min > self.t_max:
            raise ValueError("empty region")
        if self.t_min <= 0:
            raise ValueError("t_min must be strictly positive")


class WallKind(enum.Enum):
    SEMICIRCLE = "SEMICIRCLE"
    VERTICAL_LINE = "VERTICAL_LINE"
    EMPTY = "EMPTY"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class WallLocus:
    """Conic locus of charge alignment between v and w on the slice."""

    v: MukaiVector
    w: MukaiVector
    conic: Tuple[Fraction, Fraction, Fraction, Fraction]  # A, B, C(=0), D
    kind: WallKind
    center: Optional[Fraction] = None
    radius_sq: Optional[Fraction] = None

    def key(self) -> Tuple[int, int, int, int]:
        """Conic normalized to coprime integers with positive leading entry;
        loci with equal keys are the same wall."""
        return tuple(primitive_vector(self.conic))

    def sort_key(self):
        rank = {WallKind.VERTICAL_LINE: 0, WallKind.SEMICIRCLE: 1,
                WallKind.EMPTY: 2, WallKind.DEGENERATE: 3}[self.kind]
        return (rank, self.center if self.center is not None else Fraction(0),
                self.radius_sq if self.radius_sq is not None else Fraction(0),
                self.key())


# -- exact charge on the slice -------------------------------------------------


def slice_charge(slice_: SliceParams, vec: MukaiVector, b, t) -> GaussianRational:
    """Exact charge of a class at a rational point (b, t) of the slice (any
    rational t: no positive-cone check)."""
    lat = slice_.lattice
    if len(vec.c) != lat.rank:
        raise LatticeError("vector has wrong NS rank")
    b, t = as_fraction(b), as_fraction(t)
    beta = [x + b * h for x, h in zip(slice_.beta0, slice_.t_axis)]
    omega = [t * h for h in slice_.t_axis]
    return evaluate_charge_row(charge_functional(lat, beta, omega), vec.coords())


def wall_locus(v: MukaiVector, w: MukaiVector, slice_: SliceParams) -> WallLocus:
    """Classify the zero locus of Im(Z(w) conj(Z(v))) within t > 0.

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

    the nested-semicircle shape of the walls.
    """
    rank = slice_.lattice.rank
    if len(v.c) != rank or len(w.c) != rank:
        raise LatticeError("vector has wrong NS rank")
    z_v = evaluate_charge_row(slice_.z0, v.coords())
    z_w = evaluate_charge_row(slice_.z0, w.coords())
    d = slice_.axis_sq()
    a = d * (v.r * z_w.im - w.r * z_v.im) / 2
    b_coef = d * (v.r * z_w.re - w.r * z_v.re)
    d_coef = z_w.im * z_v.re - z_w.re * z_v.im - a
    conic = (a, b_coef, Fraction(0), d_coef)
    if a == 0 and b_coef == 0 and d_coef == 0:
        return WallLocus(v, w, conic, WallKind.DEGENERATE)
    if a == 0:
        if b_coef == 0:
            return WallLocus(v, w, conic, WallKind.EMPTY)
        return WallLocus(v, w, conic, WallKind.VERTICAL_LINE,
                         center=-d_coef / b_coef)
    center = -b_coef / (2 * a)
    radius_sq = center * center - d_coef / a
    if radius_sq <= 0:
        return WallLocus(v, w, conic, WallKind.EMPTY)
    return WallLocus(v, w, conic, WallKind.SEMICIRCLE, center=center,
                     radius_sq=radius_sq)


def locus_meets_region(loc: WallLocus, region: Region) -> bool:
    """Exact test whether the locus intersects the closed region (t > 0)."""
    if loc.kind is WallKind.VERTICAL_LINE:
        return region.b_min <= loc.center <= region.b_max
    if loc.kind is WallKind.SEMICIRCLE:
        c, q = loc.center, loc.radius_sq
        # range of rho^2 - (b - c)^2 over [b_min, b_max]
        if region.b_min <= c <= region.b_max:
            g_max = q
        else:
            near = region.b_min if c < region.b_min else region.b_max
            g_max = q - (near - c) ** 2
        far = region.b_min if abs(region.b_min - c) >= abs(region.b_max - c) else region.b_max
        g_min = q - (far - c) ** 2
        return g_max >= region.t_min ** 2 and g_min <= region.t_max ** 2
    return False


# -- candidate enumeration -----------------------------------------------------


def _is_proportional(v: MukaiVector, w: MukaiVector) -> bool:
    cv, cw = v.coords(), w.coords()
    for i in range(len(cv)):
        for j in range(i + 1, len(cv)):
            if cv[i] * cw[j] - cv[j] * cw[i] != 0:
                return False
    return True


def _candidate_filter(v: MukaiVector, w: MukaiVector, lat: NSLattice) -> bool:
    """Numerical constraints a destabilizing class must satisfy: both w and
    v - w are classes of would-be semistable objects (square >= -2) and
    span(v, w) is hyperbolic."""
    if w.is_zero() or _is_proportional(v, w):
        return False
    ww = mukai_pairing(w, w, lat)
    if ww < -2:
        return False
    rest = v - w
    if mukai_pairing(rest, rest, lat) < -2:
        return False
    vw = mukai_pairing(v, w, lat)
    vv = mukai_pairing(v, v, lat)
    return vw * vw > vv * ww


def _enumerate_candidates(v: MukaiVector, slice_: SliceParams,
                          search_bound: int) -> Iterable[MukaiVector]:
    lat = slice_.lattice
    if not lat.k3:
        raise ChargeError("candidate enumeration uses the K3 square bounds; "
                          "flag the lattice k3 or enumerate classes yourself")
    lat.require_even()
    n = lat.mukai_rank
    rng = range(-search_bound, search_bound + 1)
    for coords in itertools.product(rng, repeat=n):
        w = MukaiVector.from_coords(coords)
        if _candidate_filter(v, w, lat):
            yield w


def _distinct_loci(v: MukaiVector, slice_: SliceParams, search_bound: int,
                   keep: Callable[[WallLocus], bool]) -> List[WallLocus]:
    """One kept locus per distinct conic key: the one with the least w. The
    candidates come in increasing lexicographic order, so that is the first
    one seen. Loci with equal keys share kind and region verdict, so
    ``keep`` never separates them."""
    chosen: Dict[Tuple[int, int, int, int], WallLocus] = {}
    for w in _enumerate_candidates(v, slice_, search_bound):
        loc = wall_locus(v, w, slice_)
        if keep(loc):
            chosen.setdefault(loc.key(), loc)
    return list(chosen.values())


def scan_walls(v: MukaiVector, slice_: SliceParams, region: Region,
               search_bound: int) -> List[WallLocus]:
    """Potential walls for v meeting the region, one representative per
    distinct conic (the wall only depends on the rank-2 span, so w, v - w and
    w + k v all collapse to the same locus). Deterministically sorted."""
    if search_bound <= 0:
        raise ValueError("search_bound must be positive")

    def keep(loc: WallLocus) -> bool:
        return (loc.kind not in (WallKind.EMPTY, WallKind.DEGENERATE)
                and locus_meets_region(loc, region))

    return sorted(_distinct_loci(v, slice_, search_bound, keep),
                  key=WallLocus.sort_key)


def candidate_classes(v: MukaiVector, slice_: SliceParams, region: Region,
                      search_bound: int) -> List[MukaiVector]:
    """Representative destabilizing classes, one per potential wall."""
    return [loc.w for loc in scan_walls(v, slice_, region, search_bound)]


# -- sampling oracle -----------------------------------------------------------


@dataclass(frozen=True)
class OracleWall:
    locus: WallLocus
    detected: bool


def sampling_oracle(v: MukaiVector, slice_: SliceParams, region: Region,
                    grid: int, search_bound: int) -> List[OracleWall]:
    """Sign-flip sampling oracle: evaluate the exact sign of
    Im(Z(w) conj(Z(v))) on a (grid+1) x (grid+1) lattice over the region and
    flag each candidate wall whose sign flips between adjacent nodes (or hits
    an exact zero). Cross-checks the scan at grid scale; it enumerates the
    same candidate box, so it cannot see walls of classes outside it."""
    if grid < 2:
        raise ValueError("grid too coarse")
    cands = _distinct_loci(v, slice_, search_bound,
                           lambda loc: loc.kind is not WallKind.DEGENERATE)
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
    # sign changes and zeros survive scaling by a nonzero integer
    ai, bi, _, di = loc.key()
    td2 = t_den * t_den
    bd2 = b_den * b_den
    cols = [ai * bn * bn * td2 + bi * bn * b_den * td2 + di * bd2 * td2
            for bn in b_nums]
    t_terms = [ai * tn * tn * bd2 for tn in t_nums]
    nb, nt = len(b_nums), len(t_nums)
    signs = [[0] * nt for _ in range(nb)]
    for i in range(nb):
        ci = cols[i]
        row = signs[i]
        for j in range(nt):
            val = ci + t_terms[j]
            if val == 0:
                return True
            row[j] = 1 if val > 0 else -1
    for i in range(nb):
        row = signs[i]
        for j in range(nt - 1):
            if row[j] != row[j + 1]:
                return True
    for j in range(nt):
        for i in range(nb - 1):
            if signs[i][j] != signs[i + 1][j]:
                return True
    return False


# -- chambers along a vertical path --------------------------------------------


@dataclass(frozen=True)
class Crossing:
    t_squared: Fraction  # exact radicand: the crossing is at t = sqrt of this
    wall: WallLocus

    def t_decimal(self, digits: int = 30) -> str:
        return sqrt_decimal(self.t_squared, digits)


@dataclass(frozen=True)
class ChamberPath:
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
    nothing (an infinitesimal perturbation of b_star removes it)."""
    b_star, t_lo, t_hi = as_fraction(b_star), as_fraction(t_lo), as_fraction(t_hi)
    if not 0 < t_lo <= t_hi:
        raise ValueError("need 0 < t_lo <= t_hi")
    crossings = []
    coincident = []
    for wall in walls:
        if wall.kind is WallKind.VERTICAL_LINE:
            if wall.center == b_star:
                coincident.append(wall)
            continue
        if wall.kind is not WallKind.SEMICIRCLE:
            continue
        rad = wall.radius_sq - (b_star - wall.center) ** 2
        if rad <= 0:
            continue
        if t_lo ** 2 <= rad <= t_hi ** 2:
            crossings.append(Crossing(rad, wall))
    crossings.sort(key=lambda c: (c.t_squared, c.wall.sort_key()))
    return ChamberPath(b_star, t_lo, t_hi, tuple(crossings), tuple(coincident))


def sqrt_decimal(q: Fraction, digits: int = 30) -> str:
    """Decimal approximation of sqrt(q) to the given digits (floor-rounded)."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    scaled = isqrt(q.numerator * q.denominator * 10 ** (2 * digits)) // q.denominator
    s = str(scaled).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:]


# -- nesting check --------------------------------------------------------------


@dataclass(frozen=True)
class NestingReport:
    pairs_checked: int
    violations: Tuple[Tuple[WallLocus, WallLocus, str], ...]
    touching: Tuple[Tuple[WallLocus, WallLocus, str], ...]


def nesting_check(slice_: SliceParams, walls: Sequence[WallLocus]) -> NestingReport:
    """Pairwise geometry of the walls of a fixed v on a rank-1 slice: every
    pair of semicircles should be nested or disjoint; anything crossing is a
    finding (reported, not an error), touching pairs are listed separately."""
    if slice_.lattice.rank != 1:
        raise LatticeError("nesting check is a rank-1 slice statement")
    violations = []
    touching = []
    pairs = 0
    geoms = [wl for wl in walls if wl.kind in (WallKind.SEMICIRCLE,
                                               WallKind.VERTICAL_LINE)]
    for a, b in itertools.combinations(geoms, 2):
        pairs += 1
        rel = _pair_relation(a, b)
        if rel == "crossing":
            violations.append((a, b, rel))
        elif rel.startswith("touching"):
            touching.append((a, b, rel))
    return NestingReport(pairs, tuple(violations), tuple(touching))


def _pair_relation(a: WallLocus, b: WallLocus) -> str:
    if a.kind is WallKind.VERTICAL_LINE and b.kind is WallKind.VERTICAL_LINE:
        return "identical" if a.center == b.center else "disjoint"
    if a.kind is WallKind.VERTICAL_LINE or b.kind is WallKind.VERTICAL_LINE:
        line, circ = (a, b) if a.kind is WallKind.VERTICAL_LINE else (b, a)
        d2 = (line.center - circ.center) ** 2
        if d2 > circ.radius_sq:
            return "disjoint"
        if d2 == circ.radius_sq:
            return "touching at boundary"
        return "crossing"
    d2 = (a.center - b.center) ** 2
    diff = d2 - a.radius_sq - b.radius_sq
    rhs = 4 * a.radius_sq * b.radius_sq
    if diff * diff == rhs:
        if d2 == 0 and a.radius_sq == b.radius_sq:
            return "identical"
        return "touching"
    if diff > 0 and diff * diff > rhs:
        return "disjoint"
    if diff < 0 and diff * diff > rhs:
        return "nested"
    return "crossing"
