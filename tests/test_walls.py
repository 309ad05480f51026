import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import (LiftedGL2, NSLattice, MukaiVector, Region, SliceParams,
                     WallKind, chambers_along_path, gl2_act_on_charge,
                     nesting_check, scan_walls, slice_charge, wall_locus)
from conftest import random_even_ns_lattice
from stabkit.charges import charge_functional, evaluate_charge_row
from stabkit.errors import BudgetError, LatticeError
from stabkit.gaussian import gaussian
from stabkit.lattice import mukai_pairing
from stabkit.linalg import primitive_vector
from stabkit.walls import (ChamberPath, Crossing, NestingReport, WallLocus, _column_s,
                           _conic_rows, _distinct_loci, _signs_flip, locus_meets_region,
                           sampling_oracle, sqrt_decimal)


@pytest.fixture
def setup(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    region = Region(Fraction(-3), Fraction(0), Fraction(1, 10), Fraction(4))
    return sl, v, region


def test_vertical_line_example(setup):
    sl, v, _ = setup
    loc = wall_locus(v, MukaiVector(0, (0,), 1), sl)
    assert loc.kind is WallKind.VERTICAL_LINE
    assert loc.center == 0


def test_degenerate_for_proportional(setup):
    sl, v, _ = setup
    assert wall_locus(v, v.scale(4), sl).kind is WallKind.DEGENERATE
    assert wall_locus(v, v.scale(-2), sl).kind is WallKind.DEGENERATE


def test_conic_is_the_alignment_polynomial(setup):
    """The conic coefficients reproduce Im(Z(w) conj(Z(v))) = t * g(b, t)
    exactly at random rational points, and the charges align identically on a
    vertical-line wall."""
    sl, v, _ = setup
    rng = random.Random(63)
    for _ in range(200):
        w = MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        loc = wall_locus(v, w, sl)
        a, bc, cc, dc = loc.conic
        assert cc == 0
        b = Fraction(rng.randint(-12, 12), 4)
        t = Fraction(rng.randint(1, 16), 4)
        zv = slice_charge(sl, v, b, t)
        zw = slice_charge(sl, w, b, t)
        align = zw.im * zv.re - zw.re * zv.im
        assert align == t * (a * (b * b + t * t) + bc * b + dc)
    # the hand-derived vertical wall b = 0: alignment vanishes identically on it
    w0 = MukaiVector(0, (0,), 1)
    for k in range(1, 8):
        t = Fraction(k, 3)
        zv = slice_charge(sl, v, Fraction(0), t)
        zw = slice_charge(sl, w0, Fraction(0), t)
        assert zw.im * zv.re - zw.re * zv.im == 0


def test_wall_depends_only_on_rank2_span(setup):
    sl, v, _ = setup
    rng = random.Random(61)
    for _ in range(100):
        w = MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        loc = wall_locus(v, w, sl)
        if loc.kind is WallKind.DEGENERATE:
            continue
        for k in (-2, -1, 1, 3):
            loc2 = wall_locus(v, MukaiVector(w.r + k * v.r,
                                             tuple(a + k * b for a, b in zip(w.c, v.c)),
                                             w.s + k * v.s), sl)
            assert loc2.key() == loc.key()
        loc3 = wall_locus(v, v - w, sl)
        assert loc3.key() == loc.key()


def test_gl2_preserves_wall_membership(setup):
    """Realness of Z(w)/Z(v) is preserved by the matrix action on charges."""
    sl, v, _ = setup
    rng = random.Random(62)
    mats = []
    while len(mats) < 5:
        m = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(2)) for _ in range(2))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] > 0:
            mats.append(LiftedGL2(m, 0))
    checked = 0
    for _ in range(1000):
        w = MukaiVector(rng.randint(-4, 4), (rng.randint(-4, 4),), rng.randint(-4, 4))
        b = Fraction(rng.randint(-12, 12), 4)
        t = Fraction(rng.randint(1, 16), 4)
        zv = slice_charge(sl, v, b, t)
        zw = slice_charge(sl, w, b, t)
        if zv.is_zero() or zw.is_zero():
            continue
        aligned = (zw.im * zv.re - zw.re * zv.im == 0)
        g = mats[checked % len(mats)]
        gzv = gl2_act_on_charge(g, zv)
        gzw = gl2_act_on_charge(g, zw)
        assert (gzw.im * gzv.re - gzw.re * gzv.im == 0) == aligned
        checked += 1
    assert checked > 900


def test_scan_includes_vertical_line_and_monotone(setup):
    sl, v, region = setup
    walls5 = scan_walls(v, sl, region, 5)
    walls8 = scan_walls(v, sl, region, 8)
    keys5 = {w.key() for w in walls5}
    keys8 = {w.key() for w in walls8}
    assert keys5 <= keys8  # enlarging the bound never removes a wall
    assert any(w.kind is WallKind.VERTICAL_LINE and w.center == 0 for w in walls8)


def test_point_class_walls_are_vertical_lines(k3d2):
    """Z(0,0,1) is constant, so its walls are the vertical lines where the
    other charge turns real; at bound 1 these sit at half-integer b, so a
    region avoiding them has no walls at all."""
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(0, (0,), 1)
    wide = Region(Fraction(-2), Fraction(0), Fraction(1, 10), Fraction(2))
    for loc in scan_walls(v, sl, wide, 1):
        assert loc.kind is WallKind.VERTICAL_LINE
        assert loc.center.denominator in (1, 2)
    narrow = Region(Fraction(-3, 8), Fraction(-1, 8), Fraction(1, 10), Fraction(2))
    assert scan_walls(v, sl, narrow, 1) == []


def test_region_validation():
    with pytest.raises(ValueError):
        Region(Fraction(0), Fraction(1), Fraction(0), Fraction(1))  # t_min = 0
    with pytest.raises(ValueError):
        Region(Fraction(1), Fraction(0), Fraction(1), Fraction(2))


def test_locus_meets_region(setup):
    sl, v, _ = setup
    line = wall_locus(v, MukaiVector(0, (0,), 1), sl)  # b = 0
    assert locus_meets_region(line, Region(Fraction(-1), Fraction(1),
                                           Fraction(1, 10), Fraction(1)))
    assert not locus_meets_region(line, Region(Fraction(1), Fraction(2),
                                               Fraction(1, 10), Fraction(1)))
    # semicircle centered -2 with radius^2 3
    circ = WallLocus(v, MukaiVector(-8, (1,), 4), (Fraction(1), Fraction(4),
                     Fraction(0), Fraction(1)), WallKind.SEMICIRCLE,
                     center=Fraction(-2), radius_sq=Fraction(3))
    assert locus_meets_region(circ, Region(Fraction(-4), Fraction(0),
                                           Fraction(1), Fraction(2)))
    # top of circle is sqrt(3) < 2: a band above misses it
    assert not locus_meets_region(circ, Region(Fraction(-4), Fraction(0),
                                               Fraction(2), Fraction(3)))
    # narrow band far from the circle in b
    assert not locus_meets_region(circ, Region(Fraction(3), Fraction(4),
                                               Fraction(1), Fraction(2)))


def test_oracle_agrees_at_modest_grid(setup):
    sl, v, region = setup
    oracle = sampling_oracle(v, sl, region, 120, 6)
    detected = {ow.locus.key() for ow in oracle if ow.detected}
    enumerated = {w.key() for w in scan_walls(v, sl, region, 6)}
    assert detected == enumerated


def test_chambers_along_path(setup):
    sl, v, region = setup
    walls = scan_walls(v, sl, region, 5)
    path = chambers_along_path(Fraction(-1), Fraction(1, 10), Fraction(4), walls)
    assert path.chamber_count == len(path.crossings) + 1
    # crossings are t = sqrt(radicand) with the radicand in range, sorted
    rads = [c.t_squared for c in path.crossings]
    assert rads == sorted(rads)
    for c in path.crossings:
        assert Fraction(1, 100) <= c.t_squared <= 16
        # the crossing point satisfies the circle equation exactly
        w = c.wall
        assert (Fraction(-1) - w.center) ** 2 + c.t_squared == w.radius_sq
    # no walls: single chamber
    empty = chambers_along_path(Fraction(-1), Fraction(1), Fraction(2), [])
    assert empty.chamber_count == 1
    # vertical wall not at b*: zero crossings from it
    line = wall_locus(v, MukaiVector(0, (0,), 1), sl)
    only_line = chambers_along_path(Fraction(-1), Fraction(1), Fraction(2), [line])
    assert only_line.chamber_count == 1 and not only_line.coincident_walls
    on_line = chambers_along_path(Fraction(0), Fraction(1), Fraction(2), [line])
    assert on_line.coincident_walls == (line,)


def test_single_semicircle_crossing_example(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    circ = WallLocus(v, v, (Fraction(1), Fraction(2), Fraction(0), Fraction(0)),
                     WallKind.SEMICIRCLE, center=Fraction(-1), radius_sq=Fraction(1))
    path = chambers_along_path(Fraction(-1, 2), Fraction(1, 10), Fraction(4), [circ])
    assert len(path.crossings) == 1
    assert path.crossings[0].t_squared == Fraction(3, 4)
    assert path.crossings[0].t_decimal(30).startswith("0.8660254037844386467637231707")


def test_sqrt_decimal():
    assert sqrt_decimal(Fraction(1, 3), 30) == "0.577350269189625764509148780501"
    assert sqrt_decimal(Fraction(4), 5) == "2.00000"
    # no digits: the integer part, with no point
    assert sqrt_decimal(Fraction(4), 0) == "2"
    assert sqrt_decimal(Fraction(1, 4), 0) == "0"
    assert sqrt_decimal(Fraction(99), 0) == "9"
    with pytest.raises(ValueError, match="digits"):
        sqrt_decimal(Fraction(4), -1)


def test_nesting_no_violations_on_scan(setup):
    sl, v, region = setup
    walls = scan_walls(v, sl, region, 8)
    rep = nesting_check(sl, walls)
    assert rep.violations == ()


def test_nesting_detects_crossing_and_touching(setup):
    sl, v, _ = setup

    def circle(c, q):
        return WallLocus(v, v, (Fraction(1), Fraction(-2) * c, Fraction(0),
                                c * c - q), WallKind.SEMICIRCLE,
                         center=Fraction(c), radius_sq=Fraction(q))

    def line(b):
        return WallLocus(v, v, (Fraction(0), Fraction(1), Fraction(0),
                                Fraction(-b)), WallKind.VERTICAL_LINE,
                         center=Fraction(b))

    nested = nesting_check(sl, [circle(0, 4), circle(0, 1)])
    assert not nested.violations and not nested.touching
    crossing = nesting_check(sl, [circle(0, 4), circle(3, 4)])
    assert len(crossing.violations) == 1
    # line through an interior diameter point crosses; through the endpoint touches
    line_cross = nesting_check(sl, [circle(0, 4), line(1)])
    assert len(line_cross.violations) == 1
    line_touch = nesting_check(sl, [circle(0, 4), line(2)])
    assert len(line_touch.touching) == 1 and not line_touch.violations
    tangent = nesting_check(sl, [circle(0, 1), circle(3, 4)])
    assert len(tangent.touching) == 1 and not tangent.violations


def test_scan_monotone_in_region(setup):
    """Walls found in a subregion survive in any enclosing region."""
    sl, v, _ = setup
    small = Region(Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(2))
    big = Region(Fraction(-3), Fraction(0), Fraction(1, 10), Fraction(4))
    keys_small = {w.key() for w in scan_walls(v, sl, small, 6)}
    keys_big = {w.key() for w in scan_walls(v, sl, big, 6)}
    assert keys_small <= keys_big


def test_slice_charge_matches_k3_charge(k3d2):
    """slice_charge is the K3 charge evaluated at beta = beta0 + b H,
    omega = t H, exactly, including nonzero beta0."""
    from stabkit import ChargeParams, k3_charge
    rng = random.Random(64)
    sl = SliceParams(k3d2, (Fraction(1, 3),))
    for _ in range(150):
        vec = MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),),
                          rng.randint(-5, 5))
        b = Fraction(rng.randint(-9, 9), 4)
        t = Fraction(rng.randint(1, 12), 4)
        params = ChargeParams(k3d2, (Fraction(1, 3) + b,), (t,))
        assert slice_charge(sl, vec, b, t) == k3_charge(vec, params)


def test_slice_charge_matches_surface_charge():
    """On a non-K3 lattice the slice charge is the surface charge with the
    degree-4 slot read as ch2."""
    from stabkit import ChargeParams, ChernCharacter, NSLattice, surface_charge
    lat = NSLattice(2, ((2, 1), (1, -2)), (1, 0), k3=False)
    rng = random.Random(65)
    beta0 = (Fraction(1, 2), Fraction(-1, 3))
    sl = SliceParams(lat, beta0)
    h = lat.ample
    for _ in range(150):
        vec = MukaiVector(rng.randint(0, 5),
                          (rng.randint(-5, 5), rng.randint(-5, 5)),
                          rng.randint(-5, 5))
        b = Fraction(rng.randint(-9, 9), 4)
        t = Fraction(rng.randint(1, 12), 4)
        beta = tuple(b0 + b * hi for b0, hi in zip(beta0, h))
        omega = tuple(t * hi for hi in h)
        params = ChargeParams(lat, beta, omega)
        ch = ChernCharacter(vec.r, tuple(Fraction(x) for x in vec.c),
                            Fraction(vec.s))
        assert slice_charge(sl, vec, b, t) == surface_charge(ch, params)


def test_wall_locus_rank2_lattice_shape():
    """The conic structure (equal b^2/t^2 coefficients, no t term) holds on
    higher-rank slices with off-axis beta0 too; the locus still matches the
    exact alignment values."""
    from stabkit import NSLattice
    lat = NSLattice(2, ((2, 0), (0, -2)), (1, 0))
    sl = SliceParams(lat, (Fraction(1, 2), Fraction(2, 3)))
    rng = random.Random(66)
    v = MukaiVector(1, (1, 1), 0)
    for _ in range(100):
        w = MukaiVector(rng.randint(-4, 4),
                        (rng.randint(-4, 4), rng.randint(-4, 4)),
                        rng.randint(-4, 4))
        loc = wall_locus(v, w, sl)
        a, bc, cc, dc = loc.conic
        assert cc == 0
        b = Fraction(rng.randint(-9, 9), 3)
        t = Fraction(rng.randint(1, 9), 3)
        zv = slice_charge(sl, v, b, t)
        zw = slice_charge(sl, w, b, t)
        assert zw.im * zv.re - zw.re * zv.im == t * (a * (b * b + t * t) + bc * b + dc)


def test_oracle_containment_ten_random_configs(k3d2):
    """Whatever the grid detects is always among the enumerated walls (the
    converse equality needs a fine enough grid and is the acceptance check)."""
    rng = random.Random(67)
    for seed in range(10):
        v = MukaiVector(rng.randint(1, 2), (rng.randint(-2, 2),),
                        rng.randint(-3, 1))
        if v.is_zero():
            continue
        beta0 = (Fraction(rng.randint(-2, 2), 2),)
        sl = SliceParams(k3d2, beta0)
        region = Region(Fraction(-2), Fraction(1), Fraction(1, 4), Fraction(3))
        oracle = sampling_oracle(v, sl, region, 40, 4)
        detected = {ow.locus.key() for ow in oracle if ow.detected}
        enumerated = {w.key() for w in scan_walls(v, sl, region, 4)}
        assert detected <= enumerated, f"seed {seed}: oracle found extra walls"


def test_rank2_lattice_scan_oracle_equality():
    """Full pipeline on a Picard-rank-2 lattice: enumeration matches the
    sign-flip oracle at a modest grid."""
    from stabkit import NSLattice
    lat = NSLattice(2, ((2, 0), (0, -2)), (1, 0))
    sl = SliceParams(lat, (Fraction(0), Fraction(0)))
    v = MukaiVector(1, (0, 0), -1)
    region = Region(Fraction(-2), Fraction(0), Fraction(1, 4), Fraction(3))
    walls = scan_walls(v, sl, region, 2)
    oracle = sampling_oracle(v, sl, region, 80, 2)
    detected = {ow.locus.key() for ow in oracle if ow.detected}
    assert detected == {w.key() for w in walls}
    rep_count = len(walls)
    assert rep_count > 0


@st.composite
def slice_lattices(draw):
    """NS lattice of rank 1-3 and signature (1, rho - 1): a diagonal form
    conjugated by integer shears, with the ample class carried along. K3
    lattices are even; the others may be odd."""
    rank = draw(st.integers(1, 3))
    k3 = draw(st.booleans())
    diag = [draw(st.integers(1, 4))] + [-draw(st.integers(1, 4)) for _ in range(rank - 1)]
    if k3:
        diag = [2 * x for x in diag]
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 3)) if rank > 1 else 0):
        i, j = draw(st.permutations(range(rank)))[:2]
        k = draw(st.integers(-2, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]  # row_i += k row_j
        for row in u_inv:  # so column_j -= k column_i
            row[j] -= k * row[i]
    gram = tuple(tuple(sum(u[m][i] * diag[m] * u[m][j] for m in range(rank))
                       for j in range(rank)) for i in range(rank))
    ample = tuple(row[0] for row in u_inv)  # u ample = e_0, square diag[0]
    return NSLattice(rank, gram, ample, k3=k3)


def expanded_charge(gram, beta, omega, vec):
    """-integral of e^(-i omega - beta) times the class (r, c, s), expanded
    term by term: s + x.c + r x^2 / 2 with x = -beta - i omega. The last
    slot is Mukai s (ch sqrt(td)) on a K3 and ch2 otherwise."""
    r, *c, s = vec
    x = [gaussian(-b, -o) for b, o in zip(beta, omega)]
    n = len(x)
    x_c = sum((x[i] * gram[i][j] * c[j] for i in range(n) for j in range(n)), gaussian(0))
    x_sq = sum((x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)), gaussian(0))
    return -(gaussian(s) + x_c + x_sq * Fraction(r, 2))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@given(data=st.data(), lat=slice_lattices(), b=rationals,
       t=st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12))
def test_conic_matches_expanded_alignment(data, lat, b, t):
    """t (A (b^2 + t^2) + B b + D) is Im Z(w) Re Z(v) - Re Z(w) Im Z(v) for
    charges expanded from the integral here, not from the library."""
    beta0 = tuple(data.draw(rationals) for _ in range(lat.rank))
    classes = st.lists(st.integers(-5, 5), min_size=lat.mukai_rank,
                       max_size=lat.mukai_rank)
    v = MukaiVector.from_coords(data.draw(classes))
    w = MukaiVector.from_coords(data.draw(classes))
    a, bc, cc, dc = wall_locus(v, w, SliceParams(lat, beta0)).conic
    h = lat.ample
    beta = [x + b * hi for x, hi in zip(beta0, h)]
    omega = [t * hi for hi in h]
    zv = expanded_charge(lat.gram, beta, omega, v.coords())
    zw = expanded_charge(lat.gram, beta, omega, w.coords())
    assert cc == 0
    assert t * (a * (b * b + t * t) + bc * b + dc) == zw.im * zv.re - zw.re * zv.im


def test_wall_locus_rejects_wrong_ns_rank(setup):
    sl, v, _ = setup
    with pytest.raises(LatticeError):
        wall_locus(v, MukaiVector(1, (0, 0), -1), sl)
    with pytest.raises(LatticeError):
        wall_locus(MukaiVector(1, (0, 0), -1), v, sl)


def test_replaced_base_point_moves_the_walls(k3d2):
    """A slice is its lattice and base point: one made with ``_replace``
    equals the one built directly and gives the walls of its own beta0."""
    half = SliceParams(k3d2, [Fraction(1, 2)])
    moved = SliceParams(k3d2, [0])._replace(beta0=(Fraction(1, 2),))
    assert moved == half
    v, w = MukaiVector(1, (0,), -1), MukaiVector(1, (-1,), 1)
    for sl in (moved, half):
        assert wall_locus(v, w, sl).conic == (-2, -6, 0, Fraction(-9, 2))
    assert wall_locus(v, w, SliceParams(k3d2, [0])).conic == (-2, -4, 0, -2)


# -- reference: the Fraction box scan that the integer kernel replaced ---------


def ref_locus(v, w, sl):
    """The wall conic from two charge evaluations at the base point, then
    classified in Fractions."""
    z0 = charge_functional(sl.lattice, sl.beta0, sl.lattice.ample)
    z_v = evaluate_charge_row(z0, v.coords())
    z_w = evaluate_charge_row(z0, w.coords())
    d = sl.axis_sq()
    a = d * (v.r * z_w.im - w.r * z_v.im) / 2
    b = d * (v.r * z_w.re - w.r * z_v.re)
    dc = z_w.im * z_v.re - z_w.re * z_v.im - a
    conic = (a, b, Fraction(0), dc)
    if a == 0 and b == 0 and dc == 0:
        return WallLocus(v, w, conic, WallKind.DEGENERATE)
    if a == 0:
        if b == 0:
            return WallLocus(v, w, conic, WallKind.EMPTY)
        return WallLocus(v, w, conic, WallKind.VERTICAL_LINE, center=-dc / b)
    center = -b / (2 * a)
    radius_sq = center * center - dc / a
    if radius_sq <= 0:
        return WallLocus(v, w, conic, WallKind.EMPTY)
    return WallLocus(v, w, conic, WallKind.SEMICIRCLE, center=center,
                     radius_sq=radius_sq)


def ref_candidate(v, w, lat):
    """w != 0, w not proportional to v, w^2 >= -2, (v - w)^2 >= -2 and
    (v.w)^2 > v^2 w^2, through the Mukai pairing."""
    cv, cw = v.coords(), w.coords()
    if w.is_zero() or all(cv[i] * cw[j] == cv[j] * cw[i]
                          for i in range(len(cv)) for j in range(i + 1, len(cv))):
        return False
    ww = mukai_pairing(w, w, lat)
    if ww < -2 or mukai_pairing(v - w, v - w, lat) < -2:
        return False
    vw = mukai_pairing(v, w, lat)
    return vw * vw > mukai_pairing(v, v, lat) * ww


def ref_box_loci(v, sl, bound):
    """One non-degenerate locus per conic key, the one of the least w."""
    chosen = {}
    rng = range(-bound, bound + 1)
    for coords in itertools.product(rng, repeat=sl.lattice.mukai_rank):
        w = MukaiVector.from_coords(coords)
        if ref_candidate(v, w, sl.lattice):
            loc = ref_locus(v, w, sl)
            if loc.kind is not WallKind.DEGENERATE:
                chosen.setdefault(loc.key(), loc)
    return sorted(chosen.values(), key=WallLocus.sort_key)


def ref_walls_in(loci, region):
    """The loci that scan_walls keeps: not empty and meeting the region."""
    return [loc for loc in loci
            if loc.kind is not WallKind.EMPTY and ref_meets_region(loc, region)]


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def box_scans(draw):
    """A random even K3 lattice of rank 1-3 with v, beta0, a region and a
    bound of 1-3."""
    rank = draw(st.integers(1, 3))
    lat = random_even_ns_lattice(random.Random(draw(st.integers(0, 2 ** 32))), rank)
    v = MukaiVector.from_coords(draw(
        st.lists(st.integers(-3, 3), min_size=rank + 2, max_size=rank + 2).filter(any)))
    beta0 = tuple(draw(small_rationals) for _ in range(rank))
    b_min = draw(st.fractions(min_value=-8, max_value=2, max_denominator=3))
    t_min = draw(st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=10))
    width = st.fractions(min_value=0, max_value=8, max_denominator=3)
    region = Region(b_min, b_min + draw(width), t_min, t_min + draw(width))
    return lat, v, SliceParams(lat, beta0), region, draw(st.integers(1, 3))


@settings(max_examples=40)
@given(case=box_scans(), grid=st.integers(2, 12))
def test_integer_scan_matches_fraction_reference(case, grid):
    """scan_walls and sampling_oracle return exactly the loci of the Fraction
    box scan: same keys, same least w, same conic, kind, center and radius."""
    lat, v, sl, region, bound = case
    loci = ref_box_loci(v, sl, bound)
    assert scan_walls(v, sl, region, bound) == ref_walls_in(loci, region)
    assert [ow.locus for ow in sampling_oracle(v, sl, region, grid, bound)] == loci


def ref_pair_relation(a, b):
    """Relation of two walls from their Fraction centers and radii."""
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


def circle_wall(c, q, scale=1):
    """Semicircle of center c and radius^2 q, its conic scaled by ``scale``."""
    c, q = Fraction(c), Fraction(q)
    v = MukaiVector(1, (0,), -1)
    conic = tuple(scale * x for x in (Fraction(1), -2 * c, Fraction(0), c * c - q))
    return WallLocus(v, v, conic, WallKind.SEMICIRCLE, center=c, radius_sq=q)


def line_wall(b, scale=1):
    b = Fraction(b)
    v = MukaiVector(1, (0,), -1)
    conic = tuple(scale * x for x in (Fraction(0), Fraction(1), Fraction(0), -b))
    return WallLocus(v, v, conic, WallKind.VERTICAL_LINE, center=b)


RANK1_SLICE = SliceParams(NSLattice(1, ((2,),), (1,)), (0,))
coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
radii_sq = st.fractions(min_value=Fraction(1, 36), max_value=9, max_denominator=36)
scales = st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(2, 7), Fraction(5)])
walls_st = st.one_of(st.builds(circle_wall, coords, radii_sq, scales),
                     st.builds(line_wall, coords, scales))


@pytest.mark.parametrize("a, b, rel", [
    (circle_wall(0, 1), circle_wall(3, 4), "touching"),  # outside
    (circle_wall(0, 4), circle_wall(1, 1), "touching"),  # inside
    (circle_wall(Fraction(1, 3), Fraction(5, 9)),
     circle_wall(Fraction(1, 3), Fraction(5, 9), -2), "identical"),
    (circle_wall(-1, 2), line_wall(-1), "crossing"),  # through the center
    (circle_wall(0, 4), line_wall(-2), "touching at boundary"),
    (line_wall(Fraction(1, 2)), line_wall(Fraction(1, 2), 4), "identical"),
    (line_wall(Fraction(1, 2)), line_wall(1), "disjoint"),  # equal d in the keys
    (circle_wall(0, 4), circle_wall(0, 1), "nested"),
    (circle_wall(0, 1), circle_wall(5, 1), "disjoint"),
])
def test_key_relation_pinned(a, b, rel):
    """nesting_check lists a crossing pair as a violation and a touching
    pair as touching, with its relation, in either order; identical, nested
    and disjoint pairs not at all."""
    assert ref_pair_relation(a, b) == rel
    for pair in ([a, b], [b, a]):
        rep = nesting_check(RANK1_SLICE, pair)
        assert rep.pairs_checked == 1
        assert rep.violations == (((*pair, rel),) if rel == "crossing" else ())
        assert rep.touching == (((*pair, rel),) if rel.startswith("touching") else ())


@given(a=walls_st, b=walls_st)
def test_key_relation_matches_fraction_reference(a, b):
    """nesting_check on two walls decides them as the Fraction relation on
    centers and radii does, for circles and lines at any conic scale."""
    assert nesting_check(RANK1_SLICE, [a, b]) == ref_nesting_check([a, b])


def ref_nesting_check(walls):
    """The all-pairs nesting report: ``ref_pair_relation`` on each pair of
    semicircles and lines, in ``itertools.combinations`` order."""
    geoms = [w for w in walls
             if w.kind in (WallKind.SEMICIRCLE, WallKind.VERTICAL_LINE)]
    violations, touching = [], []
    for a, b in itertools.combinations(geoms, 2):
        rel = ref_pair_relation(a, b)
        if rel == "crossing":
            violations.append((a, b, rel))
        elif rel.startswith("touching"):
            touching.append((a, b, rel))
    return NestingReport(len(geoms) * (len(geoms) - 1) // 2, tuple(violations),
                         tuple(touching))


def rational_ends(wall):
    """The ends of a wall on the b-axis that are rational: a line's point,
    and a circle's two ends when its radius is rational."""
    if wall.kind is WallKind.VERTICAL_LINE:
        return [wall.center]
    q = wall.radius_sq
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return [wall.center - Fraction(rn, rd), wall.center + Fraction(rn, rd)]
    return []


def span_wall(x, y, scale=1):
    """The semicircle over the interval between x != y."""
    return circle_wall((x + y) / 2, ((y - x) / 2) ** 2, scale)


@st.composite
def wall_lists(draw):
    """Up to 14 circles and lines, some of them repeats of earlier ones,
    some circles and lines built on the rational ends of earlier ones (so
    tangent circles and lines through an end are common) and some empty
    loci, which the check skips."""
    walls = []
    for _ in range(draw(st.integers(0, 14))):
        ends = sorted({e for w in walls if w.kind is not WallKind.EMPTY
                       for e in rational_ends(w)})
        pick = draw(st.integers(0, 4))
        if pick == 1 and walls:
            walls.append(draw(st.sampled_from(walls)))
        elif pick == 2 and ends:
            x, y = draw(st.sampled_from(ends)), draw(st.sampled_from(ends) | coords)
            walls.append(span_wall(x, y if y != x else x + 1, draw(scales)))
        elif pick == 3 and ends:
            walls.append(line_wall(draw(st.sampled_from(ends)), draw(scales)))
        elif pick == 4:
            walls.append(WallLocus(MukaiVector(1, (0,), -1), MukaiVector(0, (1,), 0),
                                   (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
                                   WallKind.EMPTY))
        else:
            x, width = draw(coords), draw(st.fractions(min_value=Fraction(1, 6), max_value=4,
                                                       max_denominator=6))
            walls.append(draw(walls_st | st.just(span_wall(x, x + width, draw(scales)))))
    return walls


@settings(max_examples=300)
@given(walls=wall_lists())
def test_nesting_sweep_matches_all_pairs_reference(walls):
    """The sweep gives the all-pairs report: the same pair count and the
    same crossing and touching pairs, in the same order."""
    assert nesting_check(RANK1_SLICE, walls) == ref_nesting_check(walls)


@pytest.mark.parametrize("walls", [
    # a line within 2^-70 of the end sqrt(2) of a circle, on either side
    [circle_wall(0, 2), line_wall(Fraction(isqrt(2 << 140), 2 ** 70))],
    [circle_wall(0, 2), line_wall(Fraction(isqrt(2 << 140) + 1, 2 ** 70))],
    [line_wall(Fraction(-isqrt(3 << 140), 2 ** 70)), circle_wall(0, 3)],
    [line_wall(Fraction(-isqrt(3 << 140) - 1, 2 ** 70)), circle_wall(0, 3)],
    # ends that differ by about 2^-80: nested, crossing and disjoint circles
    [circle_wall(0, 2), circle_wall(0, 2 + Fraction(1, 2 ** 78))],
    [circle_wall(0, 2), circle_wall(Fraction(1, 2 ** 80), 2)],
    [circle_wall(0, 2), circle_wall(Fraction(1, 2 ** 80), 2 + Fraction(1, 2 ** 78))],
    # one circle's end on a rational point near another's irrational end
    [circle_wall(0, 2), span_wall(Fraction(isqrt(2 << 140), 2 ** 70), 5),
     span_wall(Fraction(isqrt(2 << 140) + 1, 2 ** 70), -5)],
])
def test_nesting_separates_points_closer_than_the_floor(walls):
    """Ends whose floors of 2^64 x are equal are ordered exactly."""
    assert nesting_check(RANK1_SLICE, walls) == ref_nesting_check(walls)


def test_wall_box_budget(setup, monkeypatch):
    """A box over the budget raises before it is walked and reports the
    largest bound whose box fits; the oracle shares the budget."""
    sl, v, region = setup
    monkeypatch.setenv("BRIDGELAND_BUDGET", "100")  # 5^3 > 100 >= 3^3
    for scan in (lambda: scan_walls(v, sl, region, 3),
                 lambda: sampling_oracle(v, sl, region, 10, 3)):
        with pytest.raises(BudgetError) as err:
            scan()
        assert err.value.bound_reached == 1
    monkeypatch.setenv("BRIDGELAND_BUDGET", "125")  # exactly the bound-2 box
    assert scan_walls(v, sl, region, 2) == ref_walls_in(ref_box_loci(v, sl, 2), region)
    with pytest.raises(BudgetError) as err:
        scan_walls(v, sl, region, 3)
    assert err.value.bound_reached == 2
    monkeypatch.setenv("BRIDGELAND_BUDGET", "124")
    with pytest.raises(BudgetError) as err:
        scan_walls(v, sl, region, 2)
    assert err.value.bound_reached == 1


def test_oracle_grid_budget(setup, monkeypatch):
    """The oracle counts grid + 1 values per locus against the budget before
    it evaluates a sign, and reports the largest grid that fits. The bound-3
    box has 7^3 = 343 classes and 3 distinct loci, so grid 200 needs
    201 * 3 = 603 values."""
    sl, v, region = setup
    monkeypatch.setenv("BRIDGELAND_BUDGET", "603")
    assert len(sampling_oracle(v, sl, region, 200, 3)) == 3
    with pytest.raises(BudgetError, match="oracle grid of 606 values") as err:
        sampling_oracle(v, sl, region, 201, 3)
    assert err.value.bound_reached == 200
    monkeypatch.setenv("BRIDGELAND_BUDGET", "602")
    with pytest.raises(BudgetError) as err:
        sampling_oracle(v, sl, region, 200, 3)
    assert err.value.bound_reached == 199


def table_signs_flip(loc, b_nums, b_den, t_nums, t_den):
    """Reference sign-flip test: fill the whole sign table of the conic on
    the grid, then compare every pair of adjacent nodes."""
    ai, bi, _, di = loc.key()
    signs = []
    for bn in b_nums:
        row = []
        for tn in t_nums:
            val = (ai * (bn * bn * t_den * t_den + tn * tn * b_den * b_den)
                   + bi * bn * b_den * t_den * t_den + di * b_den * b_den * t_den * t_den)
            if val == 0:
                return True
            row.append(val > 0)
        signs.append(row)
    rows_flip = any(row[j] != row[j + 1] for row in signs for j in range(len(row) - 1))
    cols_flip = any(signs[i][j] != signs[i + 1][j]
                    for i in range(len(signs) - 1) for j in range(len(t_nums)))
    return rows_flip or cols_flip


@given(key=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)).filter(any),
       nums=st.integers(2, 12).flatmap(lambda g: st.tuples(
           *[st.lists(st.integers(-12, 12), min_size=g + 1, max_size=g + 1)] * 2)),
       b_den=st.integers(1, 4), t_den=st.integers(1, 4))
def test_streaming_signs_flip_matches_full_table(key, nums, b_den, t_den):
    """The closed-form oracle test gives the verdict of the full sign table
    on every grid, for integer conic keys (a, b, 0, d)."""
    a, b, d = key
    v = MukaiVector(1, (0,), -1)
    loc = WallLocus(v, v, (Fraction(a), Fraction(b), Fraction(0), Fraction(d)),
                    WallKind.SEMICIRCLE)
    b_nums, t_nums = nums
    assert _signs_flip(loc, b_nums, b_den, t_nums, t_den) == \
        table_signs_flip(loc, b_nums, b_den, t_nums, t_den)


# -- references: the Fraction region test, path crossings and box loop ---------


def ref_meets_region(loc, region):
    """The region test on Fraction centers and radii."""
    if loc.kind is WallKind.VERTICAL_LINE:
        return region.b_min <= loc.center <= region.b_max
    if loc.kind is WallKind.SEMICIRCLE:
        c, q = loc.center, loc.radius_sq
        if region.b_min <= c <= region.b_max:
            g_max = q
        else:
            near = region.b_min if c < region.b_min else region.b_max
            g_max = q - (near - c) ** 2
        far = region.b_min if abs(region.b_min - c) >= abs(region.b_max - c) else region.b_max
        g_min = q - (far - c) ** 2
        return g_max >= region.t_min ** 2 and g_min <= region.t_max ** 2
    return False


def ref_chambers_along_path(b_star, t_lo, t_hi, walls):
    """The path crossings on Fraction centers and radii."""
    crossings, coincident = [], []
    for wall in walls:
        if wall.kind is WallKind.VERTICAL_LINE:
            if wall.center == b_star:
                coincident.append(wall)
            continue
        if wall.kind is not WallKind.SEMICIRCLE:
            continue
        rad = wall.radius_sq - (b_star - wall.center) ** 2
        if rad > 0 and t_lo ** 2 <= rad <= t_hi ** 2:
            crossings.append(Crossing(rad, wall))
    crossings.sort(key=lambda c: (c.t_squared, c.wall.sort_key()))
    return ChamberPath(b_star, t_lo, t_hi, tuple(crossings), tuple(coincident))


mixed = st.fractions(min_value=-5, max_value=5, max_denominator=12)
positive = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12)
SHAPES = ("random", "line", "empty", "at_point", "through_low", "through_high", "tangent")


@st.composite
def hand_built_wall(draw, b, t_lo, t_hi, b_alt):
    """A hand-built locus whose conic is drawn apart from its center and
    radius (so it may disagree with them). Besides random shapes, it may be
    a line at b (or at b_alt), or a semicircle that meets the vertical line
    at b exactly at t_lo^2, at t_hi^2 or tangentially (rad = 0)."""
    shape = draw(st.sampled_from(SHAPES))
    v = MukaiVector(1, (0,), -1)
    w = MukaiVector(draw(st.integers(-2, 2)), (draw(st.integers(-2, 2)),), 1)
    conic = (draw(mixed), draw(mixed), Fraction(0), draw(mixed))
    c = draw(st.sampled_from([b, b_alt])) if draw(st.booleans()) else draw(mixed)
    if shape == "line":
        return WallLocus(v, w, conic, WallKind.VERTICAL_LINE, center=c)
    if shape == "empty":
        return WallLocus(v, w, conic, draw(st.sampled_from([WallKind.EMPTY,
                                                            WallKind.DEGENERATE])))
    if shape == "at_point":  # a line at b itself
        return WallLocus(v, w, conic, WallKind.VERTICAL_LINE, center=b)
    gap = (b - c) ** 2
    q = {"random": draw(positive), "through_low": gap + t_lo ** 2,
         "through_high": gap + t_hi ** 2, "tangent": gap}[shape]
    return WallLocus(v, w, conic, WallKind.SEMICIRCLE, center=c,
                     radius_sq=q if q > 0 else draw(positive))


@settings(max_examples=300)
@given(data=st.data(), b=mixed, ts=st.tuples(positive, positive))
def test_integer_path_matches_fraction_reference(data, b, ts):
    """chambers_along_path equals the Fraction reference: same crossings
    (radicands, walls and order, ties broken by sort_key) and the same
    coincident lines, with crossings at exactly t_lo^2 and t_hi^2,
    tangent circles, lines at b and equal circles with unequal conics."""
    t_lo, t_hi = sorted(ts)
    walls = data.draw(st.lists(hand_built_wall(b, t_lo, t_hi, data.draw(mixed)), max_size=8))
    walls += data.draw(st.lists(st.sampled_from(walls), max_size=2)) if walls else []
    assert chambers_along_path(b, t_lo, t_hi, walls) == \
        ref_chambers_along_path(b, t_lo, t_hi, walls)


@st.composite
def region_and_wall(draw):
    """A region with mixed-sign, mixed-denominator ends, and a hand-built
    locus placed against it: its center random, at an end or inside, its
    radius^2 random or exactly t_min^2 above the near end (the circle
    touches the bottom edge) or t_max^2 above the far end (the top edge)."""
    b_min, b_max = sorted((draw(mixed), draw(mixed)))
    t_min, t_max = sorted((draw(positive), draw(positive)))
    region = Region(b_min, b_max, t_min, t_max)
    inside = b_min + (b_max - b_min) * draw(st.fractions(0, 1, max_denominator=4))
    c = draw(st.sampled_from([b_min, b_max, inside, draw(mixed)]))
    near = min(max(c, b_min), b_max)
    far = b_min if abs(b_min - c) >= abs(b_max - c) else b_max
    q = draw(st.sampled_from([draw(positive), (near - c) ** 2 + t_min ** 2,
                              (far - c) ** 2 + t_max ** 2]))
    v = MukaiVector(1, (0,), -1)
    conic = (draw(mixed), draw(mixed), Fraction(0), draw(mixed))
    kind = draw(st.sampled_from(list(WallKind)))
    if kind is WallKind.SEMICIRCLE:
        return region, WallLocus(v, v, conic, kind, center=c, radius_sq=q)
    if kind is WallKind.VERTICAL_LINE:
        return region, WallLocus(v, v, conic, kind, center=c)
    return region, WallLocus(v, v, conic, kind)


@settings(max_examples=400)
@given(case=region_and_wall())
def test_integer_region_test_matches_fraction_reference(case):
    region, loc = case
    assert locus_meets_region(loc, region) == ref_meets_region(loc, region)


def test_region_and_path_boundaries_pinned():
    """Each boundary the integer tests decide: a circle touching the
    region's bottom or top edge, a line or circle center at a region end,
    crossings at exactly t_lo^2 and t_hi^2, a tangent circle and a line at
    b*."""
    v = MukaiVector(1, (0,), -1)
    conic = (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
    circ = lambda c, q: WallLocus(v, v, conic, WallKind.SEMICIRCLE, center=Fraction(c),
                                  radius_sq=Fraction(q))
    line = lambda c: WallLocus(v, v, conic, WallKind.VERTICAL_LINE, center=Fraction(c))
    region = Region(Fraction(-1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 2))
    # center -1 left of b_min: rho^2 - 1/4 against t_min^2 = 1/9
    assert locus_meets_region(circ(-1, Fraction(1, 4) + Fraction(1, 9)), region)
    assert not locus_meets_region(circ(-1, Fraction(1, 4) + Fraction(1, 10)), region)
    # center at b_min: the far end 2/3 is 7/6 away, t_max^2 = 9/4
    assert locus_meets_region(circ(Fraction(-1, 2), Fraction(49, 36) + Fraction(9, 4)), region)
    assert not locus_meets_region(circ(Fraction(-1, 2), Fraction(49, 36) + Fraction(23, 10)),
                                  region)
    assert locus_meets_region(line(Fraction(2, 3)), region)
    assert not locus_meets_region(line(Fraction(7, 10)), region)
    b, lo, hi = Fraction(-1, 3), Fraction(1, 5), Fraction(5, 4)
    walls = [circ(1, Fraction(16, 9) + lo * lo), circ(-2, Fraction(25, 9) + hi * hi),
             circ(Fraction(1, 2), Fraction(25, 36)), line(b), line(Fraction(-1, 4))]
    path = chambers_along_path(b, lo, hi, walls)
    assert [c.t_squared for c in path.crossings] == [lo * lo, hi * hi]
    assert path.coincident_walls == (walls[3],)
    assert path == ref_chambers_along_path(b, lo, hi, walls)


def ref_distinct_loci(v, sl, bound):
    """The box walk as it was before the conic rows were hoisted: three row
    products per passing class, classified in Fractions (``ref_locus``)."""
    gram = sl.lattice.gram
    rv, sv = v.r, v.s
    gv_c = [sum(x * y for x, y in zip(row, v.c)) for row in gram]
    vv = sum(x * y for x, y in zip(v.c, gv_c)) - 2 * rv * sv
    gv_head = (-sv, *gv_c)
    rows, den = _conic_rows(v, sl)
    rng = range(-bound, bound + 1)
    seen, out = set(), []
    for head in itertools.product(rng, repeat=len(gv_head)):
        r, c = head[0], head[1:]
        cc = sum(x * sum(y * z for y, z in zip(row, c)) for x, row in zip(c, gram))
        vw_head = sum(x * y for x, y in zip(gv_head, head))
        for s in rng:
            ww = cc - 2 * r * s
            vw = vw_head - rv * s
            if ww < -2 or vv - 2 * vw + ww < -2 or vw * vw <= vv * ww:
                continue
            w = (*head, s)
            a, b, d = (sum(x * y for x, y in zip(row, w)) for row in rows)
            key = tuple(primitive_vector((a, b, d)))
            if key == (0, 0, 0) or key in seen:
                continue
            seen.add(key)
            out.append(ref_locus(v, MukaiVector(r, c, s), sl))
    return tuple(out)


@settings(max_examples=40)
@given(case=box_scans())
def test_hoisted_box_walk_matches_per_class_loop(case):
    """The hoisted walk gives the same loci in the same (box) order with the
    same representative w, and each carries the key of its conic."""
    lat, v, sl, region, bound = case
    loci = _distinct_loci(v, sl, bound)
    assert loci == ref_distinct_loci(v, sl, bound)  # WallLocus equality compares w too
    assert all(loc.key() == tuple(primitive_vector(loc.conic)) for loc in loci)


def ref_column_s(r, cc, vw_head, rv, vv, bound):
    """The s of the column that pass the three candidate tests, one by one."""
    out = []
    for s in range(-bound, bound + 1):
        ww = cc - 2 * r * s
        vw = vw_head - rv * s
        if ww >= -2 and vv - 2 * vw + ww >= -2 and vw * vw > vv * ww:
            out.append(s)
    return out


@st.composite
def factored_columns(draw):
    """Columns whose quadratic (v.w)^2 - v^2 w^2 in s is (rv s - p1)(rv s - p2)
    with v^2 = +-1: a perfect-square discriminant, with integer roots when
    rv divides p1 and p2 (always for rv = +-1)."""
    rv = draw(st.integers(-4, 4).filter(bool))
    p1 = draw(st.integers(-60, 60))
    p2 = draw(st.integers(-60, 60).filter(lambda p: rv * (p1 + p) % 2 == 0))
    vv, vw_head = draw(st.sampled_from([1, -1])), draw(st.integers(-30, 30))
    half = -rv * (p1 + p2) // 2  # half the coefficient of s: vv r - rv vw_head
    r = vv * (half + rv * vw_head)
    cc = vv * (vw_head * vw_head - p1 * p2)  # the constant: vw_head^2 - vv cc
    return r, cc, vw_head, rv, vv


columns = st.tuples(st.integers(-60, 60) | st.just(0), st.integers(-400, 400),
                    st.integers(-200, 200), st.integers(-5, 5) | st.just(0),
                    st.integers(-12, 12))


@settings(max_examples=1000)
@given(col=columns | factored_columns(), bound=st.integers(1, 50))
def test_column_solver_matches_per_s_filter(col, bound):
    """The solved s-ranges of a box column hold exactly the s that pass the
    per-class tests, in ascending order; rv = 0 makes the quadratic linear,
    and r = 0 the first test constant in s."""
    got = [s for rng in _column_s(*col, bound) for s in rng]
    assert got == ref_column_s(*col, bound)


@pytest.mark.parametrize("bound, walls", [(4, 4), (8, 13), (16, 53), (32, 208)])
def test_readme_scan_wall_counts(setup, bound, walls):
    """The README example's wall counts at bounds past the hypothesis boxes."""
    sl, v, region = setup
    assert len(scan_walls(v, sl, region, bound)) == walls


def test_wide_region_nesting_at_bound_32(setup):
    """On b in [-60, 60], t in [1/100, 60] the bound-32 scan has 415 walls,
    nested or disjoint in every one of their 85,905 pairs."""
    sl, v, _ = setup
    walls = scan_walls(v, sl, Region(-60, 60, Fraction(1, 100), 60), 32)
    assert len(walls) == 415
    assert nesting_check(sl, walls) == NestingReport(85905, (), ())
