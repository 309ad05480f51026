import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import perp_box, random_even_ns_lattice
from stabkit import (ChargeParams, MukaiVector, NSLattice, Rank2Lattice, SliceParams,
                     WallKind, bb_square, charge_row, decomposition_scan,
                     lagrangian_candidates, moduli_dimension, mukai_pairing,
                     mukai_square, omega_class, wall_locus, wall_report)
from stabkit.errors import BudgetError, DegenerateError, LatticeError
from stabkit.gaussian import GaussianRational
from stabkit.linalg import bilinear, minors2_gcd
from stabkit.nef import _isotropic_perp
from stabkit.charges import evaluate_charge_row as z_eval


def test_omega_worked_example(k3d2):
    params = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    z = charge_row(params)
    v = MukaiVector(1, (0,), -1)
    om = omega_class(v, z, k3d2)
    assert om.coords == (0, Fraction(2, 5), 0)
    assert bb_square(om, k3d2) == Fraction(8, 25)
    gram = k3d2.mukai_gram()
    assert bilinear(om.coords, gram, [Fraction(x) for x in v.coords()]) == 0


def test_omega_postcondition_random():
    rng = random.Random(71)
    count = 0
    while count < 60:
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        scale = rng.randint(2, 4)
        params = ChargeParams(lat, tuple(Fraction(rng.randint(-2, 2), 2)
                                         for _ in range(lat.rank)),
                              tuple(Fraction(scale * a) for a in lat.ample))
        if not params.heart_certified():
            continue
        z = charge_row(params)
        v = MukaiVector.from_coords([rng.randint(-4, 4)
                                     for _ in range(lat.mukai_rank)])
        if z_eval(z, v.coords()).is_zero() or v.is_zero():
            continue
        om = omega_class(v, z, lat)
        gram = lat.mukai_gram()
        n = lat.mukai_rank
        zv = z_eval(z, v.coords())
        for i in range(n):
            e = [0] * n
            e[i] = 1
            lhs = bilinear(om.coords, gram, [Fraction(x) for x in e])
            assert lhs == (z_eval(z, e) / zv).im
        assert bb_square(om, lat) > 0
        count += 1


def test_omega_scaling_invariance(k3d2):
    """Omega only depends on the ratio map w -> Z(w)/Z(v): rescaling Z by a
    positive rational or rotating it complex-linearly leaves Omega fixed."""
    rng = random.Random(72)
    params = ChargeParams(k3d2, (Fraction(1, 2),), (Fraction(2),))
    z = charge_row(params)
    v = MukaiVector(2, (1,), -1)
    om = omega_class(v, z, k3d2)
    for _ in range(20):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        z2 = [zi * lam for zi in z]
        assert omega_class(v, z2, k3d2).coords == om.coords
        # complex-linear rotation-scaling: multiply by a nonzero gaussian
        g = GaussianRational(Fraction(rng.randint(-5, 5), 3),
                             Fraction(rng.randint(-5, 5), 3))
        if g.is_zero():
            continue
        z3 = [zi * g for zi in z]
        assert omega_class(v, z3, k3d2).coords == om.coords


def test_omega_rejects_zero_charge(k3d2):
    from stabkit.errors import ChargeError
    params = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    z = charge_row(params)
    kernel_vec = MukaiVector(1, (0,), 4)
    with pytest.raises(ChargeError):
        omega_class(kernel_vec, z, k3d2)
    v = MukaiVector(1, (0,), -1)
    for row in (z[:2], [*z, z[0]]):
        with pytest.raises(ChargeError, match="charge row has"):
            omega_class(v, row, k3d2)


def test_moduli_dimension(k3d2):
    assert moduli_dimension(MukaiVector(1, (0,), -1), k3d2).dimension == 4
    d = moduli_dimension(MukaiVector(0, (0,), 1), k3d2)
    assert d.dimension == 2 and d.isotropic
    r = moduli_dimension(MukaiVector(1, (0,), 1), k3d2)
    assert r.dimension == 0 and r.rigid
    with pytest.raises(LatticeError):
        moduli_dimension(MukaiVector(2, (0,), 2), k3d2)  # not primitive
    with pytest.raises(LatticeError):
        moduli_dimension(MukaiVector(1, (0,), 3), k3d2)  # square -4: empty
    # dimension - 2 = square is always even on an even lattice
    rng = random.Random(73)
    for _ in range(50):
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        v = MukaiVector.from_coords([rng.randint(-3, 3)
                                     for _ in range(lat.mukai_rank)])
        if v.is_zero() or not v.is_primitive() or mukai_square(v, lat) < -2:
            continue
        assert moduli_dimension(v, lat).dimension % 2 == 0


def brute_decompositions(gram2, v_coords, max_m, box):
    """Independent oracle: every multiset of m - 1 box points (nonzero,
    square >= -2) in turn, closed by the one last part that makes the sum v
    and is no smaller than the others; no pruning, any m."""
    h = Rank2Lattice((MukaiVector(1, (0,), 0), MukaiVector(0, (0,), 1)),
                     tuple(tuple(r) for r in gram2))
    pool = sorted(p for p in itertools.product(range(-box, box + 1), repeat=2)
                  if p != (0, 0) and h.square(p) >= -2)
    members = set(pool)
    vsq = h.square(v_coords)
    out = []
    for m in range(1, max_m + 1):
        for head in itertools.combinations_with_replacement(pool, m - 1):
            last = (v_coords[0] - sum(p[0] for p in head),
                    v_coords[1] - sum(p[1] for p in head))
            if last not in members or (head and last < head[-1]):
                continue
            parts = head + (last,)
            slack = vsq - 2 * (m - 1) - sum(h.square(p) for p in parts)
            if slack >= 0:
                out.append((parts, slack))
    return sorted(out, key=lambda d: (len(d[0]), d[0]))


def test_decomposition_scan_vs_brute_force():
    gram2 = ((2, -1), (-1, 0))
    h = Rank2Lattice((MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)), gram2)
    got = decomposition_scan((1, 0), h, max_m=3, box=10)
    expected = brute_decompositions(gram2, (1, 0), 3, 10)
    assert [(d.parts, d.slack) for d in got] == expected
    # trivial decomposition {v} has slack 0
    assert got[0].parts == ((1, 0),) and got[0].slack == 0
    # root + (v - root) pair appears with slack v^2 + 2 - (sum of squares + 2)
    for d in got:
        assert sum(h.square(p) for p in d.parts) + 2 * (d.m - 1) + d.slack == 2
        total = tuple(map(sum, zip(*d.parts)))
        assert total == (1, 0)
        assert all(h.square(p) >= -2 for p in d.parts)


def test_decomposition_scan_random_vs_brute():
    rng = random.Random(74)
    cases = 0
    while cases < 8:
        a = 2 * rng.randint(-2, 2)
        b = rng.randint(-2, 2)
        c = 2 * rng.randint(-2, 2)
        det = a * c - b * b
        if det >= 0:
            continue
        gram2 = ((a, b), (b, c))
        h = Rank2Lattice((MukaiVector(1, (0,), 0), MukaiVector(0, (0,), 1)), gram2)
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        if v == (0, 0) or h.square(v) < -2:
            continue
        got = decomposition_scan(v, h, max_m=3, box=4)
        expected = brute_decompositions(gram2, v, 3, 4)
        assert [(d.parts, d.slack) for d in got] == expected
        cases += 1


@settings(max_examples=60)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(1, 5), st.integers(1, 3))
@example(2, 1, 4, (1, 1), 5, 3)       # positive definite
@example(-2, 0, -4, (1, 0), 5, 3)     # negative definite
@example(2, -13, 82, (1, 0), 5, 3)    # the skewed probe wall
def test_decomposition_scan_matches_oracle(a, b, c, v, max_m, box):
    """The pruned scan equals the unpruned oracle on definite and
    indefinite Grams, and every slack closes the displayed inequality."""
    gram2 = ((a, b), (b, c))
    h = Rank2Lattice((MukaiVector(1, (0,), 0), MukaiVector(0, (0,), 1)), gram2)
    got = decomposition_scan(v, h, max_m=max_m, box=box)
    assert [(d.parts, d.slack) for d in got] == brute_decompositions(gram2, v, max_m, box)
    for d in got:
        assert sum(h.square(p) for p in d.parts) + 2 * (d.m - 1) + d.slack == h.square(v)
        assert d.slack >= 0 and tuple(map(sum, zip(*d.parts))) == v


def test_decomposition_scan_budget(monkeypatch):
    """The scan counts every part it tries against BRIDGELAND_BUDGET and
    reports the round it stopped in; a roomy budget changes nothing."""
    gram2 = ((2, -1), (-1, 0))
    h = Rank2Lattice((MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)), gram2)
    full = decomposition_scan((1, 0), h, max_m=4, box=6)
    monkeypatch.setenv("BRIDGELAND_BUDGET", "169")
    with pytest.raises(BudgetError) as err:
        decomposition_scan((1, 0), h, max_m=4, box=6)
    assert err.value.bound_reached == 3
    assert "budget of 169 nodes" in str(err.value)
    # rounds below the reported part count finished within the budget
    assert decomposition_scan((1, 0), h, max_m=2, box=6) == [d for d in full if d.m <= 2]
    monkeypatch.setenv("BRIDGELAND_BUDGET", str(1 << 14))
    assert decomposition_scan((1, 0), h, max_m=4, box=6) == full


def test_decomposition_scan_rejects_empty_box():
    h = Rank2Lattice((MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)),
                     ((2, -1), (-1, 0)))
    for box in (0, -1):
        with pytest.raises(ValueError):
            decomposition_scan((1, 0), h, max_m=3, box=box)
    with pytest.raises(ValueError):
        decomposition_scan((1, 0), h, max_m=0, box=3)


def test_wall_report_example(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    w = MukaiVector(0, (0,), 1)
    rep = wall_report(v, w, sl, point=(Fraction(0), Fraction(1)))
    assert rep.hw.gram2 == ((2, -1), (-1, 0))
    assert rep.has_isotropic
    assert any(u.coords() == (0, 0, 1) for u in rep.isotropic)
    assert rep.has_root
    assert rep.point_residual == 0
    assert rep.admits_totally_semistable_candidate  # m >= 2 exists + isotropic
    # hints agree for the complementary class
    rep2 = wall_report(v, v - w, sl, point=(Fraction(0), Fraction(1)))
    assert rep2.has_root == rep.has_root
    assert rep2.has_isotropic == rep.has_isotropic
    assert (rep2.admits_totally_semistable_candidate
            == rep.admits_totally_semistable_candidate)


def test_wall_report_rejects_degenerate(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    with pytest.raises(DegenerateError):
        wall_report(v, v.scale(2), sl)


def test_lagrangian_candidates(k3d2):
    v = MukaiVector(1, (0,), -1)
    got = lagrangian_candidates(v, k3d2, 6)
    assert [u.coords() for u in got] == [(1, -1, 1), (1, 1, 1)]
    for u in got:
        assert mukai_pairing(u, v, k3d2) == 0
        assert mukai_square(u, k3d2) == 0
        assert u.is_primitive()
    # brute-force oracle over the ambient box
    brute = set()
    for r in range(-6, 7):
        for m in range(-6, 7):
            for s in range(-6, 7):
                u = MukaiVector(r, (m,), s)
                if u.is_zero() or not u.is_primitive():
                    continue
                if mukai_pairing(u, v, k3d2) or mukai_square(u, k3d2):
                    continue
                lead = next(x for x in u.coords() if x)
                brute.add(u.coords() if lead > 0
                          else tuple(-x for x in u.coords()))
    assert {u.coords() for u in got} == brute
    # isotropic v: quotient arithmetic; rho = 1 K3 has no square-zero class
    assert lagrangian_candidates(MukaiVector(0, (0,), 1), k3d2, 6) == []
    with pytest.raises(LatticeError):
        lagrangian_candidates(MukaiVector(2, (0,), 0), k3d2, 4)


def test_lagrangian_box_budget(k3d2, monkeypatch):
    """The v-perp box walk checks its (2 bound + 1)^(rho + 1) heads against
    BRIDGELAND_BUDGET before any work: 13^2 = 169 for v = (1, 0, -1) at
    bound 6. Over it, the error names the largest bound that fits."""
    v = MukaiVector(1, (0,), -1)
    full = lagrangian_candidates(v, k3d2, 6)
    monkeypatch.setenv("BRIDGELAND_BUDGET", "168")
    with pytest.raises(BudgetError) as err:
        lagrangian_candidates(v, k3d2, 6)
    assert err.value.bound_reached == 5
    assert str(err.value) == ("v-perp box of 169 heads exceeds the budget of "
                              "168 (bound reached 5)")
    assert lagrangian_candidates(v, k3d2, -7) == []  # an empty box fits any budget
    monkeypatch.setenv("BRIDGELAND_BUDGET", "169")
    assert lagrangian_candidates(v, k3d2, 6) == full


@given(st.lists(st.integers(-6, 6), min_size=3, max_size=5).filter(any),
       st.integers(-1, 4))
def test_perp_box_is_the_box_cut_by_the_row(row, bound):
    """The reference walk yields every integer point u of [-B, B]^n with
    row . u = 0, each once."""
    box = itertools.product(range(-bound, bound + 1), repeat=len(row))
    assert sorted(perp_box(row, bound)) == \
        [u for u in box if sum(map(mul, row, u)) == 0]


def _coords_square(u, gram):
    """Mukai square c.c - 2 r s of u = (r, c, s) on plain ints."""
    c = u[1:-1]
    return sum(x * g * y for x, row in zip(c, gram) for g, y in zip(row, c)) \
        - 2 * u[0] * u[-1]


@st.composite
def perp_cases(draw):
    """A symmetric integer Gram of rank 1-3 (any signature, possibly
    degenerate), a class v with r_v = 0, s_v = 0, both, v^2 = 0 or neither,
    and a bound in -1..4."""
    rho = draw(st.integers(1, 3))
    upper = {(i, j): draw(st.integers(-4, 4)) for i in range(rho) for j in range(i, rho)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(rho))
                 for i in range(rho))
    small = st.integers(-3, 3)
    cv = tuple(draw(small) for _ in range(rho))
    rv, sv = draw(small), draw(small)
    shape = draw(st.sampled_from(["any", "r_v = 0", "s_v = 0", "both 0", "v^2 = 0"]))
    if shape in ("r_v = 0", "both 0"):
        rv = 0
    if shape in ("s_v = 0", "both 0"):
        sv = 0
    if shape == "v^2 = 0":
        cc = _coords_square((0, *cv, 0), gram)
        assume(cc % 2 == 0)
        rv = draw(st.sampled_from([1, -1]))
        sv = rv * cc // 2
    return gram, (rv, *cv, sv), draw(st.integers(-1, 4))


@settings(max_examples=300)
@given(perp_cases())
def test_isotropic_perp_matches_brute_box(case):
    """The c walk with (r, s) solved from (v, u) = 0 and u^2 = 0 yields
    exactly the square-zero points of the brute v-perp box, each once."""
    gram, v, bound = case
    rv, cv, sv = v[0], v[1:-1], v[-1]
    row = (-sv, *(sum(map(mul, r, cv)) for r in gram), -rv)  # (v, u) = row . u
    assume(any(row))
    brute = [u for u in perp_box(row, bound) if _coords_square(u, gram) == 0]
    assert sorted(_isotropic_perp(v, gram, bound)) == sorted(brute)


def test_lagrangian_rank2_pinned():
    """rho = 2, v = (1, 0, 0, -1) on [[2, 1], [1, -2]] at bound 5: ten rays."""
    lat = NSLattice(2, ((2, 1), (1, -2)), (1, 0))
    got = lagrangian_candidates(MukaiVector(1, (0, 0), -1), lat, 5)
    assert [u.coords() for u in got] == [
        (1, -5, 3, 1), (1, -2, -3, 1), (1, -2, 1, 1), (1, -1, -1, 1), (1, -1, 0, 1),
        (1, 1, 0, 1), (1, 1, 1, 1), (1, 2, -1, 1), (1, 2, 3, 1), (1, 5, -3, 1)]


def _same_quotient_ray(u, w, v):
    """u = +-w modulo multiples of v: u -+ w and v span at most a line."""
    return any(minors2_gcd([a - e * b for a, b in zip(u, w)], v) == 0 for e in (1, -1))


def brute_quotient_rays(v, lat, bound):
    """One box point per ray of v-perp / <v> for (v, v) = 0: the square-zero
    box points orthogonal to v that are primitive modulo v, grouped by
    u = +-u' modulo v."""
    rays = []
    for u in itertools.product(range(-bound, bound + 1), repeat=lat.rank + 2):
        mv = MukaiVector.from_coords(u)
        if mukai_pairing(mv, v, lat) or mukai_square(mv, lat):
            continue
        if minors2_gcd(u, v.coords()) != 1:
            continue  # zero, a multiple of v, or divisible modulo v
        if not any(_same_quotient_ray(u, w, v.coords()) for w in rays):
            rays.append(u)
    return rays


def test_lagrangian_quotient_case():
    """(v, v) = 0 on rho = 2: one candidate per ray of v-perp / <v>, the
    same rays as a brute-force search of the box. The cases take r_v = 0,
    s_v = 0, both and neither."""
    hyperbolic = NSLattice(2, ((0, 1), (1, 0)), (1, 1))
    diagonal = NSLattice(2, ((2, 0), (0, -2)), (1, 0))
    v = MukaiVector(0, (0, 0), 1)
    assert [u.coords() for u in lagrangian_candidates(v, hyperbolic, 3)] == \
        [(0, -1, 0, 0), (0, 0, -1, 0)]
    for lat, coords in [(hyperbolic, (0, 0, 0, 1)), (hyperbolic, (1, 0, 0, 0)),
                        (hyperbolic, (0, 1, 0, 0)), (diagonal, (0, 1, 1, 0)),
                        (diagonal, (1, 1, 1, 0)), (diagonal, (1, 1, 0, 1)),
                        (diagonal, (2, 1, 1, 0))]:
        v = MukaiVector.from_coords(coords)
        got = [u.coords() for u in lagrangian_candidates(v, lat, 3)]
        brute = brute_quotient_rays(v, lat, 3)
        assert got and len(got) == len(brute)
        for u in brute:
            assert sum(_same_quotient_ray(u, w, coords) for w in got) == 1
        for w in got:
            mw = MukaiVector.from_coords(w)
            assert mukai_pairing(mw, v, lat) == 0 and mukai_square(mw, lat) == 0


def test_wall_report_rejects_non_primitive_v(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    with pytest.raises(LatticeError):
        wall_report(MukaiVector(2, (0,), -2), MukaiVector(0, (0,), 1), sl)


def test_wall_report_non_hyperbolic_guard():
    """A pair spanning a semidefinite plane cannot be a genuine wall: the
    hyperbolicity guard refuses even when the alignment locus is nonempty."""
    from stabkit import NSLattice
    lat = NSLattice(2, ((2, 0), (0, -2)), (1, 0))
    sl = SliceParams(lat, (Fraction(0), Fraction(0)))
    v = MukaiVector(1, (0, 0), 1)   # a root
    w = MukaiVector(0, (1, 1), 0)   # isotropic, (v, w) = 0, so det(hw) = 0
    assert wall_locus(v, w, sl).kind is WallKind.SEMICIRCLE  # b^2 + t^2 = 1
    with pytest.raises(DegenerateError, match="not hyperbolic"):
        wall_report(v, w, sl)
    # (1, 0, 0, 0) and (0, (1, 0), 0) also span a plane with det 0, but
    # their conic 2 (b^2 + t^2) = 0 is empty: no wall, an input error
    with pytest.raises(LatticeError, match="spans no wall"):
        wall_report(MukaiVector(1, (0, 0), 0), MukaiVector(0, (1, 0), 0), sl)


def test_wall_report_deterministic(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    w = MukaiVector(0, (0,), 1)
    assert wall_report(v, w, sl) == wall_report(v, w, sl)
