import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_even_ns_lattice
from stabkit import (MukaiVector, NSLattice, Rank2Lattice, is_hyperbolic, mukai_pairing,
                     rank2_isotropic, rank2_roots, saturate_rank2)
from stabkit.errors import BudgetError, DegenerateError, LatticeError
from stabkit.linalg import minors2_gcd
from stabkit.rank2 import isotropic_rays_of_binary_form, roots_of_binary_form


def brute_roots(gram2, v_coords, bound, box):
    a, b, c = gram2[0][0], gram2[0][1], gram2[1][1]
    out = []
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if a * x * x + 2 * b * x * y + c * y * y != -2:
                continue
            pair = (x * (a * v_coords[0] + b * v_coords[1])
                    + y * (b * v_coords[0] + c * v_coords[1]))
            if abs(pair) <= bound:
                out.append((x, y))
    return sorted(out)


def test_saturation_examples(k3d2):
    h = saturate_rank2(MukaiVector(2, (0,), 0), MukaiVector(0, (0,), 2), k3d2)
    assert [b.coords() for b in h.basis] == [(1, 0, 0), (0, 0, 1)]
    assert h.gram2 == ((0, -1), (-1, 0))

    v, w = MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)
    h2 = saturate_rank2(v, w, k3d2)
    assert h2.basis == (v, w)
    assert h2.gram2 == ((2, -1), (-1, 0))
    assert is_hyperbolic(h2)

    with pytest.raises(DegenerateError):
        saturate_rank2(v, v.scale(-2), k3d2)


def is_row_hnf(rows):
    """Two rows in row Hermite normal form: positive pivots, the second to
    the right of the first, and the entry of row 1 above the second pivot
    reduced into [0, pivot)."""
    k0, k1 = (next((i for i, x in enumerate(r) if x), None) for r in rows)
    return (k0 is not None and k1 is not None and k0 < k1
            and rows[0][k0] > 0 and 0 <= rows[0][k1] < rows[1][k1])


_SAT_LATTICES = {1: NSLattice(1, ((2,),), (1,)),
                 2: NSLattice(2, ((2, 1), (1, -2)), (1, 0)),
                 3: NSLattice(3, ((2, 0, 0), (0, -2, 1), (0, 1, -2)), (1, 0, 0))}


@given(st.integers(1, 3), st.data())
def test_saturation_is_the_hnf_of_a_saturated_lattice_through_v_and_w(rho, data):
    """Three checks that pin the unique answer when the minors of (v, w)
    have gcd m > 1: the basis is in row HNF, its minors have gcd 1 (it is
    saturated), and v, w have integral coordinates in it (it contains the
    span, so it is the saturation)."""
    coords = st.lists(st.integers(-5, 5), min_size=rho + 2, max_size=rho + 2)
    v0, w0 = data.draw(coords), data.draw(coords)
    a, b, c, d = data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    s, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    v = [s * (a * x + b * y) for x, y in zip(v0, w0)]
    w = [t * (c * x + d * y) for x, y in zip(v0, w0)]
    assume(minors2_gcd(v, w) > 1)
    mv, mw = MukaiVector.from_coords(v), MukaiVector.from_coords(w)
    h = saturate_rank2(mv, mw, _SAT_LATTICES[rho])
    rows = [list(x.coords()) for x in h.basis]
    assert is_row_hnf(rows)
    assert minors2_gcd(*rows) == 1
    assert h.to_ambient(h.coords_of(mv)) == mv and h.to_ambient(h.coords_of(mw)) == mw


@pytest.mark.parametrize("v, w, basis", [
    ((3, 1, -1), (1, 3, 5), [(1, 0, -1), (0, 1, 2)]),
    ((2, 2, 0), (1, -1, 3), [(1, 1, 0), (0, 2, -3)]),
    ((0, 2, 4), (0, 0, 6), [(0, 1, 0), (0, 0, 1)]),
])
def test_saturation_hnf_pinned(k3d2, v, w, basis):
    h = saturate_rank2(MukaiVector.from_coords(v), MukaiVector.from_coords(w), k3d2)
    assert [b.coords() for b in h.basis] == basis


def test_saturation_contains_inputs_and_divides_det():
    rng = random.Random(9)
    for _ in range(60):
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        n = lat.mukai_rank
        v = MukaiVector.from_coords([rng.randint(-4, 4) for _ in range(n)])
        w = MukaiVector.from_coords([rng.randint(-4, 4) for _ in range(n)])
        if minors2_gcd(list(v.coords()), list(w.coords())) == 0:
            continue
        h = saturate_rank2(v, w, lat)
        # v, w have integral coordinates in the new basis
        cv, cw = h.coords_of(v), h.coords_of(w)
        assert h.to_ambient(cv) == v and h.to_ambient(cw) == w
        # index^2 * det(sat gram) = det(gram of v, w)
        g_vw = [[mukai_pairing(v, v, lat), mukai_pairing(v, w, lat)],
                [mukai_pairing(v, w, lat), mukai_pairing(w, w, lat)]]
        det_vw = g_vw[0][0] * g_vw[1][1] - g_vw[0][1] ** 2
        det_h = h.det()
        if det_h != 0:
            assert det_vw % det_h == 0


def test_hyperbolic_examples():
    dummy = (MukaiVector(1, (0,), 0), MukaiVector(0, (0,), 1))
    assert is_hyperbolic(Rank2Lattice(dummy, ((2, 0), (0, -2))))
    assert not is_hyperbolic(Rank2Lattice(dummy, ((-2, 0), (0, -2))))
    assert is_hyperbolic(Rank2Lattice(dummy, ((2, -1), (-1, 0))))


def test_roots_examples_and_oracle():
    assert roots_of_binary_form([[-2, 0], [0, -2]], (1, 0), 10) == \
        [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert roots_of_binary_form([[2, 0], [0, 2]], (1, 0), 10) == []
    got = roots_of_binary_form([[2, -1], [-1, 0]], (1, 0), 6)
    assert got == brute_roots([[2, -1], [-1, 0]], (1, 0), 6, 200)
    # (x, y) pairs to -4 x with v: the pairing gcd is 4, and |-4 x| <= 9
    # keeps x = +-1
    assert roots_of_binary_form([[-2, 0], [0, 2]], (2, 0), 9) == [(-1, 0), (1, 0)]


@pytest.mark.parametrize("form, error", [
    ([[2, 1], [0, -2]], LatticeError),  # not symmetric
    ([[2, 0, 0], [0, -2, 0]], LatticeError),  # not 2x2
    ([[Fraction(3, 2), 0], [0, -2]], ValueError),  # not integral
])
def test_binary_form_searches_reject_malformed_forms(form, error):
    with pytest.raises(error):
        roots_of_binary_form(form, (1, 0), 3)
    with pytest.raises(error):
        isotropic_rays_of_binary_form(form)


def test_roots_pairing_values_count_against_the_budget(monkeypatch):
    """Bound 6 tries 13 pairing values, which a budget of 13 fits; bound 7
    tries 15 and raises before any, naming bound 6."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", "13")
    form = [[2, -1], [-1, 0]]
    assert roots_of_binary_form(form, (1, 0), 6) == brute_roots(form, (1, 0), 6, 200)
    with pytest.raises(BudgetError) as err:
        roots_of_binary_form(form, (1, 0), 7)
    assert err.value.bound_reached == 6
    assert str(err.value) == ("root search of 15 pairing values exceeds the budget "
                              "of 13 (bound reached 6)")


def test_roots_budget_counts_only_multiples_of_the_pairing_gcd(monkeypatch):
    """Under diag(-2, 2) every pairing with v = (2, 0) is a multiple of 4, so
    bound 7 tries the 3 values -4, 0, 4, which a budget of 13 fits. Bound 28
    tries 15; bound 27, the largest that fits, tries 13."""
    monkeypatch.setenv("BRIDGELAND_BUDGET", "13")
    form = [[-2, 0], [0, 2]]
    assert roots_of_binary_form(form, (2, 0), 7) == [(-1, 0), (1, 0)]
    assert roots_of_binary_form(form, (2, 0), 27) == brute_roots(form, (2, 0), 27, 20)
    with pytest.raises(BudgetError) as err:
        roots_of_binary_form(form, (2, 0), 28)
    assert err.value.bound_reached == 27
    assert str(err.value) == ("root search of 15 pairing values exceeds the budget "
                              "of 13 (bound reached 27)")


def test_roots_oracle_random_forms():
    rng = random.Random(10)
    checked = 0
    while checked < 40:
        a, b, c = rng.randint(-3, 3) * 2, rng.randint(-3, 3), rng.randint(-3, 3) * 2
        if a == 0 and b == 0 and c == 0:
            continue
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        la, lb = a * v[0] + b * v[1], b * v[0] + c * v[1]
        if la == 0 and lb == 0:
            continue
        bound = rng.randint(0, 8)
        try:
            got = roots_of_binary_form([[a, b], [b, c]], v, bound)
        except DegenerateError:
            continue
        # every reported root is genuine
        for (x, y) in got:
            assert a * x * x + 2 * b * x * y + c * y * y == -2
            pair = x * la + y * lb
            assert abs(pair) <= bound
        # and the solver is complete at least on a box the oracle can afford
        box = 120
        in_box = [p for p in got if abs(p[0]) <= box and abs(p[1]) <= box]
        assert in_box == brute_roots([[a, b], [b, c]], v, bound, box)
        checked += 1


def test_roots_ambient(k3d2):
    h = saturate_rank2(MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1), k3d2)
    roots = rank2_roots(h, MukaiVector(1, (0,), -1), 6)
    assert [r.coords() for r in roots] == [(-1, 0, -1), (1, 0, 1)]
    for r in roots:
        assert mukai_pairing(r, r, k3d2) == -2


def test_isotropic_examples_and_criterion():
    assert isotropic_rays_of_binary_form([[2, 0], [0, -2]]) == [(1, -1), (1, 1)]
    assert isotropic_rays_of_binary_form([[2, 1], [1, -2]]) == []
    assert isotropic_rays_of_binary_form([[0, -1], [-1, 0]]) == [(0, 1), (1, 0)]


def test_isotropic_criterion_vs_brute_force():
    import math
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rng.randint(-4, 4) * 2, rng.randint(-4, 4), rng.randint(-4, 4) * 2
        if a == 0 and b == 0 and c == 0:
            continue
        rays = isotropic_rays_of_binary_form([[a, b], [b, c]])
        disc = b * b - a * c
        is_square = disc >= 0 and math.isqrt(disc) ** 2 == disc
        assert bool(rays) == is_square
        brute = [(x, y) for x in range(-50, 51) for y in range(-50, 51)
                 if (x, y) != (0, 0) and a * x * x + 2 * b * x * y + c * y * y == 0]
        assert bool(rays) == bool(brute)
        for (x, y) in rays:
            assert a * x * x + 2 * b * x * y + c * y * y == 0


def test_isotropic_ambient(k3d2):
    h = saturate_rank2(MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1), k3d2)
    rays = rank2_isotropic(h)
    assert [r.coords() for r in rays] == [(0, 0, 1), (1, 0, 0)]
    for r in rays:
        assert mukai_pairing(r, r, k3d2) == 0


def test_saturation_box_oracle(k3d2):
    """The saturation is exactly the rational span intersected with the
    integer lattice: verified by enumerating a coordinate box."""
    rng = random.Random(12)
    for _ in range(20):
        v = MukaiVector(rng.randint(-3, 3), (rng.randint(-3, 3),),
                        rng.randint(-3, 3))
        w = MukaiVector(rng.randint(-3, 3), (rng.randint(-3, 3),),
                        rng.randint(-3, 3))
        if minors2_gcd(list(v.coords()), list(w.coords())) == 0:
            continue
        h = saturate_rank2(v, w, k3d2)
        vc, wc = v.coords(), w.coords()
        from stabkit.errors import LatticeError
        for r in range(-4, 5):
            for m in range(-4, 5):
                for s in range(-4, 5):
                    u = (r, m, s)
                    # u in Q-span(v, w) iff the 3x3 determinant of [v; w; u]
                    # vanishes (the span has rank 2)
                    rows = [vc, wc, u]
                    det3 = (
                        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
                    in_span = det3 == 0
                    try:
                        h.coords_of(MukaiVector(r, (m,), s))
                        in_lattice = True
                    except LatticeError:
                        in_lattice = False
                    # saturated: span over Q meets Z^n exactly in the lattice
                    assert in_span == in_lattice, (v, w, u)
