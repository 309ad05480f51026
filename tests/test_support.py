import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit import (ChargeParams, QuadraticForm, build_q_z,
                     charge_kernel, charge_norm_form, charge_row,
                     discreteness_classes, equivalent_support_roundtrip,
                     is_negative_definite_on, min_root_norm)
from stabkit.errors import BudgetError, ChargeError, DegenerateError, LatticeError
from stabkit.gaussian import gaussian
from stabkit.linalg import identity
from stabkit.ellipsoid import enumerate_ellipsoid
from stabkit.support import aux_positive_gram, charge_norm_sq


def worked_example(k3d2):
    params = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    return charge_row(params), k3d2.mukai_gram()


def test_charge_kernel_worked_example(k3d2):
    z, gram = worked_example(k3d2)
    assert [str(x) for x in z] == ["4+0i", "0+4i", "-1+0i"]
    k = charge_kernel(z, gram)
    assert k.basis == ((Fraction(1), Fraction(0), Fraction(4)),)
    # restricted pairing value is -8
    b = k.basis[0]
    from stabkit.linalg import bilinear
    assert bilinear(b, gram, b) == -8
    # projector fixes the kernel and is pairing-orthogonal
    assert tuple(k.project(b)) == b
    v = [Fraction(3), Fraction(1), Fraction(0)]
    pv = k.project(v)
    assert bilinear([a - b for a, b in zip(v, pv)], gram, k.basis[0]) == 0


def test_charge_kernel_trivial_for_curve():
    z = [gaussian(-1, 0), gaussian(0, 1)]  # -d + i r, injective
    k = charge_kernel(z, identity(2))
    assert k.basis == ()
    assert all(all(x == 0 for x in row) for row in k.projector)


def test_charge_kernel_degenerate_rejected(k3d2):
    gram = k3d2.mukai_gram()
    # real and imaginary parts proportional: rank-1 charge
    z = [gaussian(1, 2), gaussian(2, 4), gaussian(-1, -2)]
    with pytest.raises(DegenerateError):
        charge_kernel(z, gram)
    # kernel spanned by an isotropic vector: restricted pairing degenerate
    z2 = [gaussian(0, 0), gaussian(0, 1), gaussian(-1, 0)]
    with pytest.raises(DegenerateError):
        charge_kernel(z2, gram)
    with pytest.raises(ChargeError):
        charge_kernel([gaussian(0, 0)], identity(1))


def test_negative_definite_on(k3d2):
    gram = k3d2.mukai_gram()
    q = QuadraticForm(tuple(tuple(row) for row in gram))
    assert is_negative_definite_on(q, [(1, 0, 4)])
    assert not is_negative_definite_on(q, [(1, 0, -1)])
    assert is_negative_definite_on(q, [])
    with pytest.raises(ValueError):
        is_negative_definite_on(q, [(1, 0, 4), (2, 0, 8)])


def test_charge_norm_form_worked_example(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    assert s == [[Fraction(1, 8), Fraction(0)], [Fraction(0), Fraction(1, 8)]]


def test_charge_norm_form_residual_vanishes_randomly(k3d2):
    rng = random.Random(51)
    from stabkit.linalg import bilinear
    for _ in range(20):
        beta = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),)
        omega = (Fraction(rng.randint(2, 4)),)
        params = ChargeParams(k3d2, beta, omega)
        z = charge_row(params)
        gram = k3d2.mukai_gram()
        k = charge_kernel(z, gram)
        s = charge_norm_form(z, k, gram)
        for _ in range(20):
            v = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
            pv = k.project(v)
            lhs = bilinear(v, gram, v)
            rhs = charge_norm_sq(z, s, v) - (-bilinear(pv, gram, pv))
            assert lhs == rhs


def test_charge_norm_form_scaling(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    z3 = [zi * 3 for zi in z]
    s3 = charge_norm_form(z3, charge_kernel(z3, gram), gram)
    assert s3 == [[x / 9 for x in row] for row in s]


def test_min_root_norm_matches_brute_force(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    res = min_root_norm(z, s, gram)
    assert res.found
    # brute force over the coordinate box |r|, |m|, |s| <= 40
    best = None
    for r in range(-40, 41):
        for m in range(-40, 41):
            for sc in range(-40, 41):
                if m * m - r * sc != -1:  # (v, v) = 2m^2 - 2 r s = -2
                    continue
                nz = charge_norm_sq(z, s, (r, m, sc))
                if best is None or nz < best:
                    best = nz
    assert res.c_squared == best == Fraction(9, 8)
    assert res.witness.coords() == (-1, 0, -1)


def test_min_root_norm_monotone_under_deeper_bound(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    r1 = min_root_norm(z, s, gram, start_bound=Fraction(8))
    r2 = min_root_norm(z, s, gram, start_bound=Fraction(16))
    assert r1.c_squared == r2.c_squared


def test_min_root_norm_budget_error(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    with pytest.raises(BudgetError):
        min_root_norm(z, s, gram, budget=3)




def test_min_root_norm_budget_counts_nodes_of_all_rounds(k3d2):
    z, gram = worked_example(k3d2)
    s = charge_norm_form(z, charge_kernel(z, gram), gram)
    q_aux = aux_positive_gram(z, s, gram)
    start = Fraction(1, 8)
    # bounds 1/8, 1/4, 1/2 and 1 hold no root; bound 2 certifies C^2 = 9/8
    per_round = []
    for b in (start, 2 * start, 4 * start, 8 * start, 16 * start):
        nodes = [0]
        list(enumerate_ellipsoid(q_aux, 2 * b + 2, nodes=nodes))
        per_round.append(nodes[0])
    assert sum(per_round) == 233 and sum(per_round[:3]) < 150
    # the last round shrinks its walk once it meets a root, so the search
    # visits fewer nodes than the five fixed-radius rounds
    res = min_root_norm(z, s, gram, start_bound=start)
    assert res.c_squared == Fraction(9, 8) and res.points_visited == 223
    # 150 nodes run out in the fourth round: the last completed bound is
    # 1/2, and the walk stopped at the budget
    res = min_root_norm(z, s, gram, budget=150, start_bound=start)
    assert not res.found
    assert res.bound_reached == Fraction(1, 2) and res.points_visited == 150
    with pytest.raises(BudgetError):
        min_root_norm(z, s, gram, budget=222, start_bound=start)

def test_root_searches_reject_non_integral_gram(k3d2):
    z, gram = worked_example(k3d2)
    s = charge_norm_form(z, charge_kernel(z, gram), gram)
    half = [[Fraction(x, 2) for x in row] for row in gram]
    with pytest.raises(LatticeError, match="not integral"):
        min_root_norm(z, s, half)
    with pytest.raises(LatticeError, match="not integral"):
        discreteness_classes(z, s, Fraction(9, 8), half, radius_sq=Fraction(4))

def test_build_q_z_properties(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    res = min_root_norm(z, s, gram)
    q_z = build_q_z(z, s, res.c_squared, gram)
    assert is_negative_definite_on(q_z, k.basis)
    assert q_z.evaluate(res.witness) == 0  # the witness attains C
    # Q_Z >= Mukai square everywhere (the added term is nonnegative)
    from stabkit.linalg import bilinear
    rng = random.Random(52)
    for _ in range(200):
        v = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        assert q_z.evaluate(v) >= bilinear(v, gram, v)
    # on the kernel, Q_Z equals the Mukai form
    b = k.basis[0]
    assert q_z.evaluate(b) == bilinear(b, gram, b)


def test_roundtrip_curve_lattice():
    z = [gaussian(-1, 0), gaussian(0, 1)]
    q = QuadraticForm(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    rng = random.Random(53)
    classes = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(50)]
    rep = equivalent_support_roundtrip(q, z, classes)
    assert rep.k_const == 1 and rep.c_squared == Fraction(1, 2)
    assert rep.all_pass
    # |Z|^2 = d^2 + r^2 equals the norm here, so the bound is exactly 1/2
    for v in rep.verdicts:
        if not v.skipped:
            assert v.z_abs_sq == v.norm_sq


def test_roundtrip_on_built_support_form(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    res = min_root_norm(z, s, gram)
    q_z = build_q_z(z, s, res.c_squared, gram)
    rng = random.Random(54)
    classes = [tuple(rng.randint(-8, 8) for _ in range(3)) for _ in range(200)]
    rep = equivalent_support_roundtrip(q_z, z, classes)
    assert rep.all_pass
    assert any(not v.skipped for v in rep.verdicts)
    assert any(v.skipped for v in rep.verdicts)  # Q_Z < 0 happens too


def test_discreteness_finite_list(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    res = min_root_norm(z, s, gram)
    classes = discreteness_classes(z, s, res.c_squared, gram,
                                   radius_sq=Fraction(4))
    assert classes  # some classes exist in the disc
    q_z = build_q_z(z, s, res.c_squared, gram)
    for x in classes:
        assert q_z.evaluate(x) >= 0
        assert charge_norm_sq(z, s, x) <= 4
    # growing the radius never loses classes
    bigger = discreteness_classes(z, s, res.c_squared, gram,
                                  radius_sq=Fraction(8))
    assert set(classes) <= set(bigger)



def test_discreteness_filters_match_rational_reference(k3d2):
    z, gram = worked_example(k3d2)
    s = charge_norm_form(z, charge_kernel(z, gram), gram)
    res = min_root_norm(z, s, gram)
    c2 = res.c_squared
    q_z = build_q_z(z, s, c2, gram)
    q_aux = aux_positive_gram(z, s, gram)
    # just below C^2 the witness pair drops out; at C^2 it is in
    for radius in (c2 - Fraction(1, 10 ** 6), c2, Fraction(4)):
        cap = 2 * radius + 2 / c2 * radius
        expected = sorted(x for x in enumerate_ellipsoid(q_aux, cap)
                          if any(x) and charge_norm_sq(z, s, x) <= radius
                          and q_z.evaluate(x) >= 0)
        got = discreteness_classes(z, s, c2, gram, radius_sq=radius)
        assert got == expected
        assert (res.witness.coords() in got) == (radius >= c2)

def test_min_root_norm_second_configuration(k3d2):
    """Brute-force cross-check at a second slice point (beta = H/2)."""
    params = ChargeParams(k3d2, (Fraction(1, 2),), (Fraction(2),))
    z = charge_row(params)
    gram = k3d2.mukai_gram()
    k = charge_kernel(z, gram)
    s = charge_norm_form(z, k, gram)
    res = min_root_norm(z, s, gram)
    best = None
    for r in range(-30, 31):
        for m in range(-30, 31):
            if r == 0:
                continue
            num = m * m + 1
            if num % r:
                continue
            sc = num // r
            if abs(sc) > 30:
                continue
            nz = charge_norm_sq(z, s, (r, m, sc))
            if best is None or nz < best:
                best = nz
    assert res.found and res.c_squared == best


def _reference_projection(basis, gram, u):
    """Pairing-orthogonal projection of u onto the span of the basis, by
    solving (k_i, sum_j c_j k_j) = (k_i, u) for the coefficients c."""
    from stabkit.linalg import bilinear, solve
    inner = [[bilinear(a, gram, b) for b in basis] for a in basis]
    c = solve(inner, [bilinear(a, gram, u) for a in basis])
    return [sum(cj * kj[i] for cj, kj in zip(c, basis)) for i in range(len(u))]


def _charge_vector(z, u):
    from stabkit.charges import evaluate_charge_row
    zu = evaluate_charge_row(z, u)
    return [zu.re, zu.im]


def test_charge_norm_form_on_random_lattices():
    """(u, w) = Z(u)^T S Z(w) + (p u, p w) on every basis pair and on random
    classes, with p computed here, on seeded lattices of NS rank 1-3."""
    from conftest import random_even_ns_lattice
    from stabkit.linalg import bilinear, nullspace
    from stabkit.support import charge_rows
    rng = random.Random(61)
    for rank in (1, 1, 2, 2, 3, 3):
        lat = random_even_ns_lattice(rng, rank)
        gram = lat.mukai_gram()
        n = lat.mukai_rank
        beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
        omega = tuple(Fraction(2 * x) for x in lat.ample)
        z = charge_row(ChargeParams(lat, beta, omega))
        s = charge_norm_form(z, charge_kernel(z, gram), gram)
        basis = nullspace(charge_rows(z))

        def check(u, w):
            zu, zw = _charge_vector(z, u), _charge_vector(z, w)
            pu = _reference_projection(basis, gram, u)
            pw = _reference_projection(basis, gram, w)
            assert bilinear(u, gram, w) == (bilinear(zu, s, zw)
                                             + bilinear(pu, gram, pw))

        units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for a in range(n):
            for b in range(n):
                check(units[a], units[b])
        for _ in range(10):
            check([Fraction(rng.randint(-5, 5)) for _ in range(n)],
                  [Fraction(rng.randint(-5, 5)) for _ in range(n)])


def test_charge_norm_form_rejects_wrong_projector(k3d2):
    """The postcondition R^T S R = M - M P fires on a kernel whose
    projector is not the pairing-orthogonal one."""
    from stabkit.errors import StabkitError
    from stabkit.support import ChargeKernel
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    zero = tuple(tuple(Fraction(0) for _ in row) for row in k.projector)
    doubled = tuple(tuple(2 * x for x in row) for row in k.projector)
    for proj in (zero, doubled):
        with pytest.raises(StabkitError, match="does not reproduce the pairing"):
            charge_norm_form(z, ChargeKernel(k.basis, proj), gram)


def _fixed_radius_search(z, s, gram, start, budget):
    """The deepening loop with a fixed radius in every round: (C^2, witness
    coordinates, bound reached, nodes of all rounds)."""
    from stabkit.linalg import bilinear
    q_aux = aux_positive_gram(z, s, gram)
    bound, total = start, 0
    while True:
        nodes, best = [0], None
        for x in enumerate_ellipsoid(q_aux, 2 * bound + 2, budget=budget - total,
                                     nodes=nodes):
            if bilinear(x, gram, x) == -2:
                cand = (charge_norm_sq(z, s, x), x)
                best = cand if best is None else min(best, cand)
        total += nodes[0]
        if best is not None:
            return best[0], best[1], bound, total
        bound *= 2


@settings(max_examples=40)
@given(st.integers(1, 3), st.randoms(use_true_random=False),
       st.sampled_from([Fraction(1, 4), Fraction(2), Fraction(8)]))
def test_shrinking_search_matches_fixed_radius_reference(rank, rng, start):
    """On random K3 lattices of NS rank 1-3 and generic charges, the
    shrinking walk certifies the C^2, witness and bound of the fixed-radius
    loop, and never visits more nodes."""
    from conftest import random_even_ns_lattice
    lat = random_even_ns_lattice(rng, rank)
    gram = lat.mukai_gram()
    beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
    t = Fraction(rng.randint(2, 6), 2)
    omega = tuple(t * x for x in lat.ample)
    z = charge_row(ChargeParams(lat, beta, omega))
    try:
        s = charge_norm_form(z, charge_kernel(z, gram), gram)
    except DegenerateError:
        assume(False)
    budget = 20000
    try:
        c2, witness, bound, nodes = _fixed_radius_search(z, s, gram, start, budget)
    except BudgetError:
        assume(False)
    res = min_root_norm(z, s, gram, budget=budget, start_bound=start)
    assert (res.c_squared, res.witness.coords(), res.bound_reached) == (c2, witness, bound)
    assert res.points_visited <= nodes
