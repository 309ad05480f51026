import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit import (ChargeParams, NSLattice, build_q_z, charge_kernel, charge_row,
                     discreteness_classes, equivalent_support_roundtrip,
                     min_root_norm)
from stabkit.errors import BudgetError, ChargeError, DegenerateError, LatticeError
from stabkit.gaussian import gaussian
from stabkit.linalg import (bilinear, identity, inverse, is_negative_definite,
                            mat_mul, mat_vec, nullspace, transpose)
from stabkit.ellipsoid import enumerate_ellipsoid
from stabkit.support import charge_norm_sq, charge_rows


def worked_example(k3d2):
    params = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    return charge_row(params), k3d2.mukai_gram()


def aux_gram(norm, gram):
    """Q_aux = 2N - M, the positive definite walk form of the root search."""
    return [[2 * x - m for x, m in zip(nr, mr)] for nr, mr in zip(norm, gram)]


def restrict(gram, basis):
    return [[bilinear(u, gram, w) for w in basis] for u in basis]


def reference_norm(z, gram):
    """N = M - M K^T (K M K^T)^-1 K M = M - M P for the kernel rows K of Z
    and the pairing-orthogonal projector P onto Ker Z: the norm Gram by the
    projector, the reference for charge_kernel's N = R^T S R. ValueError
    when M is degenerate on Ker Z."""
    k = nullspace(charge_rows(z))
    m = [[Fraction(x) for x in row] for row in gram]
    if not k:
        return m
    km = mat_mul(k, m)
    mp = mat_mul(transpose(km), mat_mul(inverse(mat_mul(km, transpose(k))), km))
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(m, mp)]


def test_charge_kernel_worked_example(k3d2):
    z, gram = worked_example(k3d2)
    assert [str(x) for x in z] == ["4+0i", "0+4i", "-1+0i"]
    k = charge_kernel(z, gram)
    assert k.basis == ((Fraction(1), Fraction(0), Fraction(4)),)
    # restricted pairing value is -8
    b = k.basis[0]
    assert bilinear(b, gram, b) == -8
    # the norm Gram is M - M P, R^T S R, and vanishes on the kernel
    assert [list(r) for r in k.norm] == reference_norm(z, gram)
    rows = charge_rows(z)
    assert [list(r) for r in k.norm] == mat_mul(transpose(rows), mat_mul(k.norm_form, rows))
    assert mat_vec(k.norm, b) == [0, 0, 0]


def test_charge_kernel_trivial_for_curve():
    z = [gaussian(-1, 0), gaussian(0, 1)]  # -d + i r, injective
    k = charge_kernel(z, identity(2))
    assert k.basis == ()
    assert [list(r) for r in k.norm_form] == identity(2)  # R = diag(-1, 1)
    assert [list(r) for r in k.norm] == identity(2)  # P = 0: N = M


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
    """The Mukai form is negative definite on the worked example's kernel
    (1, 0, 4), not on the kernel (1, 0, -1) of a charge with
    Z(1, 0, -1) = 0, and never on a dependent basis; the roundtrip refuses a
    Q that is not negative definite on Ker Z."""
    gram = k3d2.mukai_gram()
    z, _ = worked_example(k3d2)
    assert is_negative_definite(restrict(gram, [(1, 0, 4)]))
    assert not is_negative_definite(restrict(gram, [(1, 0, -1)]))
    assert is_negative_definite(restrict(gram, []))
    assert not is_negative_definite(restrict(gram, [(1, 0, 4), (2, 0, 8)]))
    equivalent_support_roundtrip(gram, z, [(1, 0, 0)])
    z_bad = [gaussian(1, 0), gaussian(0, 1), gaussian(1, 0)]  # kernel (1, 0, -1)
    with pytest.raises(DegenerateError, match="not negative definite on Ker Z"):
        equivalent_support_roundtrip(gram, z_bad, [(1, 0, 0)])


def test_charge_norm_form_worked_example(k3d2):
    z, gram = worked_example(k3d2)
    s = charge_kernel(z, gram).norm_form
    assert s == ((Fraction(1, 8), Fraction(0)), (Fraction(0), Fraction(1, 8)))


def test_charge_norm_form_rejects_rank_one_charge(k3d2):
    """A charge whose real and imaginary parts are proportional has no 2x2
    norm form, and the zero charge none either."""
    gram = k3d2.mukai_gram()
    with pytest.raises(DegenerateError, match="real rank < 2"):
        charge_kernel([gaussian(1, 2), gaussian(2, 4), gaussian(-1, -2)], gram)
    with pytest.raises(ChargeError, match="zero charge functional"):
        charge_kernel([gaussian(0, 0)] * 3, gram)


def test_charge_norm_form_residual_vanishes_randomly(k3d2):
    rng = random.Random(51)
    for _ in range(20):
        beta = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),)
        omega = (Fraction(rng.randint(2, 4)),)
        params = ChargeParams(k3d2, beta, omega)
        z = charge_row(params)
        gram = k3d2.mukai_gram()
        k = charge_kernel(z, gram)
        s = k.norm_form
        for _ in range(20):
            v = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
            pv = _reference_projection(k.basis, gram, v)
            lhs = bilinear(v, gram, v)
            rhs = charge_norm_sq(z, s, v) - (-bilinear(pv, gram, pv))
            assert lhs == rhs


def test_charge_norm_form_scaling(k3d2):
    z, gram = worked_example(k3d2)
    s = charge_kernel(z, gram).norm_form
    z3 = [zi * 3 for zi in z]
    s3 = charge_kernel(z3, gram).norm_form
    assert s3 == tuple(tuple(x / 9 for x in row) for row in s)




def test_min_root_norm_matches_brute_force(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    s = k.norm_form
    res = min_root_norm(k.norm, ambient_gram=gram)
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
    norm = charge_kernel(z, gram).norm
    r1 = min_root_norm(norm, ambient_gram=gram, start_bound=Fraction(8))
    r2 = min_root_norm(norm, ambient_gram=gram, start_bound=Fraction(16))
    assert r1.c_squared == r2.c_squared


def test_min_root_norm_budget_error(k3d2):
    z, gram = worked_example(k3d2)
    norm = charge_kernel(z, gram).norm
    with pytest.raises(BudgetError):
        min_root_norm(norm, ambient_gram=gram, budget=3)


def test_min_root_norm_budget_counts_nodes_of_all_rounds(k3d2):
    z, gram = worked_example(k3d2)
    norm = charge_kernel(z, gram).norm
    q_aux = aux_gram(norm, gram)
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
    res = min_root_norm(norm, ambient_gram=gram, start_bound=start)
    assert res.c_squared == Fraction(9, 8) and res.points_visited == 223
    # 150 nodes run out in the fourth round: the last completed bound is
    # 1/2, and the walk stopped at the budget
    res = min_root_norm(norm, ambient_gram=gram, budget=150, start_bound=start)
    assert not res.found
    assert res.bound_reached == Fraction(1, 2) and res.points_visited == 150
    with pytest.raises(BudgetError):
        min_root_norm(norm, ambient_gram=gram, budget=222, start_bound=start)


def test_root_searches_reject_non_integral_gram(k3d2):
    z, gram = worked_example(k3d2)
    norm = charge_kernel(z, gram).norm
    half = [[Fraction(x, 2) for x in row] for row in gram]
    with pytest.raises(LatticeError, match="not integral"):
        min_root_norm(norm, ambient_gram=half)
    with pytest.raises(LatticeError, match="not integral"):
        discreteness_classes(build_q_z(norm, Fraction(9, 8), half), norm, Fraction(9, 8),
                             half, radius_sq=Fraction(4))


def test_build_q_z_properties(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    res = min_root_norm(k.norm, ambient_gram=gram)
    q_z = build_q_z(k.norm, res.c_squared, gram)
    assert is_negative_definite(restrict(q_z, k.basis))
    w = res.witness.coords()
    assert bilinear(w, q_z, w) == 0  # the witness attains C
    # Q_Z >= Mukai square everywhere (the added term is nonnegative)
    rng = random.Random(52)
    for _ in range(200):
        v = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        assert bilinear(v, q_z, v) >= bilinear(v, gram, v)
    # on the kernel, Q_Z equals the Mukai form
    b = k.basis[0]
    assert bilinear(b, q_z, b) == bilinear(b, gram, b)


def test_roundtrip_curve_lattice():
    z = [gaussian(-1, 0), gaussian(0, 1)]
    q = identity(2)
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
    norm = charge_kernel(z, gram).norm
    res = min_root_norm(norm, ambient_gram=gram)
    q_z = build_q_z(norm, res.c_squared, gram)
    rng = random.Random(54)
    classes = [tuple(rng.randint(-8, 8) for _ in range(3)) for _ in range(200)]
    rep = equivalent_support_roundtrip(q_z, z, classes)
    assert rep.all_pass
    assert any(not v.skipped for v in rep.verdicts)
    assert any(v.skipped for v in rep.verdicts)  # Q_Z < 0 happens too


def test_discreteness_finite_list(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    norm, s = k.norm, k.norm_form
    res = min_root_norm(norm, ambient_gram=gram)
    q_z = build_q_z(norm, res.c_squared, gram)
    classes = discreteness_classes(q_z, norm, res.c_squared, gram, radius_sq=Fraction(4))
    assert classes  # some classes exist in the disc
    for x in classes:
        assert bilinear(x, q_z, x) >= 0
        assert charge_norm_sq(z, s, x) <= 4
    # growing the radius never loses classes
    bigger = discreteness_classes(q_z, norm, res.c_squared, gram, radius_sq=Fraction(8))
    assert set(classes) <= set(bigger)


def reference_discreteness(q_z, norm, c2, gram, radius, budget=None):
    """The discreteness sample as one walk of Q_aux = 2N - M up to
    (2 + 2 / C^2) radius, filtered in rationals: nonzero, v^T N v <= radius
    and Q_Z(v) >= 0."""
    cap = 2 * radius + 2 / c2 * radius
    return sorted(x for x in enumerate_ellipsoid(aux_gram(norm, gram), cap, budget=budget)
                  if any(x) and bilinear(x, norm, x) <= radius and bilinear(x, q_z, x) >= 0)


def test_discreteness_filters_match_rational_reference(k3d2):
    z, gram = worked_example(k3d2)
    k = charge_kernel(z, gram)
    norm, s = k.norm, k.norm_form
    res = min_root_norm(norm, ambient_gram=gram)
    c2 = res.c_squared
    q_z = build_q_z(norm, c2, gram)
    # just below C^2 the witness pair drops out; at C^2 it is in
    for radius in (c2 - Fraction(1, 10 ** 6), c2, Fraction(4)):
        got = discreteness_classes(q_z, norm, c2, gram, radius_sq=radius)
        assert got == reference_discreteness(q_z, norm, c2, gram, radius)
        assert all(charge_norm_sq(z, s, x) <= radius for x in got)
        assert (res.witness.coords() in got) == (radius >= c2)


@settings(max_examples=60)
@given(st.integers(1, 3), st.randoms(use_true_random=False),
       st.builds(Fraction, st.integers(1, 8), st.integers(1, 8)),
       st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(2), Fraction(4)]))
def test_weighted_discreteness_walk_matches_q_aux_reference(rank, rng, c2, scale):
    """On random K3 lattices of NS rank 1-3 with generic charges, the walk of
    (alpha + 1) N - M lists exactly the classes of the Q_aux walk, for any
    C^2 > 0 and radius: the superset argument does not need C^2 to be the
    minimal root norm."""
    from conftest import random_even_ns_lattice
    lat = random_even_ns_lattice(rng, rank)
    gram = lat.mukai_gram()
    beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
    t = Fraction(rng.randint(2, 6), 2)
    omega = tuple(t * x for x in lat.ample)
    z = charge_row(ChargeParams(lat, beta, omega))
    try:
        norm = charge_kernel(z, gram).norm
    except DegenerateError:
        assume(False)
    q_z = build_q_z(norm, c2, gram)
    radius = c2 * scale
    try:
        expected = reference_discreteness(q_z, norm, c2, gram, radius, budget=20000)
    except BudgetError:
        assume(False)
    assert discreteness_classes(q_z, norm, c2, gram, radius_sq=radius) == expected


@settings(max_examples=60)
@given(st.integers(1, 3), st.randoms(use_true_random=False),
       st.builds(Fraction, st.integers(1, 8), st.integers(1, 8)),
       st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(4)]))
def test_discreteness_classes_do_not_depend_on_the_basis(rank, rng, c2, scale):
    """Under a unimodular change of basis e'_i = sum_j u_ij e_j of the
    lattice, (M, N, Q_Z) become u (M, N, Q_Z) u^T and a class y of the new
    basis is the class y u of the old: the two lists map onto each other."""
    from conftest import random_even_ns_lattice
    lat = random_even_ns_lattice(rng, rank)
    gram = lat.mukai_gram()
    beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
    t = Fraction(rng.randint(2, 6), 2)
    try:
        norm = charge_kernel(charge_row(ChargeParams(lat, beta, tuple(t * x for x in lat.ample))),
                             gram).norm
    except DegenerateError:
        assume(False)
    n = rank + 2
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        (i, j), c = rng.sample(range(n), 2), rng.randint(-3, 3)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rows = [tuple(map(Fraction, row)) for row in u]
    moved = [restrict(g, rows) for g in (gram, norm)]
    q_z = build_q_z(norm, c2, gram)
    assert build_q_z(moved[1], c2, moved[0]) == restrict(q_z, rows)
    radius = c2 * scale
    got = discreteness_classes(restrict(q_z, rows), moved[1], c2, moved[0], radius_sq=radius)
    assert sorted(tuple(sum(y[i] * u[i][j] for i in range(n)) for j in range(n))
                  for y in got) == discreteness_classes(q_z, norm, c2, gram, radius_sq=radius)


@pytest.mark.parametrize("gram, ample, beta, omega, classes, nodes", [
    (((2,),), (1,), "0", "2", 52, 129),
    # the skewed rank-3 basis of the pinned CLI example: 231 nodes unreduced
    (((-2, 0, -8), (0, 0, -2), (-8, -2, -28)), (-3, 0, 1), "-1/3,1/5,1/7",
     "-9/2,1/13,3/2", 4, 43),
])
def test_discreteness_budget_counts_the_reduced_walk(gram, ample, beta, omega, classes, nodes):
    """The discreteness walk runs in the LLL-reduced basis: its budget
    counts that walk's nodes, pinned on the README example and on a skewed
    basis."""
    lat = NSLattice(len(gram), gram, ample)
    m = lat.mukai_gram()
    params = ChargeParams(lat, tuple(map(Fraction, beta.split(","))),
                          tuple(map(Fraction, omega.split(","))))
    norm = charge_kernel(charge_row(params), m).norm
    c2 = min_root_norm(norm, ambient_gram=m).c_squared
    args = (build_q_z(norm, c2, m), norm, c2, m)
    assert len(discreteness_classes(*args, radius_sq=4 * c2, budget=nodes)) == classes
    with pytest.raises(BudgetError, match=f"budget of {nodes - 1} nodes"):
        discreteness_classes(*args, radius_sq=4 * c2, budget=nodes - 1)


def test_weighted_discreteness_walk_on_rank_two_gram():
    """With M of rank 2 (n - 2 = 0) the walk takes alpha = 2K: no division
    by zero, and the same list as the Q_aux walk."""
    z = [gaussian(-1, 0), gaussian(0, 1)]
    gram = identity(2)
    norm = charge_kernel(z, gram).norm  # Ker Z = 0, so N = M
    for c2 in (Fraction(1, 2), Fraction(2), Fraction(9, 8)):
        q_z = build_q_z(norm, c2, gram)
        for radius in (Fraction(1), Fraction(5), 4 * c2):
            got = discreteness_classes(q_z, norm, c2, gram, radius_sq=radius)
            assert got and got == reference_discreteness(q_z, norm, c2, gram, radius)


def test_roundtrip_rejects_a_class_of_the_wrong_length(k3d2):
    z, gram = worked_example(k3d2)
    q_z = build_q_z(charge_kernel(z, gram).norm, Fraction(9, 8), gram)
    for cls in ((1, 0), (1, 0, 1, 5)):
        with pytest.raises(LatticeError, match="has rank 3"):
            equivalent_support_roundtrip(q_z, z, [(0, 0, 1), cls])


def test_min_root_norm_second_configuration(k3d2):
    """Brute-force cross-check at a second slice point (beta = H/2)."""
    params = ChargeParams(k3d2, (Fraction(1, 2),), (Fraction(2),))
    z = charge_row(params)
    gram = k3d2.mukai_gram()
    k = charge_kernel(z, gram)
    s = k.norm_form
    res = min_root_norm(k.norm, ambient_gram=gram)
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
    from stabkit.linalg import solve
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
    rng = random.Random(61)
    for rank in (1, 1, 2, 2, 3, 3):
        lat = random_even_ns_lattice(rng, rank)
        gram = lat.mukai_gram()
        n = lat.mukai_rank
        beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
        omega = tuple(Fraction(2 * x) for x in lat.ample)
        z = charge_row(ChargeParams(lat, beta, omega))
        s = charge_kernel(z, gram).norm_form
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


def pivot_block_norm_form(z, norm):
    """S by the pivot-block construction: at two pivot columns of
    R = (Re Z; Im Z), where R is an invertible 2 x 2 block C, R^T S R = N
    reads C^T S C = N_pp, hence S = C^-T N_pp C^-1."""
    from stabkit.linalg import rref
    rows = charge_rows(z)
    _, pivots = rref(rows)
    c_inv = inverse([[row[p] for p in pivots] for row in rows])
    n_pp = [[norm[a][b] for b in pivots] for a in pivots]
    return mat_mul(transpose(c_inv), mat_mul(n_pp, c_inv))


def _test_charge(kind, lat, rng):
    """A charge row of the given kind: a stability charge, a random integer
    row, a row with proportional parts, a row whose kernel holds the
    isotropic class (1, 0, ..., 0) in its radical, or zero."""
    n, rank = lat.mukai_rank, lat.rank
    if kind == "stability":
        beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
        t = Fraction(rng.randint(2, 6), 2)
        return charge_row(ChargeParams(lat, beta, tuple(t * x for x in lat.ample)))
    if kind == "random":
        return [gaussian(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
    if kind == "proportional":
        a, b = rng.choice([(1, 2), (3, -1), (0, 1), (2, 0)])
        c = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-3, 3) for _ in range(n - 1)]
        rng.shuffle(c)
        return [gaussian(a * x, b * x) for x in c]
    if kind == "isotropic":
        # Re Z = s, Im Z vanishes on r: Ker Z is inside s = 0 and holds
        # (1, 0, ..., 0), which pairs to zero with every class of s = 0
        return ([gaussian(0, 0), gaussian(0, rng.choice([-2, -1, 1, 2]))]
                + [gaussian(0, rng.randint(-3, 3)) for _ in range(rank - 1)]
                + [gaussian(1, rng.randint(-3, 3))])
    return [gaussian(0, 0)] * n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False),
       st.sampled_from(["stability", "random", "proportional", "isotropic", "zero"]))
def test_closed_form_norm_form_matches_pivot_block(rank, rng, kind):
    """On random K3 lattices of NS rank 1-4, charge_kernel's S = (R M^-1 R^T)^-1
    equals the pivot-block S of the projector reference N = M - M P, and
    its N equals that reference. Every refusal follows the reference: the
    zero charge, a charge of real rank < 2, a pairing degenerate on Ker Z
    (the reference projector is undefined) and a pivot-block S that is not
    positive definite."""
    from conftest import random_even_ns_lattice
    from stabkit.linalg import is_positive_definite
    lat = random_even_ns_lattice(rng, rank)
    gram = lat.mukai_gram()
    z = _test_charge(kind, lat, rng)
    if all(x.is_zero() for x in z):
        with pytest.raises(ChargeError, match="zero charge functional"):
            charge_kernel(z, gram)
        return
    if len(nullspace(charge_rows(z))) > len(z) - 2:
        with pytest.raises(DegenerateError, match="real rank < 2"):
            charge_kernel(z, gram)
        return
    try:
        norm = reference_norm(z, gram)
    except ValueError:
        with pytest.raises(DegenerateError, match="pairing degenerate on Ker Z"):
            charge_kernel(z, gram)
        return
    reference = pivot_block_norm_form(z, norm)
    if is_positive_definite(reference):
        k = charge_kernel(z, gram)
        assert [list(r) for r in k.norm_form] == reference
        assert [list(r) for r in k.norm] == norm
    else:
        with pytest.raises(DegenerateError, match="no positive definite norm form"):
            charge_kernel(z, gram)


def test_charge_kernel_rejects_a_degenerate_ambient_pairing(k3d2):
    """A singular M has no dual Gram R M^-1 R^T, even where it is
    nondegenerate on Ker Z = span (1, 0, 4)."""
    z, _ = worked_example(k3d2)
    singular = [[2, 0, 0], [0, 2, 0], [0, 0, 0]]
    with pytest.raises(DegenerateError, match="ambient pairing is degenerate"):
        charge_kernel(z, singular)
    with pytest.raises(DegenerateError, match="ambient pairing is degenerate"):
        charge_kernel([gaussian(-1, 0), gaussian(0, 1)], [[1, 0], [0, 0]])


def test_gram_must_match_the_charge_row(k3d2):
    """A Gram that is not len(z_row) square is a LatticeError in both
    directions, for the ambient Gram and for the roundtrip's Q."""
    z, gram = worked_example(k3d2)
    z4 = [*z, gaussian(1, 1)]
    for row, bad in ((z, identity(4)), (z4, gram), (z, [[1, 0, 0], [0, 1], [0, 0, 1]])):
        n = len(row)
        with pytest.raises(LatticeError, match=f"ambient Gram is not {n} x {n}"):
            charge_kernel(row, bad)
        with pytest.raises(LatticeError, match=f"Q is not {n} x {n}"):
            equivalent_support_roundtrip(bad, row, [(1,) * n])


def _fixed_radius_search(z, s, norm, gram, start, budget):
    """The deepening loop with a fixed radius in every round: (C^2, witness
    coordinates, bound reached, nodes of all rounds)."""
    q_aux = aux_gram(norm, gram)
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
        k = charge_kernel(z, gram)
    except DegenerateError:
        assume(False)
    budget = 20000
    try:
        c2, witness, bound, nodes = _fixed_radius_search(z, k.norm_form, k.norm, gram,
                                                         start, budget)
    except BudgetError:
        assume(False)
    res = min_root_norm(k.norm, ambient_gram=gram, budget=budget, start_bound=start)
    assert (res.c_squared, res.witness.coords(), res.bound_reached) == (c2, witness, bound)
    assert res.points_visited <= nodes
