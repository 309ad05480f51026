import gc
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ldl_decompose
from stabkit import MukaiVector, Rank2Lattice
from stabkit.ellipsoid import _level_range, enumerate_ellipsoid, lll_reduce
from stabkit.errors import BudgetError
from stabkit.linalg import clear_denominators, inverse
from stabkit.nef import _isotropic_perp, decomposition_scan


def test_level_range_exact():
    # (rem, w, den, cn) for the rational ranges |x + c| <= sqrt(q), where
    # c = cn / den and q = rem / (w den^2):
    # c = 0, q = 2 -> [-1, 1]; c = 0, q = 4 -> [-2, 2];
    # c = -1/2, q = 9/4 -> [-1, 2]; c = 3, q = 4 -> [-5, -1]
    assert _level_range(2, 1, 1, 0) == range(-1, 2)
    assert _level_range(4, 1, 1, 0) == range(-2, 3)
    assert _level_range(9, 1, 2, -1) == range(-1, 3)
    assert _level_range(4, 1, 1, 3) == range(-5, 0)
    assert _level_range(0, 3, 2, 1) == range(0, 0)
    rng = random.Random(81)
    for _ in range(500):
        rem, w = rng.randint(0, 4000), rng.randint(1, 90)
        den, cn = rng.randint(1, 9), rng.randint(-400, 400)
        r = _level_range(rem, w, den, cn)

        def inside(x):
            return w * (den * x + cn) ** 2 <= rem

        # exactly the integers with w (den x + cn)^2 <= rem: every x in the
        # range qualifies, and the integers just outside it do not
        assert all(inside(x) for x in r)
        assert not inside(r.start - 1) and not inside(r.stop)
        if not r:
            center = -cn // den
            assert not any(inside(x) for x in range(center - 1, center + 2))


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        ldl_decompose([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]])


@pytest.mark.parametrize("gram", [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[2, 1, 0], [1, 3, 1], [0, 1, 0]]])
def test_ldl_rejects_semidefinite(gram):
    """A zero pivot is refused as not positive definite, before it is
    divided by."""
    with pytest.raises(ValueError, match="not positive definite"):
        ldl_decompose(gram)


def test_enumeration_matches_brute_force():
    rng = random.Random(82)
    for _ in range(20):
        # random PD integer form: A^T A + I
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        g = [[Fraction(sum(a[k][i] * a[k][j] for k in range(2))
                       + (1 if i == j else 0)) for j in range(2)]
             for i in range(2)]
        bound = Fraction(rng.randint(1, 30))
        got = sorted(enumerate_ellipsoid(g, bound))
        brute = []
        for x in range(-40, 41):
            for y in range(-40, 41):
                q = (g[0][0] * x * x + 2 * g[0][1] * x * y + g[1][1] * y * y)
                if q <= bound:
                    brute.append((x, y))
        assert got == sorted(brute)


def test_budget_error_carries_bound():
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(BudgetError) as err:
        list(enumerate_ellipsoid(g, Fraction(10 ** 6), budget=10))
    assert err.value.bound_reached == 10 ** 6


def test_empty_form_yields_origin():
    assert list(enumerate_ellipsoid([], Fraction(0))) == [()]


def test_negative_bound_empty():
    g = [[Fraction(1)]]
    assert list(enumerate_ellipsoid(g, Fraction(-1))) == []


# -- property tests: the integer walk against brute force and a counting
# reference walk in rationals --------------------------------------------------

_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def pd_forms(draw):
    """A PD Gram A^T A + D (rational entries, D diagonal >= 1/2, at least one
    entry not an integer) and a rational bound <= 40."""
    n = draw(st.integers(1, 4))
    a = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 2)))
            for _ in range(n)]
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (diag[i] if i == j else 0)
          for j in range(n)] for i in range(n)]
    assume(any(e.denominator > 1 for row in g for e in row))
    bound = draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 4)))
    return g, bound


def _box(g, bound):
    """|x_i| <= sqrt(bound (G^-1)_ii) on the ellipsoid."""
    ginv = inverse(g)
    return [isqrt(int(bound * ginv[i][i])) + 1 for i in range(len(g))]


def _brute_force(g, bound):
    n = len(g)
    den = lcm(*(e.denominator for row in g for e in row))
    rows = [[int(e * den) for e in row] for row in g]
    cap = bound * den
    pts = [()]
    for b in _box(g, bound):
        pts = [p + (x,) for p in pts for x in range(-b, b + 1)]
    return [p for p in pts
            if sum(p[i] * rows[i][j] * p[j] for i in range(n) for j in range(n)) <= cap]


def _reference_events(g, bound):
    """The Fincke-Pohst walk in rationals, scanning a box at every level:
    ("node", None) for each value tried at any level, ("point", x) for each
    point, in walk order."""
    d, low = ldl_decompose(g)
    n = len(g)
    box = _box(g, bound)
    x = [0] * n

    def rec(i, rem):
        c = sum((low[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        for xi in range(-box[i] - 1, box[i] + 2):
            if d[i] * (xi + c) ** 2 <= rem:
                yield ("node", None)
                x[i] = xi
                if i == 0:
                    yield ("point", tuple(x))
                else:
                    yield from rec(i - 1, rem - d[i] * (xi + c) ** 2)

    return list(rec(n - 1, bound))


@given(pd_forms())
def test_ldl_matches_rational_recurrence(form):
    """The fraction-free decomposition equals the textbook one in rationals:
    d_i = g_ii - sum_k d_k l_ki^2, l_ij = (g_ij - sum_k d_k l_ki l_kj) / d_i."""
    g, _ = form
    n = len(g)
    d, low = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(g[i][i] - sum(d[k] * low[k][i] ** 2 for k in range(i)))
        for j in range(i + 1, n):
            low[i][j] = (g[i][j] - sum(d[k] * low[k][i] * low[k][j] for k in range(i))) / d[i]
    assert ldl_decompose(g) == (d, low)


@given(pd_forms())
def test_walk_yields_brute_force_set_in_walk_order(form):
    g, bound = form
    got = list(enumerate_ellipsoid(g, bound))
    # walk order: x_{n-1} outermost, every coordinate ascending
    assert got == sorted(_brute_force(g, bound), key=lambda p: p[::-1])


@given(pd_forms(), st.integers(0, 10 ** 6))
def test_budget_fires_at_reference_node_count(form, budget):
    g, bound = form
    events = _reference_events(g, bound)
    nodes = sum(1 for kind, _ in events if kind == "node")
    budget %= nodes + 2  # from 0 to one more than the walk needs
    # the points reached within the first ``budget`` nodes
    expected, seen = [], 0
    for kind, p in events:
        if kind == "node":
            seen += 1
            if seen > budget:
                break
        else:
            expected.append(p)
    got, tally = [], [0]
    if nodes > budget:
        with pytest.raises(BudgetError):
            for p in enumerate_ellipsoid(g, bound, budget=budget, nodes=tally):
                got.append(p)
    else:
        got = list(enumerate_ellipsoid(g, bound, budget=budget, nodes=tally))
    assert got == expected
    assert tally == [min(nodes, budget)]


def _form(g, p):
    return sum(p[i] * g[i][j] * p[j] for i in range(len(g)) for j in range(len(g)))


@given(pd_forms(), st.data())
def test_lowered_bound_yields_reference_points_inside_it(form, data):
    """Lowering ``limit[0]`` right after the k-th point keeps the first k
    points and yields exactly the later reference points inside the new
    bound, in walk order, with no more nodes than the fixed walk."""
    g, bound = form
    ref, ref_nodes = [], [0]
    ref.extend(enumerate_ellipsoid(g, bound, nodes=ref_nodes))
    k = data.draw(st.integers(1, len(ref)), label="k")
    # a random bound, a point's value (the point sits on the new boundary)
    # or just below one (the point is the first one outside it)
    values = sorted({_form(g, p) for p in ref})
    lower = data.draw(st.one_of(
        st.builds(Fraction, st.integers(-2, 40), st.integers(1, 4)),
        st.sampled_from(values),
        st.sampled_from(values).map(lambda q: q - Fraction(1, 10 ** 12))), label="lower")
    lower = min(lower, bound)
    limit, got, nodes = [bound], [], [0]
    for p in enumerate_ellipsoid(g, bound, nodes=nodes, limit=limit):
        got.append(p)
        if len(got) == k:
            limit[0] = lower
    assert got == ref[:k] + [p for p in ref[k:] if _form(g, p) <= lower]
    assert nodes[0] <= ref_nodes[0]


@given(pd_forms())
def test_unlowered_limit_is_the_fixed_walk(form):
    """A bound cell that is never lowered (or only raised) changes nothing,
    node for node."""
    g, bound = form
    ref_nodes = [0]
    ref = list(enumerate_ellipsoid(g, bound, nodes=ref_nodes))
    for start in (bound, bound + 5):
        limit, got, nodes = [start], [], [0]
        for p in enumerate_ellipsoid(g, bound, nodes=nodes, limit=limit):
            got.append(p)
            limit[0] = limit[0] + 1
        assert got == ref and nodes == ref_nodes


# -- the integral LLL reduction ------------------------------------------------


@st.composite
def lll_grams(draw):
    """A PD Gram of rank <= 6 and a bound <= 12: A^T A + D with integer or
    rational entries (and then a denominator), or a diagonal form conjugated
    by a random unimodular matrix, which is skewed but reduces to a small
    basis."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entries = _entries if draw(st.booleans()) else st.integers(-3, 3).map(Fraction)
        a = [[draw(entries) for _ in range(n)] for _ in range(n)]
        diag = [draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 2)))
                for _ in range(n)]
        g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (diag[i] if i == j else 0)
              for j in range(n)] for i in range(n)]
    else:
        diag = [draw(st.integers(1, 5)) for _ in range(n)]
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        g = [[Fraction(sum(u[i][k] * diag[k] * u[j][k] for k in range(n)))
              for j in range(n)] for i in range(n)]
    return g, draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 2)))


def _gram_schmidt(g):
    """(mu, B): mu_ij (j < i) and B_i = |b*_i|^2 of the basis with Gram g, in
    rationals."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b.append(g[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i)))
    return mu, b


@given(lll_grams())
def test_lll_returns_a_reduced_unimodular_conjugate(form):
    g, _ = form
    rows, _ = clear_denominators(g)
    n = len(rows)
    h, reduced = lll_reduce(rows)
    # unimodular: an integer matrix with an integer inverse
    assert all(x.denominator == 1 for row in inverse(h) for x in row)
    assert reduced == [[sum(h[i][k] * rows[k][l] * h[j][l] for k in range(n) for l in range(n))
                        for j in range(n)] for i in range(n)]
    mu, b = _gram_schmidt([[Fraction(x) for x in row] for row in reduced])
    for i in range(n):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert b[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * b[i - 1]


@given(lll_grams())
def test_reduced_walk_maps_back_onto_the_walk(form):
    """The walk of h G h^T, each point y mapped to y h, is the walk of G as a
    set, with no point twice."""
    g, bound = form
    rows, den = clear_denominators(g)
    h, reduced = lll_reduce(rows)
    try:
        expected = set(enumerate_ellipsoid(g, bound, budget=50000))
    except BudgetError:
        assume(False)
    got = [tuple(sum(y[i] * h[i][j] for i in range(len(h))) for j in range(len(h)))
           for y in enumerate_ellipsoid(reduced, den * bound)]
    assert len(got) == len(expected) and set(got) == expected


@pytest.mark.parametrize("gram", [[[1, 0], [0, -1]], [[1, 1], [1, 1]], [[0, 0], [0, 1]],
                                  [[2, 1, 0], [1, 3, 1], [0, 1, 0]], [[-3]]])
def test_lll_rejects_a_form_that_is_not_positive_definite(gram):
    """The reduction refuses what the walk refuses, with the walk's error."""
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        lll_reduce(gram)
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        list(enumerate_ellipsoid(gram, 5))


def test_lll_recovers_a_diagonal_basis():
    """Pinned on a skewed basis of diag(1, 2, 3): the reduction finds the
    diagonal basis again, up to order and signs."""
    u = [[1, 0, 0], [4, 1, 0], [-7, 3, 1]]
    diag = [1, 2, 3]
    g = [[sum(u[i][k] * diag[k] * u[j][k] for k in range(3)) for j in range(3)]
         for i in range(3)]
    h, reduced = lll_reduce(g)
    assert reduced == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert lll_reduce(reduced) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], reduced)
    assert lll_reduce([]) == ([], [])


@pytest.mark.parametrize("walk", [
    lambda: list(enumerate_ellipsoid([[2, 1], [1, 3]], 5)),
    lambda: list(_isotropic_perp((1, 0, -1), ((2,),), 3)),
    lambda: decomposition_scan((1, 0), Rank2Lattice(
        (MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)), ((2, -1), (-1, 0))),
        max_m=3, box=10),
], ids=["enumerate_ellipsoid", "perp_box", "decomposition_scan"])
def test_recursive_walks_leave_no_reference_cycle(walk):
    """Each nested recursive walk drops its self-reference when it ends, so
    one call leaves nothing for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        assert walk()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bare_walk_honours_budget_env(monkeypatch):
    """A walk given no budget counts its nodes against
    ``errors.effective_budget()``: BRIDGELAND_BUDGET, else 2^20."""
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    nodes = [0]
    full = list(enumerate_ellipsoid(gram, 4, nodes=nodes))
    assert len(full) == 13
    monkeypatch.setenv("BRIDGELAND_BUDGET", str(nodes[0]))
    assert list(enumerate_ellipsoid(gram, 4)) == full
    monkeypatch.setenv("BRIDGELAND_BUDGET", str(nodes[0] - 1))
    with pytest.raises(BudgetError, match=f"budget of {nodes[0] - 1} nodes"):
        list(enumerate_ellipsoid(gram, 4))
    # an explicit budget still wins over the environment
    assert list(enumerate_ellipsoid(gram, 4, budget=nodes[0])) == full
