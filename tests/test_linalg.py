import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (determinant, leading_principal_minors, minors_negative_definite,
                      minors_positive_definite, minors_positive_semidefinite,
                      mat_mul, nullspace, ref_bareiss_ldl, ref_inverse, ref_nullspace,
                      ref_rref, ref_signature, ref_solve, rref)
from stabkit.linalg import (bilinear, dot, int_kernel, int_ldl, int_rref, inverse,
                            is_negative_definite, is_positive_definite, mat_vec,
                            minors2_gcd, primitive_vector, signature, solve)


def test_rref_and_solve():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve(a, [Fraction(5), Fraction(10)])
    assert [sum(r * xi for r, xi in zip(row, x)) for row in a] == [5, 10]


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if determinant(a) == 0:
            continue
        ai = inverse(a)
        prod = mat_mul(a, ai)
        assert all(prod[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def test_nullspace_exact():
    rng = random.Random(5)
    for _ in range(50):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)]
        ker = nullspace(rows)
        for v in ker:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
        _, pivots = rref(rows)
        assert len(ker) == 4 - len(pivots)


def test_signature_diag_and_conjugated():
    assert signature([[Fraction(2), 0], [0, Fraction(-2)]]) == (1, 1, 0)
    assert signature([[Fraction(0), Fraction(-1)], [Fraction(-1), Fraction(0)]]) == (1, 1, 0)
    assert signature([[Fraction(0), 0], [0, Fraction(3)]]) == (1, 0, 1)


def test_definiteness_tests():
    assert is_negative_definite([[Fraction(-2), 1], [1, Fraction(-2)]])
    assert not is_negative_definite([[Fraction(-2), 3], [3, Fraction(-2)]])
    assert is_positive_definite([[Fraction(2), 1], [1, Fraction(2)]])
    assert not is_positive_definite([[Fraction(2), 3], [3, Fraction(2)]])


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices with n <= 5: Gram matrices of rational
    vectors, whose rank and signs are drawn, so that singular, semidefinite,
    definite, indefinite and zero-diagonal forms all occur."""
    n = draw(st.integers(0, 5))
    rat = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if draw(st.booleans()):
        entries = draw(st.lists(rat, min_size=n * n, max_size=n * n))
        a = [[entries[i * n + j] if i <= j else entries[j * n + i] for j in range(n)]
             for i in range(n)]
        if draw(st.booleans()):
            for i in range(n):
                a[i][i] = Fraction(0)
        return a
    k = draw(st.integers(0, n))
    vecs = [draw(st.lists(rat, min_size=n, max_size=n)) for _ in range(k)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    return [[sum(e * v[i] * v[j] for e, v in zip(signs, vecs)) for j in range(n)]
            for i in range(n)]


@given(symmetric_matrices())
def test_definiteness_by_signature_matches_minors(g):
    n = len(g)
    sig = signature(g)
    assert sum(sig) == n and min(sig) >= 0
    assert is_positive_definite(g) == minors_positive_definite(g)
    assert is_negative_definite(g) == minors_negative_definite(g)
    assert (sig[1] == 0) == minors_positive_semidefinite(g)


def test_primitive_vector():
    assert primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
    assert primitive_vector([Fraction(-2), Fraction(4)]) == [1, -2]


def test_minors2_gcd():
    assert minors2_gcd([2, 0, 0], [0, 0, 2]) == 4
    assert minors2_gcd([1, 0, -1], [0, 0, 1]) == 1
    assert minors2_gcd([1, 2, 3], [2, 4, 6]) == 0


# -- products over common denominators against naive Fraction sums ------------

_scalars = st.one_of(st.integers(-50, 50),
                     st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


def _naive_dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_products_match_naive_fraction_sums(m, k, n, data):
    def matrix(rows, cols):
        return data.draw(st.lists(st.lists(_scalars, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))

    a, b = matrix(m, k), matrix(k, n)
    u = data.draw(st.lists(_scalars, min_size=k, max_size=k))
    v = data.draw(st.lists(_scalars, min_size=k, max_size=k))
    g = matrix(k, k)
    prod = mat_mul(a, b)
    assert prod == [[_naive_dot(row, col) for col in zip(*b)] for row in a]
    assert all(type(x) is Fraction for row in prod for x in row)
    assert mat_vec(a, u) == [_naive_dot(row, u) for row in a]
    assert dot(u, v) == _naive_dot(u, v) and type(dot(u, v)) is Fraction
    assert bilinear(u, g, v) == _naive_dot(u, [_naive_dot(row, v) for row in g])


def test_products_of_empty_matrices():
    assert mat_mul([], []) == [] and mat_vec([], []) == []
    assert mat_mul([[]], [[]]) == [[]]
    assert mat_mul([[Fraction(1)], [Fraction(2)]], [[]]) == [[], []]
    assert dot([], []) == 0 and bilinear([], [], []) == 0


# -- fraction-free elimination against the Fraction-pivot references ----------

# small ints, large ints and Fractions with large denominators, mixed
_mixed = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12),
                   st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                             st.integers(1, 10 ** 9)))
_small = st.one_of(st.integers(-4, 4),
                   st.builds(Fraction, st.integers(-40, 40), st.integers(1, 10 ** 6)))


@st.composite
def matrices(draw, square=False):
    """m x n matrices of mixed entries, m, n <= 6: either free entries or a
    product B C with B m x k and C k x n, of rank at most k (singular and
    rank-deficient when k < min(m, n)), possibly with a repeated row."""
    m = draw(st.integers(1 if square else 0, 6))
    n = m if square else draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [draw(st.lists(_mixed, min_size=n, max_size=n)) for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))
    b = [draw(st.lists(_small, min_size=k, max_size=k)) for _ in range(m)]
    c = [draw(st.lists(_small, min_size=n, max_size=n)) for _ in range(k)]
    a = [[sum((x * c[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(n)]
         for row in b]
    if m > 1 and draw(st.booleans()):
        a[-1] = list(a[0])
    return a


@given(matrices())
def test_rref_and_nullspace_match_fraction_reference(mat):
    red, pivots = rref(mat)
    assert (red, pivots) == ref_rref(mat)
    assert all(type(x) is Fraction for row in red for x in row)
    ker = nullspace(mat)
    assert ker == ref_nullspace(mat)
    assert all(type(x) is Fraction for v in ker for x in v)
    # the integer forms behind them: red / d, and the same primitive vectors
    fracs = [[Fraction(x) for x in row] for row in mat]
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in fracs]
    ired, d, ipivots = int_rref(ints)
    assert ipivots == pivots and d != 0
    assert [[Fraction(x, d) for x in row] for row in ired] == red
    assert int_kernel(ints, len(mat[0]) if mat else 0) == [[int(x) for x in v] for v in ker]


@given(matrices(square=True), st.data())
def test_inverse_and_solve_match_fraction_reference(mat, data):
    rhs = data.draw(st.lists(_mixed, min_size=len(mat), max_size=len(mat)))
    try:
        want = ref_inverse(mat)
    except ValueError:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(mat)
        with pytest.raises(ValueError, match="singular system"):
            solve(mat, rhs)
        return
    got = inverse(mat)
    assert got == want and all(type(x) is Fraction for row in got for x in row)
    x = solve(mat, rhs)
    assert x == ref_solve(mat, rhs) and all(type(t) is Fraction for t in x)


@st.composite
def symmetric_with_zero_diagonals(draw):
    """Symmetric matrices up to 6 x 6 of mixed entries, free or of low rank
    and any signs (sums of +-v v^T), with a drawn set of diagonal entries set
    to 0: a zero pivot with a later nonzero diagonal entry (the swap), with
    none (the fold of a_kj) and a zero row all occur."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(_mixed)
    else:
        k = draw(st.integers(0, n))
        vecs = [draw(st.lists(_small, min_size=n, max_size=n)) for _ in range(k)]
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
        a = [[sum((e * v[i] * v[j] for e, v in zip(signs, vecs)), Fraction(0))
              for j in range(n)] for i in range(n)]
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else ():
        a[i][i] = 0
    return a


@given(symmetric_with_zero_diagonals())
def test_signature_matches_fraction_reference(g):
    assert signature(g) == ref_signature(g)
    n = len(g)
    assert is_positive_definite(g) == (ref_signature(g) == (n, 0, 0))
    assert is_negative_definite(g) == (ref_signature(g) == (0, n, 0))


@pytest.mark.parametrize("gram, sig", [
    ([[0, 1], [1, 0]], (1, 1, 0)),
    ([[0] * 4 for _ in range(4)], (0, 0, 4)),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (1, 2, 0)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([], (0, 0, 0)),
    # the zero pivot appears only after the first update (at k = 1)
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], (2, 1, 0)),
])
def test_pinned_signatures(gram, sig):
    assert signature(gram) == sig
    assert ref_signature(gram) == sig


@st.composite
def positive_definite_grams(draw):
    """Positive definite integer Grams of rank <= 6: B B^T + D for a random
    integer B and a positive diagonal D."""
    n = draw(st.integers(0, 6))
    b = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    d = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return [[sum(x * y for x, y in zip(b[i], b[j])) + (d[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


@given(positive_definite_grams())
def test_int_ldl_matches_the_upper_triangle_reference_on_definite_forms(g):
    """On a positive definite form nothing is swapped or folded: the pivots
    are the leading minors and the upper rows are the reference's."""
    pivots, rows, zero = int_ldl(g)
    ref_pivots, ref_rows = ref_bareiss_ldl(g)
    assert zero == 0 and pivots == ref_pivots
    assert [row[k:] for k, row in enumerate(rows)] == [row[k:] for k, row in enumerate(ref_rows)]
    assert pivots == [int(m) for m in leading_principal_minors(g)]
