import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conftest import (determinant, minors_negative_definite,
                      minors_positive_definite, minors_positive_semidefinite)
from stabkit.linalg import (bilinear, dot, inverse, is_negative_definite,
                            is_positive_definite, mat_mul, mat_vec, minors2_gcd,
                            nullspace, primitive_vector, rref, signature, solve)


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
