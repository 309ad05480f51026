import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import settings

from stabkit import CategoryPresentation, Edge, NSLattice
from stabkit.gaussian import GaussianRational
from stabkit.linalg import inverse, mat_mul, primitive_vector, transpose

# property tests run the same examples on every run and have no per-example
# deadline (timings on a shared machine vary too much to be a failure)
settings.register_profile("stabkit", derandomize=True, deadline=None)
settings.load_profile("stabkit")


def determinant(mat):
    """Fraction-pivot Gaussian elimination determinant: the independent
    reference for the Sylvester definiteness tests below."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


# -- Fraction-pivot references for the fraction-free linalg -------------------
# The elimination the library ran before it went integer: every row operation
# on Fractions. The differential tests in test_linalg.py compare against it.


def ref_rref(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def ref_solve(mat, rhs):
    n = len(mat)
    red, pivots = ref_rref([list(row) + [rhs[i]] for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def ref_inverse(mat):
    n = len(mat)
    red, pivots = ref_rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def ref_nullspace(mat):
    rows, pivots = ref_rref(mat)
    ncols = len(mat[0]) if mat else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append([Fraction(x) for x in primitive_vector(v)])
    return basis


def ref_signature(gram):
    """Congruence diagonalization on Fractions, with the same two zero-pivot
    branches: swap in a later nonzero diagonal entry, or fold in row and
    column j of a nonzero a_kj."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                for c in range(n):
                    a[k][c] += a[j][c]
                for r in range(n):
                    a[r][k] += a[r][j]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for c in range(n):
                    a[i][c] -= f * a[k][c]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
    return pos, neg, zero


def ref_bareiss_ldl(rows):
    """(p, a) with G(x) = sum_k p_k / p_{k-1} (x_k + sum_{j>k} a_kj / p_k x_j)^2
    for a positive definite integer Gram: the fraction-free upper-triangle
    elimination the ellipsoid walk ran before it shared ``int_ldl``."""
    a = [list(row) for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        piv, row = a[k][k], a[k]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            ai, f = a[i], row[i]
            for j in range(i, n):
                ai[j] = (piv * ai[j] - f * row[j]) // prev
        prev = piv
    return [a[k][k] for k in range(n)], a


def leading_principal_minors(gram):
    return [determinant([row[:k] for row in gram[:k]]) for k in range(1, len(gram) + 1)]


def minors_positive_definite(gram):
    """Sylvester: every leading principal minor is positive."""
    return all(m > 0 for m in leading_principal_minors(gram))


def minors_negative_definite(gram):
    """Sylvester: the k-th leading principal minor has the sign (-1)^k."""
    return all((-1) ** k * m > 0
               for k, m in enumerate(leading_principal_minors(gram), start=1))


def minors_positive_semidefinite(gram):
    """Every principal minor, over all index subsets, is nonnegative."""
    n = len(gram)
    return all(determinant([[gram[i][j] for j in idx] for i in idx]) >= 0
               for k in range(1, n + 1) for idx in combinations(range(n), k))


def perp_box(row, bound):
    """All integer points u of the box |u_i| <= bound with row . u = 0, for a
    nonzero integer row: walk every coordinate but one pivot j with
    row_j != 0 and solve row . u = 0 for u_j. The brute-force reference for
    the Lagrangian search."""
    j = next(i for i, x in enumerate(row) if x)
    pivot, rest = row[j], [*row[:j], *row[j + 1:]]
    for head in product(range(-bound, bound + 1), repeat=len(rest)):
        uj, rem = divmod(-sum(map(mul, rest, head)), pivot)
        if not rem and -bound <= uj <= bound:
            yield (*head[:j], uj, *head[j:])


@pytest.fixture
def k3d2():
    """Degree-2 K3 with Picard rank 1: NS = Z H, H^2 = 2."""
    return NSLattice(1, ((2,),), (1,))


def random_even_ns_lattice(rng: random.Random, rank=None) -> NSLattice:
    """Random even lattice of signature (1, rank-1) with an integral ample
    class: conjugate an even diagonal form by a random unimodular matrix."""
    rank = rank or rng.choice([1, 1, 2, 2, 3])
    diag = [2 * rng.randint(1, 4)] + [-2 * rng.randint(1, 4) for _ in range(rank - 1)]
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        if rank == 1:
            break
        i, j = rng.sample(range(rank), 2)
        k = rng.randint(-2, 2)
        for c in range(rank):
            u[i][c] += k * u[j][c]
    ut = transpose(u)
    d = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(rank)]
         for i in range(rank)]
    gram = mat_mul(ut, mat_mul(d, u))
    uinv = inverse(u)
    ample = tuple(int(uinv[i][0]) for i in range(rank))
    return NSLattice(rank,
                     tuple(tuple(int(x) for x in row) for row in gram),
                     ample)


def random_valid_charge(rng: random.Random) -> GaussianRational:
    """A random charge value in the upper half-plane union R_{<0}."""
    if rng.random() < 0.15:
        return GaussianRational(Fraction(-rng.randint(1, 8), rng.randint(1, 4)),
                                Fraction(0))
    return GaussianRational(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                            Fraction(rng.randint(1, 8), rng.randint(1, 4)))


def random_presentation(rng: random.Random):
    """Random valid presentation (<= 12 objects) plus a matching charge row.

    Two shapes: interval towers (iterated extensions of a flag of simples,
    every subquotient present) and biproduct diamonds. Classes live in Z^k
    with the simples as standard basis vectors, so additivity is automatic
    and the charge row is the list of simple charges.
    """
    if rng.random() < 0.7:
        m = rng.randint(2, 4)
        charge = [random_valid_charge(rng) for _ in range(m)]

        def unit(i):
            return tuple(1 if k == i else 0 for k in range(m))

        def interval(i, j):
            return tuple(1 if i <= k < j else 0 for k in range(m))

        objects = {"0": tuple(0 for _ in range(m))}
        for i in range(m):
            for j in range(i + 1, m + 1):
                objects[f"X{i}{j}"] = interval(i, j)
        edges = []
        for i in range(m):
            for j in range(i + 1, m + 1):
                for k in range(j + 1, m + 1):
                    edges.append(Edge(f"X{i}{j}", f"X{i}{k}", f"X{j}{k}"))
        cat = CategoryPresentation(objects, tuple(edges), "0")
        return cat, charge, f"X0{m}"
    # diamond: S, T, S + T
    charge = [random_valid_charge(rng) for _ in range(2)]
    objects = {"0": (0, 0), "S": (1, 0), "T": (0, 1), "A": (1, 1)}
    edges = (Edge("S", "A", "T"), Edge("T", "A", "S"))
    cat = CategoryPresentation(objects, edges, "0")
    return cat, charge, "A"
