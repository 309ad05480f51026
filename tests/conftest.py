import random
from fractions import Fraction
from itertools import combinations, product
from math import floor, isqrt
from operator import mul

import pytest
from hypothesis import settings

from stabkit import CategoryPresentation, Edge, NSLattice
from stabkit.charges import INFINITY, charge_functional, evaluate_charge_row, monic_normalize
from stabkit.errors import ChargeError, LatticeError
from stabkit.gaussian import GaussianRational, as_fraction
from stabkit.linalg import (bilinear, clear_denominators, int_kernel, int_ldl, int_rref,
                            inverse, primitive_vector, transpose)

# property tests run the same examples on every run and have no per-example
# deadline (timings on a shared machine vary too much to be a failure)
settings.register_profile("stabkit", derandomize=True, deadline=None)
settings.load_profile("stabkit")


# -- Exact references on the library's own primitives -------------------------
# No command needs these: each states a quantity plainly, on Fractions or one
# class at a time, and the tests compare the library's integer paths with it.


def gaussian(re, im=0):
    """The Gaussian rational re + i im from two rationals."""
    return GaussianRational(as_fraction(re), as_fraction(im))


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols, dc = clear_denominators(list(zip(*b)))
    rows, dr = clear_denominators(a)
    return [[Fraction(sum(map(mul, ri, ci)), dr * dc) for ci in cols] for ri in rows]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red, d, pivots = int_rref(clear_denominators(mat)[0])
    return [[Fraction(x, d) for x in row] for row in red], pivots


def nullspace(mat):
    """Canonical rational kernel basis of a matrix (solutions of M x = 0):
    the vectors of ``int_kernel``, as Fractions."""
    ncols = len(mat[0]) if mat else 0
    return [[Fraction(x) for x in v]
            for v in int_kernel(clear_denominators(mat)[0], ncols)]


def ldl_decompose(gram):
    """Q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2 for a PD symmetric Gram,
    from ``int_ldl`` of G = den Q: d_k = p_k / (p_{k-1} den), l_kj = a_kj / p_k."""
    rows, den = clear_denominators(gram)
    p, a, zero = int_ldl(rows)
    if zero or (p and min(p) <= 0):
        raise ValueError("form is not positive definite")
    return ([Fraction(pk, prev * den) for pk, prev in zip(p, [1] + p)],
            [[Fraction(x, pk) if j > k else Fraction(0) for j, x in enumerate(row)]
             for k, (pk, row) in enumerate(zip(p, a))])


def charge_norm_sq(z_row, s, v):
    """||Z(v)||_S^2 = Z(v)^T S Z(v) for one class v."""
    z = evaluate_charge_row(z_row, v)
    vec = [z.re, z.im]
    return bilinear(vec, s, vec)


def slice_charge(slice_, vec, b, t):
    """Exact charge of a class at a rational point (b, t) of the slice (any
    rational t: no positive-cone check)."""
    lat = slice_.lattice
    if len(vec.c) != lat.rank:
        raise LatticeError("vector has wrong NS rank")
    b, t = as_fraction(b), as_fraction(t)
    beta = [x + b * h for x, h in zip(slice_.beta0, lat.ample)]
    omega = [t * h for h in lat.ample]
    return evaluate_charge_row(charge_functional(lat, beta, omega), vec.coords())


def slope(ch, params):
    """Twisted slope mu_{omega,beta} = omega.(ch1 - ch0 beta) / ch0,
    +inf for rank zero."""
    if ch.ch0 < 0:
        raise ChargeError("negative rank is not a sheaf class")
    if ch.ch0 == 0:
        return INFINITY
    lat = params.lattice
    num = lat.ns_dot(params.omega,
                     [c - ch.ch0 * b for c, b in zip(ch.ch1, params.beta)])
    return num / ch.ch0


def large_volume_phase(poly, n):
    """-i P(i n) for a quadratic P with positive leading coefficient.

    With P(X) = a (X^2 + b X + c) this is a (b n + i (n^2 - c)): the charge
    whose eventual phase ordering encodes the Gieseker comparison.
    """
    n = as_fraction(n)
    if n <= 0:
        raise ChargeError("n must be positive")
    c0, c1, c2 = _quadratic(poly)
    # P(in) = -c2 n^2 + i c1 n + c0; multiply by -i
    return gaussian(c1 * n, c2 * n * n - c0)


def large_volume_threshold(p_a, p_b):
    """Smallest certified N such that for every n >= N the phase order of the
    charges -i P(in) is constant and determined by the monic coefficients.

    With monic normalizations X^2 + b X + c and X^2 + b' X + c', the phase
    cross product at n is proportional to n ((b - b') n^2 + (b' c - b c')),
    so beyond N = 1 + floor(sqrt(|b'c - bc'| / |b - b'|)) (and beyond the
    zeros n^2 = c, c' of the imaginary parts) the sign is frozen.
    """
    _, b1, c1 = monic_normalize(_quadratic(p_a))
    _, b2, c2 = monic_normalize(_quadratic(p_b))
    bound = Fraction(1)
    for c in (c1, c2):
        if c > 0:
            bound = max(bound, c)
    if b1 != b2:
        bound = max(bound, abs(b2 * c1 - b1 * c2) / abs(b1 - b2))
    return isqrt(floor(bound)) + 1  # the least n with n^2 > bound >= 1


def _quadratic(poly):
    """Coefficients (c0, c1, c2), constant first, of a polynomial that is
    quadratic with c2 > 0 once trailing zeros are trimmed."""
    cs = [as_fraction(c) for c in poly]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) != 3 or cs[-1] <= 0:
        raise ChargeError("need a quadratic with positive leading coefficient")
    return tuple(cs)


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
