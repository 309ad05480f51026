"""Small exact linear algebra layer: integer elimination behind a Fraction
boundary, and integer lattices.

Everything here works over Z (python ints) or Q (fractions.Fraction); no
floating point. Matrices are lists of lists, vectors are lists or tuples.
Elimination is fraction-free (Bareiss) on integer rows, in two forms:
``int_rref`` (Gauss-Jordan) behind ``rref``, ``solve``, ``inverse`` and
``nullspace``, which build Fractions only for their results, and the
symmetric ``int_ldl`` behind ``signature``, the definiteness tests and the
LDL and LLL of the ellipsoid walk.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

Vec = Sequence[Fraction]
Mat = Sequence[Sequence[Fraction]]


def identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(mat: Mat) -> List[List[Fraction]]:
    return [list(col) for col in zip(*mat)]


# Products clear the denominators of each operand once (``clear_denominators``),
# so every entry is one int sum over one denominator, with no gcd per term.


def mat_vec(mat: Mat, v: Vec) -> List[Fraction]:
    (vi,), dv = clear_denominators((v,))
    rows, dm = clear_denominators(mat)
    return [Fraction(sum(map(mul, ri, vi)), dm * dv) for ri in rows]


def mat_mul(a: Mat, b: Mat) -> List[List[Fraction]]:
    cols, dc = clear_denominators(list(zip(*b)))
    rows, dr = clear_denominators(a)
    return [[Fraction(sum(map(mul, ri, ci)), dr * dc) for ci in cols] for ri in rows]


def dot(u: Vec, v: Vec) -> Fraction:
    (ui, vi), d = clear_denominators((u, v))
    return Fraction(sum(map(mul, ui, vi)), d * d)


def bilinear(u: Vec, gram: Mat, v: Vec) -> Fraction:
    return dot(u, mat_vec(gram, v))


def int_rref(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int, List[int]]:
    """(red, d, pivots) with red / d the RREF of an integer matrix: pivot p
    maps every other row to (p a_ij - a_ic a_rj) / prev, an exact division
    (Bareiss), and each pivot entry ends equal to the last pivot d != 0."""
    rows = list(rows)
    prev, r, pivots = 1, 0, []
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], prev, pivots


def rref(mat: Mat) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red, d, pivots = int_rref(clear_denominators(mat)[0])
    return [[Fraction(x, d) for x in row] for row in red], pivots


def solve(mat: Mat, rhs: Vec) -> List[Fraction]:
    """Solve a square nonsingular system exactly."""
    n = len(mat)
    rows, _ = clear_denominators([[*row, rhs[i]] for i, row in enumerate(mat)])
    red, d, pivots = int_rref(rows)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [Fraction(row[n], d) for row in red]


def inverse(mat: Mat) -> List[List[Fraction]]:
    n = len(mat)
    # [A | I] times the lcm of the denominators of A
    rows, den = clear_denominators(mat)
    red, d, pivots = int_rref([[*row, *(den * (i == j) for j in range(n))]
                               for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(x, d) for x in row[n:]] for row in red]


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Canonical kernel basis of an integer matrix with ``ncols`` columns
    (Z^ncols for no rows): per free RREF column one primitive vector with
    positive leading entry, so the output is deterministic."""
    red, d, pivots = int_rref(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = d
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            basis.append(primitive_vector(v))
    return basis


def nullspace(mat: Mat) -> List[List[Fraction]]:
    """Canonical rational kernel basis of a matrix (solutions of M x = 0):
    the vectors of ``int_kernel``, as Fractions."""
    ncols = len(mat[0]) if mat else 0
    return [[Fraction(x) for x in v]
            for v in int_kernel(clear_denominators(mat)[0], ncols)]


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """The product of two integer matrices (b with at least one row)."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_restrict(gram: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """B G B^T: the Gram of the integer Gram ``gram`` on the rows of ``basis``."""
    return [[sum(map(mul, r, b)) for b in basis] for r in int_mat_mul(basis, gram)]


def clear_denominators(rows: Sequence[Sequence]
                       ) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(int_rows, den) for rows of ints or Fractions: den > 0 is the least
    common denominator of all entries and int_rows[i][j] = den * rows[i][j].

    This is the one way rational rows become integer rows over a shared
    denominator (products, eliminations, charge tables, wall conics,
    quadratic forms)."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return tuple([tuple([x.numerator * (den // x.denominator) for x in row])
                  for row in rows]), den


def primitive_vector(v: Sequence) -> List[int]:
    """Rescale a rational vector (ints or Fractions) to a primitive integer
    vector with positive first nonzero entry; the zero vector maps to zeros.

    This is the one normalization of rays, conics and kernel vectors."""
    (ints,), _ = clear_denominators((v,))
    g = gcd(*ints)
    if g == 0:
        return list(ints)
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return [x // g for x in ints]


def int_ldl(rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]], int]:
    """(pivots, a, zero) for a symmetric integer matrix G: fraction-free
    (Bareiss) congruence diagonalization. Pivot p maps the block below to
    (p a_ij - a_ki a_kj) / prev, an exact division that keeps prev times a
    Schur complement; the diagonal entry of the step is p / prev. Only the
    upper triangle is updated, and the active block is made symmetric again
    only when a zero pivot needs a later row swapped in or folded in.

    ``pivots`` lists the nonzero pivots and ``zero`` counts the steps with
    none (radical directions). On a positive definite G nothing is swapped:
    the pivots are the leading minors p_k and
    G(x) = sum_k p_k / p_{k-1} (x_k + sum_{j>k} a_kj / p_k x_j)^2 (p_{-1} = 1)."""
    a = [list(row) for row in rows]
    n = len(a)
    pivots, zero, prev = [], 0, 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is None:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
            for r in range(k + 1, n):  # the lower triangle of the active block
                a[r][k:r] = [a[c][r] for c in range(k, r)]
            if a[j][j] != 0:  # swap row and column j with k
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:  # diagonal block is zero but a[k][j] != 0: add row/col j into k
                for c in range(k, n):
                    a[k][c] += a[j][c]
                for r in range(k, n):
                    a[r][k] += a[r][j]
        top = a[k]
        p = top[k]
        for i in range(k + 1, n):
            ai, f = a[i], top[i]
            for j in range(i, n):
                ai[j] = (p * ai[j] - f * top[j]) // prev
        pivots.append(p)
        prev = p
    return pivots, a, zero


def signature(gram: Mat) -> Tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix:
    the signs of the diagonal entries p / prev of ``int_ldl`` of its integer
    multiple."""
    pivots, _, zero = int_ldl(clear_denominators(gram)[0])
    neg, prev = 0, 1
    for p in pivots:
        neg += (p > 0) != (prev > 0)
        prev = p
    return len(pivots) - neg, neg, zero


def is_negative_definite(gram: Mat) -> bool:
    """Signature (0, n, 0), read off ``int_ldl``."""
    return signature(gram) == (0, len(gram), 0)


def is_positive_definite(gram: Mat) -> bool:
    """Signature (n, 0, 0), read off ``int_ldl``."""
    return signature(gram) == (len(gram), 0, 0)


# -- integer lattices --------------------------------------------------------


def minors2_gcd(row1: Sequence[int], row2: Sequence[int]) -> int:
    """gcd of all 2x2 minors of the 2xn matrix [row1; row2]."""
    n = len(row1)
    g = 0
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(g, abs(row1[i] * row2[j] - row1[j] * row2[i]))
    return g
