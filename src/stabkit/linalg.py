"""Small exact linear algebra layer: Fraction matrices and integer lattices.

Everything here works over Q (fractions.Fraction) or Z (python ints); no
floating point. Matrices are lists of lists, vectors are lists or tuples.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

Vec = Sequence[Fraction]
Mat = Sequence[Sequence[Fraction]]


def frac_rows(mat) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in mat]


def identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(mat: Mat) -> List[List[Fraction]]:
    return [list(col) for col in zip(*mat)]


def _over_lcm(v: Sequence) -> Tuple[List[int], int]:
    """(ints, den) with v[i] = ints[i] / den for a vector of ints or
    Fractions: a product of two vectors is then one int sum over one
    denominator, with no gcd per term."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def mat_vec(mat: Mat, v: Vec) -> List[Fraction]:
    vi, dv = _over_lcm(v)
    return [Fraction(sum(map(mul, ri, vi)), dr * dv) for ri, dr in map(_over_lcm, mat)]


def mat_mul(a: Mat, b: Mat) -> List[List[Fraction]]:
    cols = [_over_lcm(col) for col in zip(*b)]
    return [[Fraction(sum(map(mul, ri, ci)), dr * dc) for ci, dc in cols]
            for ri, dr in map(_over_lcm, a)]


def dot(u: Vec, v: Vec) -> Fraction:
    ui, du = _over_lcm(u)
    vi, dv = _over_lcm(v)
    return Fraction(sum(map(mul, ui, vi)), du * dv)


def bilinear(u: Vec, gram: Mat, v: Vec) -> Fraction:
    return dot(u, mat_vec(gram, v))


def rref(mat: Mat) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = frac_rows(mat)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
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


def solve(mat: Mat, rhs: Vec) -> List[Fraction]:
    """Solve a square nonsingular system exactly."""
    n = len(mat)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def inverse(mat: Mat) -> List[List[Fraction]]:
    n = len(mat)
    aug = [list(map(Fraction, row)) + identity(n)[i] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def nullspace(mat: Mat) -> List[List[Fraction]]:
    """Canonical rational kernel basis of a matrix (solutions of M x = 0).

    Basis vectors come from the RREF free columns and are rescaled to
    primitive integer vectors with positive leading entry, so the output is
    deterministic.
    """
    rows, pivots = rref(mat)
    ncols = len(mat[0]) if mat else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append([Fraction(x) for x in primitive_vector(v)])
    return basis


def clear_denominators(rows: Sequence[Sequence]
                       ) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(int_rows, den) for rows of ints or Fractions: den > 0 is the least
    common denominator of all entries and int_rows[i][j] = den * rows[i][j].

    This is the one way rational rows become integer rows over a shared
    denominator (charge tables, wall conics, quadratic forms)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


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


def signature(gram: Mat) -> Tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix,
    by exact congruence diagonalization."""
    a = frac_rows(gram)
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
                # diagonal block is zero but a[k][j] != 0: add row/col j into k
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


def is_negative_definite(gram: Mat) -> bool:
    """Signature (0, n, 0): the congruence diagonalization of ``signature``."""
    return signature(gram) == (0, len(gram), 0)


def is_positive_definite(gram: Mat) -> bool:
    """Signature (n, 0, 0): the congruence diagonalization of ``signature``."""
    return signature(gram) == (len(gram), 0, 0)


# -- integer lattices --------------------------------------------------------


def gcd_vector(v: Sequence[int]) -> int:
    return gcd(*(int(x) for x in v))


def minors2_gcd(row1: Sequence[int], row2: Sequence[int]) -> int:
    """gcd of all 2x2 minors of the 2xn matrix [row1; row2]."""
    n = len(row1)
    g = 0
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(g, abs(row1[i] * row2[j] - row1[j] * row2[i]))
    return g
