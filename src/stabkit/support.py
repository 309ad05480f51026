"""Support-property machinery: charge kernels, the exact 2x2 norm form
replacing the GL2+ normalization, the minimal charge norm over roots, and
the resulting support form.

With M the ambient Gram and R = (Re Z; Im Z), the norm normalization is the
inverse S = (R M^-1 R^T)^-1 of the charge's 2x2 dual Gram, a positive
symmetric 2x2 matrix with

    N = R^T S R = M - M P,  that is  (v, v) = Z(v)^T S Z(v) - |||p(v)|||^2,

where P is the pairing-orthogonal projection onto Ker Z and |||.|||^2 the
norm induced by minus the pairing on Ker Z; neither P nor an irrational
square root is ever formed. ``charge_kernel`` derives S and the norm Gram N
once per charge, and every later form is a plain Gram built from M and N:
||Z(v)||_S^2 = v^T N v, Q_aux = 2N - M and Q_Z = M + (2 / C^2) N.

Inside each function every matrix is integer rows over one positive
denominator (``clear_denominators``), eliminated fraction-free; the walks
get integer Grams with their bounds scaled to match, and Fractions are
built only for the returned matrices and values.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .charges import charge_rows, evaluate_charge_row
from .ellipsoid import enumerate_ellipsoid, lll_reduce
from .errors import (BudgetError, ChargeError, DegenerateError, LatticeError,
                     StabkitError, effective_budget)
from .gaussian import GaussianRational
from .lattice import MukaiVector
from .linalg import (bilinear, clear_denominators, int_kernel, int_mat_mul,
                     int_restrict, int_rref, inverse, is_negative_definite,
                     is_positive_definite, signature, transpose)

Vec = Tuple[Fraction, ...]
Gram = Sequence[Sequence[Fraction]]
IntRows = Sequence[Sequence[int]]


class ChargeKernel(NamedTuple):
    """Rational kernel of a charge functional, the 2x2 norm form S and the
    norm Gram N = R^T S R."""

    basis: Tuple[Vec, ...]
    norm_form: Tuple[Vec, ...]
    norm: Tuple[Vec, ...]


def _square_gram(gram: Gram, n: int, name: str) -> Tuple[IntRows, int]:
    """(rows, den) of ``clear_denominators(gram)``, after checking that
    ``gram`` is n x n for a charge row of n entries."""
    if len(gram) != n or any(len(row) != n for row in gram):
        raise LatticeError(f"{name} is not {n} x {n}: the charge row has {n} entries")
    return clear_denominators(gram)


def charge_kernel(z_row: Sequence[GaussianRational], ambient_gram: Gram) -> ChargeKernel:
    """Exact kernel of Z, the norm form S and the norm Gram N, all from the
    charge's 2x2 dual Gram.

    With R = (Re Z; Im Z), solve M X = R^T (X is n x 2) and set
    D = R X = R M^-1 R^T, S = D^-1 and N = R^T S R. The columns of X span
    the M-orthogonal complement C of Ker Z, since k^T M X = (R k)^T = 0 for
    k in Ker Z. On C, v = X y gives Z(v) = D y and
    (v, v) = y^T X^T M X y = y^T D y = Z(v)^T S Z(v); N and Z both vanish
    on Ker Z. So R^T S R = M - M P for the pairing-orthogonal projection P
    onto Ker Z, and S is the unique symmetric form with
    (v, w) = Z(v)^T S Z(w) - <p v, p w>, <.,.> minus the pairing on Ker Z.
    For M nondegenerate, D is singular exactly when M is degenerate on
    Ker Z, and S is positive definite exactly when D is.

    Fails when the Gram is not n x n, when Z is zero or has real rank < 2,
    when M is degenerate, when M is degenerate on Ker Z (the charge sits
    outside the good locus) and when S is not positive definite.
    """
    n = len(z_row)
    m, dm = _square_gram(ambient_gram, n, "ambient Gram")  # M = m / dm
    if all(z.is_zero() for z in z_row):
        raise ChargeError("zero charge functional")
    rows, dr = clear_denominators(charge_rows(z_row))  # R = rows / dr
    basis = int_kernel(rows, n)
    if n - len(basis) < 2:
        raise DegenerateError(
            "charge has real rank < 2 (parts proportional): the kernel is too "
            "large for the good locus")
    if any(sum(map(mul, r, b)) for b in basis for r in rows):
        raise StabkitError("kernel basis vector not annihilated by Z")
    # [m | rows^T] reduces to [I | y / e]: X = M^-1 R^T = dm y / (dr e)
    red, e, pivots = int_rref([[*mr, re, im] for mr, re, im in zip(m, *rows)])
    if pivots != list(range(n)):
        raise DegenerateError("ambient pairing is degenerate: no dual Gram of Z")
    y = [row[n:] for row in red]
    if int_mat_mul(m, y) != [[e * re, e * im] for re, im in zip(*rows)]:
        raise StabkitError("dual solve failed: M X != R^T")
    # D = R X = dm dual / (dr^2 e), so S = D^-1 = s / den with s the
    # adjugate of dual times f = dr^2 e sign(det) and den = dm |det|
    dual = int_mat_mul(rows, y)
    (a, b), (c, g) = dual
    det = a * g - b * c
    if det == 0:
        raise DegenerateError(
            "pairing degenerate on Ker Z: charge lies outside the good locus")
    f = dr * dr * e * (1 if det > 0 else -1)
    s = [[f * g, -f * b], [-f * c, f * a]]
    den = dm * abs(det)
    if int_mat_mul(s, dual) != [[f * det, 0], [0, f * det]]:
        raise StabkitError("norm form is not the inverse of the dual Gram: S D != I")
    if not is_positive_definite(s):
        raise DegenerateError(
            "no positive definite norm form: charge outside the positive locus")
    norm = int_mat_mul(transpose(rows), int_mat_mul(s, rows))  # N = norm / (dr^2 den)
    return ChargeKernel(tuple(tuple(map(Fraction, b)) for b in basis),
                        *(tuple(tuple(Fraction(x, q) for x in row) for row in mat)
                          for mat, q in ((s, den), (norm, dr * dr * den))))


def charge_norm_sq(z_row: Sequence[GaussianRational], s: Gram, v) -> Fraction:
    z = evaluate_charge_row(z_row, v)
    vec = [z.re, z.im]
    return bilinear(vec, s, vec)


Terms = Tuple[Tuple[int, int, int], ...]


def _terms(rows: Sequence[Sequence[int]]) -> Terms:
    """The nonzero upper-triangle terms (i, j, c) of a symmetric integer Gram,
    c = g_ii on the diagonal and 2 g_ij above it: x^T G x is the sum of
    c x_i x_j. With (rows, den) from ``clear_denominators`` of a rational
    Gram, Q(x) = _form_value(_terms(rows), x) / den."""
    return tuple((i, j, g if i == j else 2 * g)
                 for i, row in enumerate(rows) for j, g in enumerate(row[i:], i) if g)


def _form_value(terms: Terms, x: Sequence[int]) -> int:
    return sum(c * x[i] * x[j] for i, j, c in terms)


def _integral_rows(ambient_gram: Gram) -> IntRows:
    rows, den = clear_denominators(ambient_gram)
    if den != 1:
        raise LatticeError("ambient Gram is not integral: roots of square -2 "
                           "need an integral lattice")
    return rows


def _aux_rows(norm_rows: IntRows, norm_den: int, m: IntRows,
              alpha: Fraction) -> Tuple[List[List[int]], int]:
    """rows / den = Q_alpha = (alpha + 1) N - M = alpha ||Z(v)||_S^2 +
    |||p(v)|||^2 for N = norm_rows / norm_den, positive definite on the whole
    lattice for alpha > 0; alpha = 1 is the root search's Q_aux = 2N - M."""
    alpha = Fraction(alpha)
    a, den = alpha.numerator + alpha.denominator, alpha.denominator * norm_den
    return [[a * x - den * y for x, y in zip(nr, mr)] for nr, mr in zip(norm_rows, m)], den


class RootNormResult(NamedTuple):
    c_squared: Optional[Fraction]
    witness: Optional[MukaiVector]
    bound_reached: Fraction
    points_visited: int

    @property
    def found(self) -> bool:
        return self.c_squared is not None


def min_root_norm(norm: Gram, *, ambient_gram: Gram, budget: Optional[int] = None,
                  start_bound: Fraction = Fraction(8)) -> RootNormResult:
    """Minimize ||Z(delta)||_S^2 = delta^T N delta over roots
    ((delta, delta) = -2), for the norm Gram N of ``charge_kernel``.

    Iterative deepening on the bound B: every root with ||Z||^2 <= B satisfies
    Q_aux <= 2B + 2 (from |||p(delta)|||^2 = 2 + ||Z(delta)||^2), so a root
    found in a round is a certified minimum once that round ends. Inside a
    round, each strictly better root, of norm c, lowers the walk's bound to
    2c + 2 (the Fincke-Pohst radius update). A root of norm c has
    Q_aux = 2c + 2 exactly, so roots of equal norm lie on the lowered
    boundary and are still visited, and the least coordinate tuple among them
    is still the witness: C^2, the witness and ``bound_reached`` are those of
    the fixed-radius round. ``points_visited`` counts the nodes of the
    shrinking walks of all rounds together, and the budget caps that total.
    When the budget runs out before any root appears, the result carries
    c_squared = None with the last completed bound ("no roots in the searched
    region"). ``start_bound`` must be positive.
    """
    bound = Fraction(start_bound)
    if bound <= 0:
        raise ValueError(f"start bound must be positive, got {bound}")
    budget_n = effective_budget(budget)
    m = _integral_rows(ambient_gram)
    mukai = _terms(m)
    norm_rows, norm_den = clear_denominators(norm)
    norm_terms = _terms(norm_rows)
    q_aux, den = _aux_rows(norm_rows, norm_den, m, 1)  # the walk bounds den Q_aux
    nodes = [0]  # ellipsoid nodes over all rounds
    last_completed = Fraction(0)
    while True:
        best: Optional[int] = None  # numerator of ||Z||_S^2 over norm_den
        best_vec: Optional[Tuple[int, ...]] = None
        limit = [den * (2 * bound + 2)]
        try:
            for x in enumerate_ellipsoid(q_aux, limit[0], budget=budget_n - nodes[0],
                                         nodes=nodes, limit=limit):
                if _form_value(mukai, x) != -2:  # also skips the origin
                    continue
                nz = _form_value(norm_terms, x)
                if best is None or nz < best:
                    best, best_vec = nz, x
                    limit[0] = 2 * nz + 2 * den  # den (2 ||Z||^2 + 2), den = norm_den
                elif nz == best and x < best_vec:
                    best_vec = x
        except BudgetError:
            if best is None and last_completed > 0:
                return RootNormResult(None, None, last_completed, nodes[0])
            raise BudgetError(
                f"root search budget of {budget_n} nodes exhausted before "
                f"certification (bound reached {bound})",
                bound_reached=bound) from None
        if best is not None:
            # the round only reaches roots of norm <= bound: certified
            return RootNormResult(Fraction(best, norm_den),
                                  MukaiVector.from_coords(best_vec), bound, nodes[0])
        last_completed = bound
        bound *= 2


def build_q_z(norm: Gram, c_squared: Fraction, ambient_gram: Gram) -> List[List[Fraction]]:
    """Gram of the support form Q_Z(v) = (v, v) + (2 / C^2) ||Z(v)||_S^2,
    that is M + (2 / C^2) N.

    Negative definite on Ker Z by construction (the charge term vanishes
    there) and nonnegative on every root since ||Z(delta)||^2 >= C^2.
    """
    if c_squared <= 0:
        raise ValueError("need a positive minimal root norm")
    c2 = Fraction(c_squared)
    norm_rows, nd = clear_denominators(norm)
    m, md = clear_denominators(ambient_gram)
    # M + (2 / C^2) N = (c nd m + 2 c' md norm_rows) / (c nd md), C^2 = c / c'
    a, b = c2.numerator * nd, 2 * c2.denominator * md
    return [[Fraction(a * y + b * x, a * md) for x, y in zip(nr, mr)]
            for nr, mr in zip(norm_rows, m)]


class RoundtripVerdict(NamedTuple):
    cls: Vec
    q_value: Fraction
    skipped: bool
    norm_sq: Optional[Fraction]
    z_abs_sq: Optional[Fraction]
    passed: Optional[bool]


class RoundtripReport(NamedTuple):
    k_const: Fraction
    c_squared: Fraction
    verdicts: Tuple[RoundtripVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts if not v.skipped)


def equivalent_support_roundtrip(q: Gram, z_row: Sequence[GaussianRational],
                                 test_classes: Sequence) -> RoundtripReport:
    """Mechanize the equivalence of the two support formulations.

    From the Gram of Q (negative definite on Ker Z) build the norm
    ||a + b||^2 = -Q(a) + |Z(b)|^2 on KerZ (+) its Q-orthogonal complement,
    pick a rational K > 0 with K Q(b) <= |Z(b)|^2 on the complement, and
    verify |Z(v)|^2 >= C^2 ||v||^2 with C^2 = K / (1 + K) for every test
    class with Q(v) >= 0. Exact throughout; a failure indicates a bug, since
    the underlying proof is constructive. The kernel, the complement, the
    restrictions and the definiteness tests run on integer rows.
    """
    gram, gden = _square_gram(q, len(z_row), "Q")  # Q = gram / gden
    for cls in test_classes:
        if len(cls) != len(z_row):
            raise LatticeError(f"test class {list(cls)} has {len(cls)} entries; "
                               f"the lattice has rank {len(z_row)}")
    rows, dr = clear_denominators(charge_rows(z_row))  # Z = rows / dr
    kernel = int_kernel(rows, len(z_row))
    # K G for the kernel rows K: K G K^T is gden Q on Ker Z, and the kernel
    # of K G is the Q-orthogonal complement (everything when Ker Z = 0)
    kg = int_mat_mul(kernel, gram)
    q_ker = int_mat_mul(kg, transpose(kernel))
    if not is_negative_definite(q_ker):
        raise DegenerateError("Q is not negative definite on Ker Z")
    comp = int_kernel(kg, len(z_row))
    n_res = int_restrict(int_mat_mul(transpose(rows), rows), comp)  # dr^2 |Z|^2 on it
    q_res = int_restrict(gram, comp)
    for t in range(200):
        # 2^t gden dr^2 (|Z|^2 - K Q) on the complement, for K = 2^-t
        trial = [[(gden << t) * x - dr * dr * y for x, y in zip(nr, qr)]
                 for nr, qr in zip(n_res, q_res)]
        if signature(trial)[1] == 0:  # no negative square: semidefinite
            break
    else:
        raise DegenerateError("could not find K with K Q <= |Z|^2 on the complement")
    k_const = Fraction(1, 1 << t)
    c2 = k_const / (1 + k_const)
    # the Q-orthogonal projection a = K^T (K G K^T)^-1 K G v of v onto the
    # kernel has Q(a) = (K G v)^T (K G K^T)^-1 (K G v)
    q_ker_inv = inverse(q_ker)
    verdicts = []
    for cls in test_classes:
        v = tuple(map(Fraction, cls))
        (vi,), vd = clear_denominators((v,))  # v = vi / vd
        gv = [sum(map(mul, row, vi)) for row in gram]
        qv = Fraction(sum(map(mul, vi, gv)), gden * vd * vd)
        if qv < 0:
            verdicts.append(RoundtripVerdict(v, qv, True, None, None, None))
            continue
        kgv = [sum(map(mul, k, gv)) for k in kernel]
        qa = bilinear(kgv, q_ker_inv, kgv) / (gden * vd * vd)
        zabs = Fraction(sum(sum(map(mul, r, vi)) ** 2 for r in rows), (dr * vd) ** 2)
        norm_sq = -qa + zabs
        verdicts.append(RoundtripVerdict(v, qv, False, norm_sq, zabs,
                                         zabs >= c2 * norm_sq))
    return RoundtripReport(k_const, c2, tuple(verdicts))


def discreteness_classes(q_gram: Gram, norm: Gram, c_squared: Fraction,
                         ambient_gram: Gram, radius_sq: Fraction,
                         budget: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Finite list of lattice classes with Q_Z(v) >= 0 and ||Z(v)||_S^2 <=
    radius_sq, the computable shadow of charge-image discreteness; q_gram is
    Q_Z, ``build_q_z(norm, c_squared, ambient_gram)``.

    One walk of a positive definite ellipsoid holds them all. Write
    P = N - M, the form |||p(v)|||^2 >= 0, K = 1 + 2 / C^2 and r = radius_sq,
    so that Q_Z = K N - P. A listed class has N(v) <= r and Q_Z(v) >= 0, that
    is P(v) <= K N(v); so for every alpha > 0

        Q_alpha(v) = (alpha + 1) N(v) - M(v) = alpha N(v) + P(v) <= (alpha + K) r.

    The walk keeps the zero-free points of that ellipsoid with N <= r and
    Q_Z >= 0, exactly the listed classes, whatever alpha. On Ker Z and its
    pairing-orthogonal complement Q_alpha is P on the first and alpha N on
    the second (N has rank 2 and vanishes on Ker Z; P vanishes on the
    complement), so det Q_alpha is alpha^2 times a constant and the
    ellipsoid's volume is proportional to (alpha + K)^(n/2) / alpha for
    n = rank M. The walk takes the least volume, alpha = 2K / (n - 2); at
    n = 2 the volume falls as alpha grows and the walk takes alpha = 2K.
    (alpha = 1 gives the root search's Q_aux = 2N - M.)

    The walk runs in an LLL-reduced basis of Q_alpha (``lll_reduce``), so a
    skewed basis of the lattice no longer stretches it: Q_alpha is
    reduced once to h Q_alpha h^T, N and Q_Z are conjugated by h once, and
    the walk and both filters work on reduced coordinates y. Only the
    classes kept are mapped back, x = y h, and the list is sorted in the
    original coordinates. ``budget`` counts the nodes of the reduced walk."""
    m = _integral_rows(ambient_gram)
    k = 1 + 2 / Fraction(c_squared)
    alpha = 2 * k / max(len(ambient_gram) - 2, 1)
    norm_rows, norm_den = clear_denominators(norm)
    q_alpha, den = _aux_rows(norm_rows, norm_den, m, alpha)
    h, reduced = lll_reduce(q_alpha)
    q_z = _terms(int_restrict(clear_denominators(q_gram)[0], h))
    norm_terms = _terms(int_restrict(norm_rows, h))
    radius_sq = Fraction(radius_sq)
    norm_cap = floor(radius_sq * norm_den)
    cols = list(zip(*h))
    return sorted(tuple(sum(map(mul, y, col)) for col in cols)
                  for y in enumerate_ellipsoid(reduced, den * (alpha + k) * radius_sq,
                                               budget=budget)
                  if any(y) and _form_value(norm_terms, y) <= norm_cap
                  and _form_value(q_z, y) >= 0)
