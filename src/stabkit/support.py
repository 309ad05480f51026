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
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .charges import evaluate_charge_row
from .ellipsoid import enumerate_ellipsoid
from .errors import (BudgetError, ChargeError, DegenerateError, LatticeError,
                     StabkitError, effective_budget)
from .gaussian import GaussianRational
from .lattice import MukaiVector
from .linalg import (bilinear, clear_denominators, frac_rows, identity, inverse,
                     is_negative_definite, is_positive_definite, mat_mul,
                     mat_vec, nullspace, rref, signature, transpose)

Vec = Tuple[Fraction, ...]
Gram = Sequence[Sequence[Fraction]]


class ChargeKernel(NamedTuple):
    """Rational kernel of a charge functional, the 2x2 norm form S and the
    norm Gram N = R^T S R."""

    basis: Tuple[Vec, ...]
    norm_form: Tuple[Vec, ...]
    norm: Tuple[Vec, ...]


def charge_rows(z_row: Sequence[GaussianRational]) -> List[List[Fraction]]:
    """The 2 x n real matrix (Re Z; Im Z) of a charge functional."""
    return [[z.re for z in z_row], [z.im for z in z_row]]


def _square_gram(gram: Gram, n: int, name: str) -> List[List[Fraction]]:
    """``gram`` as Fraction rows, after checking that it is n x n for a
    charge row of n entries."""
    rows = frac_rows(gram)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise LatticeError(f"{name} is not {n} x {n}: the charge row has {n} entries")
    return rows


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
    m = _square_gram(ambient_gram, n, "ambient Gram")
    if all(z.is_zero() for z in z_row):
        raise ChargeError("zero charge functional")
    rows = charge_rows(z_row)
    basis = nullspace(rows)
    if n - len(basis) < 2:
        raise DegenerateError(
            "charge has real rank < 2 (parts proportional): the kernel is too "
            "large for the good locus")
    for b in basis:
        if not evaluate_charge_row(z_row, b).is_zero():
            raise StabkitError("kernel basis vector not annihilated by Z")
    red, pivots = rref([mr + [re, im] for mr, re, im in zip(m, *rows)])
    if pivots != list(range(n)):
        raise DegenerateError("ambient pairing is degenerate: no dual Gram of Z")
    x = [row[n:] for row in red]
    if mat_mul(m, x) != transpose(rows):
        raise StabkitError("dual solve failed: M X != R^T")
    d = mat_mul(rows, x)
    try:
        s = inverse(d)
    except ValueError:
        raise DegenerateError(
            "pairing degenerate on Ker Z: charge lies outside the good locus"
        ) from None
    if mat_mul(s, d) != identity(2):
        raise StabkitError("norm form is not the inverse of the dual Gram: S D != I")
    if not is_positive_definite(s):
        raise DegenerateError(
            "no positive definite norm form: charge outside the positive locus")
    norm = mat_mul(transpose(rows), mat_mul(s, rows))
    return ChargeKernel(*(tuple(map(tuple, a)) for a in (basis, s, norm)))


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


def _integral_terms(ambient_gram) -> Terms:
    rows, den = clear_denominators(frac_rows(ambient_gram))
    if den != 1:
        raise LatticeError("ambient Gram is not integral: roots of square -2 "
                           "need an integral lattice")
    return _terms(rows)


def _aux_gram(norm: Gram, ambient_gram: Gram, alpha: Fraction) -> List[List[Fraction]]:
    """Q_alpha = (alpha + 1) N - M = alpha ||Z(v)||_S^2 + |||p(v)|||^2,
    positive definite on the whole lattice for alpha > 0; alpha = 1 is the
    root search's Q_aux = 2N - M."""
    return [[(alpha + 1) * x - m for x, m in zip(nr, mr)]
            for nr, mr in zip(norm, ambient_gram)]


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
    mukai = _integral_terms(ambient_gram)
    q_aux = _aux_gram(norm, ambient_gram, 1)
    norm_rows, norm_den = clear_denominators(norm)
    norm_terms = _terms(norm_rows)
    nodes = [0]  # ellipsoid nodes over all rounds
    last_completed = Fraction(0)
    while True:
        best: Optional[int] = None  # numerator of ||Z||_S^2 over norm_den
        best_vec: Optional[Tuple[int, ...]] = None
        limit = [2 * bound + 2]
        try:
            for x in enumerate_ellipsoid(q_aux, limit[0], budget=budget_n - nodes[0],
                                         nodes=nodes, limit=limit):
                if _form_value(mukai, x) != -2:  # also skips the origin
                    continue
                nz = _form_value(norm_terms, x)
                if best is None or nz < best:
                    best, best_vec = nz, x
                    limit[0] = Fraction(2 * nz, norm_den) + 2
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
    f = Fraction(2) / c_squared
    return [[m + f * x for x, m in zip(nr, mr)] for nr, mr in zip(norm, ambient_gram)]


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


def _restrict(gram: Gram, basis: Sequence[Sequence]) -> List[List[Fraction]]:
    """B G B^T: the Gram of ``gram`` on the rows of ``basis``."""
    return mat_mul(basis, mat_mul(gram, transpose(basis)))


def equivalent_support_roundtrip(q: Gram, z_row: Sequence[GaussianRational],
                                 test_classes: Sequence) -> RoundtripReport:
    """Mechanize the equivalence of the two support formulations.

    From the Gram of Q (negative definite on Ker Z) build the norm
    ||a + b||^2 = -Q(a) + |Z(b)|^2 on KerZ (+) its Q-orthogonal complement,
    pick a rational K > 0 with K Q(b) <= |Z(b)|^2 on the complement, and
    verify |Z(v)|^2 >= C^2 ||v||^2 with C^2 = K / (1 + K) for every test
    class with Q(v) >= 0. Exact throughout; a failure indicates a bug, since
    the underlying proof is constructive.
    """
    gram = _square_gram(q, len(z_row), "Q")
    for cls in test_classes:
        if len(cls) != len(z_row):
            raise LatticeError(f"test class {list(cls)} has {len(cls)} entries; "
                               f"the lattice has rank {len(z_row)}")
    rows = charge_rows(z_row)
    kernel_basis = nullspace(rows)
    # K G for the kernel rows K: K G K^T is Q on Ker Z, and the kernel of
    # K G is the Q-orthogonal complement
    kg = mat_mul(kernel_basis, gram)
    q_ker = mat_mul(kg, transpose(kernel_basis))
    if not is_negative_definite(q_ker):
        raise DegenerateError("Q is not negative definite on Ker Z")
    comp = nullspace(kg) if kernel_basis else identity(len(z_row))
    n_res = _restrict(mat_mul(transpose(rows), rows), comp)  # |Z|^2 on the complement
    q_res = _restrict(gram, comp)
    k_const = Fraction(1)
    for _ in range(200):
        trial = [[n_res[i][j] - k_const * q_res[i][j] for j in range(len(comp))]
                 for i in range(len(comp))]
        if signature(trial)[1] == 0:  # no negative square: semidefinite
            break
        k_const /= 2
    else:
        raise DegenerateError("could not find K with K Q <= |Z|^2 on the complement")
    c2 = k_const / (1 + k_const)
    # the Q-orthogonal projection a = K^T (K G K^T)^-1 K G v of v onto the
    # kernel has Q(a) = (K G v)^T (K G K^T)^-1 (K G v)
    q_ker_inv = inverse(q_ker)
    verdicts = []
    for cls in test_classes:
        v = tuple(map(Fraction, cls))
        qv = bilinear(v, gram, v)
        if qv < 0:
            verdicts.append(RoundtripVerdict(v, qv, True, None, None, None))
            continue
        kgv = mat_vec(kg, v)
        qa = bilinear(kgv, q_ker_inv, kgv)
        zabs = evaluate_charge_row(z_row, v).norm2()
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
    (alpha = 1 gives the root search's Q_aux = 2N - M.)"""
    _integral_terms(ambient_gram)
    k = 1 + 2 / Fraction(c_squared)
    alpha = 2 * k / max(len(ambient_gram) - 2, 1)
    q_alpha = _aux_gram(norm, ambient_gram, alpha)
    q_z = _terms(clear_denominators(q_gram)[0])
    norm_rows, norm_den = clear_denominators(norm)
    norm_terms = _terms(norm_rows)
    radius_sq = Fraction(radius_sq)
    norm_cap = floor(radius_sq * norm_den)
    out = []
    for x in enumerate_ellipsoid(q_alpha, (alpha + k) * radius_sq, budget=budget):
        if (any(x) and _form_value(norm_terms, x) <= norm_cap
                and _form_value(q_z, x) >= 0):
            out.append(x)
    return sorted(out)
