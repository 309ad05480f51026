"""Support-property machinery: charge kernels, negative-definiteness
certificates, the exact 2x2 norm form replacing the GL2+ normalization, the
minimal charge norm over roots, and the resulting support form.

The norm normalization carries a positive symmetric 2x2 matrix S with

    (v, v) = Z(v)^T S Z(v) - |||p(v)|||^2,

where p is the pairing-orthogonal projection onto Ker Z and |||.|||^2 is the
norm induced by minus the pairing there; irrational square roots never
appear.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .charges import evaluate_charge_row
from .ellipsoid import enumerate_ellipsoid
from .errors import BudgetError, ChargeError, DegenerateError, LatticeError, \
    StabkitError
from .gaussian import GaussianRational, as_fraction
from .lattice import MukaiVector
from .linalg import (bilinear, clear_denominators, frac_rows, identity, inverse,
                     is_negative_definite, is_positive_definite, mat_mul,
                     mat_vec, nullspace, rref, signature, transpose)

DEFAULT_BUDGET = 1 << 20
BUDGET_ENV = "BRIDGELAND_BUDGET"


def effective_budget(budget: Optional[int] = None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV)
    if env:
        return int(env)
    return DEFAULT_BUDGET


def require_box_budget(dim: int, bound: int, name: str, unit: str) -> None:
    """Raise ``BudgetError`` before any work when the box [-bound, bound]^dim
    holds more points than ``effective_budget()``; its ``bound_reached`` is
    the largest bound whose box fits."""
    box, budget = len(range(-bound, bound + 1)) ** dim, effective_budget()
    if box > budget:
        fit = 0
        while (2 * fit + 3) ** dim <= budget:
            fit += 1
        raise BudgetError(f"{name} of {box} {unit} exceeds the budget of "
                          f"{budget} (bound reached {fit})", bound_reached=fit)


Vec = Tuple[Fraction, ...]


def _coords(v) -> List[Fraction]:
    if isinstance(v, MukaiVector):
        return [Fraction(x) for x in v.coords()]
    return [as_fraction(x) for x in v]


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric rational Gram matrix with evaluation Q(v) = v^T gram v."""

    gram: Tuple[Vec, ...]

    def __post_init__(self):
        g = tuple(tuple(as_fraction(x) for x in row) for row in self.gram)
        n = len(g)
        if any(len(r) != n for r in g):
            raise ValueError("gram must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", g)

    def evaluate(self, v) -> Fraction:
        c = _coords(v)
        return bilinear(c, self.gram, c)

    def restrict(self, basis: Sequence[Sequence]) -> List[List[Fraction]]:
        vecs = [_coords(b) for b in basis]
        return [[bilinear(u, self.gram, w) for w in vecs] for u in vecs]


@dataclass(frozen=True)
class ChargeKernel:
    """Rational kernel of a charge functional with the pairing-orthogonal
    projector onto it."""

    basis: Tuple[Vec, ...]
    projector: Tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def project(self, v) -> List[Fraction]:
        return mat_vec(self.projector, _coords(v))


def charge_rows(z_row: Sequence[GaussianRational]) -> List[List[Fraction]]:
    """The 2 x n real matrix (Re Z; Im Z) of a charge functional."""
    return [[z.re for z in z_row], [z.im for z in z_row]]


def charge_kernel(z_row: Sequence[GaussianRational],
                  ambient_gram: Sequence[Sequence[Fraction]]) -> ChargeKernel:
    """Exact kernel of Z with the pairing-orthogonal projector.

    Fails when the ambient pairing restricted to Ker Z is degenerate (the
    projector is then undefined -- the charge sits outside the good locus).
    """
    if all(z.is_zero() for z in z_row):
        raise ChargeError("zero charge functional")
    rows = charge_rows(z_row)
    _, pivots = rref(rows)
    if len(pivots) < 2:
        raise DegenerateError(
            "charge has real rank < 2 (parts proportional): the kernel is too "
            "large for the good locus")
    basis = nullspace(rows)
    try:
        proj = _orthogonal_projector(basis, frac_rows(ambient_gram))
    except ValueError:
        raise DegenerateError(
            "pairing degenerate on Ker Z: charge lies outside the good locus"
        ) from None
    for b in basis:
        if not evaluate_charge_row(z_row, b).is_zero():
            raise StabkitError("kernel basis vector not annihilated by Z")
    if mat_mul(proj, proj) != proj:
        raise StabkitError("projector is not idempotent")
    return ChargeKernel(tuple(tuple(b) for b in basis),
                        tuple(tuple(row) for row in proj))


def _orthogonal_projector(basis: Sequence[Sequence], gram) -> List[List[Fraction]]:
    """K^T (K G K^T)^-1 K G for the basis rows K: the projector onto their
    span along its G-orthogonal complement. ValueError when G is degenerate
    on the span."""
    n = len(gram)
    if not basis:
        return [[Fraction(0)] * n for _ in range(n)]
    k = frac_rows(basis)
    kt = transpose(k)
    kg = mat_mul(k, gram)
    return mat_mul(kt, mat_mul(inverse(mat_mul(kg, kt)), kg))


def is_negative_definite_on(q: QuadraticForm, basis: Sequence[Sequence]) -> bool:
    """Exact negative-definiteness test, by ``linalg.signature``, of Q
    restricted to the span of the basis."""
    if not basis:
        return True
    vecs = [_coords(b) for b in basis]
    _, pivots = rref(vecs)
    if len(pivots) != len(vecs):
        raise ValueError("basis vectors are linearly dependent")
    return is_negative_definite(q.restrict(basis))


def charge_norm_form(z_row: Sequence[GaussianRational], kernel: ChargeKernel,
                     ambient_gram: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """The unique symmetric S with (v,w) = Z(v)^T S Z(w) - <p v, p w> for all
    v, w, where <.,.> is minus the pairing on Ker Z.

    With M the ambient Gram and P the kernel's projector, (p v, p w) =
    v^T M P w, so the identity says R^T S R = G for G = M - M P and the
    2 x n matrix R = (Re Z; Im Z). At two pivot columns of R, where R is an
    invertible 2 x 2 block C, this reads C^T S C = G_pp, hence
    S = C^-T G_pp C^-1. The full identity is then checked as one matrix
    equation. S must come out positive definite, otherwise the charge does
    not span a positive 2-plane and the construction refuses.
    """
    m = frac_rows(ambient_gram)
    rows = charge_rows(z_row)
    _, pivots = rref(rows)
    if len(pivots) != 2:
        raise DegenerateError("charge has real rank < 2: no 2x2 norm form")
    g = [[x - y for x, y in zip(mr, pr)]
         for mr, pr in zip(m, mat_mul(m, kernel.projector))]
    c_inv = inverse([[row[p] for p in pivots] for row in rows])
    g_pp = [[g[a][b] for b in pivots] for a in pivots]
    s = mat_mul(transpose(c_inv), mat_mul(g_pp, c_inv))
    if mat_mul(transpose(rows), mat_mul(s, rows)) != g:
        raise StabkitError("norm form does not reproduce the pairing: "
                           "R^T S R != M - M P")
    if not is_positive_definite(s):
        raise DegenerateError(
            "no positive definite norm form: charge outside the positive locus")
    return s


def charge_norm_sq(z_row: Sequence[GaussianRational], s: Sequence[Sequence[Fraction]],
                   v) -> Fraction:
    z = evaluate_charge_row(z_row, _coords(v))
    vec = [z.re, z.im]
    return bilinear(vec, s, vec)


def _form_value(rows: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """x^T rows x on integer x: with (rows, den) from ``clear_denominators``
    of a Gram, Q(x) = _form_value(rows, x) / den."""
    return sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, rows) if xi)


def _integral_rows(ambient_gram) -> Tuple[Tuple[int, ...], ...]:
    rows, den = clear_denominators(frac_rows(ambient_gram))
    if den != 1:
        raise LatticeError("ambient Gram is not integral: roots of square -2 "
                           "need an integral lattice")
    return rows


def _norm_pullback_gram(z_row, s) -> List[List[Fraction]]:
    """Gram of v -> Z(v)^T S Z(v) on the ambient lattice."""
    p = charge_rows(z_row)  # 2 x n
    return mat_mul(transpose(p), mat_mul(frac_rows(s), p))


def aux_positive_gram(z_row, s, ambient_gram) -> List[List[Fraction]]:
    """Gram of Q_aux(v) = 2 ||Z(v)||_S^2 - (v, v) = ||Z(v)||_S^2 + |||p(v)|||^2,
    positive definite on the whole lattice."""
    zs = _norm_pullback_gram(z_row, s)
    m = frac_rows(ambient_gram)
    return [[2 * zs[i][j] - m[i][j] for j in range(len(m))] for i in range(len(m))]


@dataclass(frozen=True)
class RootNormResult:
    c_squared: Optional[Fraction]
    witness: Optional[MukaiVector]
    bound_reached: Fraction
    points_visited: int

    @property
    def found(self) -> bool:
        return self.c_squared is not None


def min_root_norm(z_row: Sequence[GaussianRational], s: Sequence[Sequence[Fraction]],
                  ambient_gram: Sequence[Sequence[Fraction]],
                  budget: Optional[int] = None,
                  start_bound: Fraction = Fraction(8)) -> RootNormResult:
    """Minimize ||Z(delta)||_S^2 over roots ((delta, delta) = -2).

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
    mukai = _integral_rows(ambient_gram)
    q_aux = aux_positive_gram(z_row, s, ambient_gram)
    norm, norm_den = clear_denominators(_norm_pullback_gram(z_row, s))
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
                nz = _form_value(norm, x)
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


def build_q_z(z_row: Sequence[GaussianRational], s: Sequence[Sequence[Fraction]],
              c_squared: Fraction,
              ambient_gram: Sequence[Sequence[Fraction]]) -> QuadraticForm:
    """Support form Q_Z(v) = (v, v) + (2 / C^2) ||Z(v)||_S^2.

    Negative definite on Ker Z by construction (the charge term vanishes
    there) and nonnegative on every root since ||Z(delta)||^2 >= C^2.
    """
    if c_squared <= 0:
        raise ValueError("need a positive minimal root norm")
    zs = _norm_pullback_gram(z_row, s)
    m = frac_rows(ambient_gram)
    n = len(m)
    f = Fraction(2) / c_squared
    gram = [[m[i][j] + f * zs[i][j] for j in range(n)] for i in range(n)]
    return QuadraticForm(tuple(tuple(row) for row in gram))


@dataclass(frozen=True)
class RoundtripVerdict:
    cls: Vec
    q_value: Fraction
    skipped: bool
    norm_sq: Optional[Fraction]
    z_abs_sq: Optional[Fraction]
    passed: Optional[bool]


@dataclass(frozen=True)
class RoundtripReport:
    k_const: Fraction
    c_squared: Fraction
    verdicts: Tuple[RoundtripVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts if not v.skipped)


def equivalent_support_roundtrip(q: QuadraticForm,
                                 z_row: Sequence[GaussianRational],
                                 test_classes: Sequence) -> RoundtripReport:
    """Mechanize the equivalence of the two support formulations.

    From Q (negative definite on Ker Z) build the norm
    ||a + b||^2 = -Q(a) + |Z(b)|^2 on KerZ (+) its Q-orthogonal complement,
    pick a rational K > 0 with K Q(b) <= |Z(b)|^2 on the complement, and
    verify |Z(v)|^2 >= C^2 ||v||^2 with C^2 = K / (1 + K) for every test
    class with Q(v) >= 0. Exact throughout; a failure indicates a bug, since
    the underlying proof is constructive.
    """
    n = len(z_row)
    gram = frac_rows(q.gram)
    kernel_basis = nullspace(charge_rows(z_row))
    if kernel_basis and not is_negative_definite_on(q, kernel_basis):
        raise DegenerateError("Q is not negative definite on Ker Z")
    if kernel_basis:
        complement = nullspace(mat_mul(frac_rows(kernel_basis), gram))
    else:
        complement = identity(n)
    comp = frac_rows(complement)
    z_abs_gram = _norm_pullback_gram(z_row, identity(2))
    n_res = [[bilinear(u, z_abs_gram, w) for w in comp] for u in comp]
    q_res = [[bilinear(u, gram, w) for w in comp] for u in comp]
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
    # Q-orthogonal projection onto the kernel for the norm decomposition
    proj = _orthogonal_projector(kernel_basis, gram)
    verdicts = []
    for cls in test_classes:
        v = _coords(cls)
        qv = q.evaluate(v)
        if qv < 0:
            verdicts.append(RoundtripVerdict(tuple(v), qv, True, None, None, None))
            continue
        a = mat_vec(proj, v)
        qa = bilinear(a, gram, a)
        zabs = evaluate_charge_row(z_row, v).norm2()
        norm_sq = -qa + zabs
        verdicts.append(RoundtripVerdict(tuple(v), qv, False, norm_sq, zabs,
                                         zabs >= c2 * norm_sq))
    return RoundtripReport(k_const, c2, tuple(verdicts))


def discreteness_classes(z_row: Sequence[GaussianRational],
                         s: Sequence[Sequence[Fraction]], c_squared: Fraction,
                         ambient_gram: Sequence[Sequence[Fraction]],
                         radius_sq: Fraction,
                         budget: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Finite list of lattice classes with Q_Z(v) >= 0 and ||Z(v)||_S^2 <=
    radius_sq: the computable shadow of charge-image discreteness."""
    _integral_rows(ambient_gram)
    q_z, _ = clear_denominators(build_q_z(z_row, s, c_squared, ambient_gram).gram)
    q_aux = aux_positive_gram(z_row, s, ambient_gram)
    norm, norm_den = clear_denominators(_norm_pullback_gram(z_row, s))
    norm_cap = floor(Fraction(radius_sq) * norm_den)
    cap = 2 * Fraction(radius_sq) + (Fraction(2) / Fraction(c_squared)) * Fraction(radius_sq)
    out = []
    for x in enumerate_ellipsoid(q_aux, cap, budget=effective_budget(budget)):
        if (any(x) and _form_value(norm, x) <= norm_cap
                and _form_value(q_z, x) >= 0):
            out.append(x)
    return sorted(out)
