"""Central charges for curves and surfaces, exact phase comparison, slopes,
tilted-heart membership and the Gieseker / large-volume comparison.

Charges are Gaussian rationals; phases themselves (transcendental) are never
materialized, only exact order comparisons on rays of the upper half-plane
closed up with the strictly negative reals.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from math import floor, isqrt
from typing import List, NamedTuple, Sequence, Tuple, Union

from .errors import ChargeError, LatticeError
from .gaussian import GaussianRational, as_fraction, gaussian
from .lattice import ChernCharacter, MukaiVector, NSLattice
from .linalg import dot, mat_vec


class Order(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1

    def reversed(self) -> "Order":
        return Order(-self.value)


INFINITY = "inf"
Slope = Union[Fraction, str]  # a rational or the INFINITY sentinel


class _ChargeParams(NamedTuple):
    lattice: NSLattice
    beta: Tuple[Fraction, ...]
    omega: Tuple[Fraction, ...]


class ChargeParams(_ChargeParams):
    """Stability parameters (beta, omega) in NS coordinates.

    omega must lie in the positive cone (omega^2 > 0); on a K3 the tilted
    heart construction additionally needs omega^2 > 2, which is reported by
    :meth:`heart_certified` and enforced only where a heart is actually used.
    """

    __slots__ = ()
    def __new__(cls, lattice: NSLattice, beta: Sequence, omega: Sequence) -> "ChargeParams":
        beta = tuple(map(as_fraction, beta))
        omega = tuple(map(as_fraction, omega))
        if len(beta) != lattice.rank or len(omega) != lattice.rank:
            raise LatticeError("beta/omega have wrong NS rank")
        self = tuple.__new__(cls, (lattice, beta, omega))
        if self.omega_sq() <= 0:
            raise ChargeError("omega must lie in the positive cone (omega^2 > 0)")
        return self

    def omega_sq(self) -> Fraction:
        return self.lattice.ns_dot(self.omega, self.omega)

    def heart_certified(self) -> bool:
        """True when the parameters back an actual tilted-heart stability
        condition (always for surfaces, omega^2 > 2 on a K3)."""
        if self.lattice.k3:
            return self.omega_sq() > 2
        return True

    def require_heart(self) -> None:
        if not self.heart_certified():
            raise ChargeError("K3 convention needs omega^2 > 2 for a heart-backed charge")


def curve_charge(degree: int, rank: int) -> GaussianRational:
    """Charge of a class on a curve: -deg + i rank."""
    return gaussian(-degree, rank)


def charge_functional(lat: NSLattice, beta: Sequence[Fraction],
                      omega: Sequence[Fraction]) -> List[GaussianRational]:
    """The charge at (beta, omega) as a functional on the extended lattice:
    its values on the standard basis (r, c_1..c_rho, s).

    Pairing e^(beta + i omega) = (1, beta + i omega, (beta + i omega)^2 / 2)
    against (r, c, s) gives

        (beta + i omega).c - s - r (beta + i omega)^2 / 2,

    with (beta + i omega)^2 = beta^2 - omega^2 + 2 i beta.omega. Both
    conventions share this functional: the last slot is Mukai s on a K3 and
    ch2 on a general surface. No positive-cone check is made here.
    """
    g_beta = mat_vec(lat.gram, beta)
    g_omega = mat_vec(lat.gram, omega)
    b2, w2, bw = dot(beta, g_beta), dot(omega, g_omega), dot(beta, g_omega)
    return [GaussianRational((w2 - b2) / 2, -bw),
            *map(GaussianRational, g_beta, g_omega),
            GaussianRational(Fraction(-1), Fraction(0))]


def surface_charge(ch: ChernCharacter, params: ChargeParams) -> GaussianRational:
    """Surface-convention charge

        (rg * omega^2 / 2 - ch2^beta) + i * omega . ch1^beta,

    which equals minus the codimension-2 part of e^(-i omega - beta) ch.
    """
    lat = params.lattice
    if lat.k3:
        raise ChargeError("lattice is flagged K3; use k3_charge")
    if len(ch.ch1) != lat.rank:
        raise LatticeError("NS coordinate length mismatch")
    row = charge_functional(lat, params.beta, params.omega)
    return evaluate_charge_row(row, (ch.ch0, *ch.ch1, ch.ch2))


def k3_charge(v: MukaiVector, params: ChargeParams) -> GaussianRational:
    """K3-convention charge: the extended pairing (e^(beta + i omega), v).

    This equals the codimension-2 integral against ch sqrt(td) with the
    opposite sign (checked term by term in the test suite).
    """
    row = charge_row(params)
    if len(v.c) != params.lattice.rank:
        raise LatticeError("Mukai vector has wrong NS rank")
    return evaluate_charge_row(row, v.coords())


def charge_row(params: ChargeParams) -> List[GaussianRational]:
    """The K3 charge as a functional on the extended lattice: its values on
    the standard basis (r, c_1..c_rho, s)."""
    if not params.lattice.k3:
        raise ChargeError("lattice is not flagged K3; use surface_charge")
    return charge_functional(params.lattice, params.beta, params.omega)


def charge_rows(z_row: Sequence[GaussianRational]) -> List[List[Fraction]]:
    """The 2 x n real matrix (Re Z; Im Z) of a charge functional."""
    return [[z.re for z in z_row], [z.im for z in z_row]]


def evaluate_charge_row(row: Sequence[GaussianRational], coords: Sequence) -> GaussianRational:
    """Value of a charge functional on a class given by its int or Fraction
    coordinates (a float coordinate makes GaussianRational refuse the sum)."""
    re = sum((z.re * x for z, x in zip(row, coords)), Fraction(0))
    im = sum((z.im * x for z, x in zip(row, coords)), Fraction(0))
    return GaussianRational(re, im)


class IntCharge(NamedTuple):
    """The charge Z = (re + i im) / den with integer parts over a positive
    integer denominator. ``phase_valid`` and ``phase_compare`` read only re
    and im, which is exact: den Z has the phase of Z. ``str`` prints Z as
    its ``GaussianRational`` would."""

    re: int
    im: int
    den: int

    def __str__(self) -> str:
        return str(GaussianRational(Fraction(self.re, self.den),
                                    Fraction(self.im, self.den)))


def phase_valid(z: Union[GaussianRational, IntCharge]) -> bool:
    """True iff z lies in the upper half-plane or on the strictly negative
    real axis (the allowed range of a stability function).

    Only the signs of Im z and Re z are read, and D z has the same signs for
    every D > 0, so an ``IntCharge`` is tested on its integer parts."""
    return z.im > 0 or (z.im == 0 and z.re < 0)


def phase_compare(z1: Union[GaussianRational, IntCharge],
                  z2: Union[GaussianRational, IntCharge]) -> Order:
    """Exact comparison of phases in (0, 1].

    For valid charges the sign of the cross product re1*im2 - im1*re2
    decides: it is |z1| |z2| sin(pi (phi2 - phi1)) with |phi2 - phi1| < 1,
    so it is positive iff phi(z1) < phi(z2) and zero exactly on common rays.
    That covers the negative real axis (phase 1, im = 0 and re < 0) too.

    Scaling z1 by D1 > 0 and z2 by D2 > 0 keeps every sign read here: the
    validity tests read the signs of Im and Re, and the cross product becomes
    D1 D2 times itself. So two ``IntCharge`` values compare on their integer
    parts exactly as the rational charges they stand for.
    """
    if not phase_valid(z1):
        raise ChargeError(f"charge {z1} outside the allowed half-plane")
    if not phase_valid(z2):
        raise ChargeError(f"charge {z2} outside the allowed half-plane")
    cross = z1.re * z2.im - z1.im * z2.re
    if cross > 0:
        return Order.LT
    if cross < 0:
        return Order.GT
    return Order.EQ


def slope(ch: ChernCharacter, params: ChargeParams) -> Slope:
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


class _SlopeProfile(NamedTuple):
    slopes: Tuple[Slope, ...]


class SlopeProfile(_SlopeProfile):
    """Strictly decreasing slope-HN profile mu+ = mu_1 > ... > mu_n = mu- of a
    sheaf class; +inf allowed only in first position."""

    __slots__ = ()
    def __new__(cls, slopes: Sequence[Slope]) -> "SlopeProfile":
        sl = tuple(s if s == INFINITY else as_fraction(s) for s in slopes)
        if not sl:
            raise ChargeError("empty slope profile")
        for i, s in enumerate(sl):
            if s == INFINITY and i > 0:
                raise ChargeError("+inf only allowed as the leading slope")
        finite = [s for s in sl if s != INFINITY]
        if any(a <= b for a, b in zip(finite, finite[1:])):
            raise ChargeError("slopes must be strictly decreasing")
        return tuple.__new__(cls, (sl,))

    @property
    def mu_plus(self) -> Slope:
        return self.slopes[0]

    @property
    def mu_minus(self) -> Slope:
        return self.slopes[-1]


class HeartPosition(enum.Enum):
    IN_T = "IN_T"
    IN_F = "IN_F"
    MIXED = "MIXED"


def heart_position(profile: SlopeProfile) -> HeartPosition:
    """Position of a sheaf relative to the slope-zero torsion pair (F, T):
    in T when mu- > 0, in F when mu+ <= 0 (boundary goes to F), mixed else."""
    mu_minus = profile.mu_minus
    if mu_minus == INFINITY or mu_minus > 0:
        return HeartPosition.IN_T
    mu_plus = profile.mu_plus
    if mu_plus != INFINITY and mu_plus <= 0:
        return HeartPosition.IN_F
    return HeartPosition.MIXED


# -- Gieseker comparison and the large-volume charge -------------------------


def monic_normalize(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Monic polynomial proportional to the input (leading coefficient first
    in the returned tuple). Input is constant-term-first, as serialized."""
    cs = [as_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ChargeError("zero polynomial has no reduced form")
    lead = cs[-1]
    if lead <= 0:
        raise ChargeError("leading coefficient must be positive")
    return tuple(c / lead for c in reversed(cs))


def gieseker_compare(p_a: Sequence[Fraction], p_b: Sequence[Fraction]) -> Order:
    """Eventual comparison of reduced Hilbert polynomials.

    Both inputs are coefficient lists, constant term first, degree <= 3,
    positive leading coefficient. Each is normalized to its monic multiple and
    the monic coefficient tuples are compared lexicographically from the top
    degree down, which is the same as comparing values at all large n.
    """
    na, nb = monic_normalize(p_a), monic_normalize(p_b)
    if len(na) != len(nb):
        # different degrees: the higher-degree polynomial eventually dominates
        return Order.GT if len(na) > len(nb) else Order.LT
    if na > nb:
        return Order.GT
    if na < nb:
        return Order.LT
    return Order.EQ


def large_volume_phase(poly: Sequence[Fraction], n: Fraction) -> GaussianRational:
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


def large_volume_threshold(p_a: Sequence[Fraction], p_b: Sequence[Fraction]) -> int:
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


def _quadratic(poly: Sequence[Fraction]) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients (c0, c1, c2), constant first, of a polynomial that is
    quadratic with c2 > 0 once trailing zeros are trimmed."""
    cs = [as_fraction(c) for c in poly]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) != 3 or cs[-1] <= 0:
        raise ChargeError("need a quadratic with positive leading coefficient")
    return tuple(cs)
