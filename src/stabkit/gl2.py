"""Lifts of orientation-preserving 2x2 matrices acting on charges.

An element is a pair (matrix, winding): the matrix part is exact rational
with positive determinant; the winding pins the lifted angle function a with
a(phi + 1) = a(phi) + 1, anchored at a(0) = lifted argument of m.(1, 0).
Angles are in units of pi.

With det > 0 the lift is strictly increasing and sends half-turns to
half-turns (Bridgeland, math/0212237 §8), so every winding follows from
rational sign tests: no angle is ever evaluated.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import ChargeError
from .gaussian import GaussianRational, as_fraction, gaussian

Mat2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def _odd_side(x: Fraction, y: Fraction) -> bool:
    """True when the principal angle of (x, y) lies in (1/2, 1] or (-1, -1/2],
    i.e. when its nearest integer (halves rounded down) is odd."""
    return x < 0 or (x == 0 and y < 0)


class _LiftedGL2(NamedTuple):
    m: Mat2
    winding: int = 0


class LiftedGL2(_LiftedGL2):
    """(matrix, winding) with det > 0; the stored winding is canonical: the
    integer w with a(0) in (w - 1/2, w + 1/2]. A given winding w names the
    lift with a(0) in (w - 1/2, w + 3/2]; its canonical winding is w or w + 1,
    whichever has the parity of odd_side(m.e1), since a(0) is congruent mod 2
    to the principal angle of m.e1. Under this convention the k-fold shift
    (-1)^k I carries winding exactly k."""

    __slots__ = ()
    def __new__(cls, m: Mat2, winding: int = 0) -> "LiftedGL2":
        m = tuple(tuple(map(as_fraction, row)) for row in m)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ChargeError("matrix part must be 2x2")
        if _det(m) <= 0:
            raise ChargeError("matrix part must have positive determinant")
        if not isinstance(winding, int):
            raise ChargeError("winding must be an integer")
        w = winding + (winding - _odd_side(m[0][0], m[1][0])) % 2
        return tuple.__new__(cls, (m, w))

    @staticmethod
    def identity() -> "LiftedGL2":
        return LiftedGL2(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), 0)

    @staticmethod
    def shift(k: int = 1) -> "LiftedGL2":
        """The k-fold homological shift: matrix (-1)^k I, a(phi) = phi + k."""
        s = Fraction(1) if k % 2 == 0 else Fraction(-1)
        return LiftedGL2(((s, Fraction(0)), (Fraction(0), s)), k)


def _det(m: Mat2) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def gl2_compose(g1: LiftedGL2, g2: LiftedGL2) -> LiftedGL2:
    """Group law: matrices multiply, angle functions compose (a = a1 o a2).

    The right action (P, Z).(a, g) = (P o a, g^{-1} Z) makes this the correct
    product for acting first by g1, then by g2.

    Winding: write a_i(0) = w_i + theta_i with theta_i in (-1/2, 1/2]. Then
    a(0) = a1(w2 + theta2) = w1 + w2 + theta1 + delta, where
    delta = a1(theta2) - a1(0). As a1 is strictly increasing with
    a1(phi + 1) = a1(phi) + 1, delta lies in (-1, 1) and has the sign of
    theta2, so a(0) - w1 - w2 = theta1 + delta lies in (-3/2, 3/2) and the
    composite winding is w1 + w2 + n with n in {-1, 0, 1}. The parity of n
    is read off m.e1: n = 0 exactly when (-1)^(w1+w2) m.e1 is not on the odd
    side. Otherwise n = +-1, and n = 1 forces delta > 1/2 - theta1 >= 0 while
    n = -1 forces delta < 0, so n has the sign of theta2, which is the sign
    of the y-coordinate of (-1)^w2 m2.e1 (that vector has principal angle
    theta2).
    """
    mc = tuple(
        tuple(sum((g1.m[i][k] * g2.m[k][j] for k in range(2)), Fraction(0))
              for j in range(2))
        for i in range(2)
    )
    w = g1.winding + g2.winding
    sign = -1 if w % 2 else 1
    if _odd_side(sign * mc[0][0], sign * mc[1][0]):
        y2 = g2.m[1][0] if g2.winding % 2 == 0 else -g2.m[1][0]
        w += 1 if y2 > 0 else -1
    return LiftedGL2(mc, w)


def gl2_act_on_charge(g: LiftedGL2, z: GaussianRational) -> GaussianRational:
    """Apply g^{-1} to a charge value under C = R^2; exact rational algebra."""
    d = _det(g.m)
    a, b = g.m[0]
    c, e = g.m[1]
    # inverse of [[a, b], [c, e]] applied to (re, im)
    re = (e * z.re - b * z.im) / d
    im = (-c * z.re + a * z.im) / d
    return gaussian(re, im)
