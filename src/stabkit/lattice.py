"""Neron-Severi lattices, Mukai vectors and twisted Chern characters.

The extended lattice Z + NS(X) + Z carries the pairing

    (r, c, s) . (r', c', s') = c.c' - r s' - r' s,

which is even whenever the NS Gram matrix is even. All arithmetic is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, NamedTuple, Sequence, Tuple

from .errors import LatticeError
from .gaussian import _unsupported, as_fraction, as_int
from .linalg import bilinear, signature

IntVec = Tuple[int, ...]
FracVec = Tuple[Fraction, ...]


class _NSLattice(NamedTuple):
    rank: int
    gram: Tuple[IntVec, ...]
    ample: IntVec
    k3: bool = True


class NSLattice(_NSLattice):
    """Numerical Neron-Severi lattice of a projective surface.

    ``gram`` is the intersection matrix on a basis of NS(X); ``ample`` is the
    designated ample class H in that basis. ``k3`` selects the K3 charge
    convention (sqrt(td) = (1, 0, 1)) for the extended-lattice operations.
    """

    __slots__ = ()
    def __new__(cls, rank: int, gram: Sequence, ample: Sequence, k3: bool = True) -> "NSLattice":
        rank = as_int(rank)
        if rank <= 0:
            raise LatticeError("rank must be a positive integer")
        gram = tuple(tuple(map(as_int, row)) for row in gram)
        if len(gram) != rank or any(len(r) != rank for r in gram):
            raise LatticeError("gram must be rank x rank")
        for i in range(rank):
            for j in range(rank):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("gram must be symmetric")
        ample = tuple(map(as_int, ample))
        if len(ample) != rank:
            raise LatticeError("ample class has wrong length")
        self = tuple.__new__(cls, (rank, gram, ample, k3))
        pos, neg, zero = signature(gram)
        if (pos, neg, zero) != (1, rank - 1, 0):
            raise LatticeError(
                f"NS gram must have signature (1, {rank - 1}); got "
                f"({pos}, {neg}) with {zero} radical directions"
            )
        if self.ns_dot(ample, ample) <= 0:
            raise LatticeError("ample class must have positive self-intersection")
        return self

    # -- NS-level pairing ----------------------------------------------------

    def ns_dot(self, u: Sequence, v: Sequence) -> Fraction:
        if len(u) != self.rank or len(v) != self.rank:
            raise LatticeError("NS coordinate length mismatch")
        return bilinear([as_fraction(x) for x in u], self.gram, [as_fraction(x) for x in v])

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def require_even(self) -> None:
        if not self.is_even:
            raise LatticeError(
                "Mukai-lattice operations need an even NS lattice "
                "(odd diagonal in gram)"
            )

    @property
    def mukai_rank(self) -> int:
        return self.rank + 2

    def mukai_gram(self) -> List[List[Fraction]]:
        """Gram matrix of the extended pairing in coordinates (r, c_1..c_rho, s)."""
        n = self.mukai_rank
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(self.rank):
            for j in range(self.rank):
                m[1 + i][1 + j] = Fraction(self.gram[i][j])
        m[0][n - 1] = m[n - 1][0] = Fraction(-1)
        return m


class _MukaiVector(NamedTuple):
    r: int
    c: IntVec
    s: int


class MukaiVector(_MukaiVector):
    """Integral class (r, c, s) in the extended lattice. Coordinates are
    coerced with ``as_int``: a non-integral one raises ``ValueError``."""

    __slots__ = ()
    def __new__(cls, r: int, c: Sequence[int], s: int) -> "MukaiVector":
        return tuple.__new__(cls, (as_int(r), tuple(map(as_int, c)), as_int(s)))

    __lt__ = __le__ = __gt__ = __ge__ = __mul__ = __rmul__ = _unsupported

    def coords(self) -> IntVec:
        return (self.r, *self.c, self.s)

    @staticmethod
    def from_coords(coords: Sequence[int]) -> "MukaiVector":
        coords = list(coords)
        if len(coords) < 3:
            raise LatticeError("a Mukai vector needs at least 3 coordinates")
        return MukaiVector(coords[0], tuple(coords[1:-1]), coords[-1])

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r,
                           tuple(a + b for a, b in zip(self.c, other.c)),
                           self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r,
                           tuple(a - b for a, b in zip(self.c, other.c)),
                           self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, tuple(-x for x in self.c), -self.s)

    def scale(self, k: int) -> "MukaiVector":
        return MukaiVector(k * self.r, tuple(k * x for x in self.c), k * self.s)

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and all(x == 0 for x in self.c)

    def is_primitive(self) -> bool:
        return gcd(*self.coords()) == 1


class _ChernCharacter(NamedTuple):
    ch0: Fraction
    ch1: FracVec
    ch2: Fraction


class ChernCharacter(_ChernCharacter):
    """Rational class (ch0, ch1, ch2); twists by -beta produce rational entries."""

    __slots__ = ()
    def __new__(cls, ch0, ch1: Sequence, ch2) -> "ChernCharacter":
        return tuple.__new__(cls, (as_fraction(ch0), tuple(map(as_fraction, ch1)),
                                   as_fraction(ch2)))


def mukai_pairing(v: MukaiVector, w: MukaiVector, lat: NSLattice) -> int:
    """(r,c,s).(r',c',s') = c.c' - r s' - r' s."""
    if len(v.c) != lat.rank or len(w.c) != lat.rank:
        raise LatticeError("Mukai vector has wrong NS rank")
    cc = sum(x * sum(g * y for g, y in zip(row, w.c))
             for x, row in zip(v.c, lat.gram))
    return cc - v.r * w.s - w.r * v.s


def mukai_square(v: MukaiVector, lat: NSLattice) -> int:
    return mukai_pairing(v, v, lat)


def twist_chern(ch: ChernCharacter, beta: Sequence, lat: NSLattice) -> ChernCharacter:
    """Twisted character ch^beta = e^(-beta) ch:

    (ch0, ch1 - ch0 beta, ch2 - beta.ch1 + beta^2 ch0 / 2).
    """
    b = [as_fraction(x) for x in beta]
    if len(b) != lat.rank:
        raise LatticeError("beta has wrong NS rank")
    b_c1 = lat.ns_dot(b, ch.ch1)
    b2 = lat.ns_dot(b, b)
    return ChernCharacter(
        ch.ch0,
        tuple(c - ch.ch0 * bi for c, bi in zip(ch.ch1, b)),
        ch.ch2 - b_c1 + b2 * ch.ch0 / 2,
    )


def bogomolov_discriminant(ch: ChernCharacter, beta: Sequence, lat: NSLattice) -> Fraction:
    """Delta_beta = (ch1^beta)^2 - 2 ch0 ch2^beta.

    Nonnegative for classes of mu-semistable torsion-free sheaves; an exact
    symbolic identity makes it independent of beta.
    """
    tw = twist_chern(ch, beta, lat)
    return lat.ns_dot(tw.ch1, tw.ch1) - 2 * tw.ch0 * tw.ch2
