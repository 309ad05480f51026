import random
from fractions import Fraction

import pytest

from conftest import random_even_ns_lattice
from stabkit import (ChernCharacter, MukaiVector, NSLattice,
                     bogomolov_discriminant, mukai_pairing, mukai_square,
                     twist_chern)
from stabkit.errors import LatticeError


def test_lattice_validation():
    with pytest.raises(LatticeError):
        NSLattice(1, ((-2,),), (1,))  # negative definite
    with pytest.raises(LatticeError):
        NSLattice(2, ((2, 0), (0, 2)), (1, 0))  # signature (2, 0)
    with pytest.raises(LatticeError):
        NSLattice(1, ((2,),), (0,))  # ample with zero square
    with pytest.raises(LatticeError):
        NSLattice(2, ((2, 1), (0, -2)), (1, 0))  # not symmetric


def test_mukai_vector_rejects_non_integral_coordinates():
    """Coordinates are coerced exactly: integral rationals and integer
    strings read as ints; a float, a bool or a fraction is not truncated."""
    v = MukaiVector("2", (Fraction(4, 2), "-3"), "6/3")
    assert (v.r, v.c, v.s) == (2, (2, -3), 2)
    assert all(type(x) is int for x in v.coords())
    for r, c, s in ((1.5, (0,), 2), (1, (0.9,), 2), (1, (0,), 2.7),
                    (True, (0,), 1), (1, (Fraction(1, 2),), 1), (1, ("1/2",), 1)):
        with pytest.raises(ValueError, match="expected an integer"):
            MukaiVector(r, c, s)
    with pytest.raises(ValueError, match="expected an integer"):
        MukaiVector.from_coords([1, 0.5, 1])


def test_pairing_anchor_values(k3d2):
    v = MukaiVector(1, (0,), 1)
    assert mukai_pairing(v, v, k3d2) == -2
    assert mukai_pairing(MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0), k3d2) == -1
    for n in range(1, 11):
        vn = MukaiVector(1, (0,), 1 - n)
        assert mukai_square(vn, k3d2) == 2 * n - 2


def test_pairing_symmetric_bilinear(k3d2):
    rng = random.Random(1)
    for _ in range(200):
        u, v, w = (MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),),
                               rng.randint(-5, 5)) for _ in range(3))
        assert mukai_pairing(u, v, k3d2) == mukai_pairing(v, u, k3d2)
        assert (mukai_pairing(u + v, w, k3d2)
                == mukai_pairing(u, w, k3d2) + mukai_pairing(v, w, k3d2))
        assert mukai_pairing(-u, w, k3d2) == -mukai_pairing(u, w, k3d2)
        assert -u == u.scale(-1) and u + -u == MukaiVector(0, (0,), 0)


def test_square_even_on_random_lattices():
    rng = random.Random(2)
    for _ in range(10):
        lat = random_even_ns_lattice(rng)
        for _ in range(100):
            v = MukaiVector(rng.randint(-6, 6),
                            tuple(rng.randint(-6, 6) for _ in range(lat.rank)),
                            rng.randint(-6, 6))
            assert mukai_square(v, lat) % 2 == 0


def test_twist_identity_and_group_action(k3d2):
    ch = ChernCharacter(1, (1,), 1)
    assert twist_chern(ch, (0,), k3d2) == ch
    assert twist_chern(ch, (1,), k3d2) == ChernCharacter(1, (0,), 0)
    rng = random.Random(4)
    for _ in range(100):
        ch = ChernCharacter(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        b1 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)
        b2 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)
        lhs = twist_chern(twist_chern(ch, b1, k3d2), b2, k3d2)
        rhs = twist_chern(ch, (b1[0] + b2[0],), k3d2)
        assert lhs == rhs
        # round trip
        assert twist_chern(twist_chern(ch, b1, k3d2), (-b1[0],), k3d2) == ch


def test_bogomolov_values_and_invariance():
    rng = random.Random(5)
    lat = NSLattice(1, ((2,),), (1,))
    assert bogomolov_discriminant(ChernCharacter(2, (1,), 0), (0,), lat) == 2
    assert bogomolov_discriminant(ChernCharacter(2, (0,), 1), (0,), lat) == -4
    for _ in range(300):
        l2 = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        ch = ChernCharacter(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(l2.rank)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        beta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(l2.rank))
        assert (bogomolov_discriminant(ch, beta, l2)
                == bogomolov_discriminant(ch, tuple([Fraction(0)] * l2.rank), l2))


def test_even_lattice_required_for_mukai_ops():
    odd = NSLattice(1, ((1,),), (1,), k3=True)
    with pytest.raises(LatticeError):
        odd.require_even()
