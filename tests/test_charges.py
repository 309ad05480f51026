import random
from fractions import Fraction

import pytest

from conftest import (gaussian, large_volume_phase, large_volume_threshold,
                      random_even_ns_lattice, slope)
from stabkit import (ChargeParams, ChernCharacter, HeartPosition, MukaiVector,
                     NSLattice, Order, SlopeProfile, gieseker_compare,
                     heart_position, k3_charge, phase_compare, phase_valid,
                     surface_charge)
from stabkit.charges import charge_row, evaluate_charge_row, monic_normalize
from stabkit.errors import ChargeError
from stabkit.gaussian import GaussianRational


def rand_frac(rng, lo=-8, hi=8, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def test_surface_charge_examples():
    lat = NSLattice(1, ((2,),), (1,), k3=False)
    p = ChargeParams(lat, (Fraction(0),), (Fraction(1),))
    assert surface_charge(ChernCharacter(0, (0,), 1), p) == gaussian(-1, 0)
    for t in (1, 2, Fraction(1, 2)):
        pt = ChargeParams(lat, (Fraction(0),), (Fraction(t),))
        assert surface_charge(ChernCharacter(1, (0,), 0), pt) == gaussian(t * t, 0)


def test_surface_charge_integral_formula():
    """Z agrees with minus the codimension-2 part of e^(-i omega - beta) ch,
    expanded term by term in a graded ring of Gaussian-rational classes."""
    rng = random.Random(21)
    for _ in range(300):
        lat0 = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        lat = NSLattice(lat0.rank, lat0.gram, lat0.ample, k3=False)
        beta = tuple(rand_frac(rng) for _ in range(lat.rank))
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        omega = tuple(scale * a for a in lat.ample)
        params = ChargeParams(lat, beta, omega)
        ch = ChernCharacter(rand_frac(rng),
                            tuple(rand_frac(rng) for _ in range(lat.rank)),
                            rand_frac(rng))
        # e^(-beta - i omega) = (1, -(beta + i omega), (beta + i omega)^2 / 2)
        exp1 = [gaussian(-b, -o) for b, o in zip(beta, omega)]
        bw2 = gaussian(lat.ns_dot(beta, beta) - lat.ns_dot(omega, omega),
                       2 * lat.ns_dot(beta, omega)) * Fraction(1, 2)
        cross = gaussian(0)
        for i in range(lat.rank):
            for j in range(lat.rank):
                cross = cross + exp1[i] * Fraction(lat.gram[i][j]) * ch.ch1[j]
        deg2 = gaussian(ch.ch2, 0) + cross + bw2 * ch.ch0
        assert surface_charge(ch, params) == -deg2


def test_k3_charge_examples(k3d2):
    p = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    assert k3_charge(MukaiVector(1, (0,), -1), p) == gaussian(5, 0)
    assert k3_charge(MukaiVector(0, (0,), 1), p) == gaussian(-1, 0)


def test_k3_charge_additive(k3d2):
    rng = random.Random(22)
    p = ChargeParams(k3d2, (rand_frac(rng),), (Fraction(3, 2),))
    for _ in range(100):
        v = MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        w = MukaiVector(rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        assert k3_charge(v + w, p) == k3_charge(v, p) + k3_charge(w, p)


def test_k3_charge_integral_formula():
    """The pairing formula equals -integral(e^(-i omega - beta) ch sqrt(td)),
    expanded term by term, on random rational classes."""
    rng = random.Random(23)
    for _ in range(300):
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        beta = tuple(rand_frac(rng) for _ in range(lat.rank))
        omega = tuple(Fraction(2 * a) for a in lat.ample)
        params = ChargeParams(lat, beta, omega)
        row = charge_row(params)
        ch0, ch2 = rand_frac(rng), rand_frac(rng)
        ch1 = tuple(rand_frac(rng) for _ in range(lat.rank))
        v_rat = [ch0, *ch1, ch0 + ch2]  # ch * sqrt(td), rationally
        exp1 = [gaussian(-b, -o) for b, o in zip(beta, omega)]
        bw2 = gaussian(lat.ns_dot(beta, beta) - lat.ns_dot(omega, omega),
                       2 * lat.ns_dot(beta, omega)) * Fraction(1, 2)
        cross = gaussian(0)
        for i in range(lat.rank):
            for j in range(lat.rank):
                cross = cross + exp1[i] * Fraction(lat.gram[i][j]) * ch1[j]
        deg4 = gaussian(ch0 + ch2, 0) + cross + bw2 * ch0
        assert evaluate_charge_row(row, v_rat) == -deg4


def test_phase_valid():
    assert phase_valid(gaussian(0, 1))
    assert phase_valid(gaussian(-3, 0))
    assert not phase_valid(gaussian(5, 0))
    assert not phase_valid(gaussian(0, 0))
    assert not phase_valid(gaussian(0, -1))


def test_phase_compare_examples():
    assert phase_compare(gaussian(-1, 0), gaussian(0, 1)) is Order.GT
    assert phase_compare(gaussian(0, 1), gaussian(0, Fraction(1, 2))) is Order.EQ
    assert phase_compare(gaussian(-1, 1), gaussian(0, 1)) is Order.GT
    with pytest.raises(ChargeError):
        phase_compare(gaussian(1, 0), gaussian(0, 1))


def test_phase_compare_ray_invariance_and_transitivity():
    rng = random.Random(24)
    vals = []
    while len(vals) < 60:
        z = GaussianRational(rand_frac(rng), rand_frac(rng))
        if phase_valid(z):
            vals.append(z)
    for z in vals:
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert phase_compare(z, z * k) is Order.EQ
    for _ in range(2000):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        ab, bc, ac = phase_compare(a, b), phase_compare(b, c), phase_compare(a, c)
        if ab is Order.LT and bc is Order.LT:
            assert ac is Order.LT
        if ab is Order.EQ and bc is Order.EQ:
            assert ac is Order.EQ
        if ab is Order.GT and bc is Order.GT:
            assert ac is Order.GT


def test_slope(k3d2):
    p = ChargeParams(k3d2, (Fraction(0),), (Fraction(1),))
    assert slope(ChernCharacter(1, (1,), 0), p) == 2
    assert slope(ChernCharacter(0, (1,), 0), p) == "inf"
    with pytest.raises(ChargeError):
        slope(ChernCharacter(-1, (0,), 0), p)
    # beta shift identity: mu_{w,b} = mu_{w,0} - w.b
    rng = random.Random(25)
    for _ in range(100):
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        beta = tuple(rand_frac(rng) for _ in range(lat.rank))
        omega = tuple(Fraction(a) for a in lat.ample)
        p0 = ChargeParams(lat, tuple([Fraction(0)] * lat.rank), omega)
        pb = ChargeParams(lat, beta, omega)
        ch = ChernCharacter(rng.randint(1, 5),
                            tuple(rng.randint(-5, 5) for _ in range(lat.rank)),
                            rng.randint(-5, 5))
        assert slope(ch, pb) == slope(ch, p0) - lat.ns_dot(omega, beta)


def test_heart_position():
    assert heart_position(SlopeProfile(("inf",))) is HeartPosition.IN_T
    assert heart_position(SlopeProfile((Fraction(0),))) is HeartPosition.IN_F
    assert heart_position(SlopeProfile((Fraction(3), Fraction(-1)))) is HeartPosition.MIXED
    assert heart_position(SlopeProfile(("inf", Fraction(1)))) is HeartPosition.IN_T
    assert heart_position(SlopeProfile((Fraction(-1), Fraction(-2)))) is HeartPosition.IN_F
    with pytest.raises(ChargeError):
        SlopeProfile((Fraction(1), Fraction(1)))
    with pytest.raises(ChargeError):
        SlopeProfile((Fraction(1), "inf"))


def test_heart_omega_sq_requirement(k3d2):
    p_small = ChargeParams(k3d2, (Fraction(0),), (Fraction(1),))  # omega^2 = 2
    assert not p_small.heart_certified()
    with pytest.raises(ChargeError):
        p_small.require_heart()
    p_ok = ChargeParams(k3d2, (Fraction(0),), (Fraction(2),))
    assert p_ok.heart_certified()
    # off a K3 every ample omega backs a heart, omega^2 = 2 included
    surface = NSLattice(1, ((2,),), (1,), k3=False)
    assert ChargeParams(surface, (Fraction(0),), (Fraction(1),)).heart_certified()


def test_gieseker_compare():
    assert gieseker_compare([1, 2, 1], [0, 2, 1]) is Order.GT
    assert gieseker_compare([1, 2, 1], [1, 2, 1]) is Order.EQ
    assert gieseker_compare([0, 2, 2], [0, 2, 1]) is Order.LT
    assert gieseker_compare([1, 1], [0, 0, 1]) is Order.LT  # lower degree
    with pytest.raises(ChargeError):
        gieseker_compare([0, 0, 0], [1, 0, 1])
    with pytest.raises(ChargeError):
        gieseker_compare([1, 0, -1], [1, 0, 1])


def test_large_volume_phase_values():
    assert large_volume_phase([0, 0, 1], 1) == gaussian(0, 1)
    assert large_volume_phase([2, 6, 2], 2) == gaussian(12, 6)
    rng = random.Random(26)
    for _ in range(50):
        a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        n = Fraction(rng.randint(1, 9))
        assert large_volume_phase([a * c, a * b, a], n) == \
            gaussian(a * b * n, a * (n * n - c))


def test_large_volume_vs_gieseker():
    """For n past the certified threshold, the phase order of the rotated
    charges -i P(i n) is exactly the reverse of the Gieseker order (the -i
    convention reflects the plane, flipping the orientation of phases)."""
    rng = random.Random(27)
    for _ in range(500):
        a1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b1 = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        a2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b2 = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        pa = [a1 * c1, a1 * b1, a1]
        pb = [a2 * c2, a2 * b2, a2]
        g = gieseker_compare(pa, pb)
        n0 = large_volume_threshold(pa, pb)
        for n in (n0, n0 + 1, n0 + 7, 3 * n0):
            w_a = large_volume_phase(pa, n)
            w_b = large_volume_phase(pb, n)
            assert phase_compare(w_a, w_b) is g.reversed()


def test_large_volume_threshold_is_closed_form():
    """The threshold of a 10^40 constant term is 10^20 + 1, computed without
    stepping through the integers below it."""
    assert large_volume_threshold([10**40, 0, 1], [1, 0, 1]) == 10**20 + 1
    assert large_volume_threshold([10**40 - 1, 0, 1], [1, 0, 1]) == 10**20


def test_large_volume_threshold_matches_stepping_reference():
    """The least n with n^2 above the bound, against the loop that steps n
    up from 1."""
    def stepped(pa, pb):
        _, b1, c1 = monic_normalize(pa)
        _, b2, c2 = monic_normalize(pb)
        bound = max([Fraction(1)] + [c for c in (c1, c2) if c > 0])
        if b1 != b2:
            bound = max(bound, abs(b2 * c1 - b1 * c2) / abs(b1 - b2))
        n = 1
        while n * n <= bound:
            n += 1
        return n

    rng = random.Random(29)
    for _ in range(500):
        pa, pb = ([Fraction(rng.randint(-60, 60), rng.randint(1, 4)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                   Fraction(rng.randint(1, 5), rng.randint(1, 3))] for _ in range(2))
        assert large_volume_threshold(pa, pb) == stepped(pa, pb)


def test_surface_charge_imaginary_part_is_rank_times_slope():
    """For positive rank and positive twisted slope the charge is valid with
    Im Z = omega . ch1^beta = ch0 * mu exactly."""
    rng = random.Random(28)
    from stabkit import twist_chern
    count = 0
    while count < 200:
        lat0 = random_even_ns_lattice(rng, rank=rng.choice([1, 2]))
        lat = NSLattice(lat0.rank, lat0.gram, lat0.ample, k3=False)
        beta = tuple(rand_frac(rng) for _ in range(lat.rank))
        scale = Fraction(rng.randint(1, 3))
        omega = tuple(scale * a for a in lat.ample)
        params = ChargeParams(lat, beta, omega)
        ch = ChernCharacter(rng.randint(1, 5),
                            tuple(rng.randint(-6, 6) for _ in range(lat.rank)),
                            rand_frac(rng))
        mu = slope(ch, params)
        if mu == "inf" or mu <= 0:
            continue
        z = surface_charge(ch, params)
        assert phase_valid(z)
        tw = twist_chern(ch, beta, lat)
        assert z.im == lat.ns_dot(omega, tw.ch1)
        assert z.im == ch.ch0 * mu
        count += 1
