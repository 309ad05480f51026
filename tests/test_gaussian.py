import random
from fractions import Fraction

import pytest

from stabkit.gaussian import as_fraction, as_int, gaussian


def test_basic_arithmetic():
    z = gaussian(1, 2)
    w = gaussian("1/2", "-3")
    assert z + w == gaussian(Fraction(3, 2), -1)
    assert z - w == gaussian(Fraction(1, 2), 5)
    assert z * w == gaussian(Fraction(1, 2) + 6, 1 - 3)
    assert -z == gaussian(-1, -2)
    assert 1 - z == gaussian(0, -2)
    assert 1 / z == gaussian(Fraction(1, 5), Fraction(-2, 5))
    assert bool(z) and not gaussian(0, 0)


def test_division_exact():
    rng = random.Random(7)
    for _ in range(200):
        z = gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        w = gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        if w.is_zero():
            continue
        assert (z / w) * w == z


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gaussian(1, 0) / gaussian(0, 0)


def test_zero_denominator_is_a_value_error():
    for bad in ("1/0", "-3/00", " +2/0 "):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        as_int("1/0")


def test_as_int_is_exact():
    assert as_int(7) == 7 and as_int("-12") == -12 and as_int("4/2") == 2
    assert as_int(Fraction(-6, 3)) == -2 and type(as_int(Fraction(4))) is int
    for bad in (1.0, 2.5, True, False, None, "1/2", Fraction(1, 3), "x"):
        with pytest.raises(ValueError):
            as_int(bad)


def test_norm_and_conjugate():
    z = gaussian(3, -4)
    assert z.norm2() == 25
    assert z * gaussian(3, 4) == gaussian(z.norm2(), 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.1)


def test_scalar_coercion():
    assert gaussian(2, 0) * Fraction(1, 2) == gaussian(1, 0)
    assert 2 * gaussian(1, 1) == gaussian(2, 2)
