import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import gaussian
from stabkit import LiftedGL2, gl2_act_on_charge, gl2_compose
from stabkit.errors import ChargeError
from stabkit.gaussian import GaussianRational

J = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


def rand_gl2(rng):
    while True:
        m = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(2)) for _ in range(2))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det > 0:
            return LiftedGL2(m, rng.randint(-2, 2))


def test_det_validation():
    with pytest.raises(ChargeError):
        LiftedGL2(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))), 0)
    with pytest.raises(ChargeError):
        LiftedGL2(J, Fraction(1, 2))


def test_identity_and_shift_windings():
    assert LiftedGL2.identity().winding == 0
    for k in range(-3, 4):
        assert LiftedGL2.shift(k).winding == k


def test_identity_composition():
    rng = random.Random(31)
    e = LiftedGL2.identity()
    for _ in range(20):
        g = rand_gl2(rng)
        assert gl2_compose(e, g) == g
        assert gl2_compose(g, e) == g


def test_shift_composition_translates_winding():
    s = LiftedGL2.shift(1)
    ss = gl2_compose(s, s)
    assert ss == LiftedGL2.shift(2)
    assert gl2_compose(ss, s) == LiftedGL2.shift(3)
    assert gl2_compose(s, LiftedGL2.shift(-1)) == LiftedGL2.identity()


def test_quarter_turn_squares_to_shift():
    j = LiftedGL2(J, 0)
    assert gl2_compose(j, j) == LiftedGL2.shift(1)
    j4 = gl2_compose(gl2_compose(j, j), gl2_compose(j, j))
    assert j4 == LiftedGL2.shift(2)


def test_winding_canonicalization_idempotent():
    # two constructions naming the same lift agree after canonicalization
    j_a = LiftedGL2(J, 0)
    j_b = LiftedGL2(J, -1)
    assert j_a == j_b


def test_action_examples():
    two = LiftedGL2(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))), 0)
    assert gl2_act_on_charge(two, gaussian(0, 1)) == gaussian(0, Fraction(1, 2))
    j = LiftedGL2(J, 0)
    assert gl2_act_on_charge(j, gaussian(-1, 0)) == gaussian(0, 1)
    assert gl2_act_on_charge(LiftedGL2.identity(), gaussian(3, 4)) == gaussian(3, 4)


def test_action_composes_contravariantly():
    rng = random.Random(32)
    for _ in range(50):
        g1, g2 = rand_gl2(rng), rand_gl2(rng)
        z = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                             Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        lhs = gl2_act_on_charge(gl2_compose(g1, g2), z)
        rhs = gl2_act_on_charge(g2, gl2_act_on_charge(g1, z))
        assert lhs == rhs


def test_steep_matrix_needs_no_angle_margin():
    # m.e1 = (1, 10^40) lies within 1e-40 of the y-axis: the lifted anchor is
    # just below 1/2, so the winding is 0 however close it gets.
    g = LiftedGL2(((1, -1), (10 ** 40, 1)), 0)
    assert g.winding == 0
    gg = gl2_compose(g, g)
    assert gg.m == ((1 - 10 ** 40, -2), (2 * 10 ** 40, 1 - 10 ** 40))
    # a(a(0)) with a(0) just below 1/2 sends e1 to about (-1, 2): winding 1
    assert gg.winding == 1
    assert gl2_compose(gg, g) == gl2_compose(g, gg)


_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lifted_gl2(draw):
    m = [[draw(_fracs), draw(_fracs)], [draw(_fracs), draw(_fracs)]]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assume(det != 0)
    if det < 0:  # negating the first column flips the sign of det
        m[0][0], m[1][0] = -m[0][0], -m[1][0]
    return LiftedGL2((tuple(m[0]), tuple(m[1])), draw(st.integers(-3, 3)))


@given(lifted_gl2(), lifted_gl2(), lifted_gl2())
def test_composition_is_associative(g1, g2, g3):
    assert (gl2_compose(gl2_compose(g1, g2), g3)
            == gl2_compose(g1, gl2_compose(g2, g3)))


@given(lifted_gl2(), st.integers(-4, 4))
def test_shift_is_central(g, k):
    s = LiftedGL2.shift(k)
    left = gl2_compose(s, g)
    assert left == gl2_compose(g, s)
    sign = -1 if k % 2 else 1
    assert left.m == tuple(tuple(sign * x for x in row) for row in g.m)
    assert left.winding == g.winding + k


def _principal(x, y) -> float:
    return math.atan2(float(y), float(x)) / math.pi


def _anchor(g: LiftedGL2) -> float:
    """a(0) in units of pi: the value congruent to the principal angle of
    m.e1 mod 2 in the window (w - 1/2, w + 1/2] of the stored winding."""
    p = _principal(g.m[0][0], g.m[1][0])
    a0 = p + 2 * round((g.winding - p) / 2)
    assert g.winding - 0.5 - 1e-12 < a0 <= g.winding + 0.5 + 1e-12
    return a0


def _unwrapped_lift(m, x: float, steps_per_unit: int = 2000) -> float:
    """a(x) - a(0) for t -> arg(m.(cos pi t, sin pi t)): atan2 on a fine grid
    of [0, x], unwrapped step by step. The lift is increasing, so every step
    must be small and nonnegative for the grid to be fine enough."""
    n = max(1, math.ceil(abs(x) * steps_per_unit))
    fm = [[float(c) for c in row] for row in m]

    def arg(t):
        c, s = math.cos(math.pi * t), math.sin(math.pi * t)
        return _principal(fm[0][0] * c + fm[0][1] * s, fm[1][0] * c + fm[1][1] * s)

    total, prev = 0.0, arg(0.0)
    for i in range(1, n + 1):
        cur = arg(x * i / n)
        d = (cur - prev + 1) % 2 - 1
        assert abs(d) < 0.5 and d * x > -1e-9
        total += d
        prev = cur
    return total


def test_composite_winding_matches_numerical_oracle():
    rng = random.Random(33)
    for _ in range(150):
        g1, g2 = rand_gl2(rng), rand_gl2(rng)
        gc = gl2_compose(g1, g2)
        a = _anchor(g1) + _unwrapped_lift(g1.m, _anchor(g2))
        if gc.m[0][0] == 0:
            # exact half-integer anchor c + 1/2 has canonical winding c
            assert abs(a - round(a - 0.5) - 0.5) < 1e-9
            assert gc.winding == round(a - 0.5)
        else:
            assert abs(a - round(a)) < 0.5 - 1e-6
            assert gc.winding == round(a)


@given(lifted_gl2(), st.integers(-5, 5))
def test_given_winding_names_anchor_window(g, w):
    # a(0) in (w - 1/2, w + 3/2] rounds (halves down) to w or w + 1
    assert LiftedGL2(g.m, w).winding in (w, w + 1)
