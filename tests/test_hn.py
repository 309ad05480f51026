import random
from fractions import Fraction

import pytest

from conftest import random_presentation
from stabkit import (CategoryPresentation, Edge, hn_filtration, is_semistable,
                     jh_factors, seesaw_check, validate)
from stabkit.errors import PresentationError
from stabkit.gaussian import gaussian


def chain_cat():
    """0 < S2 < A with A/S2 = S1; Z(class (x, y)) = -x + i y."""
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S1": (0, 1), "S2": (1, 0), "A": (1, 1)},
        edges=(Edge("S2", "A", "S1"),),
        zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    return cat, charge


def test_validate_clean():
    cat, charge = chain_cat()
    assert validate(cat, charge) == []


def test_validate_flags_bad_charge():
    cat = CategoryPresentation(objects={"0": (0,), "A": (1,)}, edges=(), zero="0")
    violations = validate(cat, [gaussian(1, 0)])
    assert any(v.code == "invalid-charge" for v in violations)


def test_validate_flags_additivity():
    cat = CategoryPresentation(
        objects={"0": (0,), "B": (1,), "A": (3,), "C": (1,)},
        edges=(Edge("B", "A", "C"),), zero="0")
    violations = validate(cat, [gaussian(0, 1)])
    assert any(v.code == "additivity" for v in violations)


def test_validate_flags_cycles():
    cat = CategoryPresentation(
        objects={"0": (0,), "A": (1,), "B": (1,)},
        edges=(Edge("A", "B", "0"), Edge("B", "A", "0")), zero="0")
    violations = validate(cat, [gaussian(0, 1)])
    assert any(v.code == "cycle" for v in violations)


def test_is_semistable():
    cat, charge = chain_cat()
    assert not is_semistable(cat, charge, "A")   # phi(S2) = 1 > phi(A) = 3/4
    assert is_semistable(cat, charge, "S1")
    assert is_semistable(cat, charge, "S2")
    # sub of smaller phase does not destabilize
    cat2 = CategoryPresentation(
        objects={"0": (0, 0), "S1": (0, 1), "S2": (1, 0), "A": (1, 1)},
        edges=(Edge("S1", "A", "S2"),), zero="0")
    assert is_semistable(cat2, charge, "A")


def test_hn_two_step():
    cat, charge = chain_cat()
    filt = hn_filtration(cat, charge, "A")
    assert filt.steps == ("0", "S2", "A")
    assert filt.factor_ids == ("S2", "S1")
    assert filt.factor_classes == ((1, 0), (0, 1))
    assert filt.notes == ()


def test_hn_semistable_single_step():
    cat, charge = chain_cat()
    assert hn_filtration(cat, charge, "S2").steps == ("0", "S2")
    # same-ray tower is semistable in one step
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    filt = hn_filtration(cat2, [gaussian(-1, 1)], "A")
    assert filt.steps == ("0", "A")


def test_hn_edge_order_invariance():
    cat, charge = chain_cat()
    ref = hn_filtration(cat, charge, "A")
    rng = random.Random(41)
    objs = list(cat.objects.items())
    edges = list(cat.edges)
    for _ in range(10):
        rng.shuffle(objs)
        rng.shuffle(edges)
        cat2 = CategoryPresentation(dict(objs), tuple(edges), "0")
        assert hn_filtration(cat2, charge, "A") == ref


def test_hn_malformed_reported_not_guessed():
    # quotient object missing from the presentation
    cat = CategoryPresentation(
        objects={"0": (0, 0), "B": (1, 0), "A": (1, 2)},
        edges=(Edge("B", "A", "Q"),), zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    with pytest.raises(PresentationError):
        hn_filtration(cat, charge, "A")


def test_hn_ambiguous_tie_noted():
    # two incomparable subobjects on the same maximal-phase ray: a real
    # abelian category would contain their join; the tie-break is reported
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S": (1, 0), "T": (2, 0), "A": (3, 1),
                 "QS": (2, 1), "QT": (1, 1)},
        edges=(Edge("S", "A", "QS"), Edge("T", "A", "QT")), zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    filt = hn_filtration(cat, charge, "A")
    assert filt.notes and "ambiguous" in filt.notes[0]
    assert filt.steps[1] == "S"  # smallest id among the tied candidates


def test_jh_factors():
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    charge = [gaussian(0, 1)]
    assert jh_factors(cat2, charge, "A") == [(1,), (1,)]
    assert jh_factors(cat2, charge, "S") == [(1,)]
    total = [sum(col) for col in zip(*jh_factors(cat2, charge, "A"))]
    assert tuple(total) == cat2.class_of("A")


def test_jh_requires_semistable():
    cat, charge = chain_cat()
    with pytest.raises(PresentationError):
        jh_factors(cat, charge, "A")


def test_seesaw_examples():
    cat, charge = chain_cat()
    assert seesaw_check(cat, charge) == []
    # same-ray extension: all three phases equal
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    assert seesaw_check(cat2, [gaussian(0, 1)]) == []


def test_random_presentations_full_pipeline():
    rng = random.Random(42)
    for _ in range(40):
        cat, charge, top = random_presentation(rng)
        assert validate(cat, charge) == []
        assert seesaw_check(cat, charge) == []
        filt = hn_filtration(cat, charge, top)
        # factors semistable with strictly decreasing phases, classes add up
        from stabkit.charges import Order, evaluate_charge_row, phase_compare
        for f1, f2 in zip(filt.factor_ids, filt.factor_ids[1:]):
            assert phase_compare(evaluate_charge_row(charge, cat.class_of(f1)),
                                 evaluate_charge_row(charge, cat.class_of(f2))) is Order.GT
        for f in filt.factor_ids:
            assert is_semistable(cat, charge, f)
        total = [sum(col) for col in zip(*filt.factor_classes)]
        assert tuple(total) == cat.class_of(top)
        # permutation invariance
        objs = list(cat.objects.items())
        edges = list(cat.edges)
        for _ in range(3):
            rng.shuffle(objs)
            rng.shuffle(edges)
            cat2 = CategoryPresentation(dict(objs), tuple(edges), cat.zero)
            assert hn_filtration(cat2, charge, top) == filt


def test_single_ray_category_everything_semistable():
    """All charges on one ray: every object is semistable, one-step HN."""
    rng = random.Random(43)
    for _ in range(20):
        cat, charge, top = random_presentation(rng)
        ray = gaussian(-2, 3)
        charge = [ray * Fraction(rng.randint(1, 5)) for _ in charge]
        for name in cat.objects:
            if name == cat.zero:
                continue
            assert is_semistable(cat, charge, name)
            assert len(hn_filtration(cat, charge, name).steps) == 2


def test_hn_three_step_tower():
    """Three-factor tower with hand-computed phases 1 > 1/2 > 1/4."""
    objects = {
        "0": (0, 0, 0),
        "X01": (1, 0, 0), "X12": (0, 1, 0), "X23": (0, 0, 1),
        "X02": (1, 1, 0), "X13": (0, 1, 1),
        "X03": (1, 1, 1),
    }
    edges = (
        Edge("X01", "X02", "X12"), Edge("X01", "X03", "X13"),
        Edge("X02", "X03", "X23"), Edge("X12", "X13", "X23"),
    )
    cat = CategoryPresentation(objects, edges, "0")
    charge = [gaussian(-1, 0), gaussian(0, 1), gaussian(1, 1)]
    assert validate(cat, charge) == []
    filt = hn_filtration(cat, charge, "X03")
    assert filt.steps == ("0", "X01", "X02", "X03")
    assert filt.factor_ids == ("X01", "X12", "X23")
    assert filt.factor_classes == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sub = hn_filtration(cat, charge, "X13")
    assert sub.steps == ("0", "X12", "X13")
