import json
from fractions import Fraction

import pytest

from stabkit import (CategoryPresentation, Edge, MukaiVector, SliceParams,
                     wall_locus)
from stabkit import serialize as ser
from stabkit.gaussian import gaussian


def test_rational_strings_roundtrip():
    for x in (Fraction(3, 2), Fraction(-7), Fraction(0), Fraction(22, 7)):
        assert ser.unrat(ser.rat(x)) == x


def test_unrat_rejects_float_and_bool():
    assert ser.unrat(3) == 3 and ser.unrat("0.5") == Fraction(1, 2)
    for bad in (1.5, 0.0, True, None):
        with pytest.raises(ValueError, match="expected a rational"):
            ser.unrat(bad)
    with pytest.raises(ValueError):
        ser.gauss_from_json([1, 0.5])


def test_lattice_roundtrip(k3d2):
    doc = {"rank": 1, "gram": [["2"]], "ample": ["1"], "k3": True}
    assert ser.lattice_from_json(json.loads(json.dumps(doc))) == k3d2


def test_mukai_roundtrip():
    v = MukaiVector(2, (1, -3), 5)
    assert ser.mukai_from_json(ser.mukai_to_json(v)) == v


def test_gauss_and_charge_row_roundtrip():
    z = gaussian("3/2", "-1/3")
    assert ser.gauss_from_json(ser.gauss_to_json(z)) == z
    row = [gaussian(4, 0), gaussian(0, 4), gaussian(-1, 0)]
    doc = [["4", "0"], ["0", "4"], ["-1", "0"]]
    assert ser.charge_row_from_json(json.loads(json.dumps(doc))) == row


def test_category_roundtrip():
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S1": (0, 1), "S2": (1, 0), "A": (1, 1)},
        edges=(Edge("S2", "A", "S1"),), zero="0")
    doc = {"objects": [{"class": ["1", "1"], "id": "A"}, {"class": ["0", "0"], "id": "0"},
                       {"class": ["0", "1"], "id": "S1"}, {"class": ["1", "0"], "id": "S2"}],
           "edges": [{"ambient": "A", "quotient": "S1", "sub": "S2"}],
           "zero": "0"}
    cat2 = ser.category_from_json(json.loads(json.dumps(doc)))
    assert cat2 == cat


def test_wall_roundtrip(k3d2):
    sl = SliceParams(k3d2, (Fraction(0),))
    loc = wall_locus(MukaiVector(1, (0,), -1), MukaiVector(-8, (1,), 0), sl)
    doc = ser.wall_to_json(loc, "W0")
    loc2 = ser.wall_from_json(json.loads(json.dumps(doc)))
    assert loc2 == loc


def test_dumps_canonical():
    a = ser.dumps({"b": 1, "a": [2, 3]})
    b = ser.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
