import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    loc2, = ser.walls_from_json([json.loads(json.dumps(doc))])
    assert loc2 == loc


def test_walls_reader_parses_each_text_once_and_checks_every_wall(k3d2):
    """Walls sharing the text of v share one class; a later field equal by
    value to an earlier one but given as a float or a bool still raises, as
    it would alone."""
    sl = SliceParams(k3d2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    docs = [json.loads(json.dumps(ser.wall_to_json(wall_locus(v, w, sl), f"W{i}")))
            for i, w in enumerate((MukaiVector(0, (0,), 1), MukaiVector(-8, (1,), 0)))]
    first, second = ser.walls_from_json(docs)
    assert first.v is second.v and first.v == v
    assert [first, second] == [wall_locus(v, loc.w, sl) for loc in (first, second)]
    for later in ([1.0, [0], -1], [True, [0], -1], [1, [0.0], -1], [1, [0], -1.0]):
        a, b = json.loads(json.dumps(docs))
        a["v"], b["v"] = [1, [0], -1], later
        assert ser.walls_from_json([a])[0].v == v
        with pytest.raises(ValueError, match="expected an integer"):
            ser.walls_from_json([a, b])
    for later in (1.0, True):  # the int 1 is read first, in the first wall's conic
        a, b = json.loads(json.dumps(docs))
        a["conic"][0], b["radius_sq"] = 1, later
        with pytest.raises(ValueError, match="expected a rational"):
            ser.walls_from_json([a, b])


def test_dumps_canonical():
    a = ser.dumps({"b": 1, "a": [2, 3]})
    b = ser.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def stdlib_canonical(x):
    return json.dumps(x, sort_keys=True, separators=(", ", ": "), indent=1) + "\n"


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(alphabet=st.sampled_from('ab"\\/ \x00\x1f\x7f\n\té€\u2028😀'), max_size=6)
SCALARS = (TEXT | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
           | st.booleans() | st.none())
TREES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=25)


@given(TREES)
def test_dumps_is_the_stdlib_indent_form(tree):
    assert ser.dumps(tree) == stdlib_canonical(tree)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), {1: "a"}, {"a": [0.0]},
                                 [{"k": Fraction(3)}], {("a",): 1}, {"a": 1, 2: 3}])
def test_dumps_rejects_non_json_values(bad):
    with pytest.raises(TypeError):
        ser.dumps(bad)


@pytest.mark.parametrize("text", ["+3", " 3", "3 ", "1/-2", "3/ 2", "1_0", "\u0663",
                                  "-0", "007/014", "1/0", "", "-", "/2", "2/",
                                  "-12/36", "12", "1/00", "3.5", "\u00b2"])
def test_unrat_matches_fraction(text):
    """The int() fast path agrees with Fraction(str) on strings near its
    form; a zero denominator is a ValueError on both paths."""
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        want = ValueError
    except ValueError:
        want = ValueError
    if want is ValueError:
        with pytest.raises(ValueError):
            ser.unrat(text)
    else:
        got = ser.unrat(text)
        assert got == want and type(got) is Fraction
