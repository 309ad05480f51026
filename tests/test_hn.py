import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from stabkit import (CategoryPresentation, Edge, Filtration, Order, charge_table,
                     hn_filtration, is_semistable, jh_factors, phase_compare,
                     phase_valid, seesaw_check, validate)
from stabkit.errors import BudgetError, ChargeError, PresentationError
from stabkit.gaussian import GaussianRational, gaussian
from stabkit.hn import Violation


def chain_cat():
    """0 < S2 < A with A/S2 = S1; Z(class (x, y)) = -x + i y."""
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S1": (0, 1), "S2": (1, 0), "A": (1, 1)},
        edges=(Edge("S2", "A", "S1"),),
        zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    return cat, charge_table(cat, charge)


def test_presentation_rejects_non_integral_classes():
    cat = CategoryPresentation({"0": ("0",), "A": (Fraction(4, 2),)}, (), "0")
    assert cat.objects == {"0": (0,), "A": (2,)}
    for bad in (1.5, True, Fraction(3, 2), "1/2"):
        with pytest.raises(ValueError, match="expected an integer"):
            CategoryPresentation({"0": (0,), "A": (bad,)}, (), "0")


def test_presentation_structure_is_derived_once():
    """The adjacency and each down-closure are computed once and shared."""
    cat, _ = chain_cat()
    assert cat.up_edges() is cat.up_edges()
    assert cat.subobjects_below("A") is cat.subobjects_below("A")
    assert cat.subobjects_below("A") == {"0", "S2", "A"}
    assert [e.ambient for e in cat.up_edges()["S2"]] == ["A", "S2"]


def test_validate_clean():
    cat, table = chain_cat()
    assert validate(cat, table) == []


def test_validate_flags_bad_charge():
    cat = CategoryPresentation(objects={"0": (0,), "A": (1,)}, edges=(), zero="0")
    violations = validate(cat, charge_table(cat, [gaussian(1, 0)]))
    assert any(v.code == "invalid-charge" for v in violations)


def test_validate_flags_additivity():
    cat = CategoryPresentation(
        objects={"0": (0,), "B": (1,), "A": (3,), "C": (1,)},
        edges=(Edge("B", "A", "C"),), zero="0")
    violations = validate(cat, charge_table(cat, [gaussian(0, 1)]))
    assert any(v.code == "additivity" for v in violations)


def test_validate_flags_cycles():
    cat = CategoryPresentation(
        objects={"0": (0,), "A": (1,), "B": (1,)},
        edges=(Edge("A", "B", "0"), Edge("B", "A", "0")), zero="0")
    violations = validate(cat, charge_table(cat, [gaussian(0, 1)]))
    assert any(v.code == "cycle" for v in violations)


def test_filtration_refuses_a_cycle_with_no_maximal_continuation():
    """A and B lie below each other, so neither tied continuation of 0 is
    inclusion-maximal."""
    cat = CategoryPresentation(
        objects={"0": (0,), "A": (1,), "B": (1,)},
        edges=(Edge("A", "B", "0"), Edge("B", "A", "0"), Edge("0", "A", "B")), zero="0")
    with pytest.raises(PresentationError, match="no inclusion-maximal continuation"):
        hn_filtration(cat, charge_table(cat, [gaussian(0, 1)]), "A")


def test_filtration_refuses_a_cycle_it_would_walk_for_ever():
    """A < B and B < A with the same high-phase quotient Q: the greedy walk
    towards X steps A, B, A, ... and stops once it has more steps than
    there are objects."""
    cat = CategoryPresentation(
        objects={"0": (0, 0, 0), "A": (1, 0, 0), "B": (0, 1, 0), "Q": (1, 0, 0),
                 "R": (0, 0, 1), "X": (0, 0, 1)},
        edges=(Edge("A", "B", "Q"), Edge("B", "A", "Q"), Edge("A", "X", "R"),
               Edge("B", "X", "R")), zero="0")
    table = charge_table(cat, [gaussian(-3, 1), gaussian(0, 1), gaussian(3, 1)])
    with pytest.raises(PresentationError, match="revisits an object after 6 steps"):
        hn_filtration(cat, table, "X")


def test_validate_leaves_no_reference_cycle():
    """The cycle check is an iterative search: one validate call on a
    four-object presentation leaves nothing for the cyclic collector, and
    the cycle it reports is unchanged."""
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S": (1, 0), "T": (0, 1), "A": (1, 1)},
        edges=(Edge("S", "A", "T"), Edge("T", "A", "S")), zero="0")
    table = charge_table(cat, [gaussian(0, 1), gaussian(-1, 1)])
    gc.collect()
    assert validate(cat, table) == []
    assert gc.collect() == 0
    loop = CategoryPresentation(
        objects={"0": (0,), "A": (1,), "B": (1,), "C": (1,)},
        edges=(Edge("A", "B", "0"), Edge("B", "C", "0"), Edge("C", "A", "0")), zero="0")
    violations = validate(loop, charge_table(loop, [gaussian(0, 1)]))
    assert [(v.code, v.subject, v.message) for v in violations if v.code == "cycle"] == [
        ("cycle", "A", "subobject relation is not a partial order: 0 < A < B < C < A")]


def _recursive_cycle(cat):
    """The first cycle of a recursive depth-first search over the strict up
    edges, roots in sorted order."""
    up, colors = cat.up_edges(), {}

    def dfs(node, stack):
        colors[node] = 1
        for e in up[node]:
            if e.ambient == node:
                continue
            c = colors.get(e.ambient, 0)
            if c == 1:
                return stack + [node, e.ambient]
            if c == 0:
                cyc = dfs(e.ambient, stack + [node])
                if cyc:
                    return cyc
        colors[node] = 2
        return None

    for name in sorted(cat.objects):
        if colors.get(name, 0) == 0:
            cyc = dfs(name, [])
            if cyc:
                return cyc
    return None


@given(st.lists(st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE")),
                max_size=9))
def test_validate_reports_the_recursive_search_cycle(pairs):
    names = "0ABCDE"
    cat = CategoryPresentation(
        objects={name: (int(name != "0"),) for name in names},
        edges=tuple(Edge(a, b, "0") for a, b in pairs), zero="0")
    cyc = _recursive_cycle(cat)
    got = [(v.subject, v.message) for v in validate(cat, charge_table(cat, [gaussian(0, 1)]))
           if v.code == "cycle"]
    assert got == ([] if cyc is None else [
        (cyc[-1], "subobject relation is not a partial order: " + " < ".join(cyc))])


def test_is_semistable():
    cat, table = chain_cat()
    assert not is_semistable(cat, table, "A")   # phi(S2) = 1 > phi(A) = 3/4
    assert is_semistable(cat, table, "S1")
    assert is_semistable(cat, table, "S2")
    # sub of smaller phase does not destabilize
    cat2 = CategoryPresentation(
        objects={"0": (0, 0), "S1": (0, 1), "S2": (1, 0), "A": (1, 1)},
        edges=(Edge("S1", "A", "S2"),), zero="0")
    assert is_semistable(cat2, charge_table(cat2, [gaussian(-1, 0), gaussian(0, 1)]), "A")


def test_hn_two_step():
    cat, table = chain_cat()
    filt = hn_filtration(cat, table, "A")
    assert filt.steps == ("0", "S2", "A")
    assert filt.factor_ids == ("S2", "S1")
    assert filt.factor_classes == ((1, 0), (0, 1))
    assert filt.notes == ()


def test_hn_semistable_single_step():
    cat, table = chain_cat()
    assert hn_filtration(cat, table, "S2").steps == ("0", "S2")
    # same-ray tower is semistable in one step
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    filt = hn_filtration(cat2, charge_table(cat2, [gaussian(-1, 1)]), "A")
    assert filt.steps == ("0", "A")


def test_hn_edge_order_invariance():
    cat, table = chain_cat()
    ref = hn_filtration(cat, table, "A")
    rng = random.Random(41)
    objs = list(cat.objects.items())
    edges = list(cat.edges)
    for _ in range(10):
        rng.shuffle(objs)
        rng.shuffle(edges)
        cat2 = CategoryPresentation(dict(objs), tuple(edges), "0")
        assert hn_filtration(cat2, table, "A") == ref


def test_hn_malformed_reported_not_guessed():
    # quotient object missing from the presentation
    cat = CategoryPresentation(
        objects={"0": (0, 0), "B": (1, 0), "A": (1, 2)},
        edges=(Edge("B", "A", "Q"),), zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    with pytest.raises(PresentationError):
        hn_filtration(cat, charge_table(cat, charge), "A")


def test_hn_ambiguous_tie_noted():
    # two incomparable subobjects on the same maximal-phase ray: a real
    # abelian category would contain their join; the tie-break is reported
    cat = CategoryPresentation(
        objects={"0": (0, 0), "S": (1, 0), "T": (2, 0), "A": (3, 1),
                 "QS": (2, 1), "QT": (1, 1)},
        edges=(Edge("S", "A", "QS"), Edge("T", "A", "QT")), zero="0")
    charge = [gaussian(-1, 0), gaussian(0, 1)]
    filt = hn_filtration(cat, charge_table(cat, charge), "A")
    assert filt.notes and "ambiguous" in filt.notes[0]
    assert filt.steps[1] == "S"  # smallest id among the tied candidates


def test_jh_factors():
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    table = charge_table(cat2, [gaussian(0, 1)])
    assert jh_factors(cat2, table, "A") == [(1,), (1,)]
    assert jh_factors(cat2, table, "S") == [(1,)]
    total = [sum(col) for col in zip(*jh_factors(cat2, table, "A"))]
    assert tuple(total) == cat2.class_of("A")


def test_jh_requires_semistable():
    cat, table = chain_cat()
    with pytest.raises(PresentationError):
        jh_factors(cat, table, "A")


def test_seesaw_examples():
    cat, table = chain_cat()
    assert seesaw_check(cat, table) == []
    # same-ray extension: all three phases equal
    cat2 = CategoryPresentation(
        objects={"0": (0,), "S": (1,), "A": (2,)},
        edges=(Edge("S", "A", "S"),), zero="0")
    assert seesaw_check(cat2, charge_table(cat2, [gaussian(0, 1)])) == []


def test_invalid_charge_error_prints_the_rational_charge():
    cat, _ = chain_cat()
    table = charge_table(cat, [gaussian(Fraction(1, 2), -3), gaussian(0, Fraction(1, 3))])
    assert str(table["A"]) == "1/2-8/3i"
    with pytest.raises(ChargeError, match="charge 1/2-3i outside the allowed half-plane"):
        seesaw_check(cat, table)


def test_random_presentations_full_pipeline():
    rng = random.Random(42)
    for _ in range(40):
        cat, charge, top = random_presentation(rng)
        table = charge_table(cat, charge)
        assert validate(cat, table) == []
        assert seesaw_check(cat, table) == []
        filt = hn_filtration(cat, table, top)
        # factors semistable with strictly decreasing phases, classes add up
        from stabkit.charges import Order, evaluate_charge_row, phase_compare
        for f1, f2 in zip(filt.factor_ids, filt.factor_ids[1:]):
            assert phase_compare(evaluate_charge_row(charge, cat.class_of(f1)),
                                 evaluate_charge_row(charge, cat.class_of(f2))) is Order.GT
        for f in filt.factor_ids:
            assert is_semistable(cat, table, f)
        total = [sum(col) for col in zip(*filt.factor_classes)]
        assert tuple(total) == cat.class_of(top)
        # permutation invariance
        objs = list(cat.objects.items())
        edges = list(cat.edges)
        for _ in range(3):
            rng.shuffle(objs)
            rng.shuffle(edges)
            cat2 = CategoryPresentation(dict(objs), tuple(edges), cat.zero)
            assert hn_filtration(cat2, charge_table(cat2, charge), top) == filt


def test_single_ray_category_everything_semistable():
    """All charges on one ray: every object is semistable, one-step HN."""
    rng = random.Random(43)
    for _ in range(20):
        cat, charge, top = random_presentation(rng)
        ray = gaussian(-2, 3)
        table = charge_table(cat, [ray * Fraction(rng.randint(1, 5)) for _ in charge])
        for name in cat.objects:
            if name == cat.zero:
                continue
            assert is_semistable(cat, table, name)
            assert len(hn_filtration(cat, table, name).steps) == 2


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
    table = charge_table(cat, [gaussian(-1, 0), gaussian(0, 1), gaussian(1, 1)])
    assert validate(cat, table) == []
    filt = hn_filtration(cat, table, "X03")
    assert filt.steps == ("0", "X01", "X02", "X03")
    assert filt.factor_ids == ("X01", "X12", "X23")
    assert filt.factor_classes == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sub = hn_filtration(cat, table, "X13")
    assert sub.steps == ("0", "X12", "X13")


# -- the integer charge table against charges the test sums in Fractions -------


def frac_charges(cat, row):
    """Each object's charge as an exact (re, im) pair of Fractions."""
    return {name: (sum((z.re * x for z, x in zip(row, cls)), Fraction(0)),
                   sum((z.im * x for z, x in zip(row, cls)), Fraction(0)))
            for name, cls in cat.objects.items()}


def ref_valid(z):
    re, im = z
    return im > 0 or (im == 0 and re < 0)


def ref_phase_key(z):
    """Sorts like the phase in (0, 1]: in the open upper half-plane
    cot(pi phi) = re / im falls as phi rises, and the negative real axis
    (phi = 1) comes after everything else."""
    re, im = z
    return (1, Fraction(0)) if im == 0 else (0, -re / im)


def ref_order(z1, z2):
    k1, k2 = ref_phase_key(z1), ref_phase_key(z2)
    return Order.GT if k1 > k2 else Order.LT if k1 < k2 else Order.EQ


def ref_semistable(cat, z, a):
    return all(ref_phase_key(z[b]) <= ref_phase_key(z[a])
               for b in cat.subobjects_below(a) if b not in (a, cat.zero))


def ref_hn(cat, z, a):
    """The greedy HN filtration on Fraction charges, or None where the
    presentation is inconsistent."""
    up = cat.up_edges()
    subs = cat.subobjects_below(a)
    steps, factors, notes = [cat.zero], [], []
    cur = cat.zero
    while cur != a:
        cands = [e for e in up[cur]
                 if e.ambient in subs and e.ambient != cur and e.quotient != cat.zero]
        if not cands:
            return None
        top = max(ref_phase_key(z[e.quotient]) for e in cands)
        best = [e for e in cands if ref_phase_key(z[e.quotient]) == top]
        maximal = sorted((e for e in best
                          if not any(e.ambient != o.ambient and cat.leq(e.ambient, o.ambient)
                                     for o in best)),
                         key=lambda e: (e.ambient, e.quotient))
        tops = sorted({e.ambient for e in maximal})
        if len(tops) > 1:
            notes.append(f"ambiguous maximal destabilizer above {cur!r}: "
                         f"incomparable candidates {tops}; smallest id chosen")
        steps.append(maximal[0].ambient)
        factors.append(maximal[0].quotient)
        cur = maximal[0].ambient
    keys = [ref_phase_key(z[f]) for f in factors]
    if any(k1 <= k2 for k1, k2 in zip(keys, keys[1:])):
        return None
    if not all(ref_semistable(cat, z, f) for f in factors):
        return None
    classes = tuple(cat.class_of(f) for f in factors)
    if tuple(map(sum, zip(*classes))) != cat.class_of(a):
        return None
    return Filtration(tuple(steps), classes, tuple(factors), tuple(notes))


def ref_seesaw(cat, z):
    out = []
    for e in cat.edges:
        if cat.zero in (e.sub, e.ambient, e.quotient):
            continue
        o_ba = ref_order(z[e.sub], z[e.ambient])
        o_ca = ref_order(z[e.quotient], z[e.ambient])
        head = f"edge {e.sub} < {e.ambient} / {e.quotient}: "
        if (o_ba is not Order.GT) != (o_ca is not Order.LT):
            out.append(Violation("seesaw", e.ambient, head + f"phi(B)<=phi(A) is {o_ba} "
                                 f"but phi(C)>=phi(A) is {o_ca}"))
        if (o_ba is not Order.LT) != (o_ca is not Order.GT):
            out.append(Violation("seesaw", e.ambient, head + f"phi(B)>=phi(A) is {o_ba} "
                                 f"but phi(C)<=phi(A) is {o_ca}"))
    return out


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
charge_entries = st.one_of(
    st.builds(GaussianRational, rationals, rationals),
    st.builds(GaussianRational, rationals.filter(lambda x: x < 0), st.just(Fraction(0))))


@given(data=st.data())
def test_charge_table_order_matches_fraction_evaluation(data):
    n = data.draw(st.integers(1, 4))
    row = data.draw(st.lists(charge_entries, min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        # the last simple on the ray of the first: an exact tie of E0 and En-1
        row[-1] = row[0] * data.draw(st.builds(Fraction, st.integers(1, 5), st.integers(1, 4)))
    classes = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                 min_size=1, max_size=4))
    objects = {"0": (0,) * n}
    for i in range(n):
        objects[f"E{i}"] = tuple(int(k == i) for k in range(n))
    for k, cls in enumerate(classes):
        # a class and its multiples lie on one ray
        objects[f"C{k}"] = tuple(cls)
        objects[f"D{k}"] = tuple(3 * x for x in cls)
    cat = CategoryPresentation(objects, (), "0")
    table = charge_table(cat, row)
    z = frac_charges(cat, row)
    (den,) = {t.den for t in table.values()}
    assert den > 0
    for name in objects:
        t = table[name]
        assert (Fraction(t.re, den), Fraction(t.im, den)) == z[name]
        assert str(t) == str(GaussianRational(*z[name]))
        assert phase_valid(t) == ref_valid(z[name])
    valid = [name for name in objects if ref_valid(z[name])]
    for a in valid:
        for b in valid:
            assert phase_compare(table[a], table[b]) is ref_order(z[a], z[b])
    invalid = [name for name in objects if not ref_valid(z[name])]
    for a in invalid[:1]:
        with pytest.raises(ChargeError):
            phase_compare(table[a], table[a])


@given(seed=st.integers(0, 2 ** 32 - 1), tie=st.booleans(), axis=st.booleans(),
       change=st.sampled_from(["none", "invalid", "class"]))
def test_hn_layer_matches_fraction_oracle(seed, tie, axis, change):
    """hn_filtration, is_semistable, seesaw_check and validate on the integer
    table equal the same steps run on Fraction charges: on random towers and
    diamonds with phase ties, negative-real charges, an invalid charge, or a
    class moved so that some edges stop being additive."""
    rng = random.Random(seed)
    cat, row, _ = random_presentation(rng)
    n = len(row)
    if tie:
        i, j = rng.sample(range(n), 2)
        row[j] = row[i] * Fraction(rng.randint(1, 4), rng.randint(1, 3))
    if axis:
        row[rng.randrange(n)] = gaussian(Fraction(-rng.randint(1, 8), rng.randint(1, 4)))
    if change == "invalid":
        row[rng.randrange(n)] = gaussian(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                         -Fraction(rng.randint(0, 4), rng.randint(1, 3)))
    elif change == "class":
        names = sorted(name for name in cat.objects if name != cat.zero)
        x, y = rng.sample(names, 2)
        objects = dict(cat.objects)
        objects[x] = objects[y]
        cat = CategoryPresentation(objects, cat.edges, cat.zero)
    table = charge_table(cat, row)
    z = frac_charges(cat, row)
    names = sorted(name for name in cat.objects if name != cat.zero)
    want_invalid = [Violation("invalid-charge", name,
                              f"Z({name}) = {GaussianRational(*z[name])} outside the "
                              "upper half-plane union R_{<0}")
                    for name in names if not ref_valid(z[name])]
    violations = validate(cat, table)
    assert [v for v in violations if v.code == "invalid-charge"] == want_invalid
    non_additive = [e.ambient for e in cat.edges
                    if cat.class_of(e.ambient)
                    != tuple(map(sum, zip(cat.class_of(e.sub), cat.class_of(e.quotient))))]
    assert [v.subject for v in violations if v.code != "invalid-charge"] == non_additive
    if want_invalid:
        return
    assert seesaw_check(cat, table) == ref_seesaw(cat, z)
    for a in names:
        assert is_semistable(cat, table, a) == ref_semistable(cat, z, a)
        want = ref_hn(cat, z, a)
        if want is None:
            with pytest.raises(PresentationError):
                hn_filtration(cat, table, a)
        else:
            assert hn_filtration(cat, table, a) == want


def test_presentation_rejects_ids_equal_as_strings():
    """Ids are read as their str, so 1 and "1" are one id twice: the
    constructor refuses it as the JSON reader does, instead of keeping one."""
    with pytest.raises(PresentationError, match=r"^duplicate object id '1'$"):
        CategoryPresentation({"0": (0,), 1: (1,), "1": (2,)}, (), "0")


def test_edges_are_named_tuples_read_from_any_triple():
    cat = CategoryPresentation({"0": (0,), "S": (1,), "A": (2,)}, (("S", "A", "S"),), "0")
    assert cat.edges[0] == Edge("0", "A", "A")
    assert Edge("S", "A", "S") in cat.edges
    assert repr(Edge("S", "A", "S")) == "Edge(sub='S', ambient='A', quotient='S')"


def test_jh_factors_honours_the_budget(monkeypatch):
    """cube(5) with every simple on one ray: the chain search visits one
    node per strict chain of subsets from the empty set. A set of k
    elements ends F(k) such chains, F the ordered Bell numbers 1, 1, 3, 13,
    75, 541, so there are sum_k C(5, k) F(k) = 1082 nodes."""
    n = 5

    def name(bits):
        return "B" + "".join(str(bits >> k & 1) for k in range(n))

    objects = {"0": (0,) * n}
    objects.update({name(t): tuple(t >> k & 1 for k in range(n)) for t in range(1, 1 << n)})
    edges = tuple(Edge(name(s), name(t), name(t & ~s))
                  for t in range(1, 1 << n) for s in range(1, 1 << n)
                  if s != t and s & t == s)
    cat = CategoryPresentation(objects, edges, "0")
    table = charge_table(cat, [gaussian(-1, 2) * (k + 1) for k in range(n)])
    top = name((1 << n) - 1)
    monkeypatch.setenv("BRIDGELAND_BUDGET", "1082")
    assert sorted(jh_factors(cat, table, top)) == sorted(
        tuple(int(k == i) for k in range(n)) for i in range(n))
    monkeypatch.setenv("BRIDGELAND_BUDGET", "1081")
    with pytest.raises(BudgetError, match="JH chain search exceeded budget of 1081 nodes"):
        jh_factors(cat, table, top)


def test_packed_additivity_is_exact_at_the_bound():
    """Every edge among the classes of {-1, 0, 1}^2: the differences a - b - c
    reach 3 = 3m, one short of the packing base 4m + 1, and validate flags
    exactly the edges whose classes do not add up."""
    vecs = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    objects = {f"V{x}{y}": (x, y) for x, y in vecs}
    objects["0"] = (0, 0)
    names = sorted(objects)
    edges = tuple(Edge(b, a, c) for a in names for b in names for c in names
                  if len({a, b, c, "0"}) == 4)
    cat = CategoryPresentation(objects, edges, "0")
    got = [(v.subject, v.message) for v in validate(cat, charge_table(cat, [gaussian(0, 1)] * 2))
           if v.code == "additivity"]
    assert got == [(e.ambient, f"edge {e.sub} < {e.ambient} / {e.quotient}: "
                    "class(ambient) != class(sub) + class(quotient)") for e in cat.edges
                   if objects[e.ambient] != tuple(map(sum, zip(objects[e.sub],
                                                               objects[e.quotient])))]


# -- the packed and inline checks against the per-edge loops they replaced ------


def loop_phase_compare(z1, z2):
    if not phase_valid(z1):
        raise ChargeError(f"charge {z1} outside the allowed half-plane")
    if not phase_valid(z2):
        raise ChargeError(f"charge {z2} outside the allowed half-plane")
    if z1.im == 0:
        return Order.EQ if z2.im == 0 else Order.GT
    if z2.im == 0:
        return Order.LT
    cross = z1.re * z2.im - z1.im * z2.re
    return Order.LT if cross > 0 else Order.GT if cross < 0 else Order.EQ


def loop_up(cat):
    up = {name: [] for name in cat.objects}
    for e in cat.edges:
        up.setdefault(e.sub, []).append(e)
    return up


def loop_validate(cat, table):
    """validate with one tuple sum per edge."""
    out = []
    if any(x != 0 for x in cat.class_of(cat.zero)):
        out.append(Violation("zero-class", cat.zero, "zero object has nonzero class"))
    for e in cat.edges:
        for name in (e.sub, e.ambient, e.quotient):
            if name not in cat.objects:
                out.append(Violation("unknown-id", name, f"edge {e} references unknown id"))
                break
        else:
            if cat.objects[e.ambient] != tuple(
                    map(sum, zip(cat.objects[e.sub], cat.objects[e.quotient]))):
                out.append(Violation(
                    "additivity", e.ambient,
                    f"edge {e.sub} < {e.ambient} / {e.quotient}: "
                    "class(ambient) != class(sub) + class(quotient)"))
            if e.sub == cat.zero and e.quotient != e.ambient:
                out.append(Violation("zero-edge", e.ambient,
                                     "edge from zero must have quotient = ambient"))
            if e.sub == e.ambient and e.quotient != cat.zero:
                out.append(Violation("reflexive-edge", e.ambient,
                                     "reflexive edge must have quotient = zero"))
    colors, up, cycle = {}, loop_up(cat), None
    for name in sorted(cat.objects):
        if colors.get(name, 0):
            continue
        colors[name] = 1
        path, frames = [name], [iter(up[name])]
        while frames and cycle is None:
            for e in frames[-1]:
                if e.ambient == path[-1]:
                    continue
                c = colors.get(e.ambient, 0)
                if c == 1:
                    cycle = path + [e.ambient]
                    break
                if c == 0:
                    colors[e.ambient] = 1
                    path.append(e.ambient)
                    frames.append(iter(up.get(e.ambient, ())))
                    break
            else:
                colors[path.pop()] = 2
                frames.pop()
        if cycle:
            out.append(Violation("cycle", cycle[-1], "subobject relation is not a partial "
                                 "order: " + " < ".join(cycle)))
            break
    for name in sorted(cat.objects):
        if name != cat.zero and not phase_valid(table[name]):
            out.append(Violation(
                "invalid-charge", name,
                f"Z({name}) = {table[name]} outside the upper half-plane union R_{{<0}}"))
    return out


def loop_seesaw(cat, table):
    out = []
    for e in cat.edges:
        if cat.zero in (e.sub, e.ambient, e.quotient):
            continue
        zb, za, zc = table[e.sub], table[e.ambient], table[e.quotient]
        o_ba = loop_phase_compare(zb, za)
        o_ca = loop_phase_compare(zc, za)
        if (o_ba in (Order.LT, Order.EQ)) != (o_ca in (Order.GT, Order.EQ)):
            out.append(Violation("seesaw", e.ambient,
                                 f"edge {e.sub} < {e.ambient} / {e.quotient}: "
                                 f"phi(B)<=phi(A) is {o_ba} but phi(C)>=phi(A) is {o_ca}"))
        if (o_ba in (Order.GT, Order.EQ)) != (o_ca in (Order.LT, Order.EQ)):
            out.append(Violation("seesaw", e.ambient,
                                 f"edge {e.sub} < {e.ambient} / {e.quotient}: "
                                 f"phi(B)>=phi(A) is {o_ba} but phi(C)<=phi(A) is {o_ca}"))
    return out


def loop_semistable(cat, table, a):
    za = table[a]
    return not any(loop_phase_compare(table[b], za) is Order.GT
                   for b in cat.subobjects_below(a) if b not in (a, cat.zero))


def loop_hn(cat, table, a):
    up, subs_a = loop_up(cat), cat.subobjects_below(a)
    steps, factor_ids, notes, cur = [cat.zero], [], [], cat.zero
    while cur != a:
        cands = [e for e in up[cur]
                 if e.ambient in subs_a and e.ambient != cur and e.quotient != cat.zero]
        if not cands:
            raise PresentationError(
                f"no subobject-edge continuation from {cur!r} towards {a!r}: "
                "presentation too sparse for a filtration")
        best = []
        for e in cands:
            cmp = loop_phase_compare(table[e.quotient], table[best[0].quotient]) \
                if best else Order.GT
            if cmp is Order.GT:
                best = [e]
            elif cmp is Order.EQ:
                best.append(e)
        maximal = sorted((e for e in best
                          if not any(o is not e and e.ambient != o.ambient
                                     and cat.leq(e.ambient, o.ambient) for o in best)),
                         key=lambda e: (e.ambient, e.quotient))
        tops = {e.ambient for e in maximal}
        if len(tops) > 1:
            notes.append(f"ambiguous maximal destabilizer above {cur!r}: "
                         f"incomparable candidates {sorted(tops)}; smallest id chosen")
        steps.append(maximal[0].ambient)
        factor_ids.append(maximal[0].quotient)
        cur = maximal[0].ambient
    classes = tuple(cat.class_of(f) for f in factor_ids)
    for f1, f2 in zip(factor_ids, factor_ids[1:]):
        if loop_phase_compare(table[f1], table[f2]) is not Order.GT:
            raise PresentationError(
                f"greedy filtration of {a!r} has non-decreasing factor phases "
                f"({f1!r} then {f2!r}): presentation is inconsistent")
    for f in factor_ids:
        if not loop_semistable(cat, table, f):
            raise PresentationError(
                f"factor {f!r} of the filtration of {a!r} is not semistable: "
                "presentation is inconsistent")
    total = cat.class_of(a)
    sums = [sum(col) for col in zip(*classes)] if classes else [0] * len(total)
    if tuple(sums) != total:
        raise PresentationError("factor classes do not sum to the class of the object")
    return Filtration(tuple(steps), classes, tuple(factor_ids), tuple(notes))


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ChargeError, PresentationError, KeyError) as exc:
        return type(exc).__name__, str(exc)


charge_entry = st.builds(lambda re, im, d: gaussian(Fraction(re, d), Fraction(im, d)),
                         st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3))
names = st.sampled_from(["0", "A", "B", "C", "D", "E", "U"])  # "U" is never an object


@settings(max_examples=300)
@given(data=st.data())
def test_checks_equal_the_per_edge_loops(data):
    """validate, seesaw_check and hn_filtration equal the loops they replaced,
    violation for violation and in order, and raise the same errors: on
    random towers and diamonds and on random sparse presentations, with
    unknown ids, cycles, non-additive edges, negative coordinates, tied and
    invalid charges."""
    if data.draw(st.booleans()):
        cat, row, _ = random_presentation(random.Random(data.draw(st.integers(0, 2 ** 16))))
        objects, edges, n = dict(cat.objects), list(cat.edges), len(row)
        pool = st.sampled_from(sorted(objects) + ["U"])
        coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    else:
        n = data.draw(st.integers(1, 3))
        coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
        objects = {"0": (0,) * n}
        objects.update({name: data.draw(coords)
                        for name in data.draw(st.sets(st.sampled_from("ABCDE"), min_size=1))})
        edges, pool = [], names
        row = data.draw(st.lists(charge_entry, min_size=n, max_size=n))
    edge = st.one_of(st.tuples(pool, pool, pool),
                     st.builds(lambda x, y: (x, x, y), pool, pool),  # reflexive
                     st.builds(lambda x, y: ("0", x, y), pool, pool))  # from zero
    edges += data.draw(st.lists(edge, max_size=4))
    for name in data.draw(st.lists(st.sampled_from(sorted(objects)), max_size=2)):
        objects[name] = data.draw(coords)  # a moved class, the zero's too
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, n - 1))
        row[i] = data.draw(charge_entry)  # may be invalid
    if n > 1 and data.draw(st.booleans()):
        row[-1] = row[0] * data.draw(st.integers(1, 3))  # a tie of two simples
    cat = CategoryPresentation(objects, tuple(edges), "0")
    table = charge_table(cat, row)
    violations = validate(cat, table)
    assert violations == loop_validate(cat, table)
    assert outcome(seesaw_check, cat, table) == outcome(loop_seesaw, cat, table)
    if any(v.code == "cycle" for v in violations):
        return  # the greedy walk assumes a partial order and may not end on a cycle
    for a in sorted(cat.objects):
        if a != cat.zero:
            assert outcome(hn_filtration, cat, table, a) == outcome(loop_hn, cat, table, a)
