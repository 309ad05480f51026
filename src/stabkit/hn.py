"""Harder-Narasimhan and Jordan-Holder machinery over finitely presented
abelian categories.

A presentation lists objects with classes in a lattice, a zero object, and
subobject edges (sub, ambient, quotient). The engine works purely with the
listed data: greedy maximal-destabilizer steps walk direct edges, so the
filtration is reproducible and independent of input ordering.

Every charge is read from one ``ChargeTable`` per presentation and charge
row: each object's charge is evaluated once, as a pair of integers over one
common positive denominator, and every phase comparison runs on those ints.

Checking a presentation is one integer pass over its edges: additivity is
one addition of packed classes per edge, and the see-saw two integer cross
products per edge once every charge has been tested for validity.
"""
from __future__ import annotations

from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter, mul
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .charges import IntCharge, Order, charge_rows, phase_compare, phase_valid
from .errors import BudgetError, ChargeError, PresentationError, effective_budget
from .gaussian import GaussianRational, as_int
from .linalg import clear_denominators

ClassVec = Tuple[int, ...]


class Edge(NamedTuple):
    sub: str
    ambient: str
    quotient: str


class Violation(NamedTuple):
    code: str
    subject: str
    message: str


class _CategoryPresentation(NamedTuple):
    objects: Dict[str, ClassVec]
    edges: Tuple[Edge, ...]
    zero: str


class CategoryPresentation(_CategoryPresentation):
    """Finite abelian-category presentation.

    Zero edges (zero below everything) and reflexive edges (everything below
    itself with zero quotient) are implied and added on construction when
    absent, so authored files only need the interesting extensions.
    Object ids, in ``objects``, ``edges`` and ``zero``, are read as their
    ``str``, and two ids with one ``str`` raise ``PresentationError``. Each
    (sub, ambient, quotient) triple is stored as an ``Edge``. Class
    coordinates are coerced with ``as_int``: a non-integral one raises
    ``ValueError``. The adjacency and the down-closures are derived once per
    presentation, on first use, and kept in the instance dict.
    """

    def __new__(cls, objects: Dict, edges: Sequence, zero) -> "CategoryPresentation":
        zero = str(zero)
        classes: Dict[str, ClassVec] = {}
        for key, vec in objects.items():
            name = str(key)
            if name in classes:
                raise PresentationError(f"duplicate object id {name!r}")
            vec = tuple(vec)
            try:  # int() reads a str or an int as as_int does first, or raises
                classes[name] = tuple(map(int if {*map(type, vec)} <= {str, int} else as_int, vec))
            except ValueError:
                classes[name] = tuple(map(as_int, vec))
        if zero not in classes:
            raise PresentationError(f"zero object {zero!r} missing")
        triples = {(str(s), str(a), str(q)) for s, a, q in edges}
        for name in classes:
            if name != zero:
                triples.add((zero, name, name))
                triples.add((name, name, zero))
        return tuple.__new__(cls, (classes, tuple(map(Edge._make, sorted(triples))), zero))

    # -- structure queries ----------------------------------------------------

    def class_of(self, name: str) -> ClassVec:
        try:
            return self.objects[name]
        except KeyError:
            raise PresentationError(f"unknown object id {name!r}") from None

    @cached_property
    def _up(self) -> Dict[str, List[Edge]]:
        up: Dict[str, List[Edge]] = {name: [] for name in self.objects}
        for sub, run in groupby(self.edges, itemgetter(0)):  # sorted: one run per sub
            up[sub] = list(run)
        return up

    @cached_property
    def _down(self) -> Dict[str, List[str]]:
        down: Dict[str, List[str]] = {n: [] for n in self.objects}
        for e in self.edges:
            if e.sub != e.ambient:
                down[e.ambient].append(e.sub)
        return down

    @cached_property
    def _below(self) -> Dict[str, FrozenSet[str]]:
        return {}  # filled by subobjects_below, one closure per name asked

    def up_edges(self) -> Dict[str, List[Edge]]:
        """Edges by sub, each list in (ambient, quotient) order (the edges
        are sorted on construction). An edge whose sub is not an object
        gets a list of its own, so ``validate`` can report it. The mapping
        and its lists are shared by every caller: read them, do not
        modify them."""
        return self._up

    def subobjects_below(self, name: str) -> FrozenSet[str]:
        """All B with B <= name in the reflexive-transitive closure,
        computed once per name and then shared."""
        below = self._below.get(name)
        if below is None:
            down = self._down
            seen = {name}
            stack = [name]
            while stack:
                cur = stack.pop()
                for nxt in down[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            below = self._below[name] = frozenset(seen)
        return below

    def leq(self, a: str, b: str) -> bool:
        return a in self.subobjects_below(b)


class Filtration(NamedTuple):
    """Chain 0 = A_0 < A_1 < ... < A_n = A along listed edges; the i-th factor
    class is the class of the quotient of the edge A_{i-1} < A_i."""

    steps: Tuple[str, ...]
    factor_classes: Tuple[ClassVec, ...]
    factor_ids: Tuple[str, ...]
    notes: Tuple[str, ...] = ()


ChargeRow = Sequence[GaussianRational]


# every object's charge under one charge row, all over one denominator
ChargeTable = Dict[str, IntCharge]


def charge_table(cat: CategoryPresentation, charge: ChargeRow) -> ChargeTable:
    """Evaluate the charge row once on every object: the row is cleared to
    integer real and imaginary rows over their common denominator, so each
    class costs two integer dot products. The row must have one entry per
    class coordinate; a length mismatch raises ``PresentationError``."""
    n = len(charge)
    for name, cls in cat.objects.items():
        if len(cls) != n:
            raise PresentationError(
                f"charge row has {n} entries but the class of {name!r} has "
                f"{len(cls)} coordinates")
    (re_row, im_row), den = clear_denominators(charge_rows(charge))
    return {name: IntCharge(sum(map(mul, re_row, cls)), sum(map(mul, im_row, cls)), den)
            for name, cls in cat.objects.items()}


def validate(cat: CategoryPresentation, table: ChargeTable) -> List[Violation]:
    """Structural and charge validation; an empty list means all invariants
    hold and every nonzero object has a charge in the allowed half-plane.
    ``table`` is the ``charge_table`` of ``cat``, which also guarantees that
    every class has the length of the charge row.

    Additivity is read off one integer per class, P(c) = sum c_i B^i with B =
    4m + 1, m the largest |coordinate|. It is exact: P(a) - P(b) - P(c) is
    sum d_i B^i with d = a - b - c, |d_i| <= 3m < B, and were it 0 with some
    d_i != 0, B would divide the lowest such d_k."""
    out: List[Violation] = []
    objects, zero = cat.objects, cat.zero
    if any(cat.class_of(zero)):
        out.append(Violation("zero-class", zero, "zero object has nonzero class"))
    base = 4 * max(map(abs, chain.from_iterable(objects.values())), default=0) + 1
    powers = [base ** i for i in range(len(objects[zero]))]
    packed = {name: sum(map(mul, cls, powers)) for name, cls in objects.items()}
    for e in cat.edges:
        sub, amb, quo = e
        try:
            additive = packed[amb] == packed[sub] + packed[quo]
        except KeyError:
            name = next(name for name in e if name not in objects)
            out.append(Violation("unknown-id", name, f"edge {e} references unknown id"))
            continue
        if not additive:
            out.append(Violation(
                "additivity", amb, f"edge {sub} < {amb} / {quo}: "
                "class(ambient) != class(sub) + class(quotient)"))
        if sub == zero and quo != amb:
            out.append(Violation("zero-edge", amb,
                                 "edge from zero must have quotient = ambient"))
        if sub == amb and quo != zero:
            out.append(Violation("reflexive-edge", amb,
                                 "reflexive edge must have quotient = zero"))
    # antisymmetry of the closure: no directed cycle through strict edges.
    # Depth-first search with an explicit stack of edge iterators; ``path``
    # holds the gray nodes (color 1) from the root of the current tree.
    colors: Dict[str, int] = {}
    up = cat.up_edges()
    cycle: Optional[List[str]] = None
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
            out.append(Violation("cycle", cycle[-1],
                                 "subobject relation is not a partial order: "
                                 + " < ".join(cycle)))
            break
    for name in sorted(cat.objects):
        if name != cat.zero and not phase_valid(table[name]):
            out.append(Violation(
                "invalid-charge", name,
                f"Z({name}) = {table[name]} outside the upper half-plane union R_{{<0}}"))
    return out


def validate_or_raise(cat: CategoryPresentation, table: ChargeTable) -> None:
    violations = validate(cat, table)
    if violations:
        lines = "; ".join(f"[{v.code}] {v.subject}: {v.message}" for v in violations)
        raise PresentationError(f"invalid presentation: {lines}")


def is_semistable(cat: CategoryPresentation, table: ChargeTable, a: str) -> bool:
    """No strict nonzero subobject of larger phase."""
    if a not in cat.objects or a == cat.zero:
        raise PresentationError(f"need a nonzero object id, got {a!r}")
    za = table[a]
    return not any(phase_compare(table[b], za) is Order.GT
                   for b in cat.subobjects_below(a) if b not in (a, cat.zero))


def hn_filtration(cat: CategoryPresentation, table: ChargeTable, a: str) -> Filtration:
    """Greedy Harder-Narasimhan filtration.

    At each stage, among the direct continuations of the current step inside
    the subobject poset of ``a``, pick the one whose factor has maximal phase;
    ties prefer the inclusion-maximal continuation, then the smallest id (the
    id tie-break only fires on genuinely ambiguous presentations and is
    recorded in the filtration notes). The factors are re-checked to be
    semistable with strictly decreasing phases. A walk that finds no
    inclusion-maximal continuation, or that takes more steps than there are
    objects, has met a cycle of strict edges (which ``validate`` reports)
    and raises ``PresentationError``.
    """
    if a not in cat.objects or a == cat.zero:
        raise PresentationError(f"need a nonzero object id, got {a!r}")
    up = cat.up_edges()
    subs_a = cat.subobjects_below(a)
    steps = [cat.zero]
    factor_ids: List[str] = []
    notes: List[str] = []
    cur = cat.zero
    while cur != a:
        cands = [e for e in up[cur]
                 if e.ambient in subs_a and e.ambient != cur and e.quotient != cat.zero]
        if not cands:
            raise PresentationError(
                f"no subobject-edge continuation from {cur!r} towards {a!r}: "
                "presentation too sparse for a filtration")
        best = cands[:1]
        for e in cands[1:]:
            cmp = phase_compare(table[e.quotient], table[best[0].quotient])
            if cmp is Order.GT:
                best = [e]
            elif cmp is Order.EQ:
                best.append(e)
        maximal = [e for e in best
                   if not any(o is not e and e.ambient != o.ambient
                              and cat.leq(e.ambient, o.ambient) for o in best)]
        if not maximal:
            raise PresentationError(
                f"no inclusion-maximal continuation above {cur!r}: the strict "
                "subobject edges form a cycle")
        distinct_tops = {e.ambient for e in maximal}
        if len(distinct_tops) > 1:
            notes.append(
                f"ambiguous maximal destabilizer above {cur!r}: "
                f"incomparable candidates {sorted(distinct_tops)}; smallest id chosen")
        chosen = maximal[0]
        steps.append(chosen.ambient)
        factor_ids.append(chosen.quotient)
        cur = chosen.ambient
        if len(steps) > len(cat.objects):
            raise PresentationError(
                f"the filtration of {a!r} revisits an object after {len(steps) - 1} "
                "steps: the strict subobject edges form a cycle")
    factor_classes = tuple(cat.class_of(f) for f in factor_ids)
    # consistency: strictly decreasing phases and semistable factors
    for f1, f2 in zip(factor_ids, factor_ids[1:]):
        if phase_compare(table[f1], table[f2]) is not Order.GT:
            raise PresentationError(
                f"greedy filtration of {a!r} has non-decreasing factor phases "
                f"({f1!r} then {f2!r}): presentation is inconsistent")
    for f in factor_ids:
        if not is_semistable(cat, table, f):
            raise PresentationError(
                f"factor {f!r} of the filtration of {a!r} is not semistable: "
                "presentation is inconsistent")
    if tuple(map(sum, zip(*factor_classes))) != cat.class_of(a):  # a != zero: one factor
        raise PresentationError("factor classes do not sum to the class of the object")
    return Filtration(tuple(steps), factor_classes, tuple(factor_ids), tuple(notes))


def jh_factors(cat: CategoryPresentation, table: ChargeTable, a: str) -> List[ClassVec]:
    """Factor classes of a maximal chain of same-phase subobjects of a
    semistable object. All maximal chains are enumerated; their factor
    multisets must agree, otherwise the presentation is inconsistent. Each
    node of the chain search counts against ``effective_budget()``; running
    out raises ``BudgetError``."""
    if not is_semistable(cat, table, a):
        raise PresentationError(f"{a!r} is not semistable; no JH factors")
    up = cat.up_edges()
    subs_a = cat.subobjects_below(a)

    def on_ray(name: str) -> bool:
        return phase_compare(table[name], table[a]) is Order.EQ

    pool = {b for b in subs_a if b == cat.zero or (b != cat.zero and on_ray(b))}

    chains: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
    budget, nodes = effective_budget(), 0

    def dfs(cur: str, path: Tuple[str, ...], facs: Tuple[str, ...]):
        nonlocal nodes
        if nodes >= budget:
            raise BudgetError(f"JH chain search exceeded budget of {budget} nodes")
        nodes += 1
        if cur == a:
            chains.append((path, facs))
            return
        for e in up[cur]:
            if (e.ambient in pool and e.ambient != cur and e.ambient in subs_a
                    and e.quotient != cat.zero and on_ray(e.quotient)):
                dfs(e.ambient, path + (e.ambient,), facs + (e.quotient,))

    try:
        dfs(cat.zero, (cat.zero,), ())
    finally:
        dfs = None  # dfs refers to itself through its closure: break the cycle
    if not chains:
        raise PresentationError(f"no same-phase chain from zero to {a!r}")
    step_sets = [frozenset(p) for p, _ in chains]
    maximal = [i for i, s in enumerate(step_sets)
               if not any(j != i and s < step_sets[j] for j in range(len(chains)))]
    multisets = {tuple(sorted(cat.class_of(f) for f in chains[i][1])) for i in maximal}
    if len(multisets) != 1:
        raise PresentationError(
            f"maximal same-phase chains of {a!r} have different factor multisets: "
            "presentation is inconsistent")
    best = min(maximal, key=lambda i: chains[i][0])
    return [cat.class_of(f) for f in chains[best][1]]


def seesaw_check(cat: CategoryPresentation, table: ChargeTable) -> List[Violation]:
    """See-saw consistency on every edge with all three objects nonzero:
    phi(B) <= phi(A) iff phi(C) >= phi(A), and symmetrically. Any violation
    indicates an inconsistent charge/presentation pair.

    The first invalid charge on such an edge, in edge order and then sub,
    ambient, quotient, raises ``phase_compare``'s ``ChargeError``. With every
    charge valid, each comparison is the sign of a cross product."""
    zero = cat.zero
    edges = [e for e in cat.edges if zero not in e]
    if not all(phase_valid(z) for name, z in table.items() if name != zero):
        bad = next((z for e in edges for z in [table[n] for n in e] if not phase_valid(z)), None)
        if bad is not None:
            raise ChargeError(f"charge {bad} outside the allowed half-plane")
    out: List[Violation] = []
    for sub, amb, quo in edges:
        (b_re, b_im, _), (a_re, a_im, _), (c_re, c_im, _) = table[sub], table[amb], table[quo]
        ba = b_re * a_im - b_im * a_re  # > 0, = 0, < 0: phi(B) <, =, > phi(A)
        ca = c_re * a_im - c_im * a_re
        if (ba > 0) != (ca < 0) or (ba < 0) != (ca > 0):
            o_ba, o_ca = (phase_compare(table[n], table[amb]) for n in (sub, quo))
            for b, c, broken in (("<=", ">=", (ba >= 0) != (ca <= 0)),
                                 (">=", "<=", (ba <= 0) != (ca >= 0))):
                if broken:
                    out.append(Violation("seesaw", amb, f"edge {sub} < {amb} / {quo}: phi(B)"
                                         f"{b}phi(A) is {o_ba} but phi(C){c}phi(A) is {o_ca}"))
    return out
