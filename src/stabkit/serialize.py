"""JSON (de)serialization. All integers and rationals travel as strings
("3/2", "-1") so nothing is ever squeezed through a float or a 64-bit int;
output key order is canonical so byte-identical reruns are possible.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import ChargeError, LatticeError, PresentationError
from .gaussian import GaussianRational, as_fraction
from .hn import CategoryPresentation
from .lattice import MukaiVector, NSLattice
from .walls import WallLocus, conic_shape


def rat(x) -> str:
    return str(as_fraction(x))


def unrat(s) -> Fraction:
    """A rational from its JSON form: a JSON int or a string such as
    ``"3/2"``. A float or a bool raises ``ValueError``, as does a zero
    denominator. The form ``-?[0-9]+(/[0-9]+)?`` is read with ``int()``;
    every other input goes through ``as_fraction``, with the same values
    and exceptions."""
    if type(s) is str and s.isascii():
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and int(den):
                return Fraction(int(num), int(den))
    try:
        return as_fraction(s)
    except TypeError:
        raise ValueError(f"expected a rational, got {s!r}") from None


def dumps(payload: Any) -> str:
    """Canonical JSON text, byte for byte ``json.dumps(payload,
    sort_keys=True, separators=(", ", ": "), indent=1)`` plus a newline.
    Only dicts with str keys, lists, tuples, strs, ints, bools and None are
    encoded; anything else raises ``TypeError``."""
    out: List[str] = []
    _encode(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _encode(x: Any, out: List[str], nl: str) -> None:
    """Append the text of ``x`` to ``out``; ``nl`` is a newline followed by
    the indent of the line ``x`` starts on. A container appends its
    separator after every item and overwrites the last one with its
    closing bracket."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + " "
        sep = ", " + inner
        out.append("{" + inner)
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"JSON object keys must be str, got {k!r}")
            v = x[k]
            out.append(_quote(k) + ": ")
            if type(v) is str:
                out.append(_quote(v))
            else:
                _encode(v, out, inner)
            out.append(sep)
        out[-1] = nl + "}"
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + " "
        sep = ", " + inner
        out.append("[" + inner)
        for v in x:
            if type(v) is str:
                out.append(_quote(v))
            else:
                _encode(v, out, inner)
            out.append(sep)
        out[-1] = nl + "]"
    elif t is int:
        out.append(repr(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    else:
        raise TypeError(f"not a canonical JSON value: {x!r}")


# -- lattices -----------------------------------------------------------------


def lattice_from_json(data: Dict[str, Any]) -> NSLattice:
    """The lattice of a lattice file: an object whose ``gram`` is a list of
    lists and whose ``ample`` is a list; another shape raises
    ``LatticeError``."""
    if type(data) is not dict:
        raise LatticeError(f"a lattice is a JSON object, got {data!r}")
    k3 = data.get("k3", True)
    if type(k3) is not bool:
        raise LatticeError(f"k3 must be true or false, got {k3!r}")
    gram, ample = data["gram"], data["ample"]
    if type(gram) is not list or any(type(row) is not list for row in gram):
        raise LatticeError(f"gram must be a list of rows, got {gram!r}")
    if type(ample) is not list:
        raise LatticeError(f"ample must be a list, got {ample!r}")
    return NSLattice(rank=data["rank"], gram=gram, ample=ample, k3=k3)


# -- vectors and charges --------------------------------------------------------


def mukai_to_json(v: MukaiVector) -> List[Any]:
    return [str(v.r), [str(x) for x in v.c], str(v.s)]


def mukai_from_json(data: Sequence[Any]) -> MukaiVector:
    r, c, s = data
    return MukaiVector(r, c, s)


def gauss_to_json(z: GaussianRational) -> Dict[str, str]:
    return {"im": rat(z.im), "re": rat(z.re)}


def gauss_from_json(data) -> GaussianRational:
    if isinstance(data, dict):
        return GaussianRational(unrat(data["re"]), unrat(data["im"]))
    re, im = data
    return GaussianRational(unrat(re), unrat(im))


def charge_row_from_json(data) -> List[GaussianRational]:
    """A charge row: a list whose entries are ``[re, im]`` lists or
    ``{"re", "im"}`` objects; another shape raises ``ChargeError``."""
    if type(data) is not list or any(type(item) not in (list, dict) for item in data):
        raise ChargeError(f"a charge row is a list of [re, im] pairs, got {data!r}")
    return [gauss_from_json(item) for item in data]


# -- categories -----------------------------------------------------------------


def category_from_json(data: Dict[str, Any]) -> CategoryPresentation:
    """The presentation of a category file: an object whose ``objects`` and
    ``edges`` are lists of objects, and each object's ``class`` a list;
    another shape raises ``PresentationError``."""
    if type(data) is not dict:
        raise PresentationError(f"a category is a JSON object, got {data!r}")
    items, edge_items = data["objects"], data.get("edges", [])
    for key, value in (("objects", items), ("edges", edge_items)):
        if type(value) is not list or any(type(x) is not dict for x in value):
            raise PresentationError(f"{key} must be a list of JSON objects, got {value!r}")
    objects = {}
    for obj in items:
        if isinstance(obj["id"], (list, dict)):
            raise PresentationError(f"object id {obj['id']!r} is not a string or number")
        name = str(obj["id"])  # the presentation keys objects by str(id)
        if name in objects:
            raise PresentationError(f"duplicate object id {name!r}")
        if type(obj["class"]) is not list:
            raise PresentationError(f"the class of {name!r} must be a list, "
                                    f"got {obj['class']!r}")
        objects[name] = obj["class"]
    edges = tuple(map(itemgetter("sub", "ambient", "quotient"), edge_items))
    return CategoryPresentation(objects, edges, data["zero"])


# -- walls ------------------------------------------------------------------------


def wall_to_json(wall: WallLocus, wall_id: str) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "id": wall_id,
        "v": mukai_to_json(wall.v),
        "w": mukai_to_json(wall.w),
        "conic": [rat(x) for x in wall.conic],
        "kind": wall.kind.value,
    }
    if wall.center is not None:
        out["center"] = rat(wall.center)
    if wall.radius_sq is not None:
        out["radius_sq"] = rat(wall.radius_sq)
    return out


def walls_from_json(items: Sequence[Dict[str, Any]]) -> List[WallLocus]:
    """The walls of a walls file, in order. ``items`` must be a list of
    objects, and each wall must carry classes ``v`` and ``w`` of the form
    [r, [c_1, ...], s], a conic of four entries whose third is 0, and the
    kind, center and radius_sq (or none) that ``walls.conic_shape`` gives
    the conic's key, which the locus keeps; anything else raises
    ``ValueError`` naming the wall.

    Each distinct text is parsed once: a rational given as a JSON string,
    and a class ``v`` or ``w`` whose coordinates are all JSON strings, are
    looked up by that text. Anything else is parsed on its own, since a
    lookup by value would let ``1.0`` or ``true`` (equal to ``1``) past
    ``as_int``."""
    if type(items) is not list:
        raise ValueError(f"walls must be a list of walls, got {items!r}")
    memo: Dict[Any, Any] = {}
    out = []
    for data in items:
        if type(data) is not dict:
            raise ValueError(f"a wall is a JSON object, got {data!r}")
        try:
            v, w = data["v"], data["w"]
            for cls in (v, w):
                if type(cls) is not list or len(cls) != 3 or type(cls[1]) is not list:
                    raise ValueError(f"a class is [r, [c_1, ...], s], got {cls!r}")
            conic = data["conic"]
            if type(conic) is not list or len(conic) != 4:
                raise ValueError(f"the conic needs 4 entries, got {conic!r}")
            conic = a, b, c, d = tuple([_unrat_cached(x, memo) for x in conic])
            if c:
                raise ValueError("the third conic entry must be 0")
            center = _unrat_cached(data["center"], memo) if "center" in data else None
            radius_sq = _unrat_cached(data["radius_sq"], memo) if "radius_sq" in data else None
            # the key of the conic: primitive_vector(conic), inlined
            den = lcm(a.denominator, b.denominator, d.denominator)
            a, b, d = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator),
                       d.numerator * (den // d.denominator))
            g = gcd(a, b, d) or 1
            if (a or b or d) < 0:
                g = -g
            key = (a // g, b // g, 0, d // g)
            kind, center_q, radius_q = conic_shape(key)
            if data.get("kind") != kind.value or not (_fits(center, center_q)
                                                  and _fits(radius_sq, radius_q)):
                raise ValueError(f"its conic gives kind {kind.value}, "
                                 f"{_field_text('center', center_q)} and "
                                 f"{_field_text('radius_sq', radius_q)}")
            out.append(WallLocus(_mukai_cached(v, memo), _mukai_cached(w, memo), conic, kind,
                                 center, radius_sq).keep_key(key))
        except KeyError as exc:
            raise ValueError(f"wall {data.get('id')!r}: no {exc.args[0]!r} field") from None
        except ValueError as exc:
            raise ValueError(f"wall {data.get('id')!r}: {exc}") from None
    return out


def _fits(x: Optional[Fraction], pair: Optional[Tuple[int, int]]) -> bool:
    """Whether x is p / q for pair = (p, q), q > 0, or both are None."""
    if pair is None or x is None:
        return pair is x
    return x.numerator * pair[1] == pair[0] * x.denominator


def _field_text(name: str, pair: Optional[Tuple[int, int]]) -> str:
    return f"no {name}" if pair is None else f"{name} {rat(Fraction(*pair))}"


def _unrat_cached(x, memo: Dict[Any, Any]) -> Fraction:
    if type(x) is not str:
        return unrat(x)
    q = memo.get(x)
    if q is None:
        q = memo[x] = unrat(x)
    return q


def _mukai_cached(data: Sequence[Any], memo: Dict[Any, Any]) -> MukaiVector:
    r, c, s = data
    if type(r) is not str or type(s) is not str or type(c) is not list \
            or any(type(x) is not str for x in c):
        return mukai_from_json(data)
    text = (r, s, *c)
    vec = memo.get(text)
    if vec is None:
        vec = memo[text] = mukai_from_json(data)
    return vec
