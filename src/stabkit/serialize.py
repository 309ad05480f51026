"""JSON (de)serialization. All integers and rationals travel as strings
("3/2", "-1") so nothing is ever squeezed through a float or a 64-bit int;
output key order is canonical so byte-identical reruns are possible.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Dict, List, Sequence

from .errors import LatticeError, PresentationError
from .gaussian import GaussianRational, as_fraction
from .hn import CategoryPresentation
from .lattice import MukaiVector, NSLattice
from .walls import WallKind, WallLocus


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
    k3 = data.get("k3", True)
    if type(k3) is not bool:
        raise LatticeError(f"k3 must be true or false, got {k3!r}")
    return NSLattice(rank=data["rank"], gram=data["gram"], ample=data["ample"], k3=k3)


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
    return [gauss_from_json(item) for item in data]


# -- categories -----------------------------------------------------------------


def category_from_json(data: Dict[str, Any]) -> CategoryPresentation:
    objects = {}
    for obj in data["objects"]:
        if isinstance(obj["id"], (list, dict)):
            raise PresentationError(f"object id {obj['id']!r} is not a string or number")
        name = str(obj["id"])  # the presentation keys objects by str(id)
        if name in objects:
            raise PresentationError(f"duplicate object id {name!r}")
        objects[name] = obj["class"]
    edges = tuple(map(itemgetter("sub", "ambient", "quotient"), data.get("edges", ())))
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


def wall_from_json(data: Dict[str, Any]) -> WallLocus:
    return WallLocus(
        v=mukai_from_json(data["v"]),
        w=mukai_from_json(data["w"]),
        conic=tuple(unrat(x) for x in data["conic"]),
        kind=WallKind(data["kind"]),
        center=unrat(data["center"]) if "center" in data else None,
        radius_sq=unrat(data["radius_sq"]) if "radius_sq" in data else None,
    )
