"""JSON (de)serialization. All integers and rationals travel as strings
("3/2", "-1") so nothing is ever squeezed through a float or a 64-bit int;
output key order is canonical so byte-identical reruns are possible.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Sequence

from .errors import PresentationError
from .gaussian import GaussianRational, as_fraction
from .hn import CategoryPresentation, Edge
from .lattice import MukaiVector, NSLattice
from .walls import WallKind, WallLocus


def rat(x) -> str:
    return str(as_fraction(x))


def unrat(s) -> Fraction:
    """A rational from its JSON form: a JSON int or a string such as
    ``"3/2"``. A float or a bool raises ``ValueError``, as in ``unint``."""
    try:
        return as_fraction(s)
    except TypeError:
        raise ValueError(f"expected a rational, got {s!r}") from None


def unint(s) -> int:
    """An integer from its JSON form: a JSON int, a string ``int()`` reads,
    or an integral rational such as ``"4/2"``. A non-integral value, a
    float or a bool raises ``ValueError`` instead of being truncated."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError:
            pass
    try:
        x = as_fraction(s)
    except TypeError:
        raise ValueError(f"expected an integer, got {s!r}") from None
    if x.denominator != 1:
        raise ValueError(f"expected an integer, got {s!r}")
    return x.numerator


def dumps(payload: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "),
                      indent=1) + "\n"


# -- lattices -----------------------------------------------------------------


def lattice_from_json(data: Dict[str, Any]) -> NSLattice:
    return NSLattice(
        rank=unint(data["rank"]),
        gram=tuple(tuple(unint(x) for x in row) for row in data["gram"]),
        ample=tuple(unint(x) for x in data["ample"]),
        k3=bool(data.get("k3", True)),
    )


# -- vectors and charges --------------------------------------------------------


def mukai_to_json(v: MukaiVector) -> List[Any]:
    return [str(v.r), [str(x) for x in v.c], str(v.s)]


def mukai_from_json(data: Sequence[Any]) -> MukaiVector:
    r, c, s = data
    return MukaiVector(unint(r), tuple(unint(x) for x in c), unint(s))


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
        if obj["id"] in objects:
            raise PresentationError(f"duplicate object id {obj['id']!r}")
        objects[obj["id"]] = tuple(unint(x) for x in obj["class"])
    edges = tuple(Edge(e["sub"], e["ambient"], e["quotient"])
                  for e in data.get("edges", ()))
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
