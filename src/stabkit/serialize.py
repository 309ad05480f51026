"""JSON (de)serialization. All integers and rationals travel as strings
("3/2", "-1") so nothing is ever squeezed through a float or a 64-bit int;
output key order is canonical so byte-identical reruns are possible.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Sequence

from .gaussian import GaussianRational, as_fraction
from .hn import CategoryPresentation, Edge
from .lattice import ChernCharacter, MukaiVector, NSLattice
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


def lattice_to_json(lat: NSLattice) -> Dict[str, Any]:
    return {
        "rank": lat.rank,
        "gram": [[str(x) for x in row] for row in lat.gram],
        "ample": [str(x) for x in lat.ample],
        "k3": lat.k3,
    }


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


def chern_to_json(ch: ChernCharacter) -> List[Any]:
    return [rat(ch.ch0), [rat(x) for x in ch.ch1], rat(ch.ch2)]


def chern_from_json(data: Sequence[Any]) -> ChernCharacter:
    c0, c1, c2 = data
    return ChernCharacter(unrat(c0), tuple(unrat(x) for x in c1), unrat(c2))


def charge_params_to_json(params, inline_lattice: bool = True) -> Dict[str, Any]:
    """Schema: { "beta": ["0"], "omega": ["2"], "lattice": {...} } with
    coordinates in the NS basis; the lattice may be inlined or left to an
    external reference."""
    out: Dict[str, Any] = {
        "beta": [rat(x) for x in params.beta],
        "omega": [rat(x) for x in params.omega],
    }
    if inline_lattice:
        out["lattice"] = lattice_to_json(params.lattice)
    return out


def charge_params_from_json(data: Dict[str, Any], lattice: NSLattice = None):
    from .charges import ChargeParams
    lat = lattice if lattice is not None else lattice_from_json(data["lattice"])
    return ChargeParams(lat,
                        tuple(unrat(x) for x in data["beta"]),
                        tuple(unrat(x) for x in data["omega"]))


def gauss_to_json(z: GaussianRational) -> Dict[str, str]:
    return {"im": rat(z.im), "re": rat(z.re)}


def gauss_from_json(data) -> GaussianRational:
    if isinstance(data, dict):
        return GaussianRational(unrat(data["re"]), unrat(data["im"]))
    re, im = data
    return GaussianRational(unrat(re), unrat(im))


def charge_row_to_json(row: Sequence[GaussianRational]) -> List[List[str]]:
    return [[rat(z.re), rat(z.im)] for z in row]


def charge_row_from_json(data) -> List[GaussianRational]:
    return [gauss_from_json(item) for item in data]


# -- categories -----------------------------------------------------------------


def category_to_json(cat: CategoryPresentation) -> Dict[str, Any]:
    return {
        "objects": [{"class": [str(x) for x in cls], "id": name}
                    for name, cls in sorted(cat.objects.items())],
        "edges": [{"ambient": e.ambient, "quotient": e.quotient, "sub": e.sub}
                  for e in cat.edges],
        "zero": cat.zero,
    }


def category_from_json(data: Dict[str, Any]) -> CategoryPresentation:
    objects = {}
    for obj in data["objects"]:
        if obj["id"] in objects:
            from .errors import PresentationError
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
