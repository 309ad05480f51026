"""Command-line front end.

Every subcommand reads JSON/flag inputs, delegates to exactly one library
operation, and writes canonical JSON (rationals as strings) with an embedded
run manifest. Exit codes: 0 success, 1 usage or input/validation error, 2
computation error (budget exceeded, degenerate configuration).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from . import serialize as ser
from .charges import (ChargeParams, SlopeProfile, charge_row,
                      gieseker_compare, heart_position, k3_charge,
                      phase_compare, surface_charge)
from .errors import BudgetError, ChargeError, DegenerateError, LatticeError, \
    PresentationError, StabkitError, effective_budget
from .gaussian import GaussianRational, as_fraction
from .hn import (charge_table, hn_filtration, seesaw_check, validate,
                 validate_or_raise)
from .lattice import ChernCharacter, MukaiVector, mukai_pairing
from .manifest import build_manifest
from .nef import bb_square, lagrangian_candidates, moduli_dimension, \
    omega_class, wall_report
from .support import (build_q_z, charge_kernel, discreteness_classes,
                      equivalent_support_roundtrip, min_root_norm)
from .svgplot import render_walls_svg
from .walls import (Region, SliceParams, chambers_along_path,
                    nesting_check, sampling_oracle, scan_walls)

INFINITY_TOKENS = {"inf", "+inf", "infinity"}


def _parse_vec_int(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_vec_rat(text: str) -> List[Fraction]:
    return [as_fraction(x.strip()) for x in text.split(",") if x.strip() != ""]


def _parse_range(text: str) -> Tuple[Fraction, Fraction]:
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError(f"expected lo:hi range, got {text!r}")
    return as_fraction(lo), as_fraction(hi)


def _parse_gauss(text: str) -> GaussianRational:
    re, im = _parse_vec_rat(text)
    return GaussianRational(re, im)


def _load_json(args, name: str) -> Any:
    """The JSON document in the file ``args.<name>``, parsed from one read of
    its bytes, whose SHA-256 digest goes to ``args.inputs[name]`` for the
    manifest. The bytes are decoded as UTF-8 before parsing, so a BOM or a
    byte that is not UTF-8 is an input error."""
    with open(getattr(args, name), "rb") as f:
        data = f.read()
    args.inputs[name] = hashlib.sha256(data).hexdigest()
    return json.loads(data.decode("utf-8"))


def _emit(args, payload: Dict[str, Any], summary: str,
          bounds: Optional[Dict[str, Any]] = None) -> None:
    """Write the payload with its manifest, whose input hashes are those
    ``_load_json`` recorded in ``args.inputs``."""
    manifest = build_manifest(args.argv, args.inputs, bounds or {},
                              seed=getattr(args, "seed", None))
    doc = {"manifest": manifest.to_json(), "result": payload}
    text = ser.dumps(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _mukai(text: str) -> MukaiVector:
    return MukaiVector.from_coords(_parse_vec_int(text))


def _lattice(args):
    return ser.lattice_from_json(_load_json(args, "lattice"))


def _params(args, lat) -> ChargeParams:
    return ChargeParams(lat, tuple(_parse_vec_rat(args.beta)),
                        tuple(_parse_vec_rat(args.omega)))


# -- subcommand handlers ---------------------------------------------------------


def cmd_pairing(args) -> None:
    lat = _lattice(args)
    v, w = _mukai(args.v), _mukai(args.w)
    val = mukai_pairing(v, w, lat)
    _emit(args, {"value": str(val)}, f"({args.v}, {args.w}) = {val}")


def cmd_charge(args) -> None:
    lat = _lattice(args)
    params = _params(args, lat)
    if lat.k3:
        z = k3_charge(_mukai(args.v), params)
    else:
        c0, *c1, c2 = _parse_vec_rat(args.v)
        z = surface_charge(ChernCharacter(c0, tuple(c1), c2), params)
    _emit(args, ser.gauss_to_json(z), f"Z = {z}")


def cmd_phase_compare(args) -> None:
    order = phase_compare(_parse_gauss(args.z1), _parse_gauss(args.z2))
    _emit(args, {"order": order.name}, f"phase order: {order.name}")


def cmd_heart(args) -> None:
    slopes = tuple("inf" if s.strip().lower() in INFINITY_TOKENS else as_fraction(s)
                   for s in args.slopes.split(","))
    pos = heart_position(SlopeProfile(slopes))
    _emit(args, {"position": pos.value}, f"heart position: {pos.value}")


def cmd_hn(args) -> None:
    cat = ser.category_from_json(_load_json(args, "category"))
    table = charge_table(cat, ser.charge_row_from_json(_load_json(args, "charge")))
    validate_or_raise(cat, table)
    filt = hn_filtration(cat, table, args.object)
    seesaw = seesaw_check(cat, table)
    payload = {
        "steps": list(filt.steps),
        "factor_ids": list(filt.factor_ids),
        "factor_classes": [[str(x) for x in cls] for cls in filt.factor_classes],
        "notes": list(filt.notes),
        "seesaw_violations": [vi.message for vi in seesaw],
    }
    _emit(args, payload,
          f"HN filtration of {args.object}: {' < '.join(filt.steps)}")


def cmd_validate_category(args) -> None:
    cat = ser.category_from_json(_load_json(args, "category"))
    table = charge_table(cat, ser.charge_row_from_json(_load_json(args, "charge")))
    violations = validate(cat, table)
    payload = {"violations": [
        {"code": v.code, "subject": v.subject, "message": v.message}
        for v in violations]}
    _emit(args, payload, f"{len(violations)} violation(s)")


def cmd_support(args) -> None:
    # an input error, not a search that ran out: the library's walks take
    # any budget, and one of 0 visits nothing
    budget = effective_budget(args.budget)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    lat = _lattice(args)
    lat.require_even()
    classes = None
    if args.classes:
        classes = [tuple(_parse_vec_int(c)) for c in args.classes]
        for text, cls in zip(args.classes, classes):
            if len(cls) != lat.mukai_rank:
                raise ValueError(f"class {text} has {len(cls)} entries; a class on this "
                                 f"lattice has rho + 2 = {lat.mukai_rank}")
    params = _params(args, lat)
    gram = lat.mukai_gram()
    z_row = charge_row(params)
    kernel = charge_kernel(z_row, gram)
    # the Gram goes by keyword: bench/spans.py reads it as args[3] or kwargs
    res = min_root_norm(kernel.norm, ambient_gram=gram, budget=budget,
                        start_bound=as_fraction(args.start_bound))
    if res.found and res.c_squared == 0:
        raise ValueError(f"(beta, omega) is not a stability condition: the root "
                         f"delta = {res.witness.coords()} has Z(delta) = 0")
    payload: Dict[str, Any] = {
        "kernel_basis": [[str(x) for x in b] for b in kernel.basis],
        "norm_form": [[str(x) for x in row] for row in kernel.norm_form],
        "root_search": {
            "c_squared": str(res.c_squared) if res.found else None,
            "witness": ser.mukai_to_json(res.witness) if res.found else None,
            "bound_reached": str(res.bound_reached),
            "points_visited": res.points_visited,
        },
    }
    summary = "no roots in searched region"
    if res.found:
        q_z = build_q_z(kernel.norm, res.c_squared, gram)
        if classes is None:
            classes = [v.coords() for v in
                       (res.witness, MukaiVector.from_coords([0] * (lat.mukai_rank - 1) + [1]))]
        roundtrip = equivalent_support_roundtrip(q_z, z_row, classes)
        disc = discreteness_classes(q_z, kernel.norm, res.c_squared, gram,
                                    radius_sq=res.c_squared * 4, budget=budget)
        payload["q_z"] = [[str(x) for x in row] for row in q_z]
        payload["roundtrip"] = {
            "k": str(roundtrip.k_const),
            "c_squared": str(roundtrip.c_squared),
            "all_pass": roundtrip.all_pass,
            "classes_checked": len(roundtrip.verdicts),
            "verdicts": [
                {"class": [str(x) for x in v.cls],
                 "q_value": str(v.q_value),
                 "skipped": v.skipped,
                 "passed": v.passed}
                for v in roundtrip.verdicts],
        }
        payload["discreteness_sample"] = {
            "radius_sq": str(res.c_squared * 4),
            "classes": len(disc),
        }
        summary = (f"C^2 = {res.c_squared}, witness {res.witness.coords()}, "
                   f"roundtrip {'ok' if roundtrip.all_pass else 'FAILED'}")
    _emit(args, payload, summary, bounds={"budget": budget})


def _slice_and_region(args, lat) -> Tuple[SliceParams, Region]:
    slice_ = SliceParams(lat, tuple(_parse_vec_rat(args.beta0)))
    b_lo, b_hi = _parse_range(args.b)
    t_lo, t_hi = _parse_range(args.t)
    return slice_, Region(b_lo, b_hi, t_lo, t_hi)


def _wall_payload(walls, region: Region) -> Dict[str, Any]:
    return {
        "region": {"b_min": str(region.b_min), "b_max": str(region.b_max),
                   "t_min": str(region.t_min), "t_max": str(region.t_max)},
        "walls": [ser.wall_to_json(w, f"W{i}") for i, w in enumerate(walls)],
    }


def cmd_walls(args) -> None:
    lat = _lattice(args)
    slice_, region = _slice_and_region(args, lat)
    v = _mukai(args.v)
    walls = scan_walls(v, slice_, region, args.bound)
    nest = nesting_check(slice_, walls) if lat.rank == 1 else None
    payload = _wall_payload(walls, region)
    payload["v"] = ser.mukai_to_json(v)
    payload["beta0"] = [str(x) for x in slice_.beta0]
    payload["note"] = ("potential walls (charge alignment); actual-wall "
                       "certification is object-level and out of scope")
    if nest is not None:
        payload["nesting"] = {
            "pairs_checked": nest.pairs_checked,
            "violations": len(nest.violations),
            "touching": len(nest.touching),
        }
    summary = f"{len(walls)} potential wall(s)"
    if args.grid:
        oracle = sampling_oracle(v, slice_, region, args.grid, args.bound)
        detected = {ow.locus.key() for ow in oracle if ow.detected}
        enumerated = {w.key() for w in walls}
        payload["oracle"] = {
            "grid": args.grid,
            "detected": len(detected),
            "agrees": detected == enumerated,
        }
        summary += f"; oracle {'agrees' if detected == enumerated else 'DISAGREES'}"
    _emit(args, payload, summary,
          bounds={"bound": args.bound, "grid": args.grid})


def _walls_result(args) -> Dict[str, Any]:
    """The ``result`` object of the walls file ``args.walls``."""
    doc = _load_json(args, "walls")
    if type(doc) is not dict or type(doc.get("result")) is not dict:
        raise ValueError("a walls file is a JSON object whose result is an object")
    return doc["result"]


def cmd_chambers(args) -> None:
    res = _walls_result(args)
    # the walls result in canonical form, not the file: its manifest carries
    # the walls run's own timestamp
    try:
        canonical = ser.dumps(res)
    except TypeError as exc:  # a JSON float: no stabkit output holds one
        raise ValueError(f"walls result is not stabkit JSON: {exc}") from None
    args.inputs["walls"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    walls = ser.walls_from_json(res["walls"])
    t_lo, t_hi = _parse_range(args.t)
    b_star = as_fraction(args.b)
    path = chambers_along_path(b_star, t_lo, t_hi, walls)
    payload = {
        "b": str(b_star),
        "t_range": [str(t_lo), str(t_hi)],
        "crossings": [
            {"t_squared": str(c.t_squared), "t": c.t_decimal(30),
             "wall": ser.wall_to_json(c.wall, f"X{i}")}
            for i, c in enumerate(path.crossings)],
        "coincident_walls": [ser.wall_to_json(w, f"C{i}")
                             for i, w in enumerate(path.coincident_walls)],
        "chambers": path.chamber_count,
        "top_chamber": "large-volume limit: the chamber above the last "
                       "crossing is the Gieseker chamber",
    }
    _emit(args, payload,
          f"{len(path.crossings)} crossing(s), {path.chamber_count} chamber(s)")


def cmd_plot(args) -> None:
    if not args.out:
        raise ValueError("plot needs --out for the SVG file")
    res = _walls_result(args)
    walls = ser.walls_from_json(res["walls"])
    if type(res["region"]) is not dict:
        raise ValueError(f"region must be a JSON object, got {res['region']!r}")
    region = Region(*(ser.unrat(res["region"][k])
                      for k in ("b_min", "b_max", "t_min", "t_max")))
    manifest = build_manifest(args.argv, {}, {})
    svg = render_walls_svg(walls, region, timestamp=manifest.timestamp,
                           title="potential walls")
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    print(f"wrote {args.out} ({len(walls)} wall(s))", file=sys.stderr)


def cmd_nef(args) -> None:
    lat = _lattice(args)
    lat.require_even()
    params = _params(args, lat)
    params.require_heart()
    v = _mukai(args.v)
    z_row = charge_row(params)
    om = omega_class(v, z_row, lat)
    sq = bb_square(om, lat)
    dim = moduli_dimension(v, lat)
    payload = {
        "omega_class": [str(x) for x in om.coords],
        "bb_square": str(sq),
        "moduli_dimension": dim.dimension,
        "flags": {"rigid": dim.rigid, "isotropic": dim.isotropic},
    }
    _emit(args, payload,
          f"q(l_sigma) = {sq}, dim M = {dim.dimension}")


def cmd_classify_wall(args) -> None:
    lat = _lattice(args)
    lat.require_even()
    slice_ = SliceParams(lat, tuple(_parse_vec_rat(args.beta0)))
    v, w = _mukai(args.v), _mukai(args.w)
    point = None
    if args.point:
        b, t = _parse_vec_rat(args.point)
        point = (b, t)
    rep = wall_report(v, w, slice_, point=point, pairing_bound=args.bound,
                      max_m=args.max_m, box=args.box)
    payload = {
        "wall": ser.wall_to_json(rep.wall, "W"),
        "hw_basis": [ser.mukai_to_json(b) for b in rep.hw.basis],
        "hw_gram": [[str(x) for x in row] for row in rep.hw.gram2],
        "v_in_hw": list(rep.v_in_hw),
        "roots": [ser.mukai_to_json(r) for r in rep.roots],
        "isotropic": [ser.mukai_to_json(r) for r in rep.isotropic] or "none",
        "decompositions": [
            {"parts": [list(p) for p in d.parts], "m": d.m, "slack": d.slack}
            for d in rep.decompositions],
        "hints": {
            "has_root": rep.has_root,
            "has_isotropic": rep.has_isotropic,
            "admits_totally_semistable_candidate":
                rep.admits_totally_semistable_candidate,
            "provenance": "advisory numerical hints, not a classification",
        },
    }
    if rep.point_residual is not None:
        payload["point_residual"] = str(rep.point_residual)
    _emit(args, payload,
          f"H_W gram {rep.hw.gram2}; root: {rep.has_root}, "
          f"isotropic: {rep.has_isotropic}",
          bounds={"max_m": args.max_m, "box": args.box})


def cmd_lagrangian(args) -> None:
    lat = _lattice(args)
    lat.require_even()
    v = _mukai(args.v)
    cands = lagrangian_candidates(v, lat, args.bound)
    payload = {"candidates": [ser.mukai_to_json(u) for u in cands]}
    _emit(args, payload, f"{len(cands)} Lagrangian candidate ray(s)",
          bounds={"bound": args.bound})


def cmd_gieseker(args) -> None:
    pa = _parse_vec_rat(args.p)
    pb = _parse_vec_rat(args.q)
    order = gieseker_compare(pa, pb)
    _emit(args, {"order": order.name}, f"gieseker order: {order.name}")


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use. It stores
    each handler's name, which :func:`main` looks up per call, so a handler
    replaced on the module after the first call is the one that runs."""
    ap = argparse.ArgumentParser(
        prog="stabkit",
        description="Exact numerical toolkit for stability conditions on "
                    "surfaces: charges, filtrations, support forms, walls "
                    "and nef classes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn.__name__)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=None)
        return p

    p = add("pairing", cmd_pairing, "extended-lattice pairing of two classes")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)

    p = add("charge", cmd_charge, "central charge of a class at (beta, omega)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True,
                   help="Mukai coords r,c..,s (K3) or ch0,c1..,ch2 (surface)")
    p.add_argument("--beta", required=True)
    p.add_argument("--omega", required=True)

    p = add("phase-compare", cmd_phase_compare, "exact phase order of two charges")
    p.add_argument("--z1", required=True, help="re,im")
    p.add_argument("--z2", required=True, help="re,im")

    p = add("heart", cmd_heart, "tilted-heart position from a slope profile")
    p.add_argument("--slopes", required=True, help="decreasing list, e.g. inf,3,-1")

    p = add("hn", cmd_hn, "Harder-Narasimhan filtration in a finite presentation")
    p.add_argument("--category", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--object", required=True)

    p = add("validate-category", cmd_validate_category,
            "list presentation violations")
    p.add_argument("--category", required=True)
    p.add_argument("--charge", required=True)

    p = add("support", cmd_support,
            "kernel, norm form, minimal root norm and support form of a charge")
    p.add_argument("--lattice", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--start-bound", default="8",
                   help="initial root-search bound (doubles until a root is found)")
    p.add_argument("--classes", nargs="*", action="extend", default=None,
                   help="classes for the roundtrip check, each r,c..,s")

    p = add("walls", cmd_walls, "potential walls for v on a (b, t) slice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--beta0", required=True)
    p.add_argument("--b", required=True, help="range lo:hi")
    p.add_argument("--t", required=True, help="range lo:hi, t>0")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--grid", type=int, default=0,
                   help="also run the sign-flip sampling oracle on an NxN grid")

    p = add("chambers", cmd_chambers, "wall crossings along a vertical path")
    p.add_argument("--walls", required=True, help="walls JSON from the walls command")
    p.add_argument("--b", required=True)
    p.add_argument("--t", required=True, help="range lo:hi")

    p = add("plot", cmd_plot, "render a walls JSON to SVG (--out required)")
    p.add_argument("--walls", required=True)

    p = add("nef", cmd_nef, "nef divisor class data for (v, beta, omega)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--omega", required=True)

    p = add("classify-wall", cmd_classify_wall, "rank-2 wall report for (v, w)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--beta0", required=True)
    p.add_argument("--point", default=None, help="b,t on the wall")
    p.add_argument("--bound", type=int, default=None,
                   help="root pairing bound |(delta, v)|; default max(v^2, 2)")
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--box", type=int, default=10)

    p = add("lagrangian", cmd_lagrangian, "square-zero classes in v-perp")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--bound", type=int, default=8)

    p = add("gieseker", cmd_gieseker,
            "eventual comparison of reduced Hilbert polynomials")
    p.add_argument("--p", required=True, help="coefficients, constant first")
    p.add_argument("--q", required=True, help="coefficients, constant first")

    return ap


def _normalize_argv(argv: List[str]) -> List[str]:
    """Glue each value onto its flag, so values that start with a dash (a
    range ``--b -3:0``, an object id ``-A``) parse: every ``--flag`` but
    ``--classes`` and ``--help`` takes the next token as its value, unless
    that token is a ``--flag`` itself. Each value after ``--classes``, up to
    the next flag (a class such as ``-1,0,1`` is not one), is glued on as a
    ``--classes=`` of its own."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--classes":
            out.append(tok)
            i += 1
            while i < len(argv) and _is_value(argv[i]):
                out.append(f"--classes={argv[i]}")
                i += 1
        elif (tok.startswith("--") and "=" not in tok and tok not in ("--", "--help")
              and i + 1 < len(argv) and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _is_value(tok: str) -> bool:
    """True unless the token is a flag: a dash not followed by a digit."""
    return not tok.startswith("-") or tok[1:2].isdigit()


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        # argparse has printed its message: a usage error is an input error
        # (exit 1), and --help exits 0
        return 1 if exc.code else 0
    args.argv = list(argv)  # the manifest records the command as given
    args.inputs = {}
    try:
        globals()[args.fn](args)
    except (LatticeError, ChargeError, PresentationError, ValueError,
            FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, DegenerateError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except StabkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
