"""Checks of every job's output against computations made apart from the
program (``refmath.py``) or against properties the method must have. No
stored copies of earlier outputs are used. The manifest's ``command`` field
is not relied on.

``check(workload)`` reads the outputs of the last pass from the current
directory and returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from math import gcd
from typing import Dict, List

import mpmath

import refmath as rm
from jobs import cube_name


def check(workload) -> List[str]:
    docs = {}
    for job in workload.jobs:
        if job.expect_fail or not os.path.exists(job.out):
            continue
        with open(job.out, encoding="utf-8") as f:
            docs[job.name] = json.load(f)["result"]
    problems: List[str] = []
    ctx: Dict = {}
    for job in workload.jobs:
        if job.expect_fail:
            continue
        doc = docs.get(job.name)
        if doc is None:
            problems.append(f"{job.name}: no output")
            continue
        try:
            CHECKS[job.kind](job, doc, docs, ctx, problems)
        except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
            problems.append(f"{job.name}: malformed output ({type(exc).__name__}: {exc})")
    for fn in FINAL.get(workload.name, ()):
        fn(ctx, problems)
    return problems


def mukai(data) -> tuple:
    r, c, s = data
    return (int(r), *(int(x) for x in c), int(s))


def conic_ints(conic) -> tuple:
    fr = [Fraction(x) for x in conic]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    return tuple(int(x * den) for x in fr)


# -- scan -------------------------------------------------------------------------------


def check_walls(job, doc, docs, ctx, problems):
    m = job.meta
    name = job.name
    v = tuple(m["v"])
    mg = rm.mukai_gram(m["gram"])
    vv = rm.pair(mg, v, v)
    sl = rm.Slice(m["gram"], m["ample"], m["beta0"])
    if mukai(doc["v"]) != v:
        problems.append(f"{name}: v echoed as {doc['v']}")
    got = {}
    for wall in doc["walls"]:
        w = mukai(wall["w"])
        if not rm.destabilizing_filter(mg, v, vv, w):
            problems.append(f"{name}: wall class {w} fails w^2, (v-w)^2 >= -2 or hyperbolicity")
        conic = sl.conic(v, w)
        key = rm.conic_key(conic)
        if rm.conic_key(conic_ints(wall["conic"])) != key:
            problems.append(f"{name}: conic of {w} is {wall['conic']}, expected multiple of {conic}")
        kind, center, rad = rm.conic_shape(conic)
        if wall["kind"] != kind or Fraction(wall.get("center", 0)) != (center or 0) \
                or Fraction(wall.get("radius_sq", 0)) != (rad or 0):
            problems.append(f"{name}: shape of {w} reported as {wall['kind']}")
        got[key] = w
    want = rm.reference_walls(m["gram"], m["ample"], m["beta0"], v, m["bound"], m["region"])
    if set(got) != set(want):
        problems.append(f"{name}: wall set differs from the plain-integer re-enumeration: "
                        f"{len(set(got) - set(want))} extra, {len(set(want) - set(got))} missing")
    if m["grid"] and not doc["oracle"]["agrees"]:
        problems.append(f"{name}: sampling oracle disagrees at grid {m['grid']}")
    if len(m["gram"]) == 1 and doc["nesting"]["violations"] != 0:
        problems.append(f"{name}: {doc['nesting']['violations']} nesting violations on rho = 1")


def check_chambers(job, doc, docs, ctx, problems):
    name = job.name
    b = job.meta["b"]
    t_lo, t_hi = job.meta["t"]
    walls = docs[job.meta["walls_job"]]["walls"]
    expected = []
    for wall in walls:
        if wall["kind"] != "SEMICIRCLE":
            continue
        rad = Fraction(wall["radius_sq"]) - (b - Fraction(wall["center"])) ** 2
        if rad > 0 and t_lo * t_lo <= rad <= t_hi * t_hi:
            expected.append(rad)
    got = [Fraction(c["t_squared"]) for c in doc["crossings"]]
    if doc["chambers"] != len(got) + 1:
        problems.append(f"{name}: {doc['chambers']} chambers for {len(got)} crossings")
    if got != sorted(got):
        problems.append(f"{name}: crossings not sorted by t^2")
    if sorted(got) != sorted(expected):
        problems.append(f"{name}: crossings {len(got)} differ from the {len(expected)} "
                        "recomputed from the walls file")
    for c in doc["crossings"]:
        t2 = Fraction(c["t_squared"])
        d = Fraction(c["t"])
        ulp = Fraction(1, 10 ** 30)
        if not (d * d <= t2 < (d + ulp) ** 2):
            problems.append(f"{name}: decimal {c['t']} is not sqrt({t2}) floored")
            break


# -- classify ----------------------------------------------------------------------------


def brute_decompositions(g, v_in, max_m, box):
    """Multisets of box points a (a != 0, a^2 >= -2) summing to v_in with
    v^2 >= 2(m-1) + sum a_i^2; the last part is looked up, not enumerated."""
    def sq(p):
        return g[0][0] * p[0] * p[0] + 2 * g[0][1] * p[0] * p[1] + g[1][1] * p[1] * p[1]

    pool = sorted((x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
                  if (x, y) != (0, 0) and sq((x, y)) >= -2)
    rank = {p: i for i, p in enumerate(pool)}
    vsq = sq(v_in)
    out = []
    for m in range(1, max_m + 1):
        budget = vsq - 2 * (m - 1)

        def rec(start, chosen, sx, sy, ssq):
            left = m - len(chosen)
            if left == 1:
                last = (v_in[0] - sx, v_in[1] - sy)
                idx = rank.get(last)
                if idx is not None and idx >= start and ssq + sq(last) <= budget:
                    parts = chosen + [last]
                    out.append((tuple(parts), budget - ssq - sq(last)))
                return
            for idx in range(start, len(pool)):
                p = pool[idx]
                # every later part has square >= -2
                if ssq + sq(p) - 2 * (left - 1) > budget:
                    continue
                rec(idx, chosen + [p], sx + p[0], sy + p[1], ssq + sq(p))

        rec(0, [], 0, 0, 0)
    out.sort(key=lambda d: (len(d[0]), d[0]))
    return out


def _in_span(basis, x):
    """Integer coordinates of x in the rank-2 basis, or None."""
    b1, b2 = basis
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det:
                p = Fraction(x[i] * b2[j] - x[j] * b2[i], det)
                q = Fraction(b1[i] * x[j] - b1[j] * x[i], det)
                if p.denominator != 1 or q.denominator != 1:
                    return None
                if any(int(p) * a + int(q) * b != c for a, b, c in zip(b1, b2, x)):
                    return None
                return (int(p), int(q))
    return None


def check_classify(job, doc, docs, ctx, problems):
    m = job.meta
    name = job.name
    v, w = tuple(m["v"]), tuple(m["w"])
    mg = rm.mukai_gram(m["gram"])
    vv = rm.pair(mg, v, v)
    basis = [mukai(b) for b in doc["hw_basis"]]
    gram2 = [[int(x) for x in row] for row in doc["hw_gram"]]
    if gram2 != [[rm.pair(mg, a, b) for b in basis] for a in basis]:
        problems.append(f"{name}: hw_gram is not the pairing of hw_basis")
    if rm.minors_gcd(*basis) != 1:
        problems.append(f"{name}: hw_basis does not span a saturated lattice")
    v_in = tuple(doc["v_in_hw"])
    if _in_span(basis, v) != v_in or _in_span(basis, w) is None:
        problems.append(f"{name}: v or w not in the reported wall lattice")
    key = rm.conic_key(rm.Slice(m["gram"], m["ample"], m["beta0"]).conic(v, w))
    if rm.conic_key(conic_ints(doc["wall"]["conic"])) != key:
        problems.append(f"{name}: wall conic differs from the recomputed one")
    bound = max(vv, 2)
    roots = [mukai(r) for r in doc["roots"]]
    for r in roots:
        if rm.pair(mg, r, r) != -2 or abs(rm.pair(mg, r, v)) > bound or _in_span(basis, r) is None:
            problems.append(f"{name}: {r} is not a root of H_W with |(r, v)| <= {bound}")
    iso = [] if doc["isotropic"] == "none" else [mukai(x) for x in doc["isotropic"]]
    for x in iso:
        if rm.pair(mg, x, x) != 0 or not rm.is_primitive(x) or _in_span(basis, x) is None:
            problems.append(f"{name}: {x} is not a primitive isotropic class of H_W")
    got = [(tuple(tuple(p) for p in d["parts"]), d["slack"]) for d in doc["decompositions"]]
    if got != brute_decompositions(gram2, v_in, m["max_m"], m["box"]):
        problems.append(f"{name}: decompositions differ from the brute force over box {m['box']}")
    hints = doc["hints"]
    nontrivial = any(len(d[0]) >= 2 for d in got)
    if (hints["has_root"], hints["has_isotropic"],
            hints["admits_totally_semistable_candidate"]) != \
            (bool(roots), bool(iso), nontrivial and bool(roots or iso)):
        problems.append(f"{name}: hints inconsistent with roots, isotropic classes and parts")
    if m["point"] is not None:
        b, t = m["point"]
        beta = [Fraction(x) + b * a for x, a in zip(m["beta0"], m["ample"])]
        omega = [t * a for a in m["ample"]]
        row = rm.k3_charge_row(m["gram"], beta, omega)
        zv, zw = rm.charge(row, v), rm.charge(row, w)
        if Fraction(doc["point_residual"]) != zw[1] * zv[0] - zw[0] * zv[1]:
            problems.append(f"{name}: point residual differs from Im Z(w) Re Z(v) - Re Z(w) Im Z(v)")


def check_nef(job, doc, docs, ctx, problems):
    m = job.meta
    name = job.name
    v = tuple(m["v"])
    mg = rm.mukai_gram(m["gram"])
    om = [Fraction(x) for x in doc["omega_class"]]
    row = rm.k3_charge_row(m["gram"], m["beta"], m["omega"])
    zr, zi = rm.charge(row, v)
    norm = zr * zr + zi * zi
    if rm.pair(mg, om, v) != 0:
        problems.append(f"{name}: (Omega, v) != 0")
    n = len(v)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        er, ei = row[i]
        if rm.pair(mg, om, e) != (ei * zr - er * zi) / norm:
            problems.append(f"{name}: (Omega, e_{i}) != Im(Z(e_{i}) / Z(v))")
            break
    if Fraction(doc["bb_square"]) != rm.pair(mg, om, om):
        problems.append(f"{name}: bb_square is not (Omega, Omega)")
    vv = rm.pair(mg, v, v)
    if doc["moduli_dimension"] != vv + 2 or doc["flags"] != {"rigid": vv == -2,
                                                               "isotropic": vv == 0}:
        problems.append(f"{name}: moduli dimension or flags wrong for v^2 = {vv}")


def check_lagrangian(job, doc, docs, ctx, problems):
    m = job.meta
    v = tuple(m["v"])
    mg = rm.mukai_gram(m["gram"])
    got = [mukai(u) for u in doc["candidates"]]
    for u in got:
        if not rm.is_primitive(u) or rm.pair(mg, u, u) != 0 or rm.pair(mg, u, v) != 0:
            problems.append(f"{job.name}: {u} is not primitive, isotropic and orthogonal to v")
    want = set()
    for u in itertools.product(range(-m["bound"], m["bound"] + 1), repeat=len(v)):
        if any(u) and rm.pair(mg, u, v) == 0 and rm.pair(mg, u, u) == 0 and rm.is_primitive(u):
            want.add(rm.canonical_ray(u))
    if set(got) != want or len(got) != len(want):
        problems.append(f"{job.name}: {len(got)} candidates, brute force over the box "
                        f"finds {len(want)}")


# -- support -------------------------------------------------------------------------------


def _root_box(n: int) -> int:
    return {3: 5, 4: 3, 5: 2, 6: 2}.get(n, 2)


def check_support(job, doc, docs, ctx, problems):
    m = job.meta
    name = job.name
    mg = rm.mukai_gram(m["gram"])
    n = len(mg)
    row = rm.k3_charge_row(m["gram"], m["beta"], m["omega"])
    s = [[Fraction(x) for x in r] for r in doc["norm_form"]]

    def norm_s(x):
        re, im = rm.charge(row, x)
        return s[0][0] * re * re + 2 * s[0][1] * re * im + s[1][1] * im * im

    kernel = [[Fraction(x) for x in k] for k in doc["kernel_basis"]]
    if len(kernel) != n - 2 or any(rm.charge(row, k) != (0, 0) for k in kernel):
        problems.append(f"{name}: kernel basis is not a basis of Ker Z")
        return
    # S identity on basis vectors: Z(e_i)^T S Z(e_j) = (e_i, e_j) - (p e_i, p e_j)
    # with p the pairing-orthogonal projection onto Ker Z
    km = [[sum(k[a] * mg[a][b] for a in range(n)) for b in range(n)] for k in kernel]
    g = [[sum(km[i][b] * kernel[j][b] for b in range(n)) for j in range(len(kernel))]
         for i in range(len(kernel))]
    for i in range(n):
        ci = rm.solve(g, [km[k][i] for k in range(len(kernel))])
        for j in range(i, n):
            proj = sum(ci[k] * km[k][j] for k in range(len(kernel)))
            zi, zj = row[i], row[j]
            lhs = (s[0][0] * zi[0] * zj[0] + s[0][1] * (zi[0] * zj[1] + zi[1] * zj[0])
                   + s[1][1] * zi[1] * zj[1])
            if lhs != mg[i][j] - proj:
                problems.append(f"{name}: S identity fails on (e_{i}, e_{j})")
                return
    rs = doc["root_search"]
    c2 = Fraction(rs["c_squared"])
    witness = mukai(rs["witness"])
    if rm.pair(mg, witness, witness) != -2 or norm_s(witness) != c2:
        problems.append(f"{name}: witness {witness} is not a root with ||Z||_S^2 = C^2")
    box = _root_box(n)
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if rm.pair(mg, x, x) == -2 and norm_s(x) < c2:
            problems.append(f"{name}: root {x} has ||Z||_S^2 = {norm_s(x)} < C^2 = {c2}")
            break
    qz = [[Fraction(x) for x in r] for r in doc["q_z"]]
    for i in range(n):
        for j in range(n):
            zi, zj = row[i], row[j]
            zs = (s[0][0] * zi[0] * zj[0] + s[0][1] * (zi[0] * zj[1] + zi[1] * zj[0])
                  + s[1][1] * zi[1] * zj[1])
            if qz[i][j] != mg[i][j] + 2 / c2 * zs:
                problems.append(f"{name}: Q_Z is not (v, v) + (2 / C^2) ||Z(v)||_S^2")
                return
    if not doc["roundtrip"]["all_pass"]:
        problems.append(f"{name}: support roundtrip failed")
    if doc["discreteness_sample"]["classes"] < 2:
        problems.append(f"{name}: discreteness sample misses the witness pair")
    ctx.setdefault("c2", {}).setdefault(m["lattice"], {})[m["basis"]] = c2


def final_support(ctx, problems):
    for lat, by_basis in sorted(ctx.get("c2", {}).items()):
        if len(set(by_basis.values())) > 1:
            problems.append(f"{lat}: C^2 differs between the reduced and skewed bases "
                            f"({by_basis})")


# -- filtrations ------------------------------------------------------------------------------


def _phase(z):
    """Phase in (0, 1] by atan2; call inside ``mpmath.workdps(100)``."""
    re, im = z
    if im == 0:
        return mpmath.mpf(1)
    return mpmath.atan2(mpmath.mpf(im.numerator) / im.denominator,
                        mpmath.mpf(re.numerator) / re.denominator) / mpmath.pi


def _equal(a, b) -> bool:
    return abs(a - b) <= mpmath.mpf("1e-50")


def _charge_of(row, cls):
    return (sum((z[0] * c for z, c in zip(row, cls)), Fraction(0)),
            sum((z[1] * c for z, c in zip(row, cls)), Fraction(0)))


def _valid(z):
    return z[1] > 0 or (z[1] == 0 and z[0] < 0)


def check_validate(job, doc, docs, ctx, problems):
    m = job.meta
    want = sorted(("invalid-charge", name) for name, cls in m["objects"].items()
                  if name != "0" and not _valid(_charge_of(m["row"], cls)))
    got = sorted((v["code"], v["subject"]) for v in doc["violations"])
    if got != want:
        problems.append(f"{job.name}: violations {got[:3]}... expected {want[:3]}...")


def expected_hn(meta, obj):
    """(steps, factor ids) of the HN filtration computed from 100-digit phases."""
    row = meta["row"]
    if meta["shape"] == "tower":
        lo, hi = (int(x) for x in obj[1:].split("_"))
        phases = {(i, j): _phase(_charge_of(row, [int(i <= k < j) for k in range(len(row))]))
                  for i in range(lo, hi) for j in range(i + 1, hi + 1)}
        cuts = rm.hn_chain(phases, lo, hi, _equal)
        steps = ["0"] + [f"X{lo}_{k}" for k in cuts[1:]]
        factors = [f"X{a}_{b}" for a, b in zip(cuts, cuts[1:])]
        return steps, factors
    n = meta["size"]
    simple = [_phase(z) for z in row]
    groups: List[List[int]] = []
    for k in sorted(range(n), key=lambda k: simple[k], reverse=True):
        if groups and _equal(simple[groups[-1][0]], simple[k]):
            groups[-1].append(k)
        else:
            groups.append([k])
    steps, factors, acc = ["0"], [], 0
    for grp in groups:
        bits = sum(1 << k for k in grp)
        acc |= bits
        steps.append(cube_name(acc, n))
        factors.append(cube_name(bits, n))
    return steps, factors


def check_hn(job, doc, docs, ctx, problems):
    m = job.meta
    name = job.name
    with mpmath.workdps(100):
        steps, factors = expected_hn(m, m["object"])
    if doc["steps"] != steps or doc["factor_ids"] != factors:
        problems.append(f"{name}: HN filtration {doc['steps']} differs from the polygon {steps}")
    classes = [[int(x) for x in c] for c in doc["factor_classes"]]
    if [sum(col) for col in zip(*classes)] != list(m["objects"][m["object"]]):
        problems.append(f"{name}: factor classes do not sum to the class of {m['object']}")
    if doc["seesaw_violations"] or doc["notes"]:
        problems.append(f"{name}: unexpected see-saw violations or ambiguity notes")
    ctx.setdefault("hn", {}).setdefault((m["base"], m["object"]), []).append(
        json.dumps(doc, sort_keys=True))


def final_filtrations(ctx, problems):
    for key, variants in sorted(ctx.get("hn", {}).items()):
        if len(set(variants)) > 1:
            problems.append(f"{key}: HN result changes when the input order is shuffled")


CHECKS = {"walls": check_walls, "chambers": check_chambers, "classify": check_classify,
          "nef": check_nef, "lagrangian": check_lagrangian, "support": check_support,
          "validate": check_validate, "hn": check_hn}
FINAL = {"support": (final_support,), "filtrations": (final_filtrations,)}
