"""Seeded job lists for the four workloads.

A workload is a list of CLI invocations (``Job``) plus the input files they
read. The cost-determining shape of every list is fixed per workload (which
lattices, classes, bounds and sizes appear, and how often); the seed draws
the rest: slice points, regions, charges, wall classes, basis changes and
the job order. The same seed always gives the same files and jobs.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Tuple

import refmath as rm

WORKLOADS = ("scan", "classify", "support", "filtrations")


@dataclass
class Job:
    name: str
    kind: str
    argv: List[str]
    meta: Dict[str, Any] = field(default_factory=dict)
    expect_fail: bool = False

    @property
    def out(self) -> str:
        return f"{self.name}.json"

    @property
    def full_argv(self) -> List[str]:
        return [*self.argv, "--out", self.out]


@dataclass
class Workload:
    name: str
    seed: int
    files: Dict[str, Any]
    jobs: List[Job]


def vec(xs) -> str:
    return ",".join(str(x) for x in xs)


def lattice_doc(gram, ample) -> Dict[str, Any]:
    return {"rank": len(gram), "gram": [[str(x) for x in row] for row in gram],
            "ample": [str(a) for a in ample], "k3": True}


def rand_frac(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def build(workload: str, seed: int) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    files, jobs = BUILDERS[workload](rng)
    return Workload(workload, seed, files, jobs)


# -- scan: walls (+ grid oracle) and chambers ----------------------------------------

RHO1 = {"d2": ([[2]], [1]), "d4": ([[4]], [1]), "d6": ([[6]], [1])}
RHO2 = {"u2": ([[2, 1], [1, -2]], [1, 0]), "h2": ([[2, 0], [0, -2]], [1, 0]),
        "t2": ([[4, 2], [2, -2]], [1, 0])}

# (lattice, v, bound, grid?, y): beta0 = (x, y) on rank 2, where the first
# coordinate is along H (every ample class here is the first basis vector).
SCAN_SLOTS = [
    ("d2", (1, 0, -1), 8, True, None),
    ("d2", (2, 1, -1), 7, False, None),
    ("d4", (1, 1, -1), 7, False, None),
    ("d4", (2, 1, -2), 8, True, None),
    ("d6", (1, 0, -2), 8, False, None),
    ("d6", (2, 1, -1), 7, False, None),
    ("u2", (1, 0, 0, -1), 3, True, Fraction(0)),
    ("h2", (1, 1, 0, -1), 3, False, Fraction(1, 2)),
    ("t2", (1, 0, 1, -1), 3, False, Fraction(-1, 3)),
]

# Regions and chamber paths are fixed in the frame of beta = beta0 + b H.
# The seed moves beta0 along H by x, which translates every wall by -x in
# b, and picks the sign of v's NS part, which mirrors the slice (beta ->
# -beta); regions and paths move with it. So every seed runs the same work
# up to symmetry, with different inputs and outputs. The wide window holds
# every wall of each box (in that frame they lie within |b| < 15 and have
# radii above 1/50).
WIDE_REGION = (Fraction(-25), Fraction(25), Fraction(1, 100), Fraction(20))
# The sampling oracle certifies the scan only at the resolution of its
# grid; on this region and grid it agrees for every grid slot (translation
# and mirroring move the grid with the walls); every run checks that its
# grid jobs report ``agrees``.
GRID = 24
GRID_REGION = (Fraction(-3), Fraction(1), Fraction(1, 4), Fraction(4))
CHAMBER_B = {False: (Fraction(-2), Fraction(-1, 2), Fraction(1)),
             True: (Fraction(-2), Fraction(-1), Fraction(1, 2))}


def _flip_ns(v, sign):
    return (v[0], *(sign * x for x in v[1:-1]), v[-1])


def scan_frame(sign: int, x: Fraction, grid: bool):
    """Region in b for beta0 = x H (+ y) after the mirror by ``sign``."""
    b_lo, b_hi, t_lo, t_hi = GRID_REGION if grid else WIDE_REGION
    if sign < 0:
        b_lo, b_hi = -b_hi, -b_lo
    return (b_lo - x, b_hi - x, t_lo, t_hi)


def _build_scan(rng: random.Random):
    lattices = {**RHO1, **RHO2}
    files = {f"{name}.lat.json": lattice_doc(*gl) for name, gl in lattices.items()}
    jobs: List[Job] = []
    slots = list(SCAN_SLOTS)
    rng.shuffle(slots)
    for k, (lat, v, bound, grid, y) in enumerate(slots):
        gram, ample = lattices[lat]
        sign = rng.choice((1, -1))
        v = _flip_ns(v, sign)
        x = rand_frac(rng, -6, 6)
        beta0 = [x] if y is None else [x, sign * y]
        region = scan_frame(sign, x, grid)
        b_lo, b_hi, t_lo, t_hi = region
        argv = ["walls", "--lattice", f"{lat}.lat.json", "--v", vec(v),
                "--beta0", vec(beta0), "--b", f"{b_lo}:{b_hi}",
                "--t", f"{t_lo}:{t_hi}", "--bound", str(bound)]
        if grid:
            argv += ["--grid", str(GRID)]
        wname = f"w{k:02d}"
        jobs.append(Job(wname, "walls", argv, {
            "lattice": lat, "gram": gram, "ample": ample, "v": v,
            "beta0": beta0, "region": region, "bound": bound, "grid": GRID if grid else 0}))
        for c, b_abs in enumerate(CHAMBER_B[grid]):
            b = sign * b_abs - x
            jobs.append(Job(f"{wname}c{c}", "chambers",
                            ["chambers", "--walls", f"{wname}.json",
                             "--b", str(b), "--t", f"{t_lo}:{t_hi}"],
                            {"walls_job": wname, "b": b, "t": (t_lo, t_hi)}))
    return files, jobs


# -- classify: classify-wall, nef, lagrangian ------------------------------------------

CLASSIFY_LATTICES = {"d2": ([[2]], [1]), "d4": ([[4]], [1]),
                     "u2": ([[2, 1], [1, -2]], [1, 0])}

# (lattice, v, (w^2, (v, w)), max_m, box). The seed draws w from the
# reference wall enumeration among the classes with these two invariants
# that generate a saturated span with v, so the wall lattice H_W and its
# Gram matrix in the basis (v, w) are fixed per slot while w, the slice and
# the wall itself vary.
CLASSIFY_SLOTS = [
    ("d2", (1, 0, -1), (2, -3), 3, 8),
    ("d2", (1, 0, -1), (-2, -1), 4, 5),
    ("d2", (1, 0, -1), (10, -5), 2, 10),
    ("d4", (1, 0, -1), (0, -1), 3, 8),
    ("d4", (1, 0, -1), (4, -3), 4, 4),
    ("d4", (1, 0, -1), (12, -5), 2, 9),
    ("d4", (1, 1, -1), (20, -14), 3, 6),
    ("u2", (1, 0, 0, -1), (2, -3), 4, 5),
    ("u2", (1, 0, 0, -1), (-2, -1), 3, 6),
    ("u2", (1, 0, 1, -1), (4, -1), 3, 7),
]

# (lattice, v, t) with omega = t H plus a small tilt on rank 2
NEF_SLOTS = [("d2", (1, 0, -1), 2), ("d2", (2, 1, -1), 3), ("d4", (2, 1, -1), 1),
             ("d4", (1, 1, 0), 2),
             ("u2", (1, 0, 0, -1), 2), ("u2", (2, 1, 0, -1), 3)]

# (lattice, v with v^2 > 0, coordinate bound)
LAGRANGIAN_SLOTS = [("d2", (1, 0, -1), 8), ("d2", (1, 1, 0), 7), ("d4", (1, 1, -1), 8),
                    ("u2", (1, 0, 0, -1), 5), ("u2", (1, 1, 0, -1), 6)]

CLASSIFY_WINDOW = (Fraction(-20), Fraction(20), Fraction(1, 100), Fraction(20))


def wall_classes(gram, ample, beta0, v, invariants, bound):
    """Classes w in the box |w_i| <= bound that pass the destabilizing filter,
    have (w^2, (v, w)) equal to ``invariants``, span a saturated lattice with
    v and give a wall meeting a wide window of the slice."""
    sl = rm.Slice(gram, ample, beta0)
    mg = rm.mukai_gram(gram)
    vv = rm.pair(mg, v, v)
    out = []
    for w in itertools.product(range(-bound, bound + 1), repeat=len(v)):
        if (rm.pair(mg, w, w), rm.pair(mg, v, w)) != invariants:
            continue
        if not rm.destabilizing_filter(mg, v, vv, w) or rm.minors_gcd(v, w) != 1:
            continue
        if rm.meets_region(rm.conic_shape(sl.conic(v, w)), *CLASSIFY_WINDOW):
            out.append(w)
    return out


def _build_classify(rng: random.Random):
    files = {f"{name}.lat.json": lattice_doc(*gl) for name, gl in CLASSIFY_LATTICES.items()}
    specs = []
    for lat, v, invariants, max_m, box in CLASSIFY_SLOTS:
        gram, ample = CLASSIFY_LATTICES[lat]
        rho = len(gram)
        beta0 = [rand_frac(rng, -2, 2, (2, 3)) for _ in range(rho)]
        w = rng.choice(wall_classes(gram, ample, beta0, v, invariants, 4 if rho == 1 else 3))
        argv = ["classify-wall", "--lattice", f"{lat}.lat.json", "--v", vec(v),
                "--w", vec(w), "--beta0", vec(beta0),
                "--max-m", str(max_m), "--box", str(box)]
        point = None
        if rng.random() < 0.5:
            point = (rand_frac(rng, -6, 4, (2,)), rand_frac(rng, 1, 6, (2,)))
            argv += ["--point", vec(point)]
        specs.append(("classify", argv, {
            "gram": gram, "ample": ample, "v": v, "w": w, "beta0": beta0,
            "max_m": max_m, "box": box, "point": point}))
    for lat, v, t in NEF_SLOTS:
        gram, ample = CLASSIFY_LATTICES[lat]
        v = _flip_ns(v, rng.choice((1, -1)))
        beta = [rand_frac(rng, -3, 3, (2, 3, 5)) for _ in gram]
        omega = [Fraction(t * a) + (Fraction(rng.randint(-1, 1), 7) if i else 0)
                 for i, a in enumerate(ample)]
        specs.append(("nef", ["nef", "--lattice", f"{lat}.lat.json", "--v", vec(v),
                              "--beta", vec(beta), "--omega", vec(omega)],
                      {"gram": gram, "v": v, "beta": beta, "omega": omega}))
    for lat, v, bound in LAGRANGIAN_SLOTS:
        gram, _ = CLASSIFY_LATTICES[lat]
        v = _flip_ns(v, rng.choice((1, -1)))
        specs.append(("lagrangian", ["lagrangian", "--lattice", f"{lat}.lat.json",
                                     "--v", vec(v), "--bound", str(bound)],
                      {"gram": gram, "v": v, "bound": bound}))
    rng.shuffle(specs)
    jobs = [Job(f"{kind[0]}{k:02d}", kind, argv, meta)
            for k, (kind, argv, meta) in enumerate(specs)]
    return files, jobs


# -- support: reduced and skewed bases ----------------------------------------------

# (name, gram, ample, beta, omega, start bound): generic base points; the
# seed moves every coordinate by at most 2/101, so the ellipsoid sizes, and
# with them the cost of each slot, stay put while the inputs change. The
# start bound of the root search sets the first ellipsoid: it evens out the
# cost within each Picard rank (all C^2 here are below 1, so one round
# certifies).
SUPPORT_LATTICES = [
    ("s1a", [[2]], [1], "3/13", "3/2", 8),
    ("s1b", [[4]], [1], "-5/13", "1", 8),
    ("s1c", [[6]], [1], "1/7", "1", 8),
    ("s2a", [[2, 1], [1, -2]], [1, 0], "-3/11,-3/7", "3/2,-1/13", 4),
    ("s2b", [[2, 0], [0, -4]], [1, 0], "1/7,-3/11", "3/2,1/14", 6),
    ("s2c", [[4, 1], [1, -2]], [1, 0], "-3/7,3/7", "1,-7/52", 6),
    ("s3a", [[2, 0, 0], [0, -2, 0], [0, 0, -2]], [1, 0, 0],
     "5/11,-2/7,1/11", "3/2,-3/26,1/13", 8),
    ("s3b", [[0, 1, 0], [1, 0, 0], [0, 0, -2]], [1, 1, 0],
     "-4/7,-5/11,-1/7", "3/2,75/52,-3/26", 6),
    ("s4a", [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
     [1, 0, 0, 0], "-2/13,3/7,-5/11,2/7", "2,1/13,1/26,1/28", 6),
]

SUPPORT_BUDGET = 200000

# The root search walks the ellipsoid in the basis it is given. In this
# skewed rank-3 basis it exhausts any practical budget, so the job fails on
# every run (exit 2); it is kept as a fixed, seed-independent failure.
SKEWED_FAILURE = {
    "gram": [[636, -88, 380], [-88, 8, -48], [380, -48, 222]],
    "ample": [1, -2, -2],
    "beta": "3,-1/2,-2/3",
    "omega": "2,-4,-4",
    "budget": 20000,
}


def _unimodular(rng: random.Random, n: int) -> List[List[int]]:
    """2n elementary row operations with coefficients +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[-1]]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for col in range(n):
            u[i][col] += c * u[j][col]
    return u


def _nudge(rng: random.Random, text: str) -> List[Fraction]:
    return [Fraction(x) + Fraction(rng.randint(-2, 2), 101) for x in text.split(",")]


def _build_support(rng: random.Random):
    files: Dict[str, Any] = {}
    specs = []
    for name, gram, ample, beta, omega, start in SUPPORT_LATTICES:
        rho = len(gram)
        beta, omega = _nudge(rng, beta), _nudge(rng, omega)
        # fixed skew per lattice, times seeded signs of the new basis
        # vectors: a sign flip leaves the walk's node count unchanged
        u = _unimodular(random.Random(f"skew:{name}"), rho)
        signs = [rng.choice((1, -1)) for _ in u]
        u = [[sg * x for x in row] for sg, row in zip(signs, u)]
        # new basis rows e'_i = sum_j u_ij e_j: gram' = U G U^T, and class
        # coordinates transform by U^-T
        uit = rm.transpose(rm.inverse_int(u))
        skew = rm.mat_mul(rm.mat_mul(u, gram), rm.transpose(u))

        def tr(x):
            return [sum(uit[i][k] * x[k] for k in range(rho)) for i in range(rho)]

        for basis, g, a, b, o in (("red", gram, ample, beta, omega),
                                  ("skew", skew, tr(ample), tr(beta), tr(omega))):
            lat_file = f"{name}-{basis}.lat.json"
            files[lat_file] = lattice_doc(g, a)
            specs.append((["support", "--lattice", lat_file,
                            "--beta", vec(b), "--omega", vec(o),
                            "--budget", str(SUPPORT_BUDGET), "--start-bound", str(start)],
                          {"lattice": name, "basis": basis, "gram": g,
                           "beta": b, "omega": o}, False))
    fx = SKEWED_FAILURE
    files["skewed-failure.lat.json"] = lattice_doc(fx["gram"], fx["ample"])
    specs.append((["support", "--lattice", "skewed-failure.lat.json",
                   "--beta", fx["beta"], "--omega", fx["omega"], "--budget", str(fx["budget"])],
                  {"lattice": "skewed-failure", "basis": "skew"}, True))
    rng.shuffle(specs)
    jobs = [Job(f"s{k:02d}", "support", argv, meta, fail)
            for k, (argv, meta, fail) in enumerate(specs)]
    return files, jobs


# -- filtrations: hn and validate-category ---------------------------------------------

# Three towers of six simples put the median job in the middle of their
# block of nine hn jobs (and the two hn jobs of the 4-cube, of equal cost):
# as many jobs are cheaper as dearer, so the median is not a boundary
# between two job types.
TOWER_SIZES = (6, 6, 6, 12, 14, 16)
CUBE_SIZES = (2, 3, 4, 5)


def _valid_charge(rng: random.Random) -> Tuple[Fraction, Fraction]:
    if rng.random() < 0.1:
        return (Fraction(-rng.randint(1, 8), rng.randint(1, 4)), Fraction(0))
    return (Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(1, 8), rng.randint(1, 4)))


def _charge_doc(row) -> List[List[str]]:
    return [[str(re), str(im)] for re, im in row]


def _category_doc(objects, edges, rng=None) -> Dict[str, Any]:
    objs = [{"id": name, "class": [str(x) for x in cls]} for name, cls in objects.items()]
    eds = [{"sub": s, "ambient": a, "quotient": q} for s, a, q in edges]
    if rng is not None:
        rng.shuffle(objs)
        rng.shuffle(eds)
    return {"objects": objs, "edges": eds, "zero": "0"}


def tower(m: int):
    """Interval tower on m simples: objects X{i}_{j} = [i, j), edges
    [i, j) < [i, k) with quotient [j, k)."""
    objects = {"0": tuple([0] * m)}
    for i in range(m):
        for j in range(i + 1, m + 1):
            objects[f"X{i}_{j}"] = tuple(int(i <= k < j) for k in range(m))
    edges = [(f"X{i}_{j}", f"X{i}_{k}", f"X{j}_{k}")
             for i in range(m) for j in range(i + 1, m + 1) for k in range(j + 1, m + 1)]
    return objects, edges


def cube_name(bits: int, n: int) -> str:
    return "B" + "".join("1" if bits >> k & 1 else "0" for k in range(n))


def cube(n: int):
    """Biproduct of n simples: one object per nonempty subset, an edge for
    every proper nonempty subset S of T with quotient T minus S."""
    objects = {"0": tuple([0] * n)}
    for bits in range(1, 1 << n):
        objects[cube_name(bits, n)] = tuple(bits >> k & 1 for k in range(n))
    edges = [(cube_name(s, n), cube_name(t, n), cube_name(t & ~s, n))
             for t in range(1, 1 << n) for s in range(1, 1 << n)
             if s != t and s & t == s]
    return objects, edges


def _build_filtrations(rng: random.Random):
    files: Dict[str, Any] = {}
    specs = []
    shapes = [("tower", m) for m in TOWER_SIZES] + [("cube", n) for n in CUBE_SIZES]
    for k, (shape, size) in enumerate(shapes):
        objects, edges = tower(size) if shape == "tower" else cube(size)
        base = f"{shape}{size}-{k}"
        row = [_valid_charge(rng) for _ in range(size)]
        # two neighbouring simples on one ray: a phase tie that the HN
        # steps must resolve by taking the larger subobject
        k = rng.randrange(size - 1)
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        row[k + 1] = (row[k][0] * scale, row[k][1] * scale)
        files[f"{base}.cat.json"] = _category_doc(objects, edges)
        files[f"{base}.shuf.cat.json"] = _category_doc(objects, edges, rng)
        files[f"{base}.z.json"] = _charge_doc(row)
        meta = {"base": base, "shape": shape, "size": size, "row": row,
                "objects": objects, "edges": len(edges)}
        top = f"X0_{size}" if shape == "tower" else cube_name((1 << size) - 1, size)
        targets = [(top, "cat"), (top, "shuf")]
        if shape == "tower":
            i = rng.randint(0, size - 3)
            j = rng.randint(i + 2, size)
            targets.append((f"X{i}_{j}", "cat"))
            bad = list(row)
            k = rng.randrange(size)
            bad[k] = (bad[k][0], -rng.randint(1, 8) * Fraction(1, rng.randint(1, 3)))
            files[f"{base}.bad.z.json"] = _charge_doc(bad)
            specs.append(("validate", ["validate-category", "--category", f"{base}.cat.json",
                                       "--charge", f"{base}.bad.z.json"],
                          {**meta, "row": bad}))
        specs.append(("validate", ["validate-category", "--category", f"{base}.cat.json",
                                   "--charge", f"{base}.z.json"], meta))
        for obj, variant in targets:
            cat_file = {"cat": f"{base}.cat.json", "shuf": f"{base}.shuf.cat.json"}[variant]
            specs.append(("hn", ["hn", "--category", cat_file,
                                 "--charge", f"{base}.z.json", "--object", obj],
                          {**meta, "object": obj, "variant": variant}))
    rng.shuffle(specs)
    jobs = [Job(f"f{k:02d}", kind, argv, meta) for k, (kind, argv, meta) in enumerate(specs)]
    return files, jobs


BUILDERS = {"scan": _build_scan, "classify": _build_classify,
            "support": _build_support, "filtrations": _build_filtrations}
