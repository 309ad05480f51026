"""Acceptance suite: every criterion runs at its stated size and tolerance
and prints one PASS/FAIL line (visible with pytest -s or in captured output).
All checks are exact unless stated otherwise.
"""
import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import (leading_principal_minors, random_even_ns_lattice,
                      random_presentation)
from stabkit import (ChargeParams, MukaiVector, NSLattice, Order, Rank2Lattice,
                     Region, SliceParams, bb_square, build_q_z, charge_kernel,
                     charge_row, charge_table, decomposition_scan,
                     equivalent_support_roundtrip, gieseker_compare,
                     hn_filtration, is_semistable,
                     large_volume_phase, large_volume_threshold, min_root_norm,
                     mukai_pairing, mukai_square, nesting_check, omega_class,
                     phase_compare, phase_valid, scan_walls, seesaw_check,
                     validate)
from stabkit.charges import evaluate_charge_row
from stabkit.gaussian import GaussianRational, gaussian
from stabkit.hn import CategoryPresentation
from stabkit.linalg import bilinear, is_negative_definite
from stabkit.support import charge_norm_sq
from stabkit.walls import WallKind, sampling_oracle
from test_nef import brute_decompositions

K3D2 = NSLattice(1, ((2,),), (1,))


def report(num, desc, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_mukai_arithmetic():
    t0 = time.time()
    rng = random.Random(101)
    assert mukai_pairing(MukaiVector(1, (0,), 1), MukaiVector(1, (0,), 1), K3D2) == -2
    for n in range(-5, 12):
        assert mukai_square(MukaiVector(1, (0,), 1 - n), K3D2) + 2 == 2 * n
    lattices = [random_even_ns_lattice(rng) for _ in range(20)]
    for lat in lattices:
        for _ in range(500):
            v = MukaiVector(rng.randint(-9, 9),
                            tuple(rng.randint(-9, 9) for _ in range(lat.rank)),
                            rng.randint(-9, 9))
            assert mukai_square(v, lat) % 2 == 0
    report(1, "squares even on 10^4 vectors over 20 lattices, anchors exact",
           t0, 5)


def test_criterion_2_charge_identity():
    t0 = time.time()
    rng = random.Random(102)

    def rand_frac():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    done = 0
    while done < 1000:
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 1, 2]))
        beta = tuple(rand_frac() for _ in range(lat.rank))
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        omega = tuple(scale * a for a in lat.ample)
        params = ChargeParams(lat, beta, omega)
        row = charge_row(params)
        ch0, ch2 = rand_frac(), rand_frac()
        ch1 = tuple(rand_frac() for _ in range(lat.rank))
        v_rat = [ch0, *ch1, ch0 + ch2]  # ch * sqrt(td) componentwise
        # independent expansion of -integral(e^(-i omega - beta) ch sqrt(td))
        exp1 = [gaussian(-b, -o) for b, o in zip(beta, omega)]
        bw2 = gaussian(lat.ns_dot(beta, beta) - lat.ns_dot(omega, omega),
                       2 * lat.ns_dot(beta, omega)) * Fraction(1, 2)
        cross = gaussian(0)
        for i in range(lat.rank):
            for j in range(lat.rank):
                cross = cross + exp1[i] * Fraction(lat.gram[i][j]) * ch1[j]
        deg4 = gaussian(ch0 + ch2, 0) + cross + bw2 * ch0
        assert evaluate_charge_row(row, v_rat) == -deg4
        done += 1
    report(2, "pairing formula = integral expansion on 10^3 rational inputs",
           t0, 5)


def test_criterion_3_phase_comparator():
    t0 = time.time()
    rng = random.Random(103)
    charges = []
    while len(charges) < 10000:
        z = GaussianRational(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                             Fraction(rng.randint(0, 40), rng.randint(1, 12)))
        if phase_valid(z):
            charges.append(z)

    with mpmath.workdps(100):
        def phase(z):
            if z.im == 0:
                return mpmath.mpf(1)
            return mpmath.atan2(mpmath.mpf(z.im.numerator) / z.im.denominator,
                                mpmath.mpf(z.re.numerator) / z.re.denominator) / mpmath.pi

        margin = mpmath.mpf("1e-50")
        phases = [phase(z) for z in charges]
        for i in range(10000):
            j = (7 * i + 1) % len(charges)
            z1, z2 = charges[i], charges[j]
            got = phase_compare(z1, z2)
            p1, p2 = phases[i], phases[j]
            if abs(p1 - p2) > margin:
                want = Order.LT if p1 < p2 else Order.GT
                assert got is want
            else:
                assert got is Order.EQ
    violations = 0
    for _ in range(10000):
        a, b, c = rng.choice(charges), rng.choice(charges), rng.choice(charges)
        ab, bc, ac = phase_compare(a, b), phase_compare(b, c), phase_compare(a, c)
        if ab is Order.LT and bc is Order.LT and ac is not Order.LT:
            violations += 1
        if ab is Order.GT and bc is Order.GT and ac is not Order.GT:
            violations += 1
        if ab is Order.EQ and bc is Order.EQ and ac is not Order.EQ:
            violations += 1
    assert violations == 0
    report(3, "agrees with 100-digit atan2 on 10^4 pairs, 10^4 transitive triples",
           t0, 30)


def test_criterion_4_hn_engine():
    t0 = time.time()
    rng = random.Random(104)
    for _ in range(100):
        cat, charge, top = random_presentation(rng)
        assert len(cat.objects) <= 12
        table = charge_table(cat, charge)
        assert validate(cat, table) == []
        assert seesaw_check(cat, table) == []
        filt = hn_filtration(cat, table, top)
        for f1, f2 in zip(filt.factor_ids, filt.factor_ids[1:]):
            assert phase_compare(evaluate_charge_row(charge, cat.class_of(f1)),
                                 evaluate_charge_row(charge, cat.class_of(f2))) is Order.GT
        for f in filt.factor_ids:
            assert is_semistable(cat, table, f)
        total = [sum(col) for col in zip(*filt.factor_classes)]
        assert tuple(total) == cat.class_of(top)
        z_total = evaluate_charge_row(charge, cat.class_of(top))
        z_sum = gaussian(0)
        for cls in filt.factor_classes:
            z_sum = z_sum + evaluate_charge_row(charge, cls)
        assert z_sum == z_total
        objs = list(cat.objects.items())
        edges = list(cat.edges)
        for _ in range(10):
            rng.shuffle(objs)
            rng.shuffle(edges)
            cat2 = CategoryPresentation(dict(objs), tuple(edges), cat.zero)
            assert hn_filtration(cat2, charge_table(cat2, charge), top) == filt
    report(4, "100 random presentations: HN exact, unique, permutation-stable",
           t0, 30)


def test_criterion_5_support_kit():
    t0 = time.time()
    params = ChargeParams(K3D2, (Fraction(0),), (Fraction(2),))
    gram = K3D2.mukai_gram()
    z = charge_row(params)
    kernel = charge_kernel(z, gram)
    assert kernel.basis == ((Fraction(1), Fraction(0), Fraction(4)),)
    b = kernel.basis[0]
    assert bilinear(b, gram, b) == -8
    s = kernel.norm_form
    res = min_root_norm(kernel.norm, ambient_gram=gram)
    # coordinate-box brute force, |r|, |m|, |s| <= 40
    best = None
    for r in range(-40, 41):
        for m in range(-40, 41):
            rm = m * m + 1  # need r * s = m^2 + 1
            if r == 0:
                continue
            if rm % r:
                continue
            sc = rm // r
            if abs(sc) > 40:
                continue
            nz = charge_norm_sq(z, s, (r, m, sc))
            if best is None or nz < best:
                best = nz
    assert res.found and res.c_squared == best
    q_z = build_q_z(kernel.norm, res.c_squared, gram)
    q_on_kernel = [[bilinear(u, q_z, w) for w in kernel.basis] for u in kernel.basis]
    minors = leading_principal_minors(q_on_kernel)
    assert all((-1) ** (k + 1) * mm > 0 for k, mm in enumerate(minors))
    assert is_negative_definite(q_on_kernel)
    rng = random.Random(105)
    classes = [tuple(rng.randint(-10, 10) for _ in range(3)) for _ in range(200)]
    rt = equivalent_support_roundtrip(q_z, z, classes)
    assert rt.all_pass and len(rt.verdicts) == 200
    report(5, "worked example: kernel, C^2 vs brute force, Q_Z, roundtrip(200)",
           t0, 60)


def test_criterion_6_wall_scan():
    t0 = time.time()
    sl = SliceParams(K3D2, (Fraction(0),))
    v = MukaiVector(1, (0,), -1)
    region = Region(Fraction(-3), Fraction(0), Fraction(1, 10), Fraction(4))
    walls = scan_walls(v, sl, region, 8)
    assert any(w.kind is WallKind.VERTICAL_LINE and w.center == 0 for w in walls)
    # the hand-derived pair w = (0, 0, 1) generates that same b = 0 line
    from stabkit import wall_locus
    line = wall_locus(v, MukaiVector(0, (0,), 1), sl)
    assert line.kind is WallKind.VERTICAL_LINE and line.center == 0
    assert line.key() in {w.key() for w in walls}
    oracle = sampling_oracle(v, sl, region, 400, 8)
    detected = {ow.locus.key() for ow in oracle if ow.detected}
    enumerated = {w.key() for w in walls}
    assert detected == enumerated
    nest = nesting_check(sl, walls)
    assert nest.violations == ()
    report(6, f"{len(walls)} walls = 400x400 oracle set, b=0 line found, "
              "nesting clean", t0, 120)


def test_criterion_7_divisor_layer():
    t0 = time.time()
    rng = random.Random(107)
    count = 0
    while count < 100:
        lat = random_even_ns_lattice(rng, rank=rng.choice([1, 1, 2]))
        scale = rng.randint(2, 5)
        params = ChargeParams(lat, tuple(Fraction(rng.randint(-3, 3), 2)
                                         for _ in range(lat.rank)),
                              tuple(Fraction(scale * a) for a in lat.ample))
        if not params.heart_certified():
            continue
        z = charge_row(params)
        v = MukaiVector.from_coords([rng.randint(-5, 5)
                                     for _ in range(lat.mukai_rank)])
        if v.is_zero() or evaluate_charge_row(z, v.coords()).is_zero():
            continue
        om = omega_class(v, z, lat)
        gram = lat.mukai_gram()
        zv = evaluate_charge_row(z, v.coords())
        n = lat.mukai_rank
        for i in range(n):
            e = [0] * n
            e[i] = 1
            assert bilinear(om.coords, gram, [Fraction(x) for x in e]) \
                == (evaluate_charge_row(z, e) / zv).im
        assert bilinear(om.coords, gram, [Fraction(x) for x in v.coords()]) == 0
        assert bb_square(om, lat) > 0
        count += 1
    gram2 = ((2, -1), (-1, 0))
    hw = Rank2Lattice((MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)), gram2)
    got = decomposition_scan((1, 0), hw, max_m=3, box=10)
    expected = brute_decompositions(gram2, (1, 0), 3, 10)
    assert [(d.parts, d.slack) for d in got] == expected
    report(7, "100 Omega solves re-verified, q > 0, scan = brute force (box 10)",
           t0, 60)


def test_criterion_8_gieseker_large_volume():
    t0 = time.time()
    rng = random.Random(108)
    for _ in range(1000):
        a1 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        b1 = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        c1 = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
        a2 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        b2 = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
        pa = [a1 * c1, a1 * b1, a1]
        pb = [a2 * c2, a2 * b2, a2]
        g = gieseker_compare(pa, pb)
        n0 = large_volume_threshold(pa, pb)
        # beyond the certified threshold the phase order of -i P(i n) is the
        # exact mirror of the Gieseker order (the -i convention reflects the
        # plane, reversing phase orientation); EQ matches EQ on the nose
        for n in (n0, n0 + 3, 2 * n0 + 1):
            w_a = large_volume_phase(pa, n)
            w_b = large_volume_phase(pb, n)
            assert phase_compare(w_a, w_b) is g.reversed()
    report(8, "Gieseker order = mirrored charge order for all n >= N, 10^3 pairs",
           t0, 10)


@pytest.fixture
def lattice_file(tmp_path):
    from stabkit.serialize import dumps
    path = tmp_path / "k3d2.json"
    path.write_text(dumps({"rank": 1, "gram": [["2"]], "ample": ["1"],
                           "k3": True}))
    return str(path)


def test_criterion_9_cli_determinism(tmp_path, lattice_file):
    t0 = time.time()
    from stabkit.cli import main

    commands = {
        "support": ["support", "--lattice", lattice_file, "--beta", "0",
                    "--omega", "2"],
        "walls": ["walls", "--lattice", lattice_file, "--v", "1,0,-1",
                  "--beta0", "0", "--b", "-3:0", "--t", "1/10:4",
                  "--bound", "8"],
        "nef": ["nef", "--lattice", lattice_file, "--v", "1,0,-1",
                "--beta", "0", "--omega", "2"],
        "classify": ["classify-wall", "--lattice", lattice_file,
                     "--v", "1,0,-1", "--w", "0,0,1", "--beta0", "0",
                     "--point", "0,1"],
    }

    def run_bytes(name, argv):
        # one --out path per command, so each rerun is the same command line
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert "result" in json.loads(raw)
        lines = raw.split(b"\n")
        return b"\n".join(ln for ln in lines if b'"timestamp"' not in ln)

    for name, argv in commands.items():
        runs = [run_bytes(name, argv) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2], f"{name} output not byte-stable"
    report(9, "byte-identical JSON across 3 runs of the criteria 5-7 commands",
           t0, 120)
