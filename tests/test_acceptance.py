"""Acceptance suite: the worked one-vertex square-lattice model with exact
couplings (s1,c1) = (4/5,3/5), (s2,c2) = (12/13,5/13). One test per
criterion; each prints a pass line with its tolerance.
"""
import math
import random
from fractions import Fraction

import pytest

from isingdimer.dimer import (
    color_change,
    ising_locus_check,
    square_move,
    x_of_cycle,
)
from isingdimer.exactalg import lm_determinant
from isingdimer.ising import (
    GadgetMap,
    IsingModel,
    couplings_from_file_data,
    dual_ising,
    dual_x,
    make_coupling,
    to_dimer,
    y_delta,
    ydelta_weights,
)
from isingdimer.abel import discrete_abel
from isingdimer.lattices import honeycomb, square
from isingdimer.spectral import (
    amoeba_sample,
    characteristic_polynomial,
    divisor_of_vertex,
    kappa_tree_normalize,
    kasteleyn_matrix,
    solve_kasteleyn_signs,
)
from isingdimer.torusgraph import parse_torus_graph

from conftest import (
    DIMER_FIXTURE,
    FIXTURE_CYCLE_A,
    FIXTURE_CYCLE_B,
    FIXTURE_KAPPA,
    ISING_FIXTURE,
    face_x_values,
    intersection_pairing,
    monomial_label,
    pythagorean_couplings,
)


GM = GadgetMap({"1": "f2", "2": "f3"},
               {"w1": "b4", "w2": "b3", "w3": "b2", "w4": "b1"})
EXPECTED_P = "2 - 4/13*w - 4/13*w^-1 - 36/65*z - 36/65*z^-1"


@pytest.fixture(scope="module")
def fixture():
    g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
    return g, wt


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: pass {detail}".rstrip())


def test_01_characteristic_polynomial_exact(fixture):
    g, wt = fixture
    data = characteristic_polynomial(g, wt, FIXTURE_KAPPA)
    assert data.poly.canonical_str() == EXPECTED_P
    report("1 characteristic-polynomial", "(exact serialization, zero tolerance)")


def test_02_divisors_exact(fixture):
    g, wt = fixture
    Dw = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "w2")
    Db = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "b3")
    assert Dw.points == [(Fraction(13, 20), Fraction(52, 25), 1)]
    assert Db.points == [(Fraction(20, 13), Fraction(25, 52), 1)]
    assert Db.sigma().points == Dw.points
    report("2 divisors", "D_w=(13/20,52/25) D_b=(20/13,25/52) sigma-exact")


def test_03_sigma_invariance(fixture):
    g, wt = fixture
    P = characteristic_polynomial(g, wt, FIXTURE_KAPPA).poly
    assert P.sigma() == P
    wtp = dict(wt)
    wtp["e5"] = wtp["e5"] * 2
    P2 = characteristic_polynomial(g, wtp, FIXTURE_KAPPA).poly
    assert P2.sigma() != P2
    report("3 sigma-invariance", "(exact; doubled edge fails)")


def test_04_weight_side_characterization(fixture):
    g, wt = fixture
    ok, rep = ising_locus_check(g, wt, GM)
    assert ok and all(r == 0 for r in rep["residuals"].values())
    fx = face_x_values(g, wt)
    Xf1, Xf2 = fx["f2"], fx["f3"]
    Xa = x_of_cycle(g, wt, FIXTURE_CYCLE_A)
    Xb = x_of_cycle(g, wt, FIXTURE_CYCLE_B)
    assert Xa ** 2 == Fraction(1296, 4225) == Xf2 / ((1 + Xf1) * (1 + Xf2))
    assert Xb ** 2 == Fraction(169, 16) == (1 + Xf1) * (1 + Xf2) / Xf1
    assert fx["f0"] ** 2 == (1 + Xf1) ** 2 * (1 + Xf2) ** 2 / (Xf1 ** 2 * Xf2 ** 2)
    rng = random.Random(42)
    failures = 0
    for _ in range(100):
        wtp = dict(wt)
        e = rng.choice(sorted(wtp))
        wtp[e] = wtp[e] * Fraction(rng.randint(2, 19), rng.randint(20, 37))
        okp, _ = ising_locus_check(g, wtp, GM)
        failures += (not okp)
    assert failures == 100
    report("4 weight-side characterization",
           "(exact; eq:X2 identities; 100/100 perturbations fail)")


def test_05_mutation_algebra():
    gi = square(2, 2)
    g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 12)))
    rng = random.Random(12)
    wt = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in g.edges()}
    f = gm.squares["h00"]
    fx = face_x_values(g, wt)
    Xf = fx[f]
    g2, wt2, rec = square_move(g, wt, f)
    fx2 = face_x_values(g2, wt2)
    assert fx2[rec.map_face(f)] == 1 / Xf
    table = []
    plus_checked = 0
    sq = g.face_darts(f)
    neighbors = []
    for d in sq:
        nf = g.face_of_dart(g.twin(d))
        if nf not in neighbors:
            neighbors.append(nf)
    assert len(neighbors) == 4
    for nf in neighbors:
        pairing = int(intersection_pairing(g, g.face_darts(nf), sq))
        table.append(pairing)
        got = fx2[rec.map_face(nf)]
        assert got == fx[nf] * (1 + Xf) ** (-pairing) * Xf ** max(0, pairing)
        if pairing == 1:
            assert got == fx[nf] / (1 + 1 / Xf)
            plus_checked += 1
    assert table in ([1, -1, 1, -1], [-1, 1, -1, 1])
    assert plus_checked == 2
    # double application restores the basis
    g3, wt3, rec2 = square_move(g2, wt2, rec.map_face(f))
    fx3 = face_x_values(g3, wt3)
    assert all(fx3[rec2.map_face(rec.map_face(fid))] == fx[fid] for fid in fx)
    report("5 mutation algebra",
           f"(exact; transport table {table}; involution restores X)")


def test_06_kasteleyn_signs(fixture):
    g, _ = fixture
    classes = solve_kasteleyn_signs(g)
    assert len(classes) == 4
    import itertools
    for (l1, k1), (l2, k2) in itertools.combinations(classes, 2):
        assert kappa_tree_normalize(g, k1) != kappa_tree_normalize(g, k2)
    for _, kappa in classes:
        for fid, orbit in g.faces():
            prod = 1
            for d in orbit:
                prod *= kappa[g.darts[d].edge]
            assert prod == (-1) ** (len(orbit) // 2 + 1)
    hits = [lab for lab, k in classes
            if kappa_tree_normalize(g, k) == kappa_tree_normalize(g, FIXTURE_KAPPA)]
    assert len(hits) == 1
    report("6 kasteleyn signs", f"(4 classes; figure representative in class {hits[0]})")


def test_07_polygon_coherence(fixture):
    g, wt = fixture
    data = characteristic_polynomial(g, wt, FIXTURE_KAPPA)
    gp = g.newton_polygon()
    assert data.polygon.vertices == [(-1, 0), (0, -1), (1, 0), (0, 1)]
    assert gp.vertices == data.polygon.vertices
    assert data.genus == 1
    D = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "w2")
    assert len(D) == data.genus
    report("7 polygon coherence", "(square (+-1,0),(0,+-1); genus 1 = divisor degree)")


def test_08_ising_side_moves():
    assert ydelta_weights(Fraction(1), Fraction(1), Fraction(1)) == \
        (Fraction(1), Fraction(1), Fraction(1))
    # duality involution exact on the fixture couplings
    gi, _, raw = parse_torus_graph(ISING_FIXTURE)
    model = IsingModel(gi, couplings_from_file_data(raw))
    dd = dual_ising(dual_ising(model))
    assert {e: c.x for e, c in dd.couplings.items()} == \
        {e: c.x for e, c in model.couplings.items()}
    # self-dual coupling
    x_sd = math.sqrt(2) - 1
    assert abs(dual_x(x_sd) - x_sd) < 1e-12
    c = make_coupling(J=0.5 * math.log(1 + math.sqrt(2)))
    assert abs(c.x - x_sd) < 1e-12
    # Y-Delta / duality commutation on 50 random rational triples
    rng = random.Random(77)
    worst = 0.0
    for _ in range(50):
        vals = [Fraction(rng.randint(1, 30), rng.randint(31, 70)) for _ in range(12)]
        g = honeycomb(2, 2)
        m = IsingModel(g, {e: make_coupling(x=x) for e, x in zip(g.edges(), vals)})
        route1 = dual_ising(y_delta(m, "u00"))
        dualed = dual_ising(m)
        tri = [f for f in dualed.graph.face_ids()
               if len(dualed.graph.face_darts(f)) == 3
               and {dualed.graph.darts[d].edge for d in dualed.graph.face_darts(f)}
               == {dualed.graph.darts[d].edge for d in m.graph.rotation["u00"]}]
        route2 = y_delta(dualed, "f:" + tri[0])
        x1 = sorted(float(cc.x) for cc in route1.couplings.values())
        x2 = sorted(float(cc.x) for cc in route2.couplings.values())
        worst = max(worst, max(abs(p - q) for p, q in zip(x1, x2)))
    assert worst < 1e-12
    report("8 ising-side moves", f"(commutation worst error {worst:.2e} < 1e-12)")


def test_09_color_change(fixture):
    g, wt = fixture
    gb, wtb = color_change(g, wt)
    K = kasteleyn_matrix(g, wt, FIXTURE_KAPPA)
    Kb = kasteleyn_matrix(gb, wtb, FIXTURE_KAPPA)
    for w in K.rows:
        for b in K.cols:
            assert Kb.entries[(b, w)] == K.entries[(w, b)].sigma()
    assert sorted((-p, -q) for p, q in (z["class"] for z in gb.zigzag_paths())) == \
        sorted(z["class"] for z in g.zigzag_paths())
    report("9 color change", "(K-bar = K(1/z,1/w)^T entrywise exact; classes negate)")


def test_10_amoeba(fixture):
    g, wt = fixture
    P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
    grid = 200
    sample = amoeba_sample(P, grid=grid, region=(-2.0, 2.0, -2.0, 2.0))
    assert sample
    Pn = P.to_numeric()
    assert all(abs(Pn.eval(z, w)) < 1e-8 for z, w in zip(sample.z.tolist(), sample.w.tolist()))
    tx, ty = math.log(13 / 20), math.log(52 / 25)
    step = 4.0 / grid
    pts = list(zip(sample.x, sample.y))
    dmin = min(math.hypot(x - tx, y - ty) for x, y in pts)
    assert dmin <= step + 1e-12
    cells = {}   # step-sized grid cells, so each probe scans its neighbours only
    for a, b in pts:
        cells.setdefault((math.floor(a / step), math.floor(b / step)), []).append((a, b))
    for x, y in pts[::37]:
        i, j = math.floor(-x / step), math.floor(-y / step)
        near = [p for di in range(-2, 3) for dj in range(-2, 3)
                for p in cells.get((i + di, j + dj), ())]
        assert any(abs(x + a) <= step + 1e-12 and abs(y + b) <= step + 1e-12
                   for a, b in near)
    report("10 amoeba",
           f"(200x200; residuals < 1e-8; Log(D_w) within {step:.3g}; point-symmetric)")


def test_11_discrete_abel(fixture):
    g, _ = fixture
    labels = discrete_abel(g, window=1)   # 3x3 window; inconsistency raises
    zzc = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
    for t in ((1, 0), (0, 1), (-1, 1), (2, -1)):
        assert sum(monomial_label(t, zzc).values()) == 0
    base = g.whites()[0]
    assert labels[(base, (0, 0))] == {}
    assert len({v for v, _ in labels}) == len(g.vertex_ids())
    report("11 discrete abel", "(3x3 window consistent; translation degree 0)")
