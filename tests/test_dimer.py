import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isingdimer.dimer import (
    MoveError,
    XBasis,
    basis_x_values,
    color_change,
    contraction_move,
    ising_locus_check,
    square_move,
    x_of_cycle,
)
from isingdimer.ising import (GadgetMap, IsingModel, _fraction_sqrt, couplings_from_file_data,
                              make_coupling, to_dimer, y_delta)
from isingdimer.lattices import honeycomb, square
from isingdimer.torusgraph import GraphError, TorusGraph, parse_torus_graph, serialize_torus_graph

from conftest import (
    DIMER_FIXTURE,
    FIXTURE_CYCLE_A,
    FIXTURE_CYCLE_B,
    ISING_FIXTURE,
    S1, C1, S2, C2,
    face_x_values,
    gauge_transform,
    half_cross_sign,
    intersection_pairing,
    named_lattice,
    one_like,
    pythagorean_couplings,
    reparsed,
    uncontraction_move,
)
from test_torusgraph import assert_same_faces, reference_canonical_form, retraced


def fixture_gm():
    return GadgetMap({"1": "f2", "2": "f3"},
                     {"w1": "b4", "w2": "b3", "w3": "b2", "w4": "b1"})


@pytest.fixture
def fixture(dimer_fixture):
    return dimer_fixture


class TestXOfCycle:
    def test_fixture_values(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        assert fx["f2"] == S1 * S1 / (C1 * C1)          # 16/9
        assert fx["f3"] == S2 * S2 / (C2 * C2)          # 144/25
        assert fx["f0"] == 1 / (S1 * S1 * S2 * S2)      # 4225/2304
        assert fx["f1"] == C1 * C1 * C2 * C2            # 9/169
        assert x_of_cycle(g, wt, FIXTURE_CYCLE_A) == Fraction(36, 65)
        assert x_of_cycle(g, wt, FIXTURE_CYCLE_B) == Fraction(13, 4)

    def test_reconstructed_face(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        assert fx["f1"] == 1 / (fx["f0"] * fx["f2"] * fx["f3"])
        assert fx["f1"] == Fraction(9, 169)

    def test_all_ones(self, fixture):
        g, _ = fixture
        ones = {e: Fraction(1) for e in g.edges()}
        assert all(v == 1 for v in face_x_values(g, ones).values())

    def test_non_cycle_rejected(self, fixture):
        g, wt = fixture
        with pytest.raises(Exception):
            x_of_cycle(g, wt, ["e1+"])

    def test_basis_omits_the_last_face_by_number(self):
        # faces f0 to f15: the last by number is f15, where the largest id
        # as a string would be f9
        gi = square(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 3)))
        values, _ = basis_x_values(g, wt)
        assert g.face_ids() == [f"f{k}" for k in range(16)]
        assert g.face_ids()[-1] == "f15" and "f15" not in values
        assert sorted(values) == sorted(g.face_ids()[:-1] + ["a", "b"])


def gauge_canonicalize(g, wt):
    """Gauge so that a deterministic spanning tree (lowest edge ids) has
    weight 1 everywhere. Two cochains are gauge equivalent iff their
    canonical forms are equal."""
    pot = {g.vertex_ids()[0]: one_like(wt.values())}
    for v, e, u in g.spanning_tree():
        # want pot[b]^-1 * wt * pot[w] == 1
        pot[u] = pot[v] / wt[e] if g.colors[v] == "b" else pot[v] * wt[e]
    if len(pot) != len(g.vertex_ids()):
        raise GraphError("graph is disconnected")
    return gauge_transform(g, wt, pot)


class TestGauge:
    def test_invariance_random_vertex_function(self, fixture):
        g, wt = fixture
        rng = random.Random(2)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        wt2 = gauge_transform(g, wt, f)
        assert face_x_values(g, wt) == face_x_values(g, wt2)
        assert x_of_cycle(g, wt, FIXTURE_CYCLE_A) == x_of_cycle(g, wt2, FIXTURE_CYCLE_A)

    def test_canonical_form_identifies_gauge_class(self, fixture):
        g, wt = fixture
        rng = random.Random(5)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        assert gauge_canonicalize(g, wt) == gauge_canonicalize(g, gauge_transform(g, wt, f))

    def test_tree_edges_one(self, fixture):
        g, wt = fixture
        canon = gauge_canonicalize(g, wt)
        ones = [e for e, v in canon.items() if v == 1]
        assert len(ones) >= len(g.vertex_ids()) - 1
        assert face_x_values(g, canon) == face_x_values(g, wt)


class TestIntersectionPairing:
    def test_transport_table(self):
        gi = square(2, 2)
        g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
        f = gm.squares["h00"]
        sq = g.face_darts(f)
        # neighbor faces in ccw order around the square
        neighbors = []
        for d in sq:
            nf = g.face_of_dart(g.twin(d))
            if nf not in neighbors and nf != f:
                neighbors.append(nf)
        assert len(neighbors) == 4
        table = [intersection_pairing(g, g.face_darts(nf), sq) for nf in neighbors]
        assert sorted(table) == [-1, -1, 1, 1]
        assert [abs(t) for t in table] == [1, 1, 1, 1]
        # alternating around the square
        assert table[0] == -table[1] == table[2] == -table[3]
        # the paper's normalization: the face sharing the s-edge pendant side
        # transports with +1
        assert set(table) == {1, -1}

    def test_antisymmetry_and_self(self, fixture):
        g, wt = fixture
        c1 = g.face_darts("f2")
        c2 = g.face_darts("f0")
        assert intersection_pairing(g, c1, c1) == 0
        assert intersection_pairing(g, c1, c2) == -intersection_pairing(g, c2, c1)

    def test_fixture_octagons(self, fixture):
        g, _ = fixture
        sq = g.face_darts("f2")
        assert abs(intersection_pairing(g, g.face_darts("f0"), sq)) == 2
        assert abs(intersection_pairing(g, g.face_darts("f1"), sq)) == 2
        assert intersection_pairing(g, g.face_darts("f3"), sq) == 0

    def test_nontrivalent_rejected(self):
        g, _, _ = parse_torus_graph(ISING_FIXTURE)
        gi = reparsed(g)
        gi.colors = {"n": "b"}
        with pytest.raises(Exception):
            intersection_pairing(gi, ["1+", "1-"], ["2+", "2-"])


def reference_half_cross_sign(g, v, t1, t2):
    """Reference for half_cross_sign: strand ends at angles 2 pi p / n on the
    unit circle, p = idx(port) + 0.2 + 0.6 r / n with r the ccw distance to
    the other port; the sign of the cross product of the two chords where
    their segments cross, else 0."""
    rot = g.rotation[v]
    n = len(rot)
    idx = {p: i for i, p in enumerate(rot)}

    def point(port, other):
        t = 2 * math.pi * (idx[port] + 0.2 + 0.6 * (((idx[other] - idx[port]) % n) / n)) / n
        return math.cos(t), math.sin(t)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    (a1, b1), (a2, b2) = t1, t2
    p1, q1, p2, q2 = point(a1, b1), point(b1, a1), point(a2, b2), point(b2, a2)
    if not (orient(p1, q1, p2) * orient(p1, q1, q2) < 0 and orient(p2, q2, p1) * orient(p2, q2, q1) < 0):
        return 0
    d1, d2 = (q1[0] - p1[0], q1[1] - p1[1]), (q2[0] - p2[0], q2[1] - p2[1])
    return 1 if d1[0] * d2[1] - d1[1] * d2[0] > 0 else -1


class TestCrossingSign:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_chord_reference(self, n):
        # every ordered pair of transits, back-tracking ones included, that
        # share exactly one port: 4n(n - 1)^2, 3696 over n = 2..8
        ports = [f"p{i}" for i in range(n)]
        g = types.SimpleNamespace(rotation={"v": ports})
        transits = [(a, b) for a in ports for b in ports]
        pairs = [(t1, t2) for t1 in transits for t2 in transits
                 if len(set(t1) & set(t2)) == 1 and set(t1) != set(t2)]
        assert len(pairs) == 4 * n * (n - 1) ** 2
        got = [half_cross_sign(g, "v", t1, t2) for t1, t2 in pairs]
        assert got == [reference_half_cross_sign(g, "v", t1, t2) for t1, t2 in pairs]
        assert set(got) <= {-1, 0, 1} and all(type(x) is int for x in got)


class TestSquareMove:
    def test_x_inverse_at_moved_face(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        g2, wt2, rec = square_move(g, wt, "f2")
        fx2 = face_x_values(g2, wt2)
        assert fx2[rec.map_face("f2")] == 1 / fx["f2"]

    @pytest.mark.parametrize("edges,weight", [(("e10", "e9"), 1e200),
                                              (("e10", "e12", "e9", "e7"), 1e-200)])
    def test_float_range(self, fixture, edges, weight):
        # a c + b d of the face f2 overflows (the new weights would be 0) or
        # underflows to 0
        g, wt = fixture
        wt = {e: float(v) for e, v in wt.items()}
        wt.update(dict.fromkeys(edges, weight))
        with pytest.raises(MoveError, match="square move at f2 takes weights out of the float range"):
            square_move(g, wt, "f2")

    def test_mutation_formula_random_weights(self):
        rng = random.Random(9)
        gi = square(2, 1)
        g, _, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
        wt = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in g.edges()}
        f = gm.squares["h00"]
        fx = face_x_values(g, wt)
        Xf = fx[f]
        g2, wt2, rec = square_move(g, wt, f)
        fx2 = face_x_values(g2, wt2)
        assert fx2[rec.map_face(f)] == 1 / Xf
        for fid in g.face_ids():
            if fid == f:
                continue
            pairing = int(intersection_pairing(g, g.face_darts(fid), g.face_darts(f)))
            got = fx2[rec.map_face(fid)]
            pred = fx[fid] * (1 + Xf) ** (-pairing) * Xf ** max(0, pairing)
            assert got == pred
            if pairing == 1:
                assert got == fx[fid] / (1 + 1 / Xf)

    def test_involution(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        xa = x_of_cycle(g, wt, FIXTURE_CYCLE_A)
        g2, wt2, rec = square_move(g, wt, "f2")
        a2 = rec.reroute(FIXTURE_CYCLE_A)
        g3, wt3, rec2 = square_move(g2, wt2, rec.map_face("f2"))
        a3 = rec2.reroute(a2)
        for fid in g.face_ids():
            assert face_x_values(g3, wt3)[rec2.map_face(rec.map_face(fid))] == fx[fid]
        assert x_of_cycle(g3, wt3, a3) == xa

    def test_unit_weights_give_half(self, fixture):
        g, wt = fixture
        ones = {e: Fraction(1) for e in g.edges()}
        g2, wt2, rec = square_move(g, ones, "f2")
        new_square = g2.face_darts(rec.map_face("f2"))
        vals = sorted(wt2[g2.darts[d].edge] for d in new_square)
        assert vals == [Fraction(1, 2)] * 4

    def test_transport_preserves_homology(self, fixture):
        g, wt = fixture
        g2, wt2, rec = square_move(g, wt, "f2")
        for cyc in (FIXTURE_CYCLE_A, FIXTURE_CYCLE_B):
            assert g2.cycle_displacement(rec.reroute(cyc)) == g.cycle_displacement(cyc)

    def test_transport_linearity(self, fixture):
        # transport of a formal sum is the sum of transports: the images are
        # cycles with summed homology and multiplied X values
        g, wt = fixture
        g2, wt2, rec = square_move(g, wt, "f2")
        ra = rec.reroute(FIXTURE_CYCLE_A)
        rb = rec.reroute(FIXTURE_CYCLE_B)
        da = g.cycle_displacement(FIXTURE_CYCLE_A)
        db = g.cycle_displacement(FIXTURE_CYCLE_B)
        dsum = g2.cycle_displacement(ra + rb)
        assert dsum == (da[0] + db[0], da[1] + db[1])
        assert x_of_cycle(g2, wt2, ra) * x_of_cycle(g2, wt2, rb) == \
            x_of_cycle(g2, wt2, ra + rb)

    @pytest.mark.parametrize("lattice", ["fixture", "square 2x1"])
    def test_routes_match_hop_table(self, fixture, lattice):
        # every hop corner -> old black -> corner of the square against the
        # literal table of the twelve routes; a hop back to its own corner
        # along the same edge is a spur, cancelled before routing
        if lattice == "fixture":
            (g, wt), f = fixture, "f2"
        else:
            gi = square(2, 1)
            g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
            f = gm.squares["h00"]
        orbit = g.face_darts(f)
        if g.colors[g.tail(orbit[0])] == "w":
            orbit = orbit[1:] + orbit[:1]
        B1, B2 = g.tail(orbit[0]), g.tail(orbit[2])
        _, _, rec = square_move(g, wt, f)
        m1, m2, m3, m4 = rec.data["corners"]
        pA1, pB3, eA2, eA4, eB2, eB4 = (f"{f}_{x}" for x in ("pA", "pB", "a2", "a4", "b2", "b4"))
        table = {
            (m2, B1, m3): [eB2 + "-", pB3 + "+"], (m3, B1, m2): [pB3 + "-", eB2 + "+"],
            (m2, B1, m1): [eA2 + "-", pA1 + "+"], (m1, B1, m2): [pA1 + "-", eA2 + "+"],
            (m4, B2, m3): [eB4 + "-", pB3 + "+"], (m3, B2, m4): [pB3 + "-", eB4 + "+"],
            (m4, B2, m1): [eA4 + "-", pA1 + "+"], (m1, B2, m4): [pA1 + "-", eA4 + "+"],
            (m1, B1, m3): [pA1 + "-", eA2 + "+", eB2 + "-", pB3 + "+"],
            (m3, B1, m1): [pB3 + "-", eB2 + "+", eA2 + "-", pA1 + "+"],
            (m1, B2, m3): [pA1 + "-", eA4 + "+", eB4 + "-", pB3 + "+"],
            (m3, B2, m1): [pB3 + "-", eB4 + "+", eA4 + "-", pA1 + "+"],
        }
        moved = {g.darts[d].edge for B in (B1, B2) for d in g.rotation[B]}
        kept = next(d for d in sorted(g.darts) if g.darts[d].edge not in moved)
        hops = 0
        for B in (B1, B2):
            for into in g.rotation[B]:
                for out in g.rotation[B]:
                    walk = [kept, g.twin(into), out]
                    key = (g.head(into), B, g.head(out))
                    if into == out:
                        assert rec.reroute(walk) == [kept]
                    else:
                        assert rec.reroute(walk) == [kept] + table[key]
                        hops += 1
        assert hops == len(table)

    def test_basis_follows_moves(self, fixture):
        # two moves: X of the carried faces and cycles by XBasis against the
        # face maps composed and the cycles rerouted by hand
        g, wt = fixture
        start = XBasis.of(g)
        assert start.values(g, wt, ["f0", "f1", "f2"]) == basis_x_values(g, wt)[0]
        g2, wt2, rec = square_move(g, wt, "f3")
        g3, wt3, rec2 = square_move(g2, wt2, rec.map_face("f2"))
        basis = start.follow(rec).follow(rec2)
        want = {fid: x_of_cycle(g3, wt3, g3.face_darts(rec2.map_face(rec.map_face(fid))))
                for fid in g.face_ids()}
        want.update((k, x_of_cycle(g3, wt3, rec2.reroute(rec.reroute(c))))
                    for k, c in zip("ab", g.homology_basis_cycles()))
        assert basis.values(g3, wt3, g.face_ids()) == want
        assert start.cycles == dict(zip("ab", map(list, g.homology_basis_cycles())))

    def test_non_quadrilateral_rejected(self, fixture):
        g, wt = fixture
        with pytest.raises(MoveError):
            square_move(g, wt, "f0")

    @pytest.mark.parametrize("kind", [Fraction, float])
    def test_new_weights_are_the_gauged_quotients(self, kind):
        # the rule with the pendants gauged to 1, in the weights' own
        # arithmetic and order: a, b, c, d are the square's weights over the
        # pendant weight at their black; the pendants become 1, the
        # diagonals d, a, c, b over a c + b d
        rng = random.Random(5)
        gi = square(2, 1)
        g, _, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
        wt = {e: kind(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for e in g.edges()}
        f = gm.squares["h00"]
        orbit = g.face_darts(f)
        if g.colors[g.tail(orbit[0])] == "w":
            orbit = orbit[1:] + orbit[:1]
        w = [wt[g.darts[d].edge] for d in orbit]
        pendant = {}
        for i in (0, 2):
            black, around = g.tail(orbit[i]), {orbit[i], g.twin(orbit[i - 1])}
            p = next(d for d in g.rotation[black] if d not in around)
            pendant[i] = pendant[(i - 1) % 4] = wt[g.darts[p].edge]
        a, dd, c, b = (w[i] / pendant[i] for i in range(4))
        delta = a * c + b * dd
        one = pendant[0] / pendant[0]
        g2, wt2, _ = square_move(g, wt, f)
        got = {e[len(f):]: x for e, x in wt2.items() if e.startswith(f + "_")}
        assert got == {"_pA": one, "_pB": one, "_a2": dd / delta, "_a4": a / delta,
                       "_b2": c / delta, "_b4": b / delta}
        assert all(type(x) is kind for x in wt2.values())
        rest = {e: x for e, x in wt2.items() if not e.startswith(f + "_")}
        assert rest == {e: wt[e] for e in g2.edges() if e in wt}

    def test_blacks_keep_their_names(self):
        # 20 involutive pairs (a move, then the move at the face it made) on
        # the square 2x2 gadget graph: the new blacks take the removed ones'
        # names, so the vertex ids never change
        gi = square(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 3)))
        ids, rng = set(g.colors), random.Random(7)
        for _ in range(20):
            quads = [f for f, orbit in g.faces() if len(orbit) == 4]
            rng.shuffle(quads)
            for f in quads:
                try:
                    g1, wt1, rec = square_move(g, wt, f)
                except MoveError:
                    continue
                assert set(g1.colors) == ids and set(rec.data["new_blacks"]) <= ids
                g, wt, _ = square_move(g1, wt1, rec.data["new_face"])
                assert set(g.colors) == ids
                break
            else:
                pytest.fail("no face admits a square move")

    def test_spur_in_a_cycle_reroutes(self):
        # cycle a of the square 2x2 gadget graph passes W_p10_2, a corner of
        # square f1; a spur there, out along the square's other side dart
        # and back, leaves X as it is, and after the square move at f1 the
        # rerouted cycle has the X of the rerouted spur-free one
        gi = square(2, 2)
        g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 3)))
        assert gm.squares["h00"] == "f1"
        a = XBasis.of(g).cycles["a"]
        k = a.index("c_h00--")
        assert g.tail("c_h00--") == "W_p10_2" and {"c_h00--", "s_h00-+"} <= set(g.face_darts("f1"))
        spur = a[:k] + ["s_h00--", "s_h00-+"] + a[k:]
        assert x_of_cycle(g, wt, spur) == x_of_cycle(g, wt, a)
        g2, wt2, rec = square_move(g, wt, "f1")
        assert x_of_cycle(g2, wt2, rec.reroute(spur)) == x_of_cycle(g2, wt2, rec.reroute(a))
        # the same spur at the walk's seam, split between its last and first dart
        seam = ["s_h00-+"] + a[k:] + a[:k] + ["s_h00--"]
        assert x_of_cycle(g2, wt2, rec.reroute(seam)) == x_of_cycle(g2, wt2, rec.reroute(a))

    @pytest.mark.parametrize("seed", [19, 33])
    def test_single_moves_keep_the_cycles(self, seed):
        # single square moves and colour changes on the honeycomb 2x2 gadget
        # graph: within 40 steps of both seeds rerouting leaves a cycle that
        # passes a corner and comes straight back, and a later move at that
        # square must still route it. The carried a and b stay closed walks
        # of their class
        gi = honeycomb(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 3)))
        rng, basis = random.Random(seed), XBasis.of(g)
        classes = {k: g.cycle_displacement(c) for k, c in basis.cycles.items()}
        for _ in range(40):
            if rng.random() < 0.2:
                g, wt = color_change(g, wt)
                continue
            quads = [f for f, orbit in g.faces() if len(orbit) == 4]
            rng.shuffle(quads)
            for f in quads:
                try:
                    g, wt, rec = square_move(g, wt, f)
                except MoveError:
                    continue
                basis = basis.follow(rec)
                break
            assert {k: g.cycle_displacement(c) for k, c in basis.cycles.items()} == classes
            assert all(type(x) is Fraction for x in basis.values(g, wt, []).values())

    def test_cost_is_local(self, monkeypatch):
        # one square move and one XBasis.follow on the square 2x2, 4x4 and
        # 6x6 gadget graphs: no (id, orbit) list is built, no orbit is read
        # again and no basis face is scanned; the darts _trace visits, the
        # face_of_dart calls, the faces the edit traced again (moved_roots)
        # and the basis faces follow rewrites are as many at every size
        trace, face_of_dart = TorusGraph._trace, TorusGraph.face_of_dart
        counts = {}

        def counted_trace(self, starts):
            roots = trace(self, starts)
            counts["darts"] += sum(len(self._orbit[r]) for r in roots)
            return roots

        def counted_face_of_dart(self, d):
            counts["face_of_dart"] += 1
            return face_of_dart(self, d)

        def no_list(self):
            raise AssertionError("the (id, orbit) list is built")

        def no_orbit(self, root):
            raise AssertionError("an orbit is read")

        class NoScan(dict):
            def items(self):
                raise AssertionError("the basis faces are scanned")
            keys = values = items

        seen = []
        for k in (2, 4, 6):
            gi = square(k, k)
            g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
            basis, faces = XBasis.of(g), len(g.faces())
            basis = XBasis(NoScan(basis.roots), NoScan(basis.keys), basis.cycles)
            with monkeypatch.context() as m:
                for name, spy in [("_trace", counted_trace), ("face_of_dart", counted_face_of_dart),
                                  ("orbit", no_orbit), ("faces", no_list), ("face_ids", no_list)]:
                    m.setattr(TorusGraph, name, spy)
                counts.update(darts=0, face_of_dart=0)
                gn, _, rec = square_move(g, wt, gm.squares["h00"])
                after = basis.follow(rec)
            moved = gn.moved_roots
            assert moved and set(moved.values()) <= set(gn._orbit)
            rewritten = {key for key, r in dict(basis.roots).items() if after.roots[key] != r}
            assert {dict(basis.roots)[key] for key in rewritten} <= set(rec.data["roots"])
            assert after.keys == {r: key for key, r in after.roots.items()}
            seen.append((dict(counts), len(moved), len(rewritten), faces))
        assert seen[0][:3] == seen[1][:3] == seen[2][:3]
        assert seen[0][0]["darts"] > 0 and seen[0][0]["face_of_dart"] > 0 and seen[0][2] > 0
        assert [faces for *_, faces in seen] == [16, 64, 144]


class TestContraction:
    def test_roundtrip_after_uncontraction(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        g1, wt1, rec1 = uncontraction_move(g, wt, "b1", 0, 2)
        assert g1.validate()["V"] == 10
        mid = rec1.data["parts"][2]
        assert g1.degree(mid) == 2
        g2, wt2, rec2 = contraction_move(g1, wt1, mid)
        assert g2.isomorphic(g)
        fx2 = face_x_values(g2, wt2)
        for fid in g.face_ids():
            assert fx2[rec2.map_face(rec1.map_face(fid))] == fx[fid]

    def test_figure_contract_degree(self, fixture):
        g, wt = fixture
        g1, wt1, rec1 = uncontraction_move(g, wt, "b1", 1, 1)
        mid = rec1.data["parts"][2]
        v1, v2, _ = rec1.data["parts"]
        assert g1.degree(v1) == 2 and g1.degree(v2) == 3
        g2, wt2, _ = contraction_move(g1, wt1, v1)
        assert g2.validate()["V"] == 8

    def test_wrong_degree_rejected(self, fixture):
        g, wt = fixture
        with pytest.raises(MoveError):
            contraction_move(g, wt, "b1")


def assert_local_move(g, gn, rec):
    """gn, made from g by a local move, passes a full validate() and equals
    its copy re-traced from scratch in faces, face ids, serialization and
    the face map of the move record."""
    gn.validate()
    h = retraced(gn)
    assert_same_faces(gn, h)
    expect = {}
    for fid, orbit in retraced(g).faces():
        survivor = next((d for d in orbit if d in h.darts), None)
        if survivor is not None:
            expect[fid] = h.face_of_dart(survivor)
    if rec.kind == "square":
        new = rec.data["new_face"]
        assert {h.tail(d) for d in h.face_darts(new)} >= set(rec.data["new_blacks"])
        expect[rec.data["face"]] = new
    assert {fid: rec.map_face(fid) for fid in g.face_ids()} == expect


class TestLocalMoves:
    @pytest.mark.parametrize("make,couplings,seed", [
        (square, lambda g: pythagorean_couplings(g, 3), 11),
        (square, lambda g: pythagorean_couplings(g, 5), 12),
        (honeycomb, lambda g: {e: make_coupling(sc=(S1, C1)) for e in g.edges()}, 13)],
        ids=["square 2x2 a", "square 2x2 b", "honeycomb 2x2"])
    def test_move_scripts_match_retrace(self, make, couplings, seed):
        gi = make(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, couplings(gi)))
        rng = random.Random(seed)
        squares = 0
        for _ in range(30):
            if rng.random() < 0.2:
                gn, wt = color_change(g, wt)
                assert_same_faces(gn, retraced(gn))
                g = gn
                continue
            quads = [f for f, orbit in g.faces() if len(orbit) == 4]
            rng.shuffle(quads)
            for f in quads:
                try:
                    gn, wtn, rec = square_move(g, wt, f)
                except MoveError:
                    continue
                assert_local_move(g, gn, rec)
                g, wt = gn, wtn
                squares += 1
                break
        assert squares > 15

    @pytest.mark.parametrize("make,k,seed", [(square, 2, 21), (square, 4, 22), (honeycomb, 2, 23)],
                             ids=["square 2x2", "square 4x4", "honeycomb 2x2"])
    def test_chained_script_keeps_ranks_and_basis(self, make, k, seed):
        # a 120-line script of 60 move pairs, as the move-script benchmark
        # makes them: two colour changes, or a square move and the square
        # move at the face it made. After every line the face ranks and
        # orbits kept by the edits equal those traced from scratch, and X on
        # the basis kept by root dart equals, Fraction for Fraction, X on the
        # faces carried by name (map_face) and the cycles carried by reroute
        gi = make(k, k)
        g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 3)))
        rng, basis, start = random.Random(seed), XBasis.of(g), g.face_ids()
        names, cycles = {fid: fid for fid in start}, dict(basis.cycles)

        def check(g, wt):
            h = retraced(g)
            assert g._ranks == [orbit[0] for _, orbit in h.faces()]
            assert_same_faces(g, h)
            want = {fid: x_of_cycle(g, wt, g.face_darts(names[fid])) for fid in start}
            want.update((key, x_of_cycle(g, wt, c)) for key, c in cycles.items())
            got = basis.values(g, wt, start)
            assert got == want and all(type(x) is Fraction for x in got.values())

        squares = 0
        for _ in range(60):
            if rng.random() < 0.2:
                for _ in range(2):
                    g, wt = color_change(g, wt)
                    check(g, wt)
                continue
            quads = [f for f, orbit in g.faces() if len(orbit) == 4]
            rng.shuffle(quads)
            for f in quads:
                try:
                    pair = [square_move(g, wt, f)]
                except MoveError:
                    continue
                g1, wt1, rec = pair[0]
                pair.append(square_move(g1, wt1, rec.data["new_face"]))
                for g, wt, rec in pair:
                    basis = basis.follow(rec)
                    names = {old: rec.map_face(fid) for old, fid in names.items()}
                    cycles = {key: rec.reroute(c) for key, c in cycles.items()}
                    check(g, wt)
                squares += 2
                break
        assert squares > 80

    @pytest.mark.parametrize("v,start,length", [("b1", 0, 2), ("b1", 1, 1), ("w2", 2, 2)])
    def test_contraction_after_uncontraction_matches_retrace(self, fixture, v, start, length):
        g, wt = fixture
        g1, wt1, rec1 = uncontraction_move(g, wt, v, start, length)
        assert_local_move(g, g1, rec1)
        for u in rec1.data["parts"]:
            if g1.degree(u) == 2:
                g2, _, rec2 = contraction_move(g1, wt1, u)
                assert_local_move(g1, g2, rec2)

    def test_broken_unvalidated_input_raises(self, fixture):
        g, wt = fixture
        h = reparsed(g)
        h.rotation["b1"] = h.rotation["b1"][:-1]
        h.freeze()
        with pytest.raises(GraphError, match="rotation at b1"):
            square_move(h, wt, "f2")
        with pytest.raises(GraphError, match="rotation at b1"):
            contraction_move(h, wt, "w1")

    def test_unknown_vertex_rejected(self, fixture):
        g, wt = fixture
        with pytest.raises(MoveError, match="unknown vertex nope"):
            contraction_move(g, wt, "nope")

    def test_empty_walk_reroutes_to_empty(self, fixture):
        g, wt = fixture
        g1, wt1, rec1 = uncontraction_move(g, wt, "b1", 0, 2)
        _, _, rec2 = contraction_move(g1, wt1, rec1.data["parts"][2])
        _, _, rec3 = square_move(g, wt, "f3")
        assert [r.kind for r in (rec1, rec2, rec3)] == ["uncontract", "contract", "square"]
        for rec in (rec1, rec2, rec3):
            assert rec.reroute([]) == []


class TestColorChange:
    def test_x_inverts(self, fixture):
        g, wt = fixture
        gb, wtb = color_change(g, wt)
        fx = face_x_values(g, wt)
        for fid, orbit in g.faces():
            assert x_of_cycle(gb, wtb, orbit) == 1 / fx[fid]

    def test_involution(self, fixture):
        g, wt = fixture
        gb, _ = color_change(g, wt)
        gbb, _ = color_change(gb, wt)
        assert gbb.colors == g.colors

    def test_classes_negate(self, fixture):
        # g's zig-zags are traced before the swap, which must trace its own
        g, wt = fixture
        classes = sorted(z["class"] for z in g.zigzag_paths())
        gb, _ = color_change(g, wt)
        assert sorted((-p, -q) for p, q in (z["class"] for z in gb.zigzag_paths())) == classes
        assert gb.zigzag_paths() == parse_torus_graph(serialize_torus_graph(gb))[0].zigzag_paths()


def assert_face_orbits_closed(g, wt=None):
    """Every face orbit of g is a cycle of class (0, 0). With weights wt,
    XBasis.x on every face, which skips that check, equals x_of_cycle on
    the face's orbit, of the same type and bit for bit; x_of_cycle still
    raises on the longest orbit without its last dart."""
    for _, orbit in g.faces():
        assert g.cycle_displacement(orbit) == (0, 0)
    if wt is None:
        return
    basis = XBasis.of(g)
    for key, root in basis.roots.items():
        got, want = basis.x(g, wt, key), x_of_cycle(g, wt, g.orbit(root))
        assert type(got) is type(want) and got == want
    longest = max((orbit for _, orbit in g.faces()), key=len)
    with pytest.raises(GraphError, match="not a cycle"):
        x_of_cycle(g, wt, longest[:-1])


SIZES = ["1x1", "2x1", "2x2", "3x3"]


class TestFaceOrbitX:
    """XBasis.x takes a face's X from its orbit without x_of_cycle's cycle
    check: a face orbit of a validated graph is a closed walk by
    construction."""

    def test_fixtures(self, fixture):
        assert_face_orbits_closed(parse_torus_graph(ISING_FIXTURE)[0])
        assert_face_orbits_closed(*fixture)
        with pytest.raises(GraphError):
            x_of_cycle(*fixture, FIXTURE_CYCLE_A[:-1])

    @pytest.mark.parametrize("kind", ["square", "honeycomb"])
    @pytest.mark.parametrize("size", SIZES)
    def test_lattices_and_gadget_graphs(self, kind, size):
        g = named_lattice(f"{kind} {size}")
        assert_face_orbits_closed(g)
        gd, wt, _ = to_dimer(IsingModel(g, pythagorean_couplings(g, 7, swap=True)))
        assert_face_orbits_closed(gd, wt)
        assert_face_orbits_closed(gd, {e: float(v) for e, v in wt.items()})

    @pytest.mark.parametrize("make,seed", [(square, 1), (honeycomb, 2), (square, 3)],
                             ids=["square 2x2", "honeycomb 2x2", "square 2x2 b"])
    def test_after_move_chains(self, make, seed):
        # square moves, colour swaps and uncontraction-contraction pairs, in
        # a random order, on exact and on float weights
        gi = make(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, seed)))
        rng, kinds = random.Random(seed), []
        for _ in range(30):
            kind = rng.choice(["square", "color", "contract"])
            if kind == "color":
                g, wt = color_change(g, wt)
            elif kind == "contract":
                v = rng.choice(g.vertex_ids())
                g, wt, rec = uncontraction_move(g, wt, v, rng.randrange(g.degree(v)),
                                                rng.randrange(1, g.degree(v)))
                assert_face_orbits_closed(g, wt)
                g, wt, _ = contraction_move(g, wt, rec.data["parts"][2])
            else:
                quads = [f for f, orbit in g.faces() if len(orbit) == 4]
                try:
                    g, wt, _ = square_move(g, wt, rng.choice(quads))
                except MoveError:
                    continue
            kinds.append(kind)
            assert_face_orbits_closed(g, wt)
            assert_face_orbits_closed(g, {e: float(v) for e, v in wt.items()})
        assert set(kinds) == {"square", "color", "contract"}


class TestIsingLocus:
    def test_fixture_passes(self, fixture):
        g, wt = fixture
        ok, report = ising_locus_check(g, wt, fixture_gm())
        assert ok
        assert all(r == 0 for r in report["residuals"].values())
        assert report["isomorphic"]

    def test_missing_square_move_not_isomorphic(self, fixture):
        # one of the two gadget squares left unmoved: the graph is not the
        # color change, and isomorphic says so with the reference
        g, wt = fixture
        gm = GadgetMap({"1": "f2"}, fixture_gm().partners)
        ok, report = ising_locus_check(g, wt, gm)
        assert not ok and report["isomorphic"] is False
        assert (reference_canonical_form(report["mu_graph"])
                != reference_canonical_form(color_change(g, wt)[0]))

    def test_two_cell_passes(self):
        gi = square(2, 1)
        g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 4)))
        ok, report = ising_locus_check(g, wt, gm)
        assert ok, report["residuals"]

    def test_x2_identities(self, fixture):
        g, wt = fixture
        fx = face_x_values(g, wt)
        Xf1, Xf2 = fx["f2"], fx["f3"]
        Xa = x_of_cycle(g, wt, FIXTURE_CYCLE_A)
        Xb = x_of_cycle(g, wt, FIXTURE_CYCLE_B)
        assert Xa ** 2 == Fraction(1296, 4225) == Xf2 / ((1 + Xf1) * (1 + Xf2))
        assert Xb ** 2 == Fraction(169, 16) == (1 + Xf1) * (1 + Xf2) / Xf1
        assert fx["f0"] ** 2 == (1 + Xf1) ** 2 * (1 + Xf2) ** 2 / (Xf1 ** 2 * Xf2 ** 2)

    def test_single_perturbation_fails(self, fixture):
        g, wt = fixture
        wtp = dict(wt)
        wtp["e2"] *= 2
        ok, report = ising_locus_check(g, wtp, fixture_gm())
        assert not ok
        assert any(r != 0 for r in report["residuals"].values())


def ising_from_faces(face_x):
    """Couplings from square-face X values: s = sqrt(X/(1+X)), c = sqrt(1/(1+X)).

    Exact (s, c) when the fractions are perfect squares, else numeric from
    x = (1 - c)/s.
    """
    out = {}
    for key, x in face_x.items():
        if isinstance(x, Fraction):
            if x <= 0:
                raise MoveError(f"face X must be positive, got {x}")
            s2 = x / (1 + x)
            c2 = 1 / (1 + x)
            s, c = _fraction_sqrt(s2), _fraction_sqrt(c2)
            if s is not None and c is not None:
                out[key] = make_coupling(sc=(s, c))
                continue
            x = float(x)
        if x <= 0:
            raise MoveError(f"face X must be positive, got {x}")
        s = math.sqrt(x / (1 + x))
        c = math.sqrt(1 / (1 + x))
        out[key] = make_coupling(x=(1 - c) / s)
    return out


class TestIsingFromFaces:
    def test_fixture_value(self):
        out = ising_from_faces({"f": Fraction(16, 9)})
        assert out["f"].s == Fraction(4, 5) and out["f"].c == Fraction(3, 5)

    def test_symmetric_point_numeric(self):
        out = ising_from_faces({"f": Fraction(1)})
        assert abs(out["f"].s - 2 ** -0.5) < 1e-12
        assert abs(out["f"].c - 2 ** -0.5) < 1e-12

    def test_roundtrip_through_to_dimer(self):
        gi, _, raw = parse_torus_graph(ISING_FIXTURE)
        model = IsingModel(gi, couplings_from_file_data(raw))
        gd, wt, gm = to_dimer(model)
        fx = face_x_values(gd, wt)
        rec = ising_from_faces({e: fx[gm.squares[e]] for e in gm.squares})
        assert rec["1"].s == S1 and rec["1"].c == C1
        assert rec["2"].s == S2 and rec["2"].c == C2

    def test_nonpositive_rejected(self):
        with pytest.raises(MoveError):
            ising_from_faces({"f": Fraction(-1, 2)})


class TestLocusProperty:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_gauge_perturbations_still_pass(self, seed):
        g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
        rng = random.Random(seed)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        wt2 = gauge_transform(g, wt, f)
        ok, _ = ising_locus_check(g, wt2, fixture_gm())
        assert ok


class TestSharing:
    """An edit shares with its input the dicts it leaves alone, and a colour
    swap shares all of them but the colors: an edit of either graph leaves
    both as they were."""

    @staticmethod
    def snapshot(*graphs):
        return [(serialize_torus_graph(h), h.faces(), dict(h._next), dict(h._prev))
                for h in graphs]

    def assert_apart(self, g, h, edit_g, edit_h):
        before = self.snapshot(g, h)
        edit_g()
        assert self.snapshot(g, h) == before
        edit_h()
        assert self.snapshot(g, h) == before

    @staticmethod
    def subdivided(colors):
        # e9 of the dimer fixture replaced by the path b1 - m1 - m2 - w2
        return dict(drop_edges=["e9"], vertices=[("m1", colors[0], None), ("m2", colors[1], None)],
                    edges=[("y1", "b1", "m1", 0, 0), ("y2", "m1", "m2", 0, 0),
                           ("y3", "m2", "w2", 0, 0)],
                    rotations={"b1": ["y1+", "e8+", "e7+"], "m1": ["y1-", "y2+"],
                               "m2": ["y2-", "y3+"], "w2": ["e1-", "y3-", "e12-"]})

    def test_color_swap(self, fixture):
        g, _ = fixture
        swapped = g.color_swapped()
        assert swapped.darts is g.darts and swapped.colors is not g.colors
        self.assert_apart(g, swapped, lambda: g.edit(**self.subdivided("wb")),
                          lambda: swapped.edit(**self.subdivided("bw")))

    def test_square_move(self):
        gi = square(2, 2)
        g, wt, gm = to_dimer(IsingModel(gi, pythagorean_couplings(gi, 0)))
        h, wt_h, rec = square_move(g, wt, gm.squares["h00"])
        assert h.colors is g.colors and h.positions is g.positions
        self.assert_apart(g, h, lambda: square_move(g, wt, gm.squares["v11"]),
                          lambda: square_move(h, wt_h, rec.data["new_face"]))

    def test_contraction(self, fixture):
        g, wt = fixture
        g1, wt1, rec = uncontraction_move(g, wt, "b1", 0, 2)
        mid = rec.data["parts"][2]
        h, wt_h, _ = contraction_move(g1, wt1, mid)
        self.assert_apart(g1, h, lambda: contraction_move(g1, wt1, mid),
                          lambda: uncontraction_move(h, wt_h, "w2", 2, 2))

    def test_y_delta_both_ways(self):
        g = honeycomb(2, 2)
        model = IsingModel(g, {e: make_coupling(x=Fraction(k, 2 * k + 3))
                               for k, e in enumerate(g.edges(), 1)})
        tri_model = y_delta(model, "v:u00")
        tri = next(f for f in tri_model.graph.face_ids() if len(tri_model.graph.face_darts(f)) == 3)
        # Y -> triangle, then triangle -> Y
        self.assert_apart(model.graph, tri_model.graph, lambda: y_delta(model, "v:u01"),
                          lambda: y_delta(tri_model, "f:" + tri))
        star_model = y_delta(tri_model, "f:" + tri)
        self.assert_apart(tri_model.graph, star_model.graph, lambda: y_delta(tri_model, "v:u01"),
                          lambda: y_delta(star_model, "v:u10"))

    @pytest.mark.parametrize("seed", range(4))
    def test_uncolored_count_follows_edits_and_swaps(self, seed):
        # Y <-> triangle moves drop and add uncolored vertices, and a colour
        # swap keeps the count; it always equals a scan of the colors
        rng = random.Random(seed)
        g = honeycomb(2, 2)
        model = IsingModel(g, {e: make_coupling(x=Fraction(rng.randint(1, 9), 11))
                               for e in g.edges()})
        model.graph.validate()
        for _ in range(12):
            gr = model.graph
            if rng.random() < 0.25:
                model = IsingModel(gr.color_swapped(), model.couplings)
            else:
                sites = ["v:" + v for v in gr.vertex_ids() if gr.degree(v) == 3]
                sites += ["f:" + f for f in gr.face_ids() if len(gr.face_darts(f)) == 3]
                for site in rng.sample(sites, len(sites)):
                    try:
                        model = y_delta(model, site)
                        break
                    except GraphError:
                        continue
            gr = model.graph
            assert gr._uncolored == list(gr.colors.values()).count("n")

    def test_uncolored_count_on_a_partly_colored_graph(self, fixture):
        g, _ = fixture
        h = g.edit(**self.subdivided("nn"))
        assert (g._uncolored, h._uncolored, h.color_swapped()._uncolored) == (0, 2, 2)
        k = h.edit(drop_vertices=["m1", "m2"], drop_edges=["y1", "y2", "y3"],
                   edges=[("e9", "b1", "w2", 0, 0)],
                   rotations={"b1": ["e9+", "e8+", "e7+"], "w2": ["e1-", "e9-", "e12-"]})
        assert k._uncolored == 0 and serialize_torus_graph(k) == serialize_torus_graph(g)
