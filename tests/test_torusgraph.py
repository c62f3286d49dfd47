import random
from fractions import Fraction

import pytest

from isingdimer.dimer import MoveError, color_change, contraction_move, square_move
from isingdimer.ising import IsingModel, couplings_from_file_data, make_coupling, to_dimer, y_delta
from isingdimer.lattices import honeycomb, square
from isingdimer.torusgraph import (
    Dart,
    GraphError,
    ParseError,
    TorusGraph,
    parse_torus_graph,
    serialize_torus_graph,
)

from conftest import DIMER_FIXTURE, ISING_FIXTURE, reparsed, uncontraction_move


def doubled(g, e, after=True):
    """Copy of g with a parallel edge e + 'd' beside e, bounding a digon face
    with it: e'+ goes just after e+ at the tail (before it if not after) and
    e'- just before e- at the head (after it)."""
    h = TorusGraph()
    for v in g.vertex_ids():
        h.add_vertex(v, g.colors[v])
    for x in g.edges():
        h.add_edge(x, *g.edge_ends[x])
    h.add_edge(e + "d", *g.edge_ends[e])
    for v in g.vertex_ids():
        rot = list(g.rotation[v])
        if e + "+" in rot:
            i = rot.index(e + "+")
            rot.insert(i + 1 if after else i, e + "d+")
        if e + "-" in rot:
            i = rot.index(e + "-")
            rot.insert(i if after else i + 1, e + "d-")
        h.set_rotation(v, rot)
    h.freeze()
    h.validate()
    return h


def reference_check_minimal(g):
    """The (2L+1)^2 shift scan: every shift in the window, one dict probe
    per dart-lift of path a. Kept as the reference for check_minimal's
    indexed bigon search; it has no face-count step."""
    zzs = g.zigzag_paths()
    for zz in zzs:
        if zz["class"] == (0, 0):
            return False, {"kind": "zero-homology", "zigzag": zz["id"]}
    L = max(len(zz["darts"]) for zz in zzs) + 1

    def lift(zz):
        out, t = [], (0, 0)
        for _ in range(2 * L + 3):
            for d in zz["darts"]:
                out.append((d, t))
                dd = g.disp(d)
                t = (t[0] + dd[0], t[1] + dd[1])
        return out

    def edge_lift(d, t):
        if d.endswith("+"):
            return (g.darts[d].edge, t)
        dd = g.disp(d)
        return (g.darts[d].edge, (t[0] + dd[0], t[1] + dd[1]))

    lifted = {zz["id"]: lift(zz) for zz in zzs}
    for zz in zzs:
        path, period, edge_seen = lifted[zz["id"]], len(zz["darts"]), {}
        for idx, (d, t) in enumerate(path):
            key = edge_lift(d, t)
            if key in edge_seen:
                prev_idx = edge_seen[key]
                if (idx - prev_idx) % period != 0 or path[prev_idx][0] != d:
                    return False, {"kind": "self-intersection", "zigzag": zz["id"],
                                   "darts": (path[prev_idx][0], d)}
            else:
                edge_seen[key] = idx

    for za in zzs:
        for zb in zzs:
            if za["id"] > zb["id"]:
                continue
            path_a, pos_b, cls = lifted[za["id"]], {}, za["class"]
            for idx, key in enumerate(lifted[zb["id"]]):
                pos_b.setdefault(key, idx)
            for sx in range(-L, L + 1):
                for sy in range(-L, L + 1):
                    if za["id"] == zb["id"] and cls[0] * sy == cls[1] * sx:
                        continue
                    shared = [(idx, pos_b[(d, (t[0] + sx, t[1] + sy))], d, t)
                              for idx, (d, t) in enumerate(path_a)
                              if (d, (t[0] + sx, t[1] + sy)) in pos_b]
                    for i in range(len(shared)):
                        for j in range(i + 1, len(shared)):
                            ia, ib, da, ta = shared[i]
                            ja, jb, db, tb = shared[j]
                            if ia < ja and ib < jb and edge_lift(da, ta) != edge_lift(db, tb):
                                return False, {"kind": "parallel-bigon",
                                               "zigzags": (za["id"], zb["id"]),
                                               "darts": (da, db)}
    return True, {"kind": "minimal"}


def reference_canonical_form(g):
    """Canonical string of the rotation system with colors: a relabeling
    walk from every seed dart, the least repr kept; None for a disconnected
    graph. Kept as the reference for TorusGraph.isomorphic."""
    best = None
    for seed in sorted(g.darts):
        label, order, stack = {}, [], [seed]
        while stack:
            d = stack.pop()
            if d in label:
                continue
            label[d] = len(label)
            order.append(d)
            stack.append(g.twin(d))
            stack.append(g.next_ccw(d))
        if len(label) != len(g.darts):
            continue
        s = repr([(label[g.twin(d)], label[g.next_ccw(d)], g.colors[g.tail(d)])
                  for d in order])
        if best is None or s < best:
            best = s
    return best


def relabeled(g, seed, prefix=""):
    """g with fresh vertex and edge names, a random half of the edges
    reversed, each rotation started at a random dart."""
    rng = random.Random(seed)
    vname = {v: f"{prefix}V{rng.randrange(10**6)}_{i}" for i, v in enumerate(g.vertex_ids())}
    ename = {e: f"{prefix}E{rng.randrange(10**6)}_{i}" for i, e in enumerate(g.edges())}
    flip = {e: rng.random() < 0.5 for e in g.edges()}

    def dart(d):
        sign = {"+": "-", "-": "+"}[d[-1]] if flip[d[:-1]] else d[-1]
        return ename[d[:-1]] + sign

    h = TorusGraph()
    for v in g.vertex_ids():
        h.add_vertex(vname[v], g.colors[v])
    for e in g.edges():
        v1, v2, dx, dy = g.edge_ends[e]
        if flip[e]:
            h.add_edge(ename[e], vname[v2], vname[v1], -dx, -dy)
        else:
            h.add_edge(ename[e], vname[v1], vname[v2], dx, dy)
    for v in g.vertex_ids():
        rot = [dart(d) for d in g.rotation[v]]
        k = rng.randrange(len(rot))
        h.set_rotation(vname[v], rot[k:] + rot[:k])
    return h.freeze()


def disjoint_union(*graphs):
    h = TorusGraph()
    parts = [relabeled(g, k, prefix=f"c{k}") for k, g in enumerate(graphs)]
    for g in parts:
        for v in g.vertex_ids():
            h.add_vertex(v, g.colors[v])
        for e in g.edges():
            h.add_edge(e, *g.edge_ends[e])
        for v in g.vertex_ids():
            h.set_rotation(v, g.rotation[v])
    return h.freeze()


def gadget_moved(make):
    """(gadget graph of make(), the same after its gadget square moves, its
    color change)."""
    g = make()
    gd, wt, gm = to_dimer(IsingModel(g, {e: make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
                                         for e in g.edges()}))
    moved, moved_wt = gd, wt
    face_map = {f: f for f in gd.face_ids()}
    for fid in sorted(set(gm.squares.values())):
        moved, moved_wt, rec = square_move(moved, moved_wt, face_map[fid])
        face_map = {old: rec.map_face(nf) for old, nf in face_map.items()}
    return gd, moved, color_change(gd, wt)[0]


LATTICES = [lambda: square(1, 1), lambda: honeycomb(1, 1), lambda: square(2, 1),
            lambda: honeycomb(2, 1), lambda: square(2, 2), lambda: honeycomb(2, 2)]
LATTICE_IDS = ["square 1x1", "honeycomb 1x1", "square 2x1", "honeycomb 2x1",
               "square 2x2", "honeycomb 2x2"]


class TestValidate:
    def test_ising_fixture(self):
        g, _, _ = parse_torus_graph(ISING_FIXTURE)
        rep = g.validate()
        assert (rep["V"], rep["E"], rep["F"], rep["euler"]) == (1, 2, 1, 0)

    def test_dimer_fixture(self):
        g, _, _ = parse_torus_graph(DIMER_FIXTURE)
        rep = g.validate()
        assert (rep["V"], rep["E"], rep["F"]) == (8, 12, 4)
        assert sorted(rep["faces"].values()) == [4, 4, 8, 8]
        assert rep["bipartite"]

    @pytest.mark.parametrize("parts", [
        (lambda: square(1, 1), lambda: square(1, 1)),
        (lambda: square(1, 1), lambda: honeycomb(2, 1), lambda: square(2, 1)),
    ], ids=["two one-vertex tori", "three lattices"])
    def test_disconnected_rejected(self, parts):
        # each part is a torus, so V - E + F is 0 for the union too
        g = disjoint_union(*(make() for make in parts))
        V, E, F = len(g.colors), len(g.edge_ends), len(g.faces())
        assert V - E + F == 0
        message = f"graph is not connected: {len(parts)} components"
        with pytest.raises(GraphError, match=message):
            g.validate()

    def test_rotation_names_foreign_dart(self):
        g = TorusGraph()
        g.add_vertex("u")
        g.add_vertex("v")
        g.add_edge("e", "u", "v", 0, 0)
        g.set_rotation("u", ["e-"])   # e- is based at v, not u
        g.set_rotation("v", ["e+"])
        with pytest.raises(GraphError, match="e-"):
            g.freeze()

    def test_rotation_names_unknown_dart(self):
        g = TorusGraph()
        g.add_vertex("a")
        g.set_rotation("a", ["x+"])
        with pytest.raises(GraphError, match=r"^rotation at a names unknown dart x\+$"):
            g.freeze()

    def test_face_displacement_violation(self):
        g = TorusGraph()
        g.add_vertex("u")
        g.add_edge("e", "u", "u", 1, 0)
        g.set_rotation("u", ["e+", "e-"])
        g.freeze()
        with pytest.raises(GraphError):
            g.validate()

    def test_monochrome_edge_rejected(self):
        g = TorusGraph()
        g.add_vertex("u", "b")
        g.add_vertex("v", "b")
        g.add_edge("e1", "u", "v", 0, 0)
        g.add_edge("e2", "u", "v", 1, 0)
        g.add_edge("e3", "u", "v", 0, 1)
        g.set_rotation("u", ["e1+", "e2+", "e3+"])
        g.set_rotation("v", ["e1-", "e2-", "e3-"])
        g.freeze()
        with pytest.raises(GraphError, match="joins two"):
            g.validate()


def retraced(g):
    """g's copy with faces traced from scratch, after a full validate()."""
    h = reparsed(g)
    h.validate()
    return h


def assert_same_faces(g, h):
    # the kept face caches too: an edit leaves no root of a dart it dropped
    assert (g._root, g._orbit, g._ranks) == (h._root, h._orbit, h._ranks)
    assert g.faces() == h.faces()
    assert all(g.face_of_dart(d) == h.face_of_dart(d) for d in h.darts)
    assert serialize_torus_graph(g) == serialize_torus_graph(h)


def fixture_graph():
    g, _, _ = parse_torus_graph(DIMER_FIXTURE)
    return g


class TestEdit:
    """TorusGraph.edit on the dimer fixture: b1 has darts e9+ e8+ e7+ (to w2,
    w4, w3, displacement 0); w2 has e1- e9- e12-."""

    def subdivided(self, c1="w", c2="b"):
        # e9 replaced by the path b1 - m1 - m2 - w2
        return dict(drop_edges=["e9"], vertices=[("m1", c1, None), ("m2", c2, None)],
                    edges=[("y1", "b1", "m1", 0, 0), ("y2", "m1", "m2", 0, 0),
                           ("y3", "m2", "w2", 0, 0)],
                    rotations={"b1": ["y1+", "e8+", "e7+"], "m1": ["y1-", "y2+"],
                               "m2": ["y2-", "y3+"], "w2": ["e1-", "y3-", "e12-"]})

    @pytest.mark.parametrize("rb,rw", [(["e9+", "x+", "e8+", "e7+"], ["e1-", "x-", "e9-", "e12-"]),
                                       (["x+", "e9+", "e8+", "e7+"], ["e1-", "e9-", "x-", "e12-"])],
                             ids=["after", "before"])
    def test_digon_matches_retrace(self, rb, rw):
        g = fixture_graph()
        before = serialize_torus_graph(g)
        h = g.edit(edges=[("x", "b1", "w2", 0, 0)], rotations={"b1": rb, "w2": rw})
        assert len(h.faces()) == 5
        assert_same_faces(h, retraced(h))
        assert serialize_torus_graph(g) == before     # the input is left as it was
        assert_same_faces(g, retraced(g))

    def test_subdivision_matches_retrace(self):
        g = fixture_graph()
        h = g.edit(**self.subdivided())
        assert_same_faces(h, retraced(h))
        k = h.edit(drop_vertices=["m1", "m2"], drop_edges=["y1", "y2", "y3"],
                   edges=[("e9", "b1", "w2", 0, 0)],
                   rotations={"b1": ["e9+", "e8+", "e7+"], "w2": ["e1-", "e9-", "e12-"]})
        assert_same_faces(k, retraced(g))

    def test_new_edge_joining_two_blacks(self):
        with pytest.raises(GraphError, match="edge y1 joins two b-vertices"):
            fixture_graph().edit(**self.subdivided("b", "w"))

    def test_old_edges_checked_when_the_last_uncolored_vertex_goes(self):
        # b1 uncolored and w1 black: valid as an uncolored graph; replacing b1
        # by a black vertex colors it, and the old edge e3 joins two blacks
        g = fixture_graph()
        g.colors["b1"], g.colors["w1"] = "n", "b"
        g.validate()
        with pytest.raises(GraphError, match="joins two b-vertices"):
            g.edit(drop_vertices=["b1"], drop_edges=["e7", "e8", "e9"], vertices=[("c", "b", None)],
                   edges=[("x7", "c", "w3", 0, 0), ("x8", "c", "w4", 0, 0), ("x9", "c", "w2", 0, 0)],
                   rotations={"c": ["x9+", "x8+", "x7+"], "w2": ["e1-", "x9-", "e12-"],
                              "w3": ["e10-", "x7-", "e5-"], "w4": ["e6-", "e2-", "x8-"]})

    def test_face_displacement(self):
        with pytest.raises(GraphError, match="nonzero total displacement"):
            fixture_graph().edit(drop_edges=["e9"], edges=[("e9", "b1", "w2", 1, 0)])

    def test_euler_characteristic(self):
        with pytest.raises(GraphError, match="Euler characteristic -2"):
            fixture_graph().edit(edges=[("x", "b1", "w2", 0, 0)],
                                 rotations={"b1": ["e9+", "x+", "e8+", "e7+"],
                                            "w2": ["e1-", "e9-", "x-", "e12-"]})

    @pytest.mark.parametrize("change,message", [
        (dict(rotations={"b1": ["e9+", "e8+"]}), "rotation at b1 does not list exactly its darts"),
        (dict(edges=[("x", "b1", "w2", 0, 0)], rotations={"b1": ["e9+", "x+", "e8+", "e7+"]}),
         "rotation at w2 does not list exactly its darts"),
        (dict(drop_edges=["e9"], rotations={"b1": ["e8+", "e7+"]}),
         "rotation at w2 does not list exactly its darts"),
        (dict(drop_vertices=["b1"]), "rotation at b1 does not list exactly its darts"),
        (dict(vertices=[("m", "w", None)]), "vertex m has no rotation"),
        (dict(rotations={"b1": ["e9+", "e9+", "e8+"]}), "rotation at b1 does not list exactly its darts"),
    ], ids=["touched", "gains", "loses", "dropped", "new", "twice"])
    def test_rotation_lists_exactly_its_darts(self, change, message):
        with pytest.raises(GraphError, match=message):
            fixture_graph().edit(**change)

    @pytest.mark.parametrize("fid", ["f03", "f-1", "f1.0", "F1", "f", "f4", "f+1", "f 1", "f\u0663",
                                     "f" + "9" * 5000, None, 3])
    def test_unknown_face_id(self, fid):
        # f<k> is rank k in decimal digits without a leading zero; the
        # fixture has faces f0 to f3, also after an edit and a colour swap
        g = fixture_graph()
        h = g.edit(**self.subdivided())
        for graph in (g, h, h.color_swapped()):
            assert graph.face_darts("f3") and graph.face_ids() == ["f0", "f1", "f2", "f3"]
            with pytest.raises(GraphError, match=r"^unknown face "):
                graph.face_darts(fid)

    def test_verdict_is_kept_and_freeze_clears_it(self, monkeypatch):
        calls = []
        validate = TorusGraph.validate
        monkeypatch.setattr(TorusGraph, "validate", lambda g: calls.append(g) or validate(g))
        g = fixture_graph()
        change = self.subdivided()
        h = g.edit(**change)
        assert calls == [g]
        h.edit(drop_edges=["y1"], edges=[("y1", "b1", "m1", 0, 0)])
        h.color_swapped().edit(drop_edges=["y1"], edges=[("y1", "b1", "m1", 0, 0)])
        assert calls == [g]
        g.freeze().edit(**change)
        assert calls == [g, g]

    def test_spanning_tree_is_kept_and_new_graphs_start_without_one(self):
        g = fixture_graph()
        tree = g.spanning_tree()
        assert g.spanning_tree() is tree
        h = g.edit(**self.subdivided())
        assert h.spanning_tree() is not tree
        assert h.spanning_tree() == reparsed(h).spanning_tree() != tree
        swapped = g.color_swapped()
        # the tree reads no colour: a colour swap keeps it
        assert swapped.spanning_tree() is tree
        g.freeze()
        assert g.spanning_tree() is not tree and g.spanning_tree() == tree

    def test_unvalidated_broken_input(self):
        g = fixture_graph()
        g.rotation["b1"] = ["e9+", "e8+"]
        g.freeze()
        with pytest.raises(GraphError, match="rotation at b1"):
            g.edit(**self.subdivided())


def twin_faults(g):
    """The darts d of g whose twin darts[d.twin] is missing or is not d
    reversed: named d.twin, with d as its own twin, on d's edge, with
    swapped ends and the negated displacement."""
    darts, out = g.darts, []
    for d, dart in darts.items():
        t = darts.get(dart.twin)
        if t is None or (t.id, t.twin, t.edge, t.vertex, t.head, t.disp) != (
                dart.twin, d, dart.edge, dart.head, dart.vertex, (-dart.disp[0], -dart.disp[1])):
            out.append(d)
    return out


class TestTwins:
    """Every dart's twin mirrors it by construction (only add_edge makes
    darts, tests/test_imports.py::test_only_add_edge_makes_darts), so no
    run-time check repeats it; these tests check the property on the
    fixtures, the lattices and their gadget graphs, and after chains of
    edits."""

    def test_finds_a_faulty_twin(self):
        g = fixture_graph()
        g.darts = dict(g.darts)
        assert twin_faults(g) == []
        g.darts["e9-"] = Dart("e9-", "e9", "w2", "b1", (1, 0), "e9+")
        g.darts["e5-"] = Dart("e5-", "e5", "w3", "b1", (0, -1), "e5+")
        del g.darts["e1-"]
        assert sorted(twin_faults(g)) == ["e1+", "e5+", "e5-", "e9+", "e9-"]

    @pytest.mark.parametrize("text", [ISING_FIXTURE, DIMER_FIXTURE], ids=["ising", "dimer"])
    def test_fixtures(self, text):
        g, _, _ = parse_torus_graph(text)
        assert twin_faults(g) == [] and twin_faults(g.dual_graph()) == []

    @pytest.mark.parametrize("make", LATTICES, ids=LATTICE_IDS)
    def test_lattices_and_gadget_graphs(self, make):
        # the gadget graph, after its gadget square moves, and colour-swapped
        g = make()
        for h in (g, g.dual_graph(), *gadget_moved(make)):
            assert twin_faults(h) == []

    @pytest.mark.parametrize("make,seed", [(square, 1), (honeycomb, 2), (square, 3)],
                             ids=["square 2x2", "honeycomb 2x2", "square 2x2 b"])
    def test_after_moves(self, make, seed):
        # square moves, colour swaps and uncontraction-contraction pairs,
        # in a random order
        gi = make(2, 2)
        g, wt, _ = to_dimer(IsingModel(gi, {e: make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
                                            for e in gi.edges()}))
        rng, kinds = random.Random(seed), []
        for _ in range(30):
            kind = rng.choice(["square", "color", "contract"])
            if kind == "color":
                g, wt = color_change(g, wt)
            elif kind == "contract":
                v = rng.choice(g.vertex_ids())
                g, wt, rec = uncontraction_move(g, wt, v, rng.randrange(g.degree(v)),
                                                rng.randrange(1, g.degree(v)))
                assert twin_faults(g) == []
                g, wt, _ = contraction_move(g, wt, rec.data["parts"][2])
            else:
                quads = [f for f, orbit in g.faces() if len(orbit) == 4]
                try:
                    g, wt, _ = square_move(g, wt, rng.choice(quads))
                except MoveError:
                    continue
            kinds.append(kind)
            assert twin_faults(g) == []
        assert set(kinds) == {"square", "color", "contract"}

    @pytest.mark.parametrize("seed", range(3))
    def test_after_y_delta_moves(self, seed):
        rng = random.Random(seed)
        g = honeycomb(2, 2)
        model = IsingModel(g, {e: make_coupling(x=Fraction(rng.randint(1, 9), 11))
                               for e in g.edges()})
        moves = 0
        for _ in range(12):
            gr = model.graph
            sites = ["v:" + v for v in gr.vertex_ids() if gr.degree(v) == 3]
            sites += ["f:" + f for f in gr.face_ids() if len(gr.face_darts(f)) == 3]
            for site in rng.sample(sites, len(sites)):
                try:
                    model = y_delta(model, site)
                except GraphError:
                    continue
                moves += 1
                break
            assert twin_faults(model.graph) == []
        assert moves > 6


class TestZigzags:
    def test_ising_fixture_classes(self):
        g, _, _ = parse_torus_graph(ISING_FIXTURE)
        classes = sorted(z["class"] for z in g.zigzag_paths())
        assert classes == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_dimer_fixture_classes(self):
        g, _, _ = parse_torus_graph(DIMER_FIXTURE)
        classes = sorted(z["class"] for z in g.zigzag_paths())
        assert classes == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert all(len(z["darts"]) == 6 for z in g.zigzag_paths())

    def test_single_loop(self):
        g = TorusGraph()
        g.add_vertex("u")
        g.add_edge("e", "u", "u", 1, 0)
        g.set_rotation("u", ["e+", "e-"])
        g.freeze()
        classes = sorted(z["class"] for z in g.zigzag_paths())
        assert classes == [(-1, 0), (1, 0)]


class TestHomology:
    def test_red_zigzag_class(self, dimer_fixture):
        g, _ = dimer_fixture
        zz = next(z for z in g.zigzag_paths() if z["class"] == (1, 1))
        assert g.cycle_displacement(zz["darts"]) == (1, 1)

    def test_face_boundary_zero(self, dimer_fixture):
        g, _ = dimer_fixture
        for fid, orbit in g.faces():
            assert g.cycle_displacement(orbit) == (0, 0)

    def test_cycle_plus_reversal_zero(self, dimer_fixture):
        g, _ = dimer_fixture
        zz = g.zigzag_paths()[0]
        both = zz["darts"] + [g.twin(d) for d in zz["darts"]]
        assert g.cycle_displacement(both) == (0, 0)

    def test_non_cycle_rejected(self, dimer_fixture):
        g, _ = dimer_fixture
        with pytest.raises(GraphError):
            g.cycle_displacement(["e1+"])

    @pytest.mark.parametrize("make", LATTICES + [fixture_graph], ids=LATTICE_IDS + ["dimer"])
    def test_basis_cycles_found_once(self, make):
        # closed walks of classes (1, 0) and (0, 1), one cache kept by a
        # colour swap and not by an edit's new graph
        g = make()
        cycles = g.homology_basis_cycles()
        assert [g.cycle_displacement(c) for c in cycles] == [(1, 0), (0, 1)]
        assert g.homology_basis_cycles() is cycles
        assert g.color_swapped().homology_basis_cycles() is cycles
        assert g.edit().homology_basis_cycles() is not cycles

    def test_zigzag_class_sum_is_zero(self, dimer_fixture):
        g, _ = dimer_fixture
        total = [0, 0]
        for z in g.zigzag_paths():
            total[0] += z["class"][0]
            total[1] += z["class"][1]
        assert total == [0, 0]

    def test_every_dart_in_two_faces_with_orientation(self, dimer_fixture):
        g, _ = dimer_fixture
        count = {}
        for fid, orbit in g.faces():
            for d in orbit:
                count[d] = count.get(d, 0) + 1
        assert all(v == 1 for v in count.values())
        assert set(count) == set(g.darts)


# genus of the gadget graph of each lattice: the interior points of its
# Newton polygon (Kenyon-Okounkov, "Planar dimers and Harnack curves")
GADGET_GENUS = [(kind, k, l, genus) for kind, genera in (
    ("square", (1, 3, 3, 5, 11, 11, 13, 25)), ("honeycomb", (1, 3, 3, 7, 13, 13, 19, 37)))
    for (k, l), genus in zip([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 4)],
                             genera)]


def centrally_symmetric(poly):
    return {(-x, -y) for x, y in poly.vertices} == set(poly.vertices)


class TestNewtonPolygon:
    def test_fixture_square(self):
        g, _, _ = parse_torus_graph(ISING_FIXTURE)
        poly = g.newton_polygon()
        assert set(poly.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert not g.is_bipartite_colored()   # so centered, not up to translation
        assert centrally_symmetric(poly)

    def test_dimer_fixture_same_square(self):
        g, _, _ = parse_torus_graph(DIMER_FIXTURE)
        poly = g.newton_polygon()
        assert set(poly.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert g.is_bipartite_colored()   # so up to translation

    @pytest.mark.parametrize("kind,k,l,genus", GADGET_GENUS,
                             ids=[f"{kind} {k}x{l}" for kind, k, l, _ in GADGET_GENUS])
    def test_gadget_genus_odd_and_polygon_symmetric(self, kind, k, l, genus):
        # sigma has no fixed point on the spectral curve off criticality, so
        # Riemann-Hurwitz gives g = 2g' - 1: odd
        g = (square if kind == "square" else honeycomb)(k, l)
        gd, _, _ = to_dimer(IsingModel(g, {e: make_coupling(x=Fraction(1, 3)) for e in g.edges()}))
        poly = gd.newton_polygon()
        assert centrally_symmetric(poly)
        assert poly.genus == genus and genus % 2 == 1

    def test_color_change_reflects_classes(self, dimer_fixture):
        g, _ = dimer_fixture
        from isingdimer.dimer import color_change
        gb, _ = color_change(g, {e: 1 for e in g.edges()})
        a = sorted(z["class"] for z in g.zigzag_paths())
        b = sorted((-p, -q) for p, q in (z["class"] for z in gb.zigzag_paths()))
        assert a == b


class TestMinimal:
    def test_fixture_minimal(self, dimer_fixture):
        g, _ = dimer_fixture
        ok, cert = g.check_minimal()
        assert ok and cert["kind"] == "minimal"

    def test_honeycomb_minimal(self):
        ok, _ = honeycomb(2, 2).check_minimal()
        assert ok

    @staticmethod
    def _zero_homology_graph():
        g = TorusGraph()
        g.add_vertex("u")
        g.add_vertex("v")
        g.add_edge("e1", "u", "v", 0, 0)
        g.add_edge("e2", "u", "v", 0, 0)
        g.add_edge("e3", "u", "v", 1, 0)
        g.add_edge("e4", "u", "v", 0, 1)
        g.set_rotation("u", ["e1+", "e2+", "e3+", "e4+"])
        g.set_rotation("v", ["e1-", "e2-", "e4-", "e3-"])
        return g.freeze()

    def test_zero_homology_detected(self):
        g = self._zero_homology_graph()
        ok, cert = g.check_minimal()
        assert not ok
        assert cert["kind"] in ("zero-homology", "self-intersection", "parallel-bigon")

    def test_zero_homology_certificate(self):
        g = self._zero_homology_graph()
        assert g.check_minimal() == (False, {"kind": "zero-homology", "zigzag": "zz0"})
        assert g.check_minimal() == reference_check_minimal(g)

    @staticmethod
    def _two_vertex_graph(disps):
        """One black, one white and four edges b -> w with the displacements
        given, in the rotations b: e0+ e1+ e2+ e3+ and w: e0- e2- e1- e3-."""
        g = TorusGraph()
        g.add_vertex("b", "b")
        g.add_vertex("w", "w")
        for i, (dx, dy) in enumerate(disps):
            g.add_edge(f"e{i}", "b", "w", dx, dy)
        g.set_rotation("b", ["e0+", "e1+", "e2+", "e3+"])
        g.set_rotation("w", ["e0-", "e2-", "e1-", "e3-"])
        return g.freeze()

    def test_self_intersection_certificate(self):
        # zz1 = e0- e1+ e2- e3+ e1- e2+ has class (1, 0): its e1- and the next
        # period's e1+ run on the one edge-lift (e1, (1, 0))
        g = self._two_vertex_graph([(0, 0), (0, 0), (0, 0), (1, 0)])
        assert g.check_minimal() == (False, {"kind": "self-intersection", "zigzag": "zz1",
                                             "darts": ("e1-", "e1+")})
        assert g.check_minimal() == reference_check_minimal(g)

    def test_self_intersection_is_one_edge_lift_twice(self):
        # with e1 and e2 at (0, 1), zz1 runs e1+ on the edge-lifts (k, 0) and
        # e1- on (k + 1, -1): never one edge-lift twice, although the tails
        # of e1+ and of e1- meet at one translate
        g = self._two_vertex_graph([(0, 0), (0, 1), (0, 1), (1, 0)])
        assert g.check_minimal() == (False, {"kind": "face-count", "faces": 2, "twice_area": 0})
        assert reference_check_minimal(g) == (True, {"kind": "minimal"})
        # zz0 of the doubled honeycomb runs b00d- on (-1, -k) and b00d+ on
        # (0, -1 - k); the digon's bigon is zz0 against zz1
        g = doubled(honeycomb(1, 1), "b00")
        assert g.check_minimal() == (False, {"kind": "parallel-bigon", "zigzags": ("zz0", "zz1"),
                                             "darts": ("a00+", "c00-")})
        assert g.check_minimal() == reference_check_minimal(g)

    def test_parallel_bigon_certificate(self):
        g = doubled(honeycomb(1, 1), "a00")
        assert g.check_minimal() == (False, {"kind": "parallel-bigon",
                                             "zigzags": ("zz0", "zz3"),
                                             "darts": ("b00-", "c00+")})
        assert g.check_minimal() == reference_check_minimal(g)

    def test_digon_face_fails_face_count(self):
        # distinct bipartite zig-zags share no dart, so the bigon search
        # cannot see the digon of a doubled edge; F = 2 Area(N) does
        g, _, raw = parse_torus_graph(ISING_FIXTURE)
        gd, _, _ = to_dimer(IsingModel(g, couplings_from_file_data(raw)))
        assert gd.check_minimal() == (True, {"kind": "minimal", "faces": 4, "twice_area": 4})
        bad = doubled(gd, next(e for e in gd.edges() if e.startswith("s_")))
        assert reference_check_minimal(bad)[0]
        assert bad.check_minimal() == (False, {"kind": "face-count", "faces": 5,
                                               "twice_area": 2})

    @pytest.mark.parametrize("make", [
        lambda: square(1, 1), lambda: honeycomb(1, 1), lambda: square(2, 1),
        lambda: honeycomb(2, 1), lambda: square(2, 2), lambda: honeycomb(2, 2),
    ], ids=["square 1x1", "honeycomb 1x1", "square 2x1", "honeycomb 2x1",
            "square 2x2", "honeycomb 2x2"])
    def test_matches_reference_on_lattices(self, make):
        # an uncolored graph is held to its gadget graph's 2|E| faces
        g = make()
        ok, cert = reference_check_minimal(g)
        assert ok
        E2 = 2 * len(g.edges())
        assert g.check_minimal() == (True, {**cert, "faces": E2, "twice_area": E2})

    @pytest.mark.parametrize("make", [
        lambda: square(1, 1), lambda: honeycomb(1, 1), lambda: square(2, 1),
    ], ids=["4 whites", "6 whites", "8 whites"])
    def test_matches_reference_on_gadget_graphs(self, make):
        g = make()
        gd, _, _ = to_dimer(IsingModel(g, {e: make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
                                           for e in g.edges()}))
        F = len(gd.faces())
        ok, cert = reference_check_minimal(gd)
        assert ok
        assert gd.check_minimal() == (True, {**cert, "faces": F, "twice_area": F})

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_reference_on_doubled_edges(self, seed):
        rng = random.Random(seed)
        g = rng.choice([square(1, 1), honeycomb(1, 1), square(2, 1), honeycomb(2, 1)])
        g = doubled(g, rng.choice(g.edges()), after=rng.random() < 0.5)
        ok, cert = reference_check_minimal(g)
        if not ok:
            assert g.check_minimal() == (ok, cert)
            return
        # the reference misses the digon face; the gadget face count sees it
        assert seed in (2, 6, 7, 10, 14)
        ok, cert = g.check_minimal()
        assert not ok and cert["kind"] == "face-count"
        assert cert["faces"] == 2 * len(g.edges()) > cert["twice_area"]

    @pytest.mark.parametrize("make", [
        lambda: square(1, 1), lambda: honeycomb(1, 1), lambda: square(2, 1),
        lambda: honeycomb(2, 1),
    ], ids=["square 1x1", "honeycomb 1x1", "square 2x1", "honeycomb 2x1"])
    def test_gadget_verdict_on_doubled_edges(self, make):
        # every doubled-edge mutant: the Ising graph and its gadget graph agree
        base = make()
        for e in base.edges():
            for after in (True, False):
                g = doubled(base, e, after)
                model = IsingModel(g, {x: make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
                                       for x in g.edges()})
                assert to_dimer(model)[0].check_minimal()[0] == g.check_minimal()[0]

    def test_relabeling_invariance(self, dimer_fixture):
        g, _ = dimer_fixture
        rng = random.Random(3)
        names = {e: f"x{rng.randrange(10**6)}_{i}" for i, e in enumerate(g.edges())}
        h = TorusGraph()
        for v in g.vertex_ids():
            h.add_vertex(v, g.colors[v])
        for e in g.edges():
            v1, v2, dx, dy = g.edge_ends[e]
            h.add_edge(names[e], v1, v2, dx, dy)
        for v in g.vertex_ids():
            h.set_rotation(v, [names[d[:-1]] + d[-1] for d in g.rotation[v]])
        h.freeze()
        assert h.check_minimal()[0] == g.check_minimal()[0]


class TestDual:
    def test_self_dual_square_lattice(self):
        g, _, _ = parse_torus_graph(ISING_FIXTURE)
        d = g.dual_graph()
        rep = d.validate()
        assert (rep["V"], rep["E"], rep["F"]) == (1, 2, 1)
        assert d.isomorphic(g)

    def test_involution(self):
        g = honeycomb(2, 2)
        dd = g.dual_graph().dual_graph()
        assert dd.isomorphic(g)

    def test_euler_preserved(self):
        g = honeycomb(2, 2)
        d = g.dual_graph()
        assert d.validate()["euler"] == 0


class TestIsomorphic:
    """isomorphic against reference_canonical_form on positive pairs and on
    mutants that keep the dart count."""

    @staticmethod
    def agree(a, b):
        iso = a.isomorphic(b)
        assert iso == b.isomorphic(a) == (reference_canonical_form(a)
                                          == reference_canonical_form(b))
        return iso

    @pytest.mark.parametrize("make", LATTICES + [
        lambda: parse_torus_graph(DIMER_FIXTURE)[0], lambda: parse_torus_graph(ISING_FIXTURE)[0],
        lambda: gadget_moved(lambda: honeycomb(2, 1))[0]],
        ids=LATTICE_IDS + ["dimer fixture", "ising fixture", "gadget honeycomb 2x1"])
    def test_relabeled_copies(self, make):
        g = make()
        for seed in range(3):
            assert self.agree(g, relabeled(g, seed))

    @pytest.mark.parametrize("make", LATTICES[:4], ids=LATTICE_IDS[:4])
    def test_gadget_square_moves_give_color_change(self, make):
        gd, moved, cc = gadget_moved(make)
        assert self.agree(moved, cc)
        assert self.agree(moved, relabeled(cc, 7))
        self.agree(gd, cc)
        self.agree(gd, moved)

    @pytest.mark.parametrize("make", LATTICES[:4], ids=LATTICE_IDS[:4])
    def test_rotation_transposed(self, make):
        # every vertex of the gadget graph in turn: two darts of its rotation swapped
        gd = gadget_moved(make)[0]
        for v in gd.vertex_ids():
            h = reparsed(gd)
            rot = h.rotation[v]
            rot[0], rot[1] = rot[1], rot[0]
            h.freeze()
            assert not self.agree(gd, h)

    @pytest.mark.parametrize("make", LATTICES[:4], ids=LATTICE_IDS[:4])
    def test_color_flipped(self, make):
        gd = gadget_moved(make)[0]
        for v in gd.vertex_ids():
            h = reparsed(gd)
            h.colors[v] = "w" if h.colors[v] == "b" else "b"
            assert not self.agree(gd, h)

    @pytest.mark.parametrize("a,b", [
        (lambda: square(2, 2), lambda: square(4, 1)),
        (lambda: honeycomb(2, 1), lambda: square(3, 1)),
        (lambda: honeycomb(2, 2), lambda: square(3, 2)),
    ], ids=["square 2x2 / 4x1", "honeycomb 2x1 / square 3x1", "honeycomb 2x2 / square 3x2"])
    def test_lattices_with_equal_dart_counts(self, a, b):
        g, h = a(), b()
        assert len(g.darts) == len(h.darts)
        assert not self.agree(g, h)

    def test_disconnected(self):
        # the reference gives None for every disconnected graph, so it calls
        # any two of them equal; isomorphic matches components
        g = disjoint_union(square(1, 1), honeycomb(2, 1))
        assert g.isomorphic(relabeled(g, 5))
        assert g.isomorphic(disjoint_union(honeycomb(2, 1), square(1, 1)))
        h = disjoint_union(square(1, 1), square(3, 1))
        assert len(g.darts) == len(h.darts)
        assert reference_canonical_form(g) is None and reference_canonical_form(h) is None
        assert not g.isomorphic(h) and not h.isomorphic(g)


class TestFormat:
    def test_roundtrip(self, dimer_fixture):
        g, wt = dimer_fixture
        text = serialize_torus_graph(g, weights=wt)
        g2, wt2, _ = parse_torus_graph(text)
        assert g2.isomorphic(g)
        assert wt2 == wt

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_torus_graph("vertex a n\n")

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_torus_graph("torus-graph v1\nfrobnicate a b\n")

    def test_malformed_rot_line_number(self):
        bad = "torus-graph v1\nvertex a n\nvertex b n\nedge e a b 0 0\nrot a zz\nrot b e-\n"
        with pytest.raises(ParseError, match="line 5"):
            parse_torus_graph(bad)

    def test_loop_needs_explicit_dart(self):
        bad = "torus-graph v1\nvertex a n\nedge e a a 1 0\nrot a e e\n"
        with pytest.raises(ParseError, match="explicit dart"):
            parse_torus_graph(bad)

    def test_comments_and_bare_edges(self):
        text = ("torus-graph v1\n# a honeycomb cell\n"
                "vertex u n\nvertex v n\n"
                "edge a u v 0 0\nedge b u v 1 0\nedge c u v 0 1\n"
                "rot u a b c\nrot v a b c\n")
        g, _, _ = parse_torus_graph(text)
        assert g.validate()["E"] == 3
