import math
import sys
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isingdimer.ising import (
    CouplingError,
    IsingModel,
    couplings_from_file_data,
    deltay_x_map,
    dual_ising,
    dual_x,
    make_coupling,
    to_dimer,
    y_delta,
    ydelta_weights,
    ydelta_x_map,
    _reflections,
)
from isingdimer.abel import abel_tree
from isingdimer.cli import main
from isingdimer.spectral import SpectralError
from isingdimer.torusgraph import GraphError, TorusGraph, parse_torus_graph, serialize_torus_graph
from isingdimer.dimer import ising_locus_check
from isingdimer.lattices import honeycomb, square

from conftest import DIMER_FIXTURE, ISING_FIXTURE, S1, C1, S2, C2, face_x_values
from test_torusgraph import doubled


def fixture_model():
    g, _, raw = parse_torus_graph(ISING_FIXTURE)
    return IsingModel(g, couplings_from_file_data(raw))


def honeycomb_model(values, n=2, m=2):
    g = honeycomb(n, m)
    coup = {e: make_coupling(x=x) for e, x in zip(g.edges(), values)}
    return IsingModel(g, coup)


def rebuilt(g, disp):
    """A new frozen graph with the vertices, edges and rotations of g, where
    edge e carries displacement disp(e)."""
    out = TorusGraph()
    for v in g.vertex_ids():
        out.add_vertex(v, g.colors[v], g.positions.get(v))
    for e in g.edges():
        v1, v2, _, _ = g.edge_ends[e]
        out.add_edge(e, v1, v2, *disp(e))
    for v in g.vertex_ids():
        out.set_rotation(v, list(g.rotation[v]))
    return out.freeze()


def reference_apply_lattice_map(g, S):
    """g with every edge displacement mapped by the integer matrix S."""
    def disp(e):
        _, _, dx, dy = g.edge_ends[e]
        return S[0][0] * dx + S[0][1] * dy, S[1][0] * dx + S[1][1] * dy
    return rebuilt(g, disp)


def raw_gadget(model):
    """The gadget graph of to_dimer with the marking before orientation: the
    c-edge c_d carries -disp(d) of the Ising dart d, every other edge 0."""
    disp = model.graph.disp
    return rebuilt(to_dimer(model)[0],
                   lambda e: tuple(-x for x in disp(e[2:])) if e.startswith("c_") else (0, 0))


def reference_orient_marking(gn, minimal):
    """The marking search that to_dimer replaced. `minimal` is the
    check_minimal verdict of the Ising graph. A non-minimal graph, or a raw
    marking that passes the discrete Abel check, keeps the raw marking;
    otherwise the first map of `_reflections` whose image passes the check
    wins, and GraphError is raised when none does."""
    def abel_ok(h):
        try:
            abel_tree(h)
            return True
        except SpectralError:
            return False

    if not minimal or abel_ok(gn):
        return gn
    for S in _reflections(sorted(z["class"] for z in gn.zigzag_paths())):
        flipped = reference_apply_lattice_map(gn, S)
        if abel_ok(flipped):
            return flipped
    raise GraphError("could not orient the gadget marking")


class TestCoupling:
    def test_exact_sc(self):
        c = make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
        assert c.exact and c.s == Fraction(4, 5) and c.x == Fraction(1, 2)

    def test_pythagorean_violation_rejected(self):
        with pytest.raises(CouplingError):
            make_coupling(sc=(Fraction(1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("sc", [(0.8, 0.6), (Fraction(4, 5), 0.6), (0.8, Fraction(3, 5)),
                                    (4, 3)], ids=["floats", "float c", "float s", "ints"])
    def test_sc_takes_fractions_only(self, sc):
        # the parser makes only Fraction pairs; a float pair has no exact x
        with pytest.raises(CouplingError, match="s and c must be Fractions"):
            make_coupling(sc=sc)

    @pytest.mark.parametrize("x", [Fraction(1, 3), 1 / 3, Fraction(7, 9), 0.123456789])
    def test_x_gives_s_and_c_in_its_own_arithmetic(self, x):
        # one formula for both kinds: Fractions stay exact, floats get J
        c = make_coupling(x=x)
        assert (c.s, c.c) == (2 * x / (1 + x * x), (1 - x * x) / (1 + x * x))
        assert c.exact == isinstance(x, Fraction) == (c.J is None)
        assert all(type(v) is type(x) for v in (c.s, c.c, c.x))
        if not c.exact:
            assert c.J == -0.5 * math.log(x)

    def test_self_dual_point(self):
        J = 0.5 * math.log(1 + math.sqrt(2))
        c = make_coupling(J=J)
        assert abs(c.x - (math.sqrt(2) - 1)) < 1e-12

    def test_j_overflow(self):
        # j_max is the last J whose cosh(2J) is a float
        j_max = math.acosh(sys.float_info.max) / 2
        assert 0 < make_coupling(J=j_max).s < 1e-307
        for J in (math.nextafter(j_max, math.inf), 400.0, 1e300):
            with pytest.raises(CouplingError, match=f"J must be at most {j_max!r}"):
                make_coupling(J=J)

    def test_x_out_of_range(self):
        with pytest.raises(CouplingError):
            make_coupling(x=Fraction(3, 2))

    @given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
    @settings(max_examples=40, deadline=None)
    def test_sc_identity(self, x):
        c = make_coupling(x=x)
        assert c.s * c.s + c.c * c.c == 1


class TestDuality:
    def test_dual_value(self):
        assert dual_x(Fraction(1, 2)) == Fraction(1, 3)

    def test_self_dual_value(self):
        x = math.sqrt(2) - 1
        assert abs(dual_x(x) - x) < 1e-12

    def test_involution_exact(self):
        m = fixture_model()
        dd = dual_ising(dual_ising(m))
        assert {e: c.x for e, c in dd.couplings.items()} == \
            {e: c.x for e, c in m.couplings.items()}

    def test_dual_graph_shape(self):
        m = honeycomb_model([Fraction(1, 2)] * 12)
        d = dual_ising(m)
        rep = d.graph.validate()
        assert (rep["V"], rep["E"], rep["F"]) == (4, 12, 8)


class TestYDelta:
    def test_symmetric_fixed_point(self):
        assert ydelta_weights(Fraction(1), Fraction(1), Fraction(1)) == \
            (Fraction(1), Fraction(1), Fraction(1))

    def test_equal_arguments_formula(self):
        for t in (0.3, 0.8, 2.5):
            A, B, C = ydelta_weights(t, t, t)
            expect = math.sqrt((t ** 3 + 1) / (t + t * t))
            assert abs(A - expect) < 1e-12 and A == B == C

    def test_inverse_restores(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b, c = (Fraction(rng.randint(1, 30), rng.randint(31, 60)) for _ in range(3))
            A, B, C = ydelta_weights(a, b, c)
            a2, b2, c2 = deltay_x_map(1 / A, 1 / B, 1 / C)
            assert abs(float(a2) - float(a)) < 1e-12
            assert abs(float(b2) - float(b)) < 1e-12
            assert abs(float(c2) - float(c)) < 1e-12

    def test_x_map_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b, c = (Fraction(rng.randint(1, 30), rng.randint(31, 60)) for _ in range(3))
            got = deltay_x_map(*ydelta_x_map(a, b, c))
            for x, y in zip(got, (a, b, c)):
                assert abs(float(x) - float(y)) < 1e-12

    def test_x_map_roundtrip_exact_at_any_height(self):
        # rational legs with an exact triangle: c = b and (a, y) on the conic
        # y^2 = b^2 a^2 + (1 + b^4) a + b^2; the denominators exceed 10^6
        b = Fraction(1234, 2345)
        a = Fraction(11600885418600409, 12244033579929900)
        tri = ydelta_x_map(a, b, b)
        assert all(isinstance(v, Fraction) for v in tri)
        assert deltay_x_map(*tri) == (a, b, b)

    def test_x_map_roundtrip_near_one(self):
        rng = random.Random(5)
        for _ in range(1000):
            legs = [rng.uniform(0.01, 0.99) for _ in range(3)]
            got = deltay_x_map(*ydelta_x_map(*legs))
            assert max(abs(x - y) for x, y in zip(got, legs)) < 1e-12

    def test_graph_roundtrip(self):
        vals = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5),
                Fraction(3, 7), Fraction(5, 9), Fraction(1, 5), Fraction(2, 7),
                Fraction(3, 8), Fraction(4, 9), Fraction(5, 11), Fraction(6, 13)]
        model = honeycomb_model(vals)
        m2 = y_delta(model, "u00")
        assert m2.graph.validate()["V"] == 7
        tri = [f for f in m2.graph.face_ids() if len(m2.graph.face_darts(f)) == 3]
        m3 = y_delta(m2, tri[0])
        assert m3.graph.isomorphic(model.graph)
        orig = sorted(float(c.x) for c in model.couplings.values())
        back = sorted(float(c.x) for c in m3.couplings.values())
        assert max(abs(p - q) for p, q in zip(orig, back)) < 1e-12

    def test_wrong_local_structure_rejected(self):
        model = honeycomb_model([Fraction(1, 2)] * 12)
        with pytest.raises(Exception):
            y_delta(model, "f0")  # hexagonal face, not a triangle

    def test_commutes_with_duality(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(50):
            vals = [Fraction(rng.randint(1, 30), rng.randint(31, 70)) for _ in range(12)]
            model = honeycomb_model(vals)
            route1 = dual_ising(y_delta(model, "u00"))
            dualed = dual_ising(model)
            # the dual of the star at u00 is a triangular face of the dual
            tri = [f for f in dualed.graph.face_ids()
                   if len(dualed.graph.face_darts(f)) == 3
                   and {dualed.graph.darts[d].edge for d in dualed.graph.face_darts(f)}
                   == {dualed.graph.darts[d].edge for d in model.graph.rotation["u00"]}]
            route2 = y_delta(dualed, "f:" + tri[0])
            x1 = sorted(float(c.x) for c in route1.couplings.values())
            x2 = sorted(float(c.x) for c in route2.couplings.values())
            worst = max(worst, max(abs(p - q) for p, q in zip(x1, x2)))
            assert route1.graph.isomorphic(route2.graph)
        assert worst < 1e-12


def reference_y_to_delta(model, v):
    """Y -> triangle by rebuilding every vertex, edge and rotation."""
    g = model.graph
    if g.degree(v) != 3:
        raise GraphError(f"vertex {v} has degree {g.degree(v)}, need 3")
    legs = list(g.rotation[v])
    ends = [g.head(d) for d in legs]
    if v in ends:
        raise GraphError("star-triangle with a leg looping back to the center is unsupported")
    a, b, c = (model.couplings[g.darts[d].edge].x for d in legs)
    A, B, C = ydelta_x_map(a, b, c)
    new = TorusGraph()
    for u in g.vertex_ids():
        if u != v:
            new.add_vertex(u, g.colors[u], g.positions.get(u))
    kept = [e for e in g.edges() if v not in (g.edge_ends[e][0], g.edge_ends[e][1])]
    for e in kept:
        v1, v2, dx, dy = g.edge_ends[e]
        new.add_edge(e, v1, v2, dx, dy)
    tri_names = []
    weights = {}
    leg_disp = [g.disp(d) for d in legs]
    for i in range(3):
        u1, u2 = ends[(i + 1) % 3], ends[(i + 2) % 3]
        d1, d2 = leg_disp[(i + 1) % 3], leg_disp[(i + 2) % 3]
        name = f"yd_{v}_{i}"
        new.add_edge(name, u1, u2, d2[0] - d1[0], d2[1] - d1[1])
        tri_names.append(name)
        weights[name] = (A, B, C)[i]
    for u in g.vertex_ids():
        if u == v:
            continue
        rot = []
        for d in g.rotation[u]:
            if g.head(d) != v:
                rot.append(d)
                continue
            i = legs.index(g.twin(d))
            rot.append(tri_names[(i + 2) % 3] + "+")
            rot.append(tri_names[(i + 1) % 3] + "-")
        new.set_rotation(u, rot)
    new.freeze()
    couplings = {e: model.couplings[e] for e in kept}
    for name, x in weights.items():
        couplings[name] = make_coupling(x=x if isinstance(x, Fraction) else float(x))
    return IsingModel(new, couplings)


def reference_delta_to_y(model, fid):
    """Triangle -> Y by rebuilding every vertex, edge and rotation."""
    g = model.graph
    orbit = g.face_darts(fid)
    if len(orbit) != 3:
        raise GraphError(f"face {fid} has {len(orbit)} sides, need 3")
    verts = [g.tail(d) for d in orbit]
    if len(set(verts)) != 3:
        raise GraphError("triangle face with repeated vertices is unsupported")
    A = {verts[i]: model.couplings[g.darts[orbit[(i + 1) % 3]].edge].x for i in range(3)}
    a, b, c = deltay_x_map(A[verts[0]], A[verts[1]], A[verts[2]])
    legs_x = {verts[0]: a, verts[1]: b, verts[2]: c}
    center = f"dy_{fid}"
    tri_edges = {g.darts[d].edge for d in orbit}
    new = TorusGraph()
    for u in g.vertex_ids():
        new.add_vertex(u, g.colors[u], g.positions.get(u))
    new.add_vertex(center, "n")
    kept = [e for e in g.edges() if e not in tri_edges]
    for e in kept:
        v1, v2, dx, dy = g.edge_ends[e]
        new.add_edge(e, v1, v2, dx, dy)
    leg_disp = {verts[0]: (0, 0)}
    leg_disp[verts[1]] = g.disp(orbit[0])
    d1 = g.disp(orbit[1])
    leg_disp[verts[2]] = (leg_disp[verts[1]][0] + d1[0], leg_disp[verts[1]][1] + d1[1])
    leg_names = {}
    for i, u in enumerate(verts):
        name = f"dyleg_{fid}_{i}"
        new.add_edge(name, center, u, *leg_disp[u])
        leg_names[u] = name
    for u in g.vertex_ids():
        rot = []
        for d in g.rotation[u]:
            if g.darts[d].edge in tri_edges:
                if rot and rot[-1] == leg_names[u] + "-":
                    continue
                rot.append(leg_names[u] + "-")
            else:
                rot.append(d)
        if len(rot) > 1 and rot[0] == rot[-1] == leg_names[u] + "-":
            rot.pop()
        new.set_rotation(u, rot)
    new.set_rotation(center, [leg_names[u] + "+" for u in verts])
    new.freeze()
    couplings = {e: model.couplings[e] for e in kept}
    for u, name in leg_names.items():
        x = legs_x[u]
        couplings[name] = make_coupling(x=x if isinstance(x, Fraction) else float(x))
    return IsingModel(new, couplings)


def _ydelta_outcome(move, model, site):
    """What the CLI would print for a move: the serialized model with its
    face orbits, or the error message."""
    try:
        out = move(model, site)
    except GraphError as exc:
        return "error: " + str(exc)
    coup = {e: {"s": c.s, "c": c.c} if c.exact else {"J": c.J}
            for e, c in out.couplings.items()}
    return serialize_torus_graph(out.graph, couplings=coup) + repr(out.graph.faces())


def _ydelta_models():
    rng = random.Random(31)
    for make in (lambda: honeycomb(1, 1), lambda: honeycomb(2, 1), lambda: honeycomb(2, 2),
                 lambda: honeycomb(3, 2), lambda: square(2, 2)):
        g = make()
        yield IsingModel(g, {e: make_coupling(x=Fraction(rng.randint(1, 30), rng.randint(31, 60)))
                             for e in g.edges()})
        g = make()
        yield IsingModel(g, {e: make_coupling(x=rng.uniform(0.05, 0.95)) for e in g.edges()})


def _ydelta_cases():
    """(model, site) for every vertex of each model, every triangle of each
    Y -> triangle result and every triangle of each dual."""
    def triangles(m):
        return [f for f in m.graph.face_ids() if len(m.graph.face_darts(f)) == 3]
    for model in _ydelta_models():
        for v in model.graph.vertex_ids():
            yield model, "v:" + v
            try:
                result = y_delta(model, "v:" + v)
            except GraphError:
                continue
            yield from ((result, "f:" + f) for f in triangles(result))
        dual = dual_ising(model)
        yield from ((dual, "f:" + f) for f in triangles(dual))


class TestYDeltaEdit:
    def test_matches_rebuilding_reference(self):
        count = errors = wrapped = 0
        for model, site in _ydelta_cases():
            ref = reference_y_to_delta if site.startswith("v:") else reference_delta_to_y
            want = _ydelta_outcome(ref, model, site[2:])
            assert _ydelta_outcome(y_delta, model, site) == want, site
            count += 1
            errors += want.startswith("error: ")
            if site.startswith("f:"):
                # corners whose two triangle darts are the first and last of
                # their rotation: the leg takes the first one's place
                g = model.graph
                tri = {g.darts[d].edge for d in g.face_darts(site[2:])}
                wrapped += any(g.darts[rot[0]].edge in tri and g.darts[rot[-1]].edge in tri
                               for rot in (g.rotation[g.tail(d)] for d in g.face_darts(site[2:])))
        assert count == 168 and 0 < errors < count and wrapped > 0

    def test_one_edit_no_rebuild(self, monkeypatch):
        # each move is one edit, and the only graph built is the one the
        # edit returns; nothing is frozen, so no rotation is relinked
        calls = {"edit": 0, "init": 0, "freeze": 0}
        edit, init = TorusGraph.edit, TorusGraph.__init__

        def counting_edit(self, *args, **kwargs):
            calls["edit"] += 1
            return edit(self, *args, **kwargs)

        def counting_init(self):
            calls["init"] += 1
            init(self)

        def counting_freeze(self):
            calls["freeze"] += 1

        model = honeycomb_model([Fraction(k, 2 * k + 3) for k in range(1, 13)])
        result = y_delta(model, "v:u00")
        tri = [f for f in result.graph.face_ids() if len(result.graph.face_darts(f)) == 3]
        monkeypatch.setattr(TorusGraph, "edit", counting_edit)
        monkeypatch.setattr(TorusGraph, "__init__", counting_init)
        monkeypatch.setattr(TorusGraph, "freeze", counting_freeze)
        y_delta(model, "v:u00")
        y_delta(result, "f:" + tri[0])
        assert calls == {"edit": 2, "init": 2, "freeze": 0}

    def test_delta_to_y_takes_a_free_name(self):
        # honeycomb 2x2: Y -> triangle at the four u vertices, then triangle
        # -> Y at f0, f3, f4 and f4 again. Every edit renumbers the faces, so
        # the fourth triangle is named f4 too while dy_f4 is taken: its
        # centre is dy_f4_1 with legs dyleg_f4_1_<i>, the first three keep
        # dy_<fid> and dyleg_<fid>_<i>, and the legs carry the x of the map
        g = honeycomb(2, 2)
        model = IsingModel(g, {e: make_coupling(x=Fraction(k, 2 * k + 3))
                               for k, e in enumerate(g.edges(), 1)})
        for v in ("u00", "u01", "u10", "u11"):
            model = y_delta(model, v)
        for fid, center in (("f0", "dy_f0"), ("f3", "dy_f3"), ("f4", "dy_f4"), ("f4", "dy_f4_1")):
            gf = model.graph
            orbit = gf.face_darts(fid)
            xs = deltay_x_map(*(model.couplings[gf.darts[orbit[(i + 1) % 3]].edge].x
                                for i in range(3)))
            model = y_delta(model, "f:" + fid)
            legs = [f"dyleg{center[2:]}_{i}" for i in range(3)]
            assert [d[:-1] for d in model.graph.rotation[center]] == legs
            assert tuple(model.couplings[e].x for e in legs) == xs
        assert sorted(v for v in model.graph.colors if v.startswith("dy")) == \
            ["dy_f0", "dy_f3", "dy_f4", "dy_f4_1"]
        IsingModel(model.graph.freeze(), model.couplings)

    def test_moved_model_is_not_validated_again(self, monkeypatch):
        # the edit checked what it changed; IsingModel keeps that verdict,
        # and validates a graph that has not been checked
        calls = []
        validate = TorusGraph.validate
        monkeypatch.setattr(TorusGraph, "validate", lambda g: calls.append(g) or validate(g))
        model = honeycomb_model([Fraction(k, 2 * k + 3) for k in range(1, 13)])
        assert calls == [model.graph]
        result = y_delta(model, "v:u00")
        tri = [f for f in result.graph.face_ids() if len(result.graph.face_darts(f)) == 3]
        back = y_delta(result, "f:" + tri[0])
        assert calls == [model.graph]
        IsingModel(back.graph.freeze(), back.couplings)
        assert calls == [model.graph, back.graph]


LADDER = [(kind, k, l) for kind in ("square", "honeycomb") for k in (1, 2, 3) for l in (1, 2, 3)]


class TestToDimer:
    def test_fixture_census(self):
        gd, wt, gm = to_dimer(fixture_model())
        rep = gd.validate()
        assert (rep["V"], rep["E"], rep["F"]) == (8, 12, 4)
        assert len(gd.blacks()) == 4 and len(gd.whites()) == 4
        assert sorted(rep["faces"].values()) == [4, 4, 8, 8]

    def test_zigzag_classes_preserved(self):
        gd, _, _ = to_dimer(fixture_model())
        assert sorted(z["class"] for z in gd.zigzag_paths()) == \
            [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_edge_count_and_euler(self):
        model = honeycomb_model([Fraction(1, 2)] * 12)
        E = len(model.graph.edges())
        V = model.graph.validate()["V"]
        F = model.graph.validate()["F"]
        gd, wt, gm = to_dimer(model)
        rep = gd.validate()
        assert rep["E"] == 6 * E
        assert rep["V"] == 4 * E
        assert rep["F"] == E + V + F
        assert 4 * E - 6 * E + (E + V + F) == 0

    def test_isomorphic_to_hand_fixture(self):
        gd, _, _ = to_dimer(fixture_model())
        gf, _, _ = parse_torus_graph(DIMER_FIXTURE)
        assert gd.isomorphic(gf)

    def test_square_weights_and_x(self):
        gd, wt, gm = to_dimer(fixture_model())
        fx = face_x_values(gd, wt)
        xs = sorted(fx[gm.squares[e]] for e in gm.squares)
        assert xs == sorted([S1 * S1 / (C1 * C1), S2 * S2 / (C2 * C2)])
        for fid in gm.squares.values():
            assert len(gd.face_darts(fid)) == 4

    def test_gadget_weights_multiset(self):
        gd, wt, gm = to_dimer(fixture_model())
        vals = sorted(wt.values())
        expect = sorted([Fraction(1)] * 4 + [S1, S1, C1, C1, S2, S2, C2, C2])
        assert vals == expect

    def test_partner_map_bijective(self):
        gd, wt, gm = to_dimer(fixture_model())
        assert sorted(gm.partners) == gd.whites()
        assert sorted(gm.partners.values()) == gd.blacks()
        # the partner black is the white's unique weight-1 neighbor outside
        # its square
        for w, b in gm.partners.items():
            darts = gd.rotation[w]
            ones = [d for d in darts if wt[gd.darts[d].edge] == 1]
            assert len(ones) == 1 and gd.head(ones[0]) == b

    def test_minimality_agreement(self):
        for model in (fixture_model(), honeycomb_model([Fraction(1, 2)] * 12)):
            gd, _, _ = to_dimer(model)
            assert gd.check_minimal()[0] == model.graph.check_minimal()[0]

    def test_polygon_preserved_chirally(self):
        # the 1x1 honeycomb polygon is a hexagon that differs from its mirror
        model = honeycomb_model([Fraction(1, 2)] * 3, 1, 1)
        gd, _, _ = to_dimer(model)
        gp = model.graph.newton_polygon()
        dp = gd.newton_polygon()
        assert sorted(z["class"] for z in gd.zigzag_paths()) == \
            sorted(z["class"] for z in model.graph.zigzag_paths())
        assert gp.normalized().vertices == dp.normalized().vertices

    def test_marking_orientation(self):
        # the discrete Abel translation rule detects orientation-reversed
        # markings; to_dimer output must satisfy it (regression: the raw
        # gadget displacements identify H1 with the reversed orientation)
        from isingdimer.abel import discrete_abel
        for model in (fixture_model(),
                      honeycomb_model([Fraction(1, 2)] * 3, 1, 1),
                      honeycomb_model([Fraction(1, 2)] * 12)):
            gd, _, _ = to_dimer(model)
            discrete_abel(gd, window=1)   # raises if inconsistent

    def test_reflections_match_box_scan(self):
        # reference: every det -1 map in the (2 span + 1)^4 box, same order
        def box(classes):
            span = max(max(abs(p), abs(q)) for p, q in classes) + 1
            r = range(-span, span + 1)
            return [((a, b), (c, d)) for _, _, a, b, c, d in sorted(
                (abs(b) + abs(c), abs(a - 1) + abs(d - 1), a, b, c, d)
                for a in r for b in r for c in r for d in r
                if a * d - b * c == -1
                and sorted((a * p + b * q, c * p + d * q) for p, q in classes) == classes)]

        multisets = [sorted(z["class"] for z in make(n, m).zigzag_paths())
                     for make in (square, honeycomb) for n, m in ((1, 1), (2, 1), (2, 2))]
        # swapping (1, 0) and (3, 1) needs an entry -8, outside the span bound
        multisets.append(sorted([(1, 0), (-1, 0), (3, 1), (-3, -1)]))
        rng = random.Random(4)
        flips = [((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (0, -1))]
        while len(multisets) < 40:
            vs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            (a, b), (c, d) = rng.choice(flips)
            ms = vs + [(a * p + b * q, c * p + d * q) for p, q in vs]
            ms = sorted(ms + [(-p, -q) for p, q in ms])
            if (0, 0) not in ms and any(ms[0][0] * q - ms[0][1] * p for p, q in ms):
                multisets.append(ms)
        for classes in multisets:
            assert _reflections(classes) == box(classes)
        # classes that do not span the plane fix no map; to_dimer falls back
        for classes in ([(0, 0)] * 4, [(0, -2), (0, 2)], [(-1, 1), (-1, 1), (1, -1), (1, -1)],
                        [(-2, -1), (0, 0), (2, 1)]):
            assert _reflections(classes) == []

    def test_oriented_output_matches_fixture_classes(self):
        # a weight-compatible isomorphism onto the worked fixture exists that
        # matches every zig-zag homology class exactly
        gd, wt, _ = to_dimer(fixture_model())
        gf, wtf, _ = parse_torus_graph(DIMER_FIXTURE)

        def dfs_map(g1, g2, seed1, seed2):
            m = {seed1: seed2}
            stack = [seed1]
            while stack:
                d = stack.pop()
                for f in (lambda x: (g1.twin(x), g2.twin(m[x])),
                          lambda x: (g1.next_ccw(x), g2.next_ccw(m[x]))):
                    a, b = f(d)
                    if a in m:
                        if m[a] != b:
                            return None
                    else:
                        m[a] = b
                        stack.append(a)
            return m

        seed1 = sorted(gd.darts)[0]
        exact_match = False
        for seed2 in sorted(gf.darts):
            if gf.colors[gf.tail(seed2)] != gd.colors[gd.tail(seed1)]:
                continue
            m = dfs_map(gd, gf, seed1, seed2)
            if m is None or len(m) != len(gd.darts):
                continue
            if not all(wt[gd.darts[a].edge] == wtf[gf.darts[b].edge] for a, b in m.items()):
                continue
            if all(gf.cycle_displacement([m[d] for d in zz["darts"]]) == zz["class"]
                   for zz in gd.zigzag_paths()):
                exact_match = True
        assert exact_match

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("kind,k,l", LADDER, ids=[f"{kind} {k}x{l}" for kind, k, l in LADDER])
    def test_gadget_by_formula(self, kind, k, l, exact):
        # every gadget name is a formula of an Ising dart d or corner (u, i):
        # B_d, W_u_i, s_d, c_d, o_u_i
        g = (square if kind == "square" else honeycomb)(k, l)
        model = IsingModel(g, {e: make_coupling(x=Fraction(i + 1, 2 * i + 5)) if exact
                               else make_coupling(J=0.2 + 0.05 * i) for i, e in enumerate(g.edges())})
        gd, wt, gm = to_dimer(model)
        (a, b), (c, d) = (_reflections(sorted(z["class"] for z in g.zigzag_paths()))
                          or [((-1, 0), (0, 1))])[0]
        one = Fraction(1) if exact else 1.0
        edges = set()
        for u in g.vertex_ids():
            rot = g.rotation[u]
            for i, e in enumerate(rot):
                nxt, prev = rot[(i + 1) % len(rot)], (i - 1) % len(rot)
                w, cp = f"W_{u}_{i}", model.couplings[g.darts[e].edge]
                dx, dy = g.disp(e)
                ends = {f"s_{e}": (f"B_{e}", w, 0, 0),
                        f"c_{e}": (f"B_{g.twin(e)}", w, -a * dx - b * dy, -c * dx - d * dy),
                        f"o_{u}_{i}": (f"B_{nxt}", w, 0, 0)}
                assert {x: gd.edge_ends[x] for x in ends} == ends
                assert [(wt[x], type(wt[x])) for x in ends] == \
                    [(cp.s, type(cp.s)), (cp.c, type(cp.c)), (one, type(one))]
                assert gd.rotation[f"B_{e}"] == [f"o_{u}_{prev}+", f"s_{e}+", f"c_{g.twin(e)}+"]
                assert gd.rotation[w] == [f"c_{e}-", f"s_{e}-", f"o_{u}_{i}-"]
                assert gm.partners[w] == f"B_{nxt}"
                edges.update(ends)
        assert set(gd.edge_ends) == set(wt) == edges
        assert set(gd.colors) == {f"B_{e}" for e in g.darts} | set(gm.partners)
        for e in g.edges():
            square_edges = {f"s_{e}+", f"c_{e}+", f"s_{e}-", f"c_{e}-"}
            assert gm.squares[e] == gd.face_of_dart(f"s_{e}++")
            assert {gd.darts[x].edge for x in gd.face_darts(gm.squares[e])} == square_edges
        assert sorted(gm.squares) == sorted(g.edges())

    def test_gadget_map_sidecar_roundtrip(self):
        from isingdimer.ising import parse_gadget_map
        _, _, gm = to_dimer(fixture_model())
        gm2 = parse_gadget_map(gm.serialize())
        assert gm2.squares == gm.squares
        assert gm2.partners == gm.partners


class TestOrientedMarking:
    """to_dimer writes the oriented marking while it builds the gadget."""

    @pytest.mark.parametrize("kind,k,l", LADDER, ids=[f"{kind} {k}x{l}" for kind, k, l in LADDER])
    def test_ladder(self, kind, k, l, tmp_path, capsys):
        g = (square if kind == "square" else honeycomb)(k, l)
        model = IsingModel(g, {e: make_coupling(x=Fraction(i + 1, 2 * i + 5))
                               for i, e in enumerate(g.edges())})
        gd, wt, gm = to_dimer(model)
        text = serialize_torus_graph(gd, weights=wt)
        ising = tmp_path / "ising.tg"
        ising.write_text(serialize_torus_graph(g, couplings={
            e: {"s": cp.s, "c": cp.c} for e, cp in model.couplings.items()}))
        dimer, sidecar = tmp_path / "dimer.tg", tmp_path / "gadget.map"
        assert main(["todimer", str(ising), "--out", str(dimer),
                     "--gadget-map", str(sidecar)]) == 0
        assert dimer.read_text() == text and sidecar.read_text() == gm.serialize()
        assert main(["abel", str(dimer)]) == 0
        assert main(["charpoly", str(dimer), "--mode", "numeric"]) == 0
        assert capsys.readouterr().err == ""
        assert ising_locus_check(gd, wt, gm)[0]
        classes = sorted(z["class"] for z in g.zigzag_paths())
        (a, b), (c, d) = (_reflections(classes) or [((-1, 0), (0, 1))])[0]
        assert sorted(z["class"] for z in gd.zigzag_paths()) == \
            sorted((a * p + b * q, c * p + d * q) for p, q in classes)
        try:
            ref = reference_orient_marking(raw_gadget(model), g.check_minimal()[0])
        except GraphError:
            # the search found no det -1 symmetry of these class multisets
            assert (kind, k, l) in (("honeycomb", 3, 2), ("honeycomb", 2, 3))
            assert (a, b, c, d) == (-1, 0, 0, 1)
        else:
            assert serialize_torus_graph(ref, weights=wt) == text

    @pytest.mark.parametrize("make", [lambda: square(1, 1), lambda: honeycomb(1, 1),
                                      lambda: square(2, 1)],
                             ids=["square 1x1", "honeycomb 1x1", "square 2x1"])
    def test_non_minimal_graphs_oriented(self, make):
        # a doubled edge makes the class multiset collinear; the reference
        # kept the raw marking there, which fails the Abel check
        base = make()
        for e in base.edges():
            g = doubled(base, e)
            classes = sorted(z["class"] for z in g.zigzag_paths())
            assert not g.check_minimal()[0]
            assert not any(p * s - q * r for p, q in classes for r, s in classes)
            model = IsingModel(g, {x: make_coupling(x=Fraction(1, 3)) for x in g.edges()})
            gd, _, _ = to_dimer(model)
            abel_tree(gd)
            assert sorted(z["class"] for z in gd.zigzag_paths()) == \
                sorted((-p, q) for p, q in classes)
            with pytest.raises(SpectralError):
                abel_tree(raw_gadget(model))

    def test_one_build_no_search(self, monkeypatch):
        calls = {"check_minimal": 0, "abel_tree": 0, "freeze": 0, "validate": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        import isingdimer.abel
        model = honeycomb_model([Fraction(k, 2 * k + 3) for k in range(1, 13)])
        for name in ("check_minimal", "freeze", "validate"):
            monkeypatch.setattr(TorusGraph, name, counting(name, getattr(TorusGraph, name)))
        monkeypatch.setattr(isingdimer.abel, "abel_tree",
                            counting("abel_tree", isingdimer.abel.abel_tree))
        to_dimer(model)
        assert calls == {"check_minimal": 0, "abel_tree": 0, "freeze": 1, "validate": 1}
