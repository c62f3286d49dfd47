"""Ising models on torus graphs: coupling representations, Kramers-Wannier
duality, the star-triangle move, and the mapping to the bipartite dimer graph.

Couplings are stored in the x-representation x = exp(-2J), which makes all
conversions rational: s = 2x/(1+x^2), c = (1-x^2)/(1+x^2), x = (1-c)/s.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .torusgraph import TorusGraph, GraphError, ParseError


class CouplingError(ValueError):
    pass


def _fraction_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


class Coupling:
    """One Ising edge coupling: s^2 + c^2 = 1 with 0 < s, c < 1.

    Exact couplings keep Fractions throughout and omit J when irrational.
    """

    __slots__ = ("s", "c", "x", "J", "exact")

    def __init__(self, s, c, x, J=None, exact=True):
        self.s = s
        self.c = c
        self.x = x
        self.J = J
        self.exact = exact

    def __repr__(self):
        return f"Coupling(s={self.s}, c={self.c}, x={self.x})"


def make_coupling(J=None, sc=None, x=None):
    """Build a coupling from J > 0, an exact (s, c) pair of Fractions, or x
    in (0, 1), a Fraction (exact) or a float."""
    given = sum(v is not None for v in (J, sc, x))
    if given != 1:
        raise CouplingError("give exactly one of J, sc, x")
    if J is not None:
        if not math.isfinite(J):
            raise CouplingError(f"J must be finite, got {J}")
        if J <= 0:
            raise CouplingError("J must be positive")
        try:
            s = 1.0 / math.cosh(2 * J)
        except OverflowError:
            raise CouplingError(f"J must be at most {math.acosh(sys.float_info.max) / 2!r}, "
                                f"above which cosh(2J) overflows; got {J}") from None
        c = math.tanh(2 * J)
        return Coupling(s, c, math.exp(-2 * J), J=J, exact=False)
    if sc is not None:
        s, c = sc
        if not (isinstance(s, Fraction) and isinstance(c, Fraction)):
            raise CouplingError("s and c must be Fractions")
        if s * s + c * c != 1:
            raise CouplingError(f"s^2 + c^2 = {s * s + c * c} != 1")
        if not (0 < s < 1 and 0 < c < 1):
            raise CouplingError("s and c must lie in (0, 1)")
        return Coupling(s, c, (1 - c) / s)
    exact = isinstance(x, Fraction)
    x = x if exact else float(x)
    if not 0 < x < 1:
        raise CouplingError("x must lie in (0, 1)")
    s = 2 * x / (1 + x * x)
    c = (1 - x * x) / (1 + x * x)
    return Coupling(s, c, x, J=None if exact else -0.5 * math.log(x), exact=exact)


class IsingModel:
    """A torus graph (uncolored, faces disks) with a coupling per edge."""

    def __init__(self, graph, couplings):
        if graph.is_bipartite_colored():
            raise GraphError("Ising graphs are uncolored")
        missing = [e for e in graph.edges() if e not in couplings]
        if missing:
            raise GraphError(f"edges without couplings: {missing}")
        graph.ensure_valid()
        self.graph = graph
        self.couplings = dict(couplings)


def couplings_from_file_data(raw):
    """Convert parser output ({'J': v} or {'s':, 'c':}) to Coupling objects."""
    out = {}
    for e, spec in raw.items():
        if "J" in spec:
            out[e] = make_coupling(J=spec["J"])
        else:
            out[e] = make_coupling(sc=(spec["s"], spec["c"]))
    return out


def dual_x(x):
    """Kramers-Wannier dual coupling: x + x* + x x* = 1."""
    return (1 - x) / (1 + x)


def dual_ising(model):
    """Dual Ising model on the dual graph; x* = (1-x)/(1+x) per edge.

    Dual edge ids equal primal edge ids, so couplings transfer directly.
    """
    dual = model.graph.dual_graph()
    new = {}
    for e, cp in model.couplings.items():
        xs = dual_x(cp.x)
        new[e] = make_coupling(x=xs)
    return IsingModel(dual, new)


def _ydelta_radicals(a, b, c):
    """The three radicands of the star-triangle move, as exact Fractions
    when the inputs are exact."""
    p = a * b * c + 1
    ra = p * (a + b * c) / ((b + a * c) * (c + a * b))
    rb = p * (b + a * c) / ((a + b * c) * (c + a * b))
    rc = p * (c + a * b) / ((a + b * c) * (b + a * c))
    return ra, rb, rc


def ydelta_weights(a, b, c):
    """The star-triangle radicals A, B, C as printed: A = sqrt of
    (abc+1)(a+bc) / ((b+ac)(c+ab)), cyclically.

    Stays exact when every radicand is a perfect square; otherwise floats.
    These are the weights in the exp(+2J) convention; `y_delta` wraps them
    for models kept in x = exp(-2J).
    """
    exact_in = all(isinstance(v, Fraction) for v in (a, b, c))
    if exact_in:
        ra, rb, rc = _ydelta_radicals(Fraction(a), Fraction(b), Fraction(c))
        roots = [_fraction_sqrt(r) for r in (ra, rb, rc)]
        if all(r is not None for r in roots):
            return tuple(roots)
        ra, rb, rc = map(float, (ra, rb, rc))
    else:
        ra, rb, rc = _ydelta_radicals(*map(float, (a, b, c)))
    return (math.sqrt(ra), math.sqrt(rb), math.sqrt(rc))


def ydelta_x_map(a, b, c):
    """Model-level Y->triangle map on x = exp(-2J) weights: the triangle
    x-weights are the reciprocals of the printed radicals (the J-level move
    is the same; the radicals live in the exp(+2J) convention)."""
    return tuple(1 / v for v in ydelta_weights(a, b, c))


def deltay_x_map(A, B, C):
    """Model-level triangle->Y map on x = exp(-2J) weights, in closed form.

    Kramers-Wannier duality turns a triangle into a star, so the inverse
    move is the star-triangle map conjugated by x -> (1-x)/(1+x) (Baxter,
    Exactly Solved Models in Statistical Mechanics, 1982). For legs in
    (0, 1), (1+abc)(a+bc) - (b+ac)(c+ab) = a(1-b^2)(1-c^2) > 0, so
    star-triangle maps (0, 1)^3 into itself and this map is its two-sided
    inverse there, with no error path. Leg i sits at the vertex opposite
    triangle edge i. Rational triangle weights with rational legs give the
    legs back as exact Fractions, whatever their height.
    """
    return tuple(dual_x(v) for v in ydelta_x_map(*map(dual_x, (A, B, C))))


def y_delta(model, site):
    """Apply the star-triangle move at `site`.

    `site` is a degree-3 vertex id (Y -> triangle) or a triangular face id
    (triangle -> Y); prefix with "v:" or "f:" to disambiguate when a vertex
    and a face share a name. Returns a new IsingModel.
    """
    g = model.graph
    if site.startswith("v:"):
        return _y_to_delta(model, site[2:])
    if site.startswith("f:"):
        return _delta_to_y(model, site[2:])
    is_vertex = site in g.colors
    is_face = site in g.face_ids()
    if is_vertex and is_face:
        raise GraphError(f"{site} names both a vertex and a face; use v:/f:")
    if is_vertex:
        return _y_to_delta(model, site)
    if is_face:
        return _delta_to_y(model, site)
    raise GraphError(f"{site} is neither a vertex nor a face")


def _y_to_delta(model, v):
    """Y -> triangle at the degree-3 vertex v, as one local edit."""
    g = model.graph
    if g.degree(v) != 3:
        raise GraphError(f"vertex {v} has degree {g.degree(v)}, need 3")
    legs = list(g.rotation[v])  # ccw darts out of v
    ends = [g.head(d) for d in legs]
    if v in ends:
        raise GraphError("star-triangle with a leg looping back to the center is unsupported")
    xs = ydelta_x_map(*(model.couplings[g.darts[d].edge].x for d in legs))
    # new edge i is opposite leg i: the path ends[i+1] -> v -> ends[i+2]
    names = [f"yd_{v}_{i}" for i in range(3)]
    edges = []
    for i, name in enumerate(names):
        (dx1, dy1), (dx2, dy2) = g.disp(legs[(i + 1) % 3]), g.disp(legs[(i + 2) % 3])
        edges.append((name, ends[(i + 1) % 3], ends[(i + 2) % 3], dx2 - dx1, dy2 - dy1))
    # at ends[i] the dart toward v gives way to the new edges to ends[i+1]
    # and ends[i+2], in that ccw order
    swap = {g.twin(d): [names[(i + 2) % 3] + "+", names[(i + 1) % 3] + "-"]
            for i, d in enumerate(legs)}
    dropped = [g.darts[d].edge for d in legs]
    new = g.edit(drop_vertices=(v,), drop_edges=dropped, edges=edges,
                 rotations={u: [x for d in g.rotation[u] for x in swap.get(d, (d,))]
                            for u in ends})
    return _moved_model(model, new, dropped, names, xs)


def _delta_to_y(model, fid):
    """Triangle -> Y at the triangular face fid, as one local edit."""
    g = model.graph
    orbit = g.face_darts(fid)
    if len(orbit) != 3:
        raise GraphError(f"face {fid} has {len(orbit)} sides, need 3")
    verts = [g.tail(d) for d in orbit]
    if len(set(verts)) != 3:
        raise GraphError("triangle face with repeated vertices is unsupported")
    # orbit dart i runs from verts[i] to verts[i+1]; the triangle edge
    # opposite verts[i] is the edge of orbit[i+1]
    xs = deltay_x_map(*(model.couplings[g.darts[orbit[(i + 1) % 3]].edge].x
                        for i in range(3)))
    # face ids are renumbered by every edit, so dy_<fid> may be taken by the
    # centre of an earlier move: then the first free dy_<fid>_<k>, k >= 1
    center, names, k = f"dy_{fid}", [f"dyleg_{fid}_{i}" for i in range(3)], 0
    while center in g.colors or any(name in g.edge_ends for name in names):
        k += 1
        center, names = f"dy_{fid}_{k}", [f"dyleg_{fid}_{k}_{i}" for i in range(3)]
    triangle = [g.darts[d].edge for d in orbit]
    # leg i runs from the center to verts[i]; leg_i - leg_j is the old
    # triangle walk from verts[j] to verts[i]. The center sits inside the
    # ccw triangle, so its rotation lists the legs in the order of verts.
    (dx0, dy0), (dx1, dy1) = g.disp(orbit[0]), g.disp(orbit[1])
    disps = [(0, 0), (dx0, dy0), (dx0 + dx1, dy0 + dy1)]
    edges = [(name, center, u, dx, dy) for name, u, (dx, dy) in zip(names, verts, disps)]
    # the two triangle darts at a corner are neighbours in its rotation; the
    # leg takes the place of the first one listed
    rotations = {center: [name + "+" for name in names]}
    for u, name in zip(verts, names):
        rotations[u] = list(dict.fromkeys(name + "-" if g.darts[d].edge in triangle else d
                                          for d in g.rotation[u]))
    new = g.edit(drop_edges=triangle, vertices=[(center, "n", None)], edges=edges,
                 rotations=rotations)
    return _moved_model(model, new, triangle, names, xs)


def _moved_model(model, graph, dropped, names, xs):
    """The model on `graph`: the couplings of model less the `dropped` edges,
    and new edges `names` with x-values `xs`."""
    couplings = {e: model.couplings[e] for e in model.graph.edges() if e not in dropped}
    for name, x in zip(names, xs):
        couplings[name] = make_coupling(x=x if isinstance(x, Fraction) else float(x))
    return IsingModel(graph, couplings)


# -- the Ising -> dimer gadget map -------------------------------------------


class GadgetMap:
    """Bookkeeping of to_dimer: per Ising edge its square face, per white
    corner its partner black (the 1-edge neighbor)."""

    def __init__(self, squares, partners):
        self.squares = squares            # ising edge -> face id in the dimer graph
        self.partners = partners          # white id -> black id

    def serialize(self):
        out = ["gadget-map v1"]
        for e in sorted(self.squares):
            out.append(f"square {e} {self.squares[e]}")
        for w in sorted(self.partners):
            out.append(f"partner {w} {self.partners[w]}")
        return "\n".join(out) + "\n"


def parse_gadget_map(text):
    squares, partners = {}, {}
    lines = text.splitlines()
    if not lines or lines[0].strip() != "gadget-map v1":
        raise ParseError("missing 'gadget-map v1' header", 1)
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("square", "partner") and len(parts) == 3:
            table = squares if parts[0] == "square" else partners
            if parts[1] in table:
                raise ParseError(f"repeated {parts[0]} line for {parts[1]}", no)
            table[parts[1]] = parts[2]
        else:
            raise ParseError(f"bad gadget-map line: {raw!r}", no)
    return GadgetMap(squares, partners)


def to_dimer(model):
    """Replace every Ising edge by the six-edge bipartite gadget.

    Per dart d of the Ising graph there is a black B_d; per rotation corner
    i of u (u; d, d_next) a white W_u_i. The corner after dart d carries the
    s-edge s_d, the c-edge c_d (from B_twin(d)) and the weight-1 edge o_u_i
    to B_d_next, its partner. Every name is built from the dart or corner.

    The gadget's rotations are the mirror image of the Ising embedding, so
    its marking goes through a determinant -1 lattice map S, which gives
    H1 of the torus the orientation the discrete Abel translation rule
    needs: c-edges carry S(-disp(d)), every other edge 0. S is the first
    map of `_reflections` of the Ising zig-zag class multiset, so the
    gadget keeps that multiset; when there is none (no det -1 symmetry, or
    classes that do not span the plane), S is x -> -x.

    Returns (bipartite TorusGraph, weights: edge -> Fraction|float, GadgetMap).
    """
    g = model.graph
    S = (_reflections(sorted(z["class"] for z in g.zigzag_paths())) or [((-1, 0), (0, 1))])[0]
    gn = TorusGraph()
    for d in sorted(g.darts):
        gn.add_vertex(f"B_{d}", "b")
    weights, partners = {}, {}
    for u in g.vertex_ids():
        rot = g.rotation[u]
        k = len(rot)
        for i, d in enumerate(rot):
            dn = rot[(i + 1) % k]
            w = f"W_{u}_{i}"
            gn.add_vertex(w, "w")
            cp = model.couplings[g.darts[d].edge]
            dx, dy = g.disp(d)
            gn.add_edge(f"s_{d}", f"B_{d}", w, 0, 0)
            gn.add_edge(f"c_{d}", f"B_{g.twin(d)}", w, -S[0][0] * dx - S[0][1] * dy,
                        -S[1][0] * dx - S[1][1] * dy)
            gn.add_edge(f"o_{u}_{i}", f"B_{dn}", w, 0, 0)
            weights[f"s_{d}"] = cp.s
            weights[f"c_{d}"] = cp.c
            weights[f"o_{u}_{i}"] = Fraction(1) if cp.exact else 1.0
            # black B_d: ccw (incoming 1-edge, s-edge, c-edge);
            # white W_u_i: ccw (c-edge, s-edge, 1-edge)
            gn.set_rotation(f"B_{d}", [f"o_{u}_{(i - 1) % k}+", f"s_{d}+", f"c_{g.twin(d)}+"])
            gn.set_rotation(w, [f"c_{d}-", f"s_{d}-", f"o_{u}_{i}-"])
            partners[w] = f"B_{dn}"
    gn.freeze()
    gn.validate()
    # the face left of s(e+)+ is the square s(e+) c(e+) s(e-) c(e-)
    squares = {e: gn.face_of_dart(f"s_{e}++") for e in g.edges()}
    return gn, weights, GadgetMap(squares, partners)


def _reflections(classes):
    """The determinant -1 lattice maps ((a, b), (c, d)) that permute the
    sorted class multiset, with entries bounded by the largest class
    coordinate + 1, smallest first (coordinate reflections preferred).

    A map is fixed by the images of two independent classes, so the
    candidates come from pairs of classes, O(k^2) of them. The classes of a
    minimal graph span the plane (F = 2 Area(N) > 0); for classes that do
    not, the list is empty.
    """
    span = max(max(abs(p), abs(q)) for p, q in classes) + 1
    u, v = next(((u, v) for u in classes for v in classes if u[0] * v[1] - u[1] * v[0]),
                (None, None))
    if u is None:
        return []
    m = u[0] * v[1] - u[1] * v[0]
    cands = []
    images = set(classes)
    for pu, qu in images:
        for pv, qv in images:
            if pu * qv - qu * pv != -m:
                continue
            # S = [S u, S v] [u, v]^-1
            num = (pu * v[1] - pv * u[1], pv * u[0] - pu * v[0],
                   qu * v[1] - qv * u[1], qv * u[0] - qu * v[0])
            if any(x % m for x in num):
                continue
            a, b, c, d = (x // m for x in num)
            if max(abs(a), abs(b), abs(c), abs(d)) > span:
                continue
            mapped = sorted((a * p + b * q, c * p + d * q) for p, q in classes)
            if mapped == classes:
                cands.append(((abs(b) + abs(c), abs(a - 1) + abs(d - 1),
                               a, b, c, d), ((a, b), (c, d))))
    return [S for _, S in sorted(cands)]
