"""Dimer models as gauge classes of edge weights: X-coordinates on cycles,
the intersection pairing at trivalent vertices, square and contraction moves
with cycle transport, color change, and the Ising-locus characterization.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .torusgraph import GraphError
from .ising import _fraction_sqrt, make_coupling


class MoveError(ValueError):
    pass


def _one_like(weights):
    return Fraction(1) if all(isinstance(v, Fraction) for v in weights) else 1.0


def x_of_cycle(g, wt, cycle):
    """Evaluate the gauge class on a cycle.

    `cycle` is a closed walk of dart ids. Darts traversed black->white
    multiply the numerator, white->black the denominator. The value is a
    Fraction when the cycle's own weights all are.
    """
    g.cycle_displacement(cycle)  # raises unless it is a cycle
    darts, colors, up, down = g.darts, g.colors, [], []
    for d in cycle:
        dart = darts[d]
        (up if colors[dart.vertex] == "b" else down).append(wt[dart.edge])
    if all(isinstance(x, Fraction) for x in up + down):   # one Fraction from ints
        return Fraction(math.prod(x.numerator for x in up) * math.prod(x.denominator for x in down),
                        math.prod(x.denominator for x in up) * math.prod(x.numerator for x in down))
    num, den = math.prod(up, start=1.0), math.prod(down, start=1.0)
    if not (den and 0 < num / den < math.inf):
        raise MoveError(f"X of a cycle leaves the float range: {num!r} / {den!r}")
    return num / den


def face_x_values(g, wt):
    """X of every face (counterclockwise boundary)."""
    return {fid: x_of_cycle(g, wt, orbit) for fid, orbit in g.faces()}


def basis_x_values(g, wt):
    """X on the basis {all faces except the last face id} + {a, b}, with a
    and b the graph's homology basis cycles.

    The omitted face is reported separately via the product-one identity.
    """
    cycle_a, cycle_b = g.homology_basis_cycles()
    if not g.is_bipartite_colored():
        raise GraphError("X coordinates need a bipartite graph")
    faces = face_x_values(g, wt)
    omit_face = g.face_ids()[-1]
    out = {fid: x for fid, x in faces.items() if fid != omit_face}
    out["a"] = x_of_cycle(g, wt, cycle_a)
    out["b"] = x_of_cycle(g, wt, cycle_b)
    prod = _one_like(wt.values())
    for x in faces.values():
        prod *= x
    return out, {"omitted_face": omit_face, "omitted_x": faces[omit_face],
                 "face_product": prod}


class XBasis:
    """The faces and the homology cycles a, b of a graph, carried through a
    sequence of moves: `follow` takes one MoveRecord, `x` evaluates X of one
    of them on the graph reached."""

    def __init__(self, face_map, cycles):
        self.face_map, self.cycles = face_map, cycles

    @classmethod
    def of(cls, g):
        face_map = {fid: fid for fid in g.face_ids()}
        return cls(face_map, dict(zip("ab", map(list, g.homology_basis_cycles()))))

    def follow(self, rec):
        """The basis after the move that `rec` records."""
        return XBasis({old: rec.map_face(nf) for old, nf in self.face_map.items()},
                      {k: rec.reroute(c) for k, c in self.cycles.items()})

    def x(self, g, wt, key):
        """X on g of face `key` of the first graph, or of cycle "a" or "b"."""
        cycle = self.cycles[key] if key in self.cycles else g.face_darts(self.face_map[key])
        return x_of_cycle(g, wt, cycle)

    def values(self, g, wt, faces):
        """X on g of the given faces of the first graph, then of a and b."""
        return {k: self.x(g, wt, k) for k in [*faces, *self.cycles]}


def gauge_canonicalize(g, wt):
    """Gauge so that a deterministic spanning tree (lowest edge ids) has
    weight 1 everywhere. Two cochains are gauge equivalent iff their
    canonical forms are equal."""
    pot = {g.vertex_ids()[0]: _one_like(wt.values())}
    for v, e, u in g.spanning_tree():
        # want pot[b]^-1 * wt * pot[w] == 1
        pot[u] = pot[v] / wt[e] if g.colors[v] == "b" else pot[v] * wt[e]
    if len(pot) != len(g.vertex_ids()):
        raise GraphError("graph is disconnected")
    return gauge_transform(g, wt, pot)


def gauge_transform(g, wt, f):
    """Apply a vertex function f: wt'(e) = f(b)^-1 wt(e) f(w)."""
    out = {}
    for e, x in wt.items():
        v1, v2, _, _ = g.edge_ends[e]
        b, w = (v1, v2) if g.colors[v1] == "b" else (v2, v1)
        out[e] = x * f.get(w, 1) / f.get(b, 1)
    return out


# -- intersection pairing (trivalent) -----------------------------------------


def _transits(g, cycle):
    """Per-vertex transits of a dart walk: vertex -> list of (in_port, out_port).

    Ports are darts based at the vertex; the in-port is the twin of the
    arriving dart.
    """
    out = {}
    k = len(cycle)
    for i, d in enumerate(cycle):
        nxt = cycle[(i + 1) % k]
        v = g.head(d)
        if g.tail(nxt) != v:
            raise GraphError("walk is not connected")
        out.setdefault(v, []).append((g.twin(d), nxt))
    return out


def _half_cross_sign(g, v, t1, t2):
    """Crossing sign of two transits at a vertex that share one port.

    A strand end on port p, bound for port q, sits at position
    5n idx(p) + n + 3 ((idx(q) - idx(p)) mod n) of a circle of 5n^2: inside
    p's sector, ordered by the ccw distance to q. The chords a1 b1 and a2 b2
    cross when exactly one of a2, b2 lies on the open ccw arc from a1 to b1;
    the sign is +1 when it is a2, -1 when it is b2.
    """
    rot = g.rotation[v]
    n = len(rot)
    idx = {p: i for i, p in enumerate(rot)}

    def pos(port, other):
        return 5 * n * idx[port] + n + 3 * ((idx[other] - idx[port]) % n)

    (a1, b1), (a2, b2) = t1, t2
    start, size = pos(a1, b1), 5 * n * n
    arc = (pos(b1, a1) - start) % size

    def on_arc(port, other):
        return 0 < (pos(port, other) - start) % size < arc

    return on_arc(a2, b2) - on_arc(b2, a2)


def intersection_pairing(g, cycle_c, cycle_d):
    """<c, d> = sum over black vertices of eps minus sum over whites.

    Both cycles are dart walks; all touched vertices must be trivalent.
    Transits through the same unordered port pair contribute 0; transits
    sharing one port contribute +-1/2; disjoint transits cannot occur at a
    trivalent vertex.
    """
    tc = _transits(g, cycle_c)
    td = _transits(g, cycle_d)
    total = Fraction(0)
    for v in set(tc) & set(td):
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v} is not trivalent; pairing unsupported")
        eps = Fraction(0)
        for t1 in tc[v]:
            for t2 in td[v]:
                if set(t1) == set(t2):
                    continue
                shared = set(t1) & set(t2)
                if len(shared) == 1:
                    eps += Fraction(_half_cross_sign(g, v, t1, t2), 2)
                # at a trivalent vertex two transits always share a port
        total += eps if g.colors[v] == "b" else -eps
    return total


# -- square move ---------------------------------------------------------------


class MoveRecord:
    """Replayable record of one local move."""

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    def map_face(self, fid):
        return self.data["face_map"].get(fid, fid)

    def reroute(self, cycle):
        return self.data["reroute"](cycle)


def square_move(g, wt, fid):
    """Spider move at the quadrilateral face `fid`.

    The face must be bounded by four edges with distinct trivalent black
    corners carrying pendant (third) edges; to_dimer output always qualifies.
    Returns (new graph, new weights, MoveRecord).
    """
    g.ensure_valid()
    orbit = g.face_darts(fid)
    if len(orbit) != 4:
        raise MoveError(f"face {fid} has {len(orbit)} sides, need 4")
    if g.colors[g.tail(orbit[0])] == "w":
        orbit = orbit[1:] + orbit[:1]
    d0, d1, d2, d3 = orbit
    k0, k1, k2, k3 = (g.darts[d] for d in orbit)
    B1, m3, B2, m1 = k0.vertex, k1.vertex, k2.vertex, k3.vertex
    if len({B1, m3, B2, m1}) != 4:
        raise MoveError(f"face {fid} has repeated corners")
    if g.degree(B1) != 3 or g.degree(B2) != 3:
        raise MoveError("square corners must be trivalent blacks")
    p1 = next(d for d in g.rotation[B1] if d != d0 and d != k3.twin)
    p2 = next(d for d in g.rotation[B2] if d != d2 and d != k1.twin)
    kp1, kp2 = g.darts[p1], g.darts[p2]
    m2, m4 = kp1.head, kp2.head

    # gauge the pendant weights to 1 at the two blacks, whose three edges
    # each are the six edges the move removes
    e0, e1, e2, e3, q1, q2 = (k.edge for k in (k0, k1, k2, k3, kp1, kp2))
    w0, w1, w2, w3, lam1, lam2 = (wt[e] for e in (e0, e1, e2, e3, q1, q2))
    if all(isinstance(x, Fraction) for x in (w0, w1, w2, w3, lam1, lam2)):
        # the same values in ints: with w_i = n_i/t_i and D = t0 t1 t2 t3,
        # d/delta = w1 l1 / (w0 w2 + w1 w3) = n1 l1 (D/t1) / T, and so on
        (n0, t0), (n1, t1), (n2, t2), (n3, t3) = (x.as_integer_ratio() for x in (w0, w1, w2, w3))
        D, T = t0 * t1 * t2 * t3, n0 * n2 * t1 * t3 + n1 * n3 * t0 * t2
        one, (wA2, wA4, wB2, wB4) = Fraction(1), (
            Fraction(n * lam.numerator * (D // t), lam.denominator * T)
            for n, t, lam in ((n1, t1, lam1), (n0, t0, lam2), (n2, t2, lam1), (n3, t3, lam2)))
    else:
        a, dd, c, b = w0 / lam1, w1 / lam2, w2 / lam2, w3 / lam1
        delta = a * c + b * dd
        if isinstance(delta, float) and not (delta and all(0 < x / delta < math.inf
                                                           for x in (a, b, c, dd))):
            raise MoveError(f"square move at {fid} takes weights out of the float range")
        one, wA2, wA4, wB2, wB4 = lam1 / lam1, dd / delta, a / delta, c / delta, b / delta

    def fresh(base):
        name, k = base, 0
        while name in g.edge_ends:
            k += 1
            name = f"{base}.{k}"
        return name

    # the new blacks take the names of the removed ones
    nb1, nb2 = B1, B2
    pA1 = fresh(f"{fid}_pA")   # B_A' - m1 pendant
    pB3 = fresh(f"{fid}_pB")   # B_B' - m3 pendant
    eA2 = fresh(f"{fid}_a2")   # B_A' - m2, weight d/delta
    eA4 = fresh(f"{fid}_a4")   # B_A' - m4, weight a/delta
    eB2 = fresh(f"{fid}_b2")   # B_B' - m2, weight c/delta
    eB4 = fresh(f"{fid}_b4")   # B_B' - m4, weight b/delta
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = k0.disp, k1.disp, k2.disp, k3.disp
    (u1, v1), (u2, v2) = kp1.disp, kp2.disp
    edges = [(pA1, nb1, m1, -x3, -y3), (eA2, nb1, m2, u1, v1),
             (eA4, nb1, m4, u2 - x3 - x2, v2 - y3 - y2), (pB3, nb2, m3, -x1, -y1),
             (eB2, nb2, m2, u1 - x1 - x0, v1 - y1 - y0), (eB4, nb2, m4, u2, v2)]
    removed_edges = {e0, e1, e2, e3, q1, q2}
    new_wt = wt.copy()
    for e in removed_edges:
        del new_wt[e]
    new_wt.update({pA1: one, eA2: wA2, eA4: wA4, pB3: one, eB2: wB2, eB4: wB4})

    # at the corners the square's darts give way to the new pendants and
    # the pendant darts to the pairs of new diagonals
    swap = {d1: [pB3 + "-"], k0.twin: [], d3: [pA1 + "-"], k2.twin: [],
            kp1.twin: [eB2 + "-", eA2 + "-"], kp2.twin: [eA4 + "-", eB4 + "-"]}
    rotations = {nb1: [pA1 + "+", eA2 + "+", eA4 + "+"],
                 nb2: [pB3 + "+", eB4 + "+", eB2 + "+"]}
    for v in (m1, m2, m3, m4):
        rotations[v] = [x for d in g.rotation[v] for x in swap.get(d, (d,))]
    gn = g.edit(drop_vertices=(B1, B2), drop_edges=(e0, e1, e2, e3, q1, q2),
                vertices=[(nb1, "b", g.positions.get(B1)), (nb2, "b", g.positions.get(B2))],
                edges=edges, rotations=rotations)
    face_map = _match_faces(g, gn)
    face_map[fid] = gn.face_of_dart(eA2 + "+")

    # the new legs from each removed black's pendant corner to its side
    # corners m1 and m3, as (edge at the pendant corner, edge at the side)
    legs = {B1: (m2, {m3: (eB2, pB3), m1: (eA2, pA1)}),
            B2: (m4, {m3: (eB4, pB3), m1: (eA4, pA1)})}

    def hop(x, B, y):
        """The new walk of an old hop x -> B -> y: the reversed twin of B's
        leg to x, then its leg to y; the pendant corner's own leg is empty.
        So a diagonal hop (m1 to m3) passes B's pendant corner, which is
        what the cycle correspondence of the spider move does. A corner that
        is both pendant and side takes the side's leg, and the pendant's
        only as y after x took the side's."""
        pendant, sides = legs.get(B, (None, {}))
        to_x, to_y = sides.get(x), sides.get(y) if y != x else None
        if (to_x or x == pendant) and (to_y or y == pendant) and (to_x or to_y):
            return ([to_x[1] + "-", to_x[0] + "+"] if to_x else []) + \
                ([to_y[0] + "-", to_y[1] + "+"] if to_y else [])
        raise MoveError(f"cannot transport hop {(x, B, y)}")

    def reroute(cycle):
        """Rewrite a dart walk of the old graph in the new graph."""
        segs = list(cycle)
        n = len(segs)
        if n and all(g.darts[d].edge in removed_edges for d in segs):
            raise MoveError("cycle lies entirely inside the moved gadget")
        # rotate so the walk starts on a surviving dart
        k = next((i for i, d in enumerate(segs) if g.darts[d].edge not in removed_edges), 0)
        segs = segs[k:] + segs[:k]
        out = []
        i = 0
        while i < n:
            d = segs[i]
            if g.darts[d].edge not in removed_edges:
                out.append(d)
                i += 1
                continue
            if i + 1 >= n or g.darts[segs[i + 1]].edge not in removed_edges:
                raise MoveError("walk stops on a removed black vertex")
            out.extend(hop(g.tail(d), g.head(d), g.head(segs[i + 1])))
            i += 2
        return out

    record = MoveRecord("square", {
        "face": fid, "new_face": face_map[fid], "face_map": face_map,
        "reroute": reroute, "new_blacks": (nb1, nb2),
        "corners": (m1, m2, m3, m4),
    })
    return gn, new_wt, record


def contraction_move(g, wt, v):
    """Contract a degree-2 vertex into a single vertex of its neighbors' color."""
    g.ensure_valid()
    if v not in g.colors:
        raise MoveError(f"unknown vertex {v}")
    if g.degree(v) != 2:
        raise MoveError(f"vertex {v} has degree {g.degree(v)}, need 2")
    dA, dB = g.rotation[v]
    eA, eB = g.darts[dA].edge, g.darts[dB].edge
    if eA == eB:
        raise MoveError("contracting a doubled edge is unsupported")
    nA, nB = g.head(dA), g.head(dB)
    if nA == nB:
        raise MoveError("contraction would create a single merged loop vertex")
    # gauge both edges to 1: first at v, then at the far endpoint of eB
    wt = dict(wt)
    lam = wt[eA]
    wt[eA], wt[eB] = wt[eA] / lam, wt[eB] / lam
    mu = wt[eB]
    for d in g.rotation[nB]:
        wt[g.darts[d].edge] = wt[g.darts[d].edge] / mu

    # the merged vertex keeps nA's name and position; nB's darts move over,
    # with nB now reached by the path nA -> v -> nB, displacement
    # -disp(dA) + disp(dB)
    off = (-g.disp(dA)[0] + g.disp(dB)[0], -g.disp(dA)[1] + g.disp(dB)[1])
    moved = {}
    for d in g.rotation[nB]:
        e = g.darts[d].edge
        v1, v2, dx, dy = g.edge_ends[e]
        if v1 == nB:
            v1, dx, dy = nA, dx + off[0], dy + off[1]
        if v2 == nB:
            # dart e- is based at nB and gains off; the stored dart loses it
            v2, dx, dy = nA, dx - off[0], dy - off[1]
        moved[e] = (e, v1, v2, dx, dy)
    del moved[eB]
    rotA = g.rotation[nA]
    rotB = g.rotation[nB]
    ia = rotA.index(g.twin(dA))
    ib = rotB.index(g.twin(dB))
    gn = g.edit(drop_vertices=(v, nB), drop_edges=[eA, eB, *moved],
                edges=moved.values(),
                rotations={nA: rotA[:ia] + rotB[ib + 1:] + rotB[:ib] + rotA[ia + 1:]})
    new_wt = {e: x for e, x in wt.items() if e not in (eA, eB)}

    def reroute(cycle):
        return [d for d in cycle if g.darts[d].edge not in (eA, eB)]

    record = MoveRecord("contract", {
        "vertex": v, "merged": nA, "gone": nB,
        "face_map": _match_faces(g, gn),
        "reroute": reroute,
    })
    return gn, new_wt, record


def _match_faces(g, gn):
    """Old face id -> the new face through its first surviving dart, for the
    faces that keep one; `edit` shares the orbits it kept, the rest are scanned."""
    out, kept, root_of, face_id = {}, gn._orbit, gn._root, gn._face_id
    for fid, orbit in g.faces():
        if kept.get(orbit[0]) is orbit:
            out[fid] = face_id[orbit[0]]
        else:
            survivor = next((x for x in orbit if x in root_of), None)
            if survivor is not None:
                out[fid] = gn.face_of_dart(survivor)
    return out


def uncontraction_move(g, wt, v, arc_start, arc_len):
    """Split vertex v: darts arc_start..arc_start+arc_len-1 (ccw) stay on a
    new copy v_u1; the rest go to v_u2; a degree-2 vertex v_um of the
    opposite color joins them with two weight-1 edges v_ue1 and v_ue2."""
    g.ensure_valid()
    rot = g.rotation[v]
    k = len(rot)
    if not (0 < arc_len < k):
        raise MoveError("arc must be a proper nonempty subset")
    arc = [rot[(arc_start + i) % k] for i in range(arc_len)]
    rest = [rot[(arc_start + arc_len + i) % k] for i in range(k - arc_len)]
    col = g.colors[v]
    mid_col = "w" if col == "b" else "b"
    v1, v2, mid = f"{v}_u1", f"{v}_u2", f"{v}_um"
    where = {d: v1 for d in arc}
    where.update((d, v2) for d in rest)
    moved = {}
    for d in rot:
        e = g.darts[d].edge
        va, vb, dx, dy = g.edge_ends[e]
        moved[e] = (e, where.get(e + "+", va), where.get(e + "-", vb), dx, dy)
    e1, e2 = f"{v}_ue1", f"{v}_ue2"
    ends = [(v1, mid), (v2, mid)] if col == "b" else [(mid, v1), (mid, v2)]
    plus, minus = ("+", "-") if col == "b" else ("-", "+")
    gn = g.edit(drop_vertices=(v,), drop_edges=list(moved),
                vertices=[(v1, col, g.positions.get(v)), (v2, col, None), (mid, mid_col, None)],
                edges=[*moved.values(), (e1, *ends[0], 0, 0), (e2, *ends[1], 0, 0)],
                rotations={v1: arc + [e1 + plus], v2: rest + [e2 + plus],
                           mid: [e1 + minus, e2 + minus]})
    one = _one_like(wt.values())
    new_wt = {**wt, e1: one, e2: one}
    record = MoveRecord("uncontract", {
        "vertex": v, "parts": (v1, v2, mid),
        "face_map": _match_faces(g, gn),
        "reroute": lambda cycle: list(cycle),
    })
    return gn, new_wt, record


def color_change(g, wt):
    """Flip every vertex color, keeping edges, rotations and weights."""
    return g.color_swapped(), dict(wt)


# -- the Ising locus ------------------------------------------------------------


def ising_locus_check(g, wt, gadget_map, tol=None):
    """Apply the square move at every gadget square and compare the X basis
    with the color change. Returns (passes, report).

    The report carries per-basis-element residuals (mu-route value divided by
    color-change value, minus one) and the structural isomorphism check.
    """
    squares = sorted(set(gadget_map.squares.values()))
    cur_g, cur_wt = g, dict(wt)
    start = basis = XBasis.of(g)
    for fid in squares:
        cur_g, cur_wt, rec = square_move(cur_g, cur_wt, basis.face_map[fid])
        basis = basis.follow(rec)
    cc_g, cc_wt = color_change(g, wt)
    iso = cur_g.isomorphic(cc_g)

    residuals = {}
    ok = True
    for key in [*start.face_map, *start.cycles]:
        target = start.x(cc_g, cc_wt, key)
        got = basis.x(cur_g, cur_wt, key)
        residuals[key] = _residual(got, target)
        ok = ok and _is_zero(residuals[key], tol)
    report = {"residuals": residuals, "isomorphic": iso,
              "mu_graph": cur_g, "mu_weights": cur_wt, "face_map": basis.face_map}
    return ok and iso, report


def _residual(got, target):
    try:
        return got / target - 1
    except ZeroDivisionError:
        return float("inf")


def _is_zero(r, tol):
    if isinstance(r, Fraction):
        return r == 0 if tol is None else abs(r) <= tol
    return abs(r) <= (tol if tol is not None else 1e-9)


def ising_from_faces(face_x):
    """Couplings from square-face X values: s = sqrt(X/(1+X)), c = sqrt(1/(1+X)).

    Exact when the fractions are perfect squares, numeric otherwise.
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
        out[key] = make_coupling(sc=(s, c))
    return out
