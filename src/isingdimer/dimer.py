"""Dimer models as gauge classes of edge weights: X-coordinates on cycles,
square and contraction moves with cycle transport, color change, and the
Ising-locus characterization.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .torusgraph import GraphError


class MoveError(ValueError):
    pass


def x_of_cycle(g, wt, cycle):
    """Evaluate the gauge class on a cycle.

    `cycle` is a closed walk of dart ids. Darts traversed black->white
    multiply the numerator, white->black the denominator. The value is a
    Fraction when the cycle's own weights all are.
    """
    g.cycle_displacement(cycle)  # raises unless it is a cycle
    return _walk_x(g, wt, cycle)


def _walk_x(g, wt, walk):
    """x_of_cycle without its check that `walk` is a cycle: for a walk that
    is one by construction, such as a face orbit of a validated graph."""
    darts, colors, up, down = g.darts, g.colors, [], []
    for d in walk:
        dart = darts[d]
        (up if colors[dart.vertex] == "b" else down).append(wt[dart.edge])
    if all(isinstance(x, Fraction) for x in up + down):   # one Fraction from ints
        return Fraction(math.prod(x.numerator for x in up) * math.prod(x.denominator for x in down),
                        math.prod(x.denominator for x in up) * math.prod(x.numerator for x in down))
    num, den = math.prod(up, start=1.0), math.prod(down, start=1.0)
    if not (den and 0 < num / den < math.inf):
        raise MoveError(f"X of a cycle leaves the float range: {num!r} / {den!r}")
    return num / den


def basis_x_values(g, wt):
    """X on the basis {all faces except the last face id} + {a, b}, with a
    and b the graph's homology basis cycles, and the XBasis that carries
    them through moves."""
    basis = XBasis.of(g)
    if not g.is_bipartite_colored():
        raise GraphError("X coordinates need a bipartite graph")
    return basis.values(g, wt, g.face_ids()[:-1]), basis


class XBasis:
    """The faces and the homology cycles a, b of a graph, carried through a
    sequence of moves: each face of the first graph is kept as the smallest
    dart of the face it has become, with the inverse index from that dart to
    the face. `follow` takes one MoveRecord, `x` evaluates X of one of them
    on the graph reached."""

    def __init__(self, roots, keys, cycles):
        self.roots, self.keys, self.cycles = roots, keys, cycles

    @classmethod
    def of(cls, g):
        roots = {fid: orbit[0] for fid, orbit in g.faces()}
        return cls(roots, {r: k for k, r in roots.items()},
                   dict(zip("ab", map(list, g.homology_basis_cycles()))))

    def follow(self, rec):
        """The basis after the move that `rec` records; only the faces whose
        smallest dart the move maps are rewritten."""
        roots, keys = self.roots.copy(), self.keys.copy()
        moved = [(keys.pop(r), new) for r, new in rec.data["roots"].items() if r in keys]
        for k, new in moved:
            roots[k], keys[new] = new, k
        return XBasis(roots, keys, {k: rec.reroute(c) for k, c in self.cycles.items()})

    def x(self, g, wt, key):
        """X on g of face `key` of the first graph, or of cycle "a" or "b".
        A face orbit is a closed walk of g by construction; a carried cycle
        is checked (x_of_cycle)."""
        if key in self.cycles:
            return x_of_cycle(g, wt, self.cycles[key])
        return _walk_x(g, wt, g.orbit(self.roots[key]))

    def values(self, g, wt, faces):
        """X on g of the given faces of the first graph, then of a and b."""
        return {k: self.x(g, wt, k) for k in [*faces, *self.cycles]}


# -- square move ---------------------------------------------------------------


class MoveRecord:
    """Replayable record of one local move from g to gn; data["roots"] maps
    the smallest dart of a face of g traced again to that of its new face."""

    def __init__(self, kind, g, gn, data):
        self.kind, self.g, self.gn, self.data = kind, g, gn, data

    def map_face(self, fid):
        """The id in gn of the face that face fid of g became."""
        r = self.g.face_darts(fid)[0]
        return self.gn.face_of_dart(self.data["roots"].get(r, r))

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

    # the blacks keep their names and vertex records; their edges change
    pA1 = fresh(f"{fid}_pA")   # B_A' - m1 pendant
    pB3 = fresh(f"{fid}_pB")   # B_B' - m3 pendant
    eA2 = fresh(f"{fid}_a2")   # B_A' - m2, weight d/delta
    eA4 = fresh(f"{fid}_a4")   # B_A' - m4, weight a/delta
    eB2 = fresh(f"{fid}_b2")   # B_B' - m2, weight c/delta
    eB4 = fresh(f"{fid}_b4")   # B_B' - m4, weight b/delta
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = k0.disp, k1.disp, k2.disp, k3.disp
    (u1, v1), (u2, v2) = kp1.disp, kp2.disp
    edges = [(pA1, B1, m1, -x3, -y3), (eA2, B1, m2, u1, v1),
             (eA4, B1, m4, u2 - x3 - x2, v2 - y3 - y2), (pB3, B2, m3, -x1, -y1),
             (eB2, B2, m2, u1 - x1 - x0, v1 - y1 - y0), (eB4, B2, m4, u2, v2)]
    removed_edges = {e0, e1, e2, e3, q1, q2}
    new_wt = wt.copy()
    for e in removed_edges:
        del new_wt[e]
    new_wt.update({pA1: one, eA2: wA2, eA4: wA4, pB3: one, eB2: wB2, eB4: wB4})

    # at the corners the square's darts give way to the new pendants and
    # the pendant darts to the pairs of new diagonals
    swap = {d1: [pB3 + "-"], k0.twin: [], d3: [pA1 + "-"], k2.twin: [],
            kp1.twin: [eB2 + "-", eA2 + "-"], kp2.twin: [eA4 + "-", eB4 + "-"]}
    rotations = {B1: [pA1 + "+", eA2 + "+", eA4 + "+"],
                 B2: [pB3 + "+", eB4 + "+", eB2 + "+"]}
    for v in (m1, m2, m3, m4):
        rotations[v] = [x for d in g.rotation[v] for x in swap.get(d, (d,))]
    gn = g.edit(drop_edges=(e0, e1, e2, e3, q1, q2), edges=edges, rotations=rotations)
    roots = {**gn.moved_roots, min(orbit): gn.root_of(eA2 + "+")}

    # the new legs from each black's pendant corner to its side
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

    removed = {d0, d1, d2, d3, p1, p2, *(k.twin for k in (k0, k1, k2, k3, kp1, kp2))}

    def reroute(cycle):
        """Rewrite a dart walk of the old graph in the new graph."""
        if removed.isdisjoint(cycle):
            return list(cycle)
        # a dart and then its twin, cyclically, change neither X nor the
        # class of the walk, and a hop from a corner back to it has no route
        segs = []
        for d in cycle:
            if segs and segs[-1] == g.darts[d].twin:
                segs.pop()
            else:
                segs.append(d)
        while len(segs) > 1 and segs[0] == g.darts[segs[-1]].twin:
            segs = segs[1:-1]
        inside = [d in removed for d in segs]
        if all(inside):
            raise MoveError("cycle lies entirely inside the moved gadget")
        # rotate so the walk starts on a surviving dart
        k = inside.index(False)
        segs, inside = segs[k:] + segs[:k], inside[k:] + inside[:k]
        out, i, n = [], 0, len(segs)
        while i < n:
            d = segs[i]
            if not inside[i]:
                out.append(d)
                i += 1
                continue
            if i + 1 >= n or not inside[i + 1]:
                raise MoveError("walk stops on a removed black vertex")
            out.extend(hop(g.tail(d), g.head(d), g.head(segs[i + 1])))
            i += 2
        return out

    record = MoveRecord("square", g, gn, {
        "face": fid, "new_face": gn.face_of_dart(eA2 + "+"), "roots": roots,
        "reroute": reroute, "new_blacks": (B1, B2),
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

    record = MoveRecord("contract", g, gn, {"roots": gn.moved_roots, "reroute": reroute})
    return gn, new_wt, record


def color_change(g, wt):
    """Flip every vertex color, keeping edges, rotations and weights."""
    return g.color_swapped(), dict(wt)


# -- the Ising locus ------------------------------------------------------------


def ising_locus_check(g, wt, gadget_map, tol=None):
    """Apply the square move at every gadget square and compare the X basis
    with the color change. Returns (passes, report).

    The report carries per-basis-element residuals (mu-route value divided by
    color-change value, minus one), the structural isomorphism check and the
    graph the square moves reach.
    """
    squares = sorted(set(gadget_map.squares.values()))
    cur_g, cur_wt = g, dict(wt)
    start = basis = XBasis.of(g)
    for fid in squares:
        cur_g, cur_wt, rec = square_move(cur_g, cur_wt, cur_g.face_of_dart(basis.roots[fid]))
        basis = basis.follow(rec)
    cc_g, cc_wt = color_change(g, wt)
    iso = cur_g.isomorphic(cc_g)

    residuals = {}
    ok = True
    for key in [*start.roots, *start.cycles]:
        target = start.x(cc_g, cc_wt, key)
        got = basis.x(cur_g, cur_wt, key)
        residuals[key] = _residual(got, target)
        ok = ok and _is_zero(residuals[key], tol)
    report = {"residuals": residuals, "isomorphic": iso, "mu_graph": cur_g}
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
