"""Shared fixtures: the one-vertex square-lattice Ising model and its
bipartite companion with exact couplings (s1,c1)=(4/5,3/5), (s2,c2)=(12/13,5/13),
and seeded Pythagorean couplings for any lattice. Shared test helpers: a
fresh copy of a graph, X of every face, gauge transforms, the uncontraction
move, the intersection pairing of cycles and the labels of monomial divisors.
"""
import random
from fractions import Fraction

import pytest

from isingdimer import lattices
from isingdimer.abel import AbelLabel
from isingdimer.dimer import MoveError, MoveRecord, x_of_cycle
from isingdimer.ising import make_coupling
from isingdimer.torusgraph import GraphError, parse_torus_graph, serialize_torus_graph

# One Ising vertex, two loops: edge 1 crosses the vertical fundamental loop
# (z direction), edge 2 the horizontal one (w direction).
ISING_FIXTURE = """torus-graph v1
vertex n n 0.25 0.25
edge 1 n n 1 0
edge 2 n n 0 1
rot n 1+ 2+ 1- 2-
coupling 1 sc=4/5,3/5
coupling 2 sc=12/13,5/13
"""

# Its bipartite companion with the Figure-style Kasteleyn monomials. Vertex
# names are chosen so that the white w2 carries the divisor (13/20, 52/25)
# and so that the name-sorted Kasteleyn determinant has +2 constant term.
DIMER_FIXTURE = """torus-graph v1
vertex b1 b 0.625 0.375
vertex b2 b 0.375 0.875
vertex b3 b 0.125 0.625
vertex b4 b 0.875 0.125
vertex w1 w 0.125 0.875
vertex w2 w 0.875 0.375
vertex w3 w 0.625 0.125
vertex w4 w 0.375 0.625
edge e1 b3 w2 -1 0
edge e2 b3 w4 0 0
edge e3 b3 w1 0 0
edge e4 b2 w1 0 0
edge e5 b2 w3 0 1
edge e6 b2 w4 0 0
edge e7 b1 w3 0 0
edge e8 b1 w4 0 0
edge e9 b1 w2 0 0
edge e10 b4 w3 0 0
edge e11 b4 w1 1 -1
edge e12 b4 w2 0 0
rot b1 e9 e8 e7
rot b2 e5 e4 e6
rot b3 e2 e3 e1
rot b4 e12 e10 e11
rot w1 e4 e11 e3
rot w2 e1 e9 e12
rot w3 e10 e7 e5
rot w4 e6 e2 e8
weight e1 1
weight e2 12/13
weight e3 5/13
weight e4 12/13
weight e5 1
weight e6 5/13
weight e7 4/5
weight e8 1
weight e9 3/5
weight e10 3/5
weight e11 1
weight e12 4/5
"""

# Kasteleyn sign of the worked example: all +1 except the edges weighted
# -c2 and -s1 in the figure.
FIXTURE_KAPPA = {f"e{i}": 1 for i in range(1, 13)}
FIXTURE_KAPPA["e6"] = -1
FIXTURE_KAPPA["e7"] = -1

S1, C1 = Fraction(4, 5), Fraction(3, 5)
S2, C2 = Fraction(12, 13), Fraction(5, 13)

# Explicit homology basis cycles of the bipartite fixture (dart sequences).
FIXTURE_CYCLE_A = ["e1-", "e2+", "e8-", "e9+"]   # w2->b3->w4->b1->w2, class (1,0)
FIXTURE_CYCLE_B = ["e7-", "e8+", "e6-", "e5+"]   # w3->b1->w4->b2->w3, class (0,1)


@pytest.fixture
def ising_fixture():
    g, _, couplings = parse_torus_graph(ISING_FIXTURE)
    return g, couplings


@pytest.fixture
def dimer_fixture():
    g, weights, _ = parse_torus_graph(DIMER_FIXTURE)
    return g, weights


# Couplings (s, c), s^2 + c^2 = 1, from the first Pythagorean triples: both
# rational, so the gadget weights are exact.
PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)), (Fraction(20, 29), Fraction(21, 29))]


def pythagorean_couplings(g, seed, swap=False):
    """A coupling sc=(s, c) from PYTHAGOREAN on each edge of g, drawn by
    random.Random(seed); with swap, (c, s) instead on about half of them."""
    rng = random.Random(seed)
    out = {}
    for e in g.edges():
        s, c = rng.choice(PYTHAGOREAN)
        if swap and rng.choice((1, -1)) < 0:
            s, c = c, s
        out[e] = make_coupling(sc=(s, c))
    return out


def named_lattice(name):
    """The lattice a name such as "square 2x1" or "honeycomb 3x3" names."""
    kind, size = name.split()
    return getattr(lattices, kind)(*map(int, size.split("x")))


def reparsed(g):
    """A fresh graph equal to g: rotation lists of its own, no caches."""
    return parse_torus_graph(serialize_torus_graph(g))[0]


def one_like(weights):
    """The unit of the weights: Fraction(1) when they all are Fractions, else 1.0."""
    return Fraction(1) if all(isinstance(v, Fraction) for v in weights) else 1.0


def face_x_values(g, wt):
    """X of every face (counterclockwise boundary)."""
    return {fid: x_of_cycle(g, wt, orbit) for fid, orbit in g.faces()}


def gauge_transform(g, wt, f):
    """Apply a vertex function f: wt'(e) = f(b)^-1 wt(e) f(w)."""
    out = {}
    for e, x in wt.items():
        v1, v2, _, _ = g.edge_ends[e]
        b, w = (v1, v2) if g.colors[v1] == "b" else (v2, v1)
        out[e] = x * f.get(w, 1) / f.get(b, 1)
    return out


def uncontraction_move(g, wt, v, arc_start, arc_len):
    """Split vertex v: darts arc_start..arc_start+arc_len-1 (ccw) stay on a
    new copy v_u1; the rest go to v_u2; a degree-2 vertex v_um of the
    opposite color joins them with two weight-1 edges v_ue1 and v_ue2. The
    inverse of dimer.contraction_move at v_um."""
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
    one = one_like(wt.values())
    new_wt = {**wt, e1: one, e2: one}
    record = MoveRecord("uncontract", g, gn, {
        "vertex": v, "parts": (v1, v2, mid),
        "roots": gn.moved_roots,
        "reroute": lambda cycle: list(cycle),
    })
    return gn, new_wt, record


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


def half_cross_sign(g, v, t1, t2):
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
                    eps += Fraction(half_cross_sign(g, v, t1, t2), 2)
                # at a trivalent vertex two transits always share a port
        total += eps if g.colors[v] == "b" else -eps
    return total


def monomial_label(t, zz_classes):
    """The label of div(z^i w^j) = sum_alpha (j p_alpha - i q_alpha) nu(alpha)
    for t = (i, j), alpha of class (p, q): where the lift of a label by t
    moves it."""
    i, j = t
    return AbelLabel({zid: j * p - i * q for zid, (p, q) in zz_classes.items()})
