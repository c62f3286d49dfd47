"""The discrete Abel map of a bipartite torus graph: integer labels over
its zig-zag paths on the lifts of its vertices, checked on every cycle.
Plain integer arithmetic; nothing here needs numpy.
"""
from __future__ import annotations

from .spectral import SpectralError
from .torusgraph import GraphError


def abel_tree(g):
    """Discrete Abel labels along one spanning tree, checked on every cycle.

    Walks g.spanning_tree() from its root r. Each vertex v gets an integer
    vector L(v) over the zig-zags, L(r) = 0 and L(b) - L(w) = nu(alpha) +
    nu(beta) across every tree edge {b, w} (alpha, beta the two zig-zags
    through it), and the translate T(v) of the lift of v the walk reaches.
    Each non-tree edge closes one fundamental cycle, of class h; its label
    sum must be the divisor of the monomial z^h_x w^h_y, m(h)_alpha =
    h_y p_alpha - h_x q_alpha for alpha of class (p, q). These E - V + 1
    cycles span all cycles of the torus graph, so the labels are then well
    defined on the whole lifted graph: the lift of v at translate t carries
    L(v) + m(t - T(v)).

    Returns (zig-zag ids, their classes, L, T), vectors in the order of the
    ids; raises SpectralError naming the first edge whose cycle fails, and
    GraphError on a graph that is not bipartite.
    """
    if not g.is_bipartite_colored():
        raise GraphError("the discrete Abel map needs a bipartite graph")
    zzs = g.zigzag_paths()
    classes = [zz["class"] for zz in zzs]
    index = {d: k for k, zz in enumerate(zzs) for d in zz["darts"]}

    def across(v, d, lab):
        out = list(lab)
        s = 1 if g.colors[v] == "w" else -1
        out[index[d]] += s
        out[index[g.twin(d)]] += s
        return out

    root = g.vertex_ids()[0]
    L, T, tree = {root: [0] * len(zzs)}, {root: (0, 0)}, set()
    for v, e, u in g.spanning_tree():
        d = e + "+" if g.tail(e + "+") == v else e + "-"
        dx, dy = g.disp(d)
        L[u] = across(v, d, L[v])
        T[u] = (T[v][0] + dx, T[v][1] + dy)
        tree.add(e)
    for e in g.edges():
        if e in tree:
            continue
        d = e + "+"
        v, u = g.tail(d), g.head(d)
        dx, dy = g.disp(d)
        hx, hy = T[v][0] + dx - T[u][0], T[v][1] + dy - T[u][1]
        got = across(v, d, L[v])
        if any(a - b != hy * p - hx * q for a, b, (p, q) in zip(got, L[u], classes)):
            raise SpectralError(
                f"Abel labels inconsistent across edge {e} (cycle class ({hx}, {hy}))")
    return [zz["id"] for zz in zzs], classes, L, T


def discrete_abel(g, window=1):
    """Labels d(v) on a (2*window+1)^2 lifted block of a bipartite graph.

    d(base white) = 0; across every edge {b, w}: d(b) - d(w) = nu(alpha) +
    nu(beta), the two zig-zags through the edge. Lift translates shift by
    div(z^i w^j). The labels come from `abel_tree`, which checks them on
    every cycle of the torus graph and raises SpectralError naming the edge
    of an inconsistent one; the block holds the lifts reachable from the
    base white without leaving it.
    Returns {(vertex, (tx, ty)): {zig-zag id: n}}, a formal integer
    combination of zig-zag ids with the zero entries dropped.
    """
    ids, classes, L, T = abel_tree(g)

    def m(t):
        return [t[1] * p - t[0] * q for p, q in classes]

    base = g.whites()[0]
    # d(v, t) = L(v) + m(t - T(v)) - (L(base) + m(-T(base))), m linear
    shift = [a - b for a, b in zip(L[base], m(T[base]))]
    rel = {v: [a - b - c for a, b, c in zip(lab, m(T[v]), shift)] for v, lab in L.items()}
    rng = range(-window, window + 1)
    labels = {(base, (0, 0)): {}}
    frontier = [(base, (0, 0))]
    while frontier:
        v, t = frontier.pop()
        for d in g.rotation[v]:
            dd = g.disp(d)
            key = (g.head(d), (t[0] + dd[0], t[1] + dd[1]))
            if key[1][0] in rng and key[1][1] in rng and key not in labels:
                u, tu = key
                labels[key] = {z: n for z, n in zip(ids, map(sum, zip(rel[u], m(tu)))) if n}
                frontier.append(key)
    return labels
