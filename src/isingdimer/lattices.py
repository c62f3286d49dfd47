"""The square and honeycomb lattices on the torus, kx x ky cells per
fundamental domain, as uncolored torus graphs ready for an Ising model.

Names end in the cell (i, j), 0 <= i < kx, 0 <= j < ky, written as i then j
in decimal; they are unique while kx <= 10 or ky <= 10, and where two collide
on a larger lattice (12 x 11 is the smallest) `add_vertex` raises.
"""
from __future__ import annotations

from .torusgraph import TorusGraph


def square(kx=1, ky=1):
    """Square lattice: vertex p{i}{j}, its edge h{i}{j} to the right (along
    z) and v{i}{j} upward (along w); frozen and validated."""
    g = TorusGraph()
    for i in range(kx):
        for j in range(ky):
            g.add_vertex(f"p{i}{j}", "n")
    for i in range(kx):
        for j in range(ky):
            g.add_edge(f"h{i}{j}", f"p{i}{j}", f"p{(i + 1) % kx}{j}", 1 if i + 1 == kx else 0, 0)
            g.add_edge(f"v{i}{j}", f"p{i}{j}", f"p{i}{(j + 1) % ky}", 0, 1 if j + 1 == ky else 0)
    for i in range(kx):
        for j in range(ky):
            g.set_rotation(f"p{i}{j}", [f"h{i}{j}+", f"v{i}{j}+",
                                        f"h{(i - 1) % kx}{j}-", f"v{i}{(j - 1) % ky}-"])
    g.freeze()
    g.validate()
    return g


def honeycomb(kx=1, ky=1):
    """Honeycomb lattice: vertices u{i}{j} and v{i}{j}, and the three edges
    a{i}{j}, b{i}{j}, c{i}{j} from u{i}{j} to v{i}{j}, to v of the next cell
    along z and to v of the next cell along w; frozen and validated."""
    g = TorusGraph()
    for i in range(kx):
        for j in range(ky):
            g.add_vertex(f"u{i}{j}", "n")
            g.add_vertex(f"v{i}{j}", "n")
    for i in range(kx):
        for j in range(ky):
            g.add_edge(f"a{i}{j}", f"u{i}{j}", f"v{i}{j}", 0, 0)
            g.add_edge(f"b{i}{j}", f"u{i}{j}", f"v{(i + 1) % kx}{j}", 1 if i + 1 == kx else 0, 0)
            g.add_edge(f"c{i}{j}", f"u{i}{j}", f"v{i}{(j + 1) % ky}", 0, 1 if j + 1 == ky else 0)
    for i in range(kx):
        for j in range(ky):
            g.set_rotation(f"u{i}{j}", [f"a{i}{j}+", f"b{i}{j}+", f"c{i}{j}+"])
            g.set_rotation(f"v{i}{j}", [f"a{i}{j}-", f"b{(i - 1) % kx}{j}-",
                                        f"c{i}{(j - 1) % ky}-"])
    g.freeze()
    g.validate()
    return g
