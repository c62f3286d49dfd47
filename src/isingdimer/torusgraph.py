"""Torus-embedded graphs as rotation systems with homology displacements.

A graph is stored as a set of darts (directed half-edges). Each dart knows
its twin, the next dart counterclockwise around its tail vertex, and a
displacement in Z^2 recording signed crossings with the two fundamental
loops (x-crossings give the z exponent, y-crossings the w exponent).

Faces are the orbits of d -> prev_ccw(twin(d)); their boundaries are
counterclockwise. Zig-zag paths turn maximally right and left in turn: on
bipartite graphs right at black vertices and left at white ones; on
uncolored graphs from both parities, which yields every path together with
its reversal partner.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from copy import copy
from fractions import Fraction

from .exactalg import NewtonPolygon


def _primitive_period(seq):
    """Smallest repeating block of a cyclic sequence (degree-2 vertices make
    alternating strands retrace themselves)."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and all(seq[i] == seq[i % p] for i in range(n)):
            return seq[:p]


class GraphError(ValueError):
    """Raised for structurally invalid graphs or inputs."""


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class Dart:
    __slots__ = ("id", "edge", "vertex", "head", "disp", "twin")

    def __init__(self, dart_id, edge, vertex, head, disp, twin):
        self.id = dart_id
        self.edge = edge
        self.vertex = vertex          # tail
        self.head = head
        self.disp = disp              # (dx, dy), ints
        self.twin = twin

    def __repr__(self):
        return f"Dart({self.id}: {self.vertex}->{self.head} {self.disp})"


def _find(parent, v):
    """Root of v in the union-find forest `parent`, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


class TorusGraph:
    """Immutable-after-validation combinatorial map on the torus.

    vertices: id -> color ('b' | 'w' | 'n'); positions optional metadata.
    Edge ids are strings; the two darts of edge e are named 'e+' (the
    stored orientation, carrying the stored displacement) and 'e-'.
    """

    def __init__(self):
        self.colors = {}
        self.positions = {}
        self.darts = {}
        self.edge_ends = {}           # edge id -> (v1, v2, dx, dy)
        self.rotation = {}            # vertex -> list of dart ids, ccw
        self._next = {}
        self._prev = {}
        self._clear_caches()

    def _clear_caches(self):
        self._orbit = None            # smallest dart of a face -> its orbit from there
        self._root = None             # dart -> smallest dart of its face
        self._ranks = None            # the smallest darts of the faces, sorted: f<k> is rank k
        self._zigzags = None
        self._cycles = None           # the homology basis cycles a, b
        self._tree = None
        self._uncolored = None        # vertices colored 'n', counted by validate() and kept by edits
        self._valid = False           # a validate() or a checked edit passed

    # -- construction -------------------------------------------------------

    def add_vertex(self, v, color="n", pos=None):
        if v in self.colors:
            raise GraphError(f"duplicate vertex {v}")
        if color not in ("b", "w", "n"):
            raise GraphError(f"bad color {color!r} for vertex {v}")
        self.colors[v] = color
        if pos is not None:
            self.positions[v] = (float(pos[0]), float(pos[1]))

    def add_edge(self, e, v1, v2, dx=0, dy=0):
        if e in self.edge_ends:
            raise GraphError(f"duplicate edge {e}")
        if v1 not in self.colors or v2 not in self.colors:
            v = v1 if v1 not in self.colors else v2
            raise GraphError(f"edge {e} references unknown vertex {v}")
        # the one maker of darts: an edge's two are twins by construction,
        # with swapped ends and negated displacements
        self.edge_ends[e] = ends = (v1, v2, int(dx), int(dy))
        plus, minus = e + "+", e + "-"
        self.darts[plus] = Dart(plus, e, v1, v2, ends[2:], minus)
        self.darts[minus] = Dart(minus, e, v2, v1, (-ends[2], -ends[3]), plus)

    def set_rotation(self, v, dart_ids):
        if v not in self.colors:
            raise GraphError(f"rotation for unknown vertex {v}")
        self.rotation[v] = list(dart_ids)

    def freeze(self):
        """Resolve rotations into successor maps; clears caches."""
        self._next, self._prev = {}, {}
        for v in self.rotation:
            self._link(v)
        self._clear_caches()
        return self

    def _link(self, v):
        """Successor maps around v from its rotation, checked and linked in
        one pass. Returns the twins of the darts whose predecessor changed:
        their face successor did."""
        ds, darts, nxt, prev, moved = self.rotation[v], self.darts, self._next, self._prev, []
        for p, d in zip(ds[-1:] + ds[:-1], ds):
            dart = darts.get(d)
            if dart is None:
                raise GraphError(f"rotation at {v} names unknown dart {d}")
            if dart.vertex != v:
                raise GraphError(f"dart {d} is not based at {v}")
            nxt[p] = d
            if prev.get(d) != p:
                prev[d] = p
                moved.append(dart.twin)
        return moved

    def color_swapped(self):
        """The graph with black and white exchanged, a shallow copy: it
        shares every dict of self but the colors, as a graph is not changed
        after validation. Faces, homology cycles, the spanning tree, the
        uncolored count and the validity verdict do not depend on color and
        are kept; the zig-zag paths are not."""
        g, swap = copy(self), {"b": "w", "w": "b"}.get
        g.colors = {v: swap(c, c) for v, c in self.colors.items()}
        g._zigzags = None
        return g

    # -- elementary queries --------------------------------------------------

    def twin(self, d):
        return self.darts[d].twin

    def next_ccw(self, d):
        return self._next[d]

    def prev_ccw(self, d):
        return self._prev[d]

    def tail(self, d):
        return self.darts[d].vertex

    def head(self, d):
        return self.darts[d].head

    def disp(self, d):
        return self.darts[d].disp

    def edges(self):
        return sorted(self.edge_ends)

    def vertex_ids(self):
        return sorted(self.colors)

    def degree(self, v):
        return len(self.rotation.get(v, ()))

    def is_bipartite_colored(self):
        if any(c == "n" for c in self.colors.values()):
            return False
        return all(self.colors[v1] != self.colors[v2] for v1, v2, _, _ in self.edge_ends.values())

    def blacks(self):
        return sorted(v for v, c in self.colors.items() if c == "b")

    def whites(self):
        return sorted(v for v, c in self.colors.items() if c == "w")

    # -- faces ---------------------------------------------------------------

    def faces(self):
        """List of faces (id, darts in ccw boundary order).

        Face k is named f{k} in the order of the faces' smallest dart ids,
        and each orbit starts at its smallest dart, as a scan of the darts
        in sorted id order finds them.
        """
        return [(f"f{k}", self._orbit[r]) for k, r in enumerate(self._traced())]

    def _traced(self):
        """The sorted smallest darts of the faces, tracing them all on first use."""
        if self._ranks is None:
            self._orbit, self._root = {}, {}
            self._ranks = self._trace(sorted(self.darts))
        return self._ranks

    def _trace(self, starts):
        """Trace the face orbit of every dart of `starts` that has none yet;
        returns the smallest darts of the new orbits."""
        roots, prev, darts, root_of, limit = [], self._prev, self.darts, self._root, 2 * len(self.darts)
        for d0 in starts:
            if d0 in root_of:
                continue
            orbit = [d0]
            d = prev[darts[d0].twin]      # the next dart around the face
            for _ in range(limit):
                if d == d0:
                    break
                orbit.append(d)
                d = prev[darts[d].twin]
            else:
                raise GraphError(f"face trace from {d0} does not close")
            k = orbit.index(min(orbit))
            orbit = orbit[k:] + orbit[:k]
            root_of.update(dict.fromkeys(orbit, orbit[0]))
            self._orbit[orbit[0]] = orbit
            roots.append(orbit[0])
        return roots

    def face_ids(self):
        return [f"f{k}" for k in range(len(self._traced()))]

    def face_darts(self, fid):
        """The orbit of face `fid` from its smallest dart. The face is f<k>
        for rank k: k in decimal digits, no leading zero and fewer than 10."""
        ranks, k = self._traced(), str(fid)[1:]
        if not (k.isdecimal() and len(k) < 10 and fid == f"f{int(k)}" and int(k) < len(ranks)):
            raise GraphError(f"unknown face {fid}")
        return list(self._orbit[ranks[int(k)]])

    def root_of(self, d):
        """The smallest dart of the face of dart d."""
        self._traced()
        return self._root[d]

    def orbit(self, root):
        """The face orbit from its smallest dart `root`; not to be changed."""
        return self._orbit[root]

    def face_of_dart(self, d):
        r = self.root_of(d)
        return f"f{bisect_left(self._ranks, r)}"

    # -- validation ----------------------------------------------------------

    def _check_faces(self, roots, edges):
        """Raise GraphError for the first face of `roots` (smallest darts)
        with nonzero total displacement, for a nonzero Euler characteristic,
        and on a colored graph for the first edge of `edges` that joins two
        same-colored vertices."""
        for r in roots:
            dx, dy = self.walk_displacement(self._orbit[r])
            if (dx, dy) != (0, 0):
                raise GraphError(f"face {self.face_of_dart(r)} has nonzero total displacement ({dx},{dy})")
        V, E, F = len(self.colors), len(self.edge_ends), len(self._ranks)
        if V - E + F != 0:
            raise GraphError(f"Euler characteristic {V - E + F} != 0 (V={V} E={E} F={F})")
        if not self._uncolored:
            for e in edges:
                v1, v2, _, _ = self.edge_ends[e]
                if self.colors[v1] == self.colors[v2]:
                    raise GraphError(f"edge {e} joins two {self.colors[v1]}-vertices")

    def validate(self):
        """Check all invariants, connectivity among them; returns a report
        dict, raises GraphError on failure."""
        if not self.colors:
            raise GraphError("graph has no vertices")
        problems, at = [], {}
        for d, dart in self.darts.items():
            at.setdefault(dart.vertex, []).append(d)
        for v in self.colors:
            ds = self.rotation.get(v)
            if not ds:
                problems.append(f"vertex {v} has no rotation")
            elif sorted(ds) != sorted(at.get(v, ())):
                problems.append(f"rotation at {v} does not list exactly its darts")
        if problems:
            raise GraphError("; ".join(problems))
        parent = {v: v for v in self.colors}
        for v1, v2, _, _ in self.edge_ends.values():
            parent[_find(parent, v1)] = _find(parent, v2)
        parts = sum(v == root for v, root in parent.items())
        if parts > 1:
            raise GraphError(f"graph is not connected: {parts} components")

        faces = self.faces()
        self._uncolored = list(self.colors.values()).count("n")
        self._check_faces(self._ranks, self.edge_ends)
        self._valid = True
        V, E, F = len(self.colors), len(self.edge_ends), len(faces)
        return {
            "V": V, "E": E, "F": F, "euler": V - E + F,
            "faces": {fid: len(orbit) for fid, orbit in faces},
            "bipartite": not self._uncolored,
        }

    def ensure_valid(self):
        """Run validate() unless a validate() or a checked edit passed
        since the last freeze()."""
        if not self._valid:
            self.validate()

    # -- local edits -----------------------------------------------------------

    def edit(self, drop_vertices=(), drop_edges=(), vertices=(), edges=(), rotations=None):
        """A new graph: self without `drop_vertices` and `drop_edges`, plus
        `vertices` (id, color, pos) and `edges` (id, v1, v2, dx, dy), with
        `rotations` (vertex -> ccw dart ids) at the touched vertices. An
        edge may be dropped and added again under its id with new ends.

        self is not changed. The new graph shares the vertex dicts of self
        when no vertex is dropped or added, the edge dicts when no edge is,
        and its other Dart objects and rotation lists. Successor maps are
        patched at the touched vertices, and only the faces through darts
        whose face successor changed are traced again: their smallest darts
        in self leave the sorted face ranks and the new ones go in, so face
        ids follow the rule of `faces()`. The new graph's `moved_roots` maps
        each of those old smallest darts to the smallest dart of the face of
        its orbit's first dart that the new graph keeps, and `lost_orbits`
        lists the old orbits, each from its smallest dart, of the faces that
        keep no dart. The invariants of `validate()` are checked on what
        changed, and the rest inherits them from self, which is validated
        first unless it already was. Raises GraphError.
        """
        self.ensure_valid()
        rotations = rotations or {}
        g = TorusGraph()
        g.colors, g.positions = ((self.colors.copy(), self.positions.copy())
                                 if drop_vertices or vertices else (self.colors, self.positions))
        g.darts, g.edge_ends = ((self.darts.copy(), self.edge_ends.copy())
                                if drop_edges or edges else (self.darts, self.edge_ends))
        g.rotation, g._next, g._prev = self.rotation.copy(), self._next.copy(), self._prev.copy()
        g._orbit, g._root, g._ranks = self._orbit.copy(), self._root.copy(), self._ranks.copy()
        darts, ends, gone, added = g.darts, g.edge_ends, [], []
        for e in drop_edges:
            plus, minus = e + "+", e + "-"
            del ends[e], darts[plus], darts[minus]
            gone += plus, minus
        uncolored, touched = self._uncolored, {*rotations, *drop_vertices}
        for v in drop_vertices:
            uncolored -= g.colors.pop(v) == "n"
            del g.rotation[v]
            g.positions.pop(v, None)
        for v, color, pos in vertices:
            g.add_vertex(v, color, pos)
            uncolored += color == "n"
            touched.add(v)
        for e, v1, v2, dx, dy in edges:
            g.add_edge(e, v1, v2, dx, dy)
            added.append(e)
        for d in gone:
            if d not in darts:
                del g._next[d], g._prev[d]
        # the faces through darts whose face successor changed are traced
        # again: the new darts and the twins of darts with a new predecessor
        changed = {e + s for e in added for s in "+-"}
        for v, ds in rotations.items():
            g.set_rotation(v, ds)
            changed.update(g._link(v))

        # one pass over the ends of the dropped and added edges: an end
        # leaves its old vertex and joins its new one unless both are the
        # same. _link put every listed dart at its vertex, so a rotation
        # lists exactly its vertex's darts when it lists none twice and as
        # many as it has.
        problems, gain = [], {}
        for es, step, here, there in ((drop_edges, -1, self.edge_ends, ends),
                                      (added, 1, ends, self.edge_ends)):
            for e in es:
                v1, v2, _, _ = here[e]
                w1, w2, _, _ = there.get(e, (None, None, None, None))
                if v1 != w1:
                    gain[v1] = gain.get(v1, 0) + step
                if v2 != w2:
                    gain[v2] = gain.get(v2, 0) + step
        for v in sorted(gain.keys() - touched):
            problems.append(f"rotation at {v} does not list exactly its darts")
        for v in sorted(touched):
            ds = g.rotation.get(v, ())
            if v in g.colors and not ds:
                problems.append(f"vertex {v} has no rotation")
            elif len(set(ds)) != len(ds) or len(ds) != len(self.rotation.get(v, ())) + gain.get(v, 0):
                problems.append(f"rotation at {v} does not list exactly its darts")
        if problems:
            raise GraphError("; ".join(problems))

        # the faces through changed or dropped darts leave. Only the changed
        # and dropped darts lose their roots here: every kept dart of those
        # faces lies on a new face through a changed dart, so the traces from
        # the changed darts give it its new root
        root_of, ranks, orbits, kept, lost = g._root, g._ranks, g._orbit, {}, []
        for r in {root_of.pop(d) for d in changed.union(gone) if d in root_of}:
            del ranks[bisect_left(ranks, r)]
            orbit = orbits.pop(r)
            for d in orbit:
                if d in darts:
                    kept[r] = d
                    break
            else:
                lost.append(orbit)
        roots = sorted(g._trace(changed))
        for r in roots:
            insort(ranks, r)
        g.moved_roots, g.lost_orbits = {r: root_of[d] for r, d in kept.items()}, lost
        g._uncolored = uncolored
        # old edges were checked for color only if self was colored
        g._check_faces(roots, ends if self._uncolored else added)
        g._valid = True
        return g

    # -- homology -------------------------------------------------------------

    def cycle_displacement(self, darts):
        """Homology class of a sum of darts; raises unless its boundary vanishes."""
        flow = {}
        for d in darts:
            dart = self.darts[d]
            flow[dart.vertex] = flow.get(dart.vertex, 0) - 1
            flow[dart.head] = flow.get(dart.head, 0) + 1
        if any(flow.values()):
            raise GraphError("dart combination is not a cycle")
        return self.walk_displacement(darts)

    def walk_displacement(self, dart_seq):
        darts, dx, dy = self.darts, 0, 0
        for d in dart_seq:
            x, y = darts[d].disp
            dx, dy = dx + x, dy + y
        return (dx, dy)

    def spanning_tree(self):
        """The spanning tree on the lowest edge ids (union-find over the
        edges in order), as steps (v, e, u) of a walk from the first vertex
        in which v is reached before u. Deterministic; built once per graph
        and kept like the faces."""
        if self._tree is not None:
            return self._tree
        parent = {v: v for v in self.vertex_ids()}
        adj = {v: [] for v in self.vertex_ids()}
        for e in self.edges():
            v1, v2, _, _ = self.edge_ends[e]
            r1, r2 = _find(parent, v1), _find(parent, v2)
            if r1 != r2:
                parent[r1] = r2
                adj[v1].append((e, v2))
                adj[v2].append((e, v1))
        root = self.vertex_ids()[0]
        seen, stack, steps = {root}, [root], []
        while stack:
            v = stack.pop()
            for e, u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    steps.append((v, e, u))
                    stack.append(u)
        self._tree = steps
        return steps

    def homology_basis_cycles(self):
        """Two closed walks with classes (1,0) and (0,1), found by BFS in the
        Z^2-cover from the smallest vertex. Deterministic."""
        if self._cycles is None:
            self._cycles = self._find_class_cycle((1, 0)), self._find_class_cycle((0, 1))
        return self._cycles

    def _find_class_cycle(self, target):
        root = self.vertex_ids()[0]
        start = (root, 0, 0)
        goal = (root, target[0], target[1])
        prev = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                v, x, y = node
                for d in self.rotation[v]:
                    dart = self.darts[d]
                    child = (dart.head, x + dart.disp[0], y + dart.disp[1])
                    if abs(child[1]) > abs(target[0]) + 2 or abs(child[2]) > abs(target[1]) + 2:
                        continue
                    if child not in prev:
                        prev[child] = (node, d)
                        nxt.append(child)
            if goal in prev:
                break
            frontier = nxt
            if not frontier:
                raise GraphError(f"no cycle of class {target} found")
        path = []
        node = goal
        while prev[node] is not None:
            node, d = prev[node]
            path.append(d)
        path.reverse()
        return path

    # -- zig-zag paths ---------------------------------------------------------

    def zigzag_paths(self):
        """Zig-zag paths with homology classes.

        A strand is a (dart, parity) walk that turns maximally right
        (parity 1) or left (-1) at the dart's head and flips parity at each
        step. On a bipartite graph the head's color fixes the parity (right
        at black, left at white), so every dart lies on exactly one path.
        Uncolored graphs trace each dart at both parities, producing each
        path together with its reversal.
        Returns a list of dicts: {'id', 'darts', 'class'}.
        """
        if self._zigzags is not None:
            return self._zigzags
        colored = self.is_bipartite_colored()
        out, seen = [], set()
        for d0 in sorted(self.darts):
            for p0 in ((1 if self.colors[self.head(d0)] == "b" else -1,) if colored
                       else (1, -1)):
                if (d0, p0) in seen:
                    continue
                darts = []
                d, p = d0, p0
                while True:
                    darts.append(d)
                    seen.add((d, p))
                    t = self.twin(d)
                    d = self.next_ccw(t) if p > 0 else self.prev_ccw(t)
                    p = -p
                    if (d, p) == (d0, p0):
                        break
                    if len(darts) > 4 * len(self.darts):
                        raise GraphError("zig-zag strand does not close")
                out.append(_primitive_period(darts))
        self._zigzags = [
            {"id": f"zz{i}", "darts": ds, "class": self.walk_displacement(ds)}
            for i, ds in enumerate(out)
        ]
        return self._zigzags

    # -- Newton polygon ----------------------------------------------------------

    def newton_polygon(self):
        """Polygon assembled from zig-zag classes, as the walk along them
        sorted by angle; GraphError for a zero-homology zig-zag.

        Uncolored graphs: centered at the origin (classes come in opposite
        pairs, so the centering is integral; GraphError if it is not).
        Bipartite graphs: centered when that is integral, else the walk from
        the origin; either way the polygon is defined up to translation.
        """
        classes = [zz["class"] for zz in self.zigzag_paths()]
        if any(c == (0, 0) for c in classes):
            raise GraphError("zero-homology zig-zag: graph is not minimal")
        import math
        def angle(v):
            return math.atan2(v[1], v[0])
        ordered = sorted(classes, key=angle)
        pts = [(0, 0)]
        for v in ordered:
            pts.append((pts[-1][0] + v[0], pts[-1][1] + v[1]))
        if pts[-1] != (0, 0):
            raise GraphError("zig-zag classes do not close a polygon")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        cx, cy = max(xs) + min(xs), max(ys) + min(ys)
        if cx % 2 == 0 and cy % 2 == 0:
            return NewtonPolygon([(x - cx // 2, y - cy // 2) for x, y in pts])
        if not self.is_bipartite_colored():
            raise GraphError("uncolored graph polygon cannot be centered integrally")
        return NewtonPolygon(pts)

    # -- minimality -----------------------------------------------------------

    def check_minimal(self):
        """Minimality via lifts to a finite window of the Z^2-cover.

        Every zig-zag is lifted over 2L + 3 periods (L = longest zig-zag + 1)
        and the checks run in order: a zero-homology zig-zag; a lift that
        uses one edge-lift on two passes (self-intersection); two lifts that
        traverse two distinct edge-lifts in the same direction and order
        (parallel bigon), with shifts up to L in each coordinate. The bigon
        search indexes each path's dart-lifts by dart and reads every shift
        from matching occurrences, so two paths that share no dart cost
        nothing. A graph that passes must also satisfy F = 2 Area(N)
        (Goncharov-Kenyon), which catches the digon faces of doubled edges:
        distinct bipartite zig-zags never share a dart. An uncolored (Ising)
        graph is held to the face count of its gadget graph (`to_dimer`),
        which has the same zig-zag classes and one face per vertex, face and
        edge: 2E faces, as V - E + F = 0. Both give the same verdict.

        Returns (bool, certificate). The certificate names the offending
        zig-zags and dart lifts for each violation; a face-count failure
        gives the face count and twice the polygon area, which a pass
        records too.
        """
        zzs = self.zigzag_paths()
        for zz in zzs:
            if zz["class"] == (0, 0):
                return False, {"kind": "zero-homology", "zigzag": zz["id"]}
        L = max(len(zz["darts"]) for zz in zzs) + 1

        def lift(zz):
            """Dart lifts (dart, (tx, ty)) over enough periods to cover the window."""
            reps = 2 * L + 3
            out = []
            t = (0, 0)
            for _ in range(reps):
                for d in zz["darts"]:
                    out.append((d, t))
                    dd = self.disp(d)
                    t = (t[0] + dd[0], t[1] + dd[1])
            return out

        lifted = {zz["id"]: lift(zz) for zz in zzs}

        # self-intersection: the lift uses the same edge-lift on two passes
        # (periodic repeats of the same dart are the same pass).
        for zz in zzs:
            path = lifted[zz["id"]]
            period = len(zz["darts"])
            edge_seen = {}
            for idx, (d, t) in enumerate(path):
                key = self._edge_lift(d, t)
                if key in edge_seen:
                    prev_idx = edge_seen[key]
                    if (idx - prev_idx) % period != 0 or path[prev_idx][0] != d:
                        return False, {"kind": "self-intersection", "zigzag": zz["id"],
                                       "darts": (path[prev_idx][0], d)}
                else:
                    edge_seen[key] = idx
        # parallel bigons: two lifts traversing two distinct edge-lifts in the
        # same direction and the same order.
        by_dart = {}
        for zz in zzs:
            index = {}
            for idx, (d, t) in enumerate(lifted[zz["id"]]):
                index.setdefault(d, {}).setdefault(t, idx)
            by_dart[zz["id"]] = index
        for za in zzs:
            for zb in zzs:
                if za["id"] > zb["id"] or by_dart[zb["id"]].keys().isdisjoint(za["darts"]):
                    continue
                hit = self._bigon_between(lifted[za["id"]], by_dart[zb["id"]],
                                          za, zb, L)
                if hit:
                    return False, hit
        twice_area = self.newton_polygon().twice_area
        faces = len(self._traced()) if self.is_bipartite_colored() else 2 * len(self.edges())
        kind = "minimal" if faces == twice_area else "face-count"
        return kind == "minimal", {"kind": kind, "faces": faces, "twice_area": twice_area}

    def _bigon_between(self, path_a, index_b, za, zb, window):
        """Detect a parallel bigon between lifted path a and path b (including
        a path against its own translates). index_b maps each dart of b to
        {translate: index of its first lift in b}.

        Each dart-lift (d, t) of a meets the lifts (d, t_b) of b at shift
        t_b - t; the shared lifts are grouped by shift and the groups tested
        in sorted shift order, each in the order of path a."""
        (cx, cy), same = za["class"], za["id"] == zb["id"]
        groups = {}
        for idx, (d, t) in enumerate(path_a):
            for (bx, by), ib in index_b.get(d, {}).items():
                sx, sy = bx - t[0], by - t[1]
                if not (-window <= sx <= window and -window <= sy <= window):
                    continue
                if same and cx * sy == cy * sx:
                    continue  # own translate along the class is the same lift
                groups.setdefault((sx, sy), []).append((idx, ib, d, t))

        for shift in sorted(groups):
            shared = groups[shift]
            for i in range(len(shared)):
                for j in range(i + 1, len(shared)):
                    ia, ib, da, ta = shared[i]
                    ja, jb, db, tb = shared[j]
                    if ia < ja and ib < jb and self._edge_lift(da, ta) != self._edge_lift(db, tb):
                        return {"kind": "parallel-bigon", "zigzags": (za["id"], zb["id"]),
                                "darts": (da, db)}
        return None

    def _edge_lift(self, d, t):
        """The edge-lift that dart-lift (d, t) runs on: its edge and the
        translate of the tail of its + dart."""
        dart = self.darts[d]
        if d.endswith("+"):
            return (dart.edge, t)
        return (dart.edge, (t[0] + dart.disp[0], t[1] + dart.disp[1]))

    # -- duality ---------------------------------------------------------------

    def face_lift_label(self, d, t):
        """Label (face id, translate) of the face-lift containing dart-lift (d, t).

        The translate label is the translate of the face's minimal dart within
        the lifted orbit.
        """
        fid, orbit = self.face_of_dart(d), self._orbit[self.root_of(d)]
        # walk back to the orbit start, its minimal dart, accumulating
        # displacement
        tx, ty = t
        for x in orbit[:orbit.index(d)]:
            dx, dy = self.disp(x)
            tx, ty = tx - dx, ty - dy
        return (fid, (tx, ty))

    def dual_graph(self):
        """Dual torus graph: faces become vertices.

        The dual dart of e+ runs from the face left of e+ to the face left of
        e-; its displacement is the translate difference of the two face-lifts
        in the Z^2-cover. Primal edge ids are kept, so e+ in the dual
        corresponds to e+ in the primal.
        """
        dual, faces = TorusGraph(), self.faces()
        for fid, _ in faces:
            dual.add_vertex(fid, "n")
        for e, (v1, v2, dx, dy) in self.edge_ends.items():
            f_plus, t1 = self.face_lift_label(e + "+", (0, 0))
            f_minus, t2 = self.face_lift_label(e + "-", (dx, dy))
            dual.add_edge(e, f_plus, f_minus, t2[0] - t1[0], t2[1] - t1[1])
        # rotation at a dual vertex (= primal face): radial dual darts cross
        # the ccw face boundary in the same ccw order.
        for fid, orbit in faces:
            dual.set_rotation(fid, list(orbit))
        dual.freeze()
        return dual

    # -- isomorphism (rotation system + colors) ---------------------------------

    def isomorphic(self, other):
        """True when a bijection of darts carries twin, next_ccw and the tail
        colors of self onto those of other (displacements are not compared).
        Each component of self is matched in turn: a trial sends a dart d0 to
        a candidate e0 of other and walks pairs of darts from there."""
        if len(self.darts) != len(other.darts):
            return False
        done, used = set(), set()
        for d0 in sorted(self.darts):
            if d0 in done:
                continue
            for e0 in sorted(set(other.darts) - used):
                trial = self._dart_walk(other, d0, e0, used)
                if trial is not None:
                    done.update(trial)
                    used.update(trial.values())
                    break
            else:
                return False
        return True

    def _dart_walk(self, other, d0, e0, used):
        """The map of the component of d0 that sends d0 to e0 and commutes
        with twin and next_ccw. None at the first conflict: a dart mapped
        twice, an image used twice or a tail color that differs."""
        trial, hit = {}, set()
        stack = [(d0, e0)]
        while stack:
            d, e = stack.pop()
            if d in trial:
                if trial[d] != e:
                    return None
                continue
            if e in hit or e in used or self.colors[self.tail(d)] != other.colors[other.tail(e)]:
                return None
            trial[d] = e
            hit.add(e)
            stack.append((self.twin(d), other.twin(e)))
            stack.append((self.next_ccw(d), other.next_ccw(e)))
        return trial


# -- text format ----------------------------------------------------------------


def parse_torus_graph(text):
    """Parse the `torus-graph v1` format.

    Returns (TorusGraph, weights: edge->Fraction|float, couplings: edge->dict).
    Strict: unknown keys, bad arity, undefined references and a second
    weight or coupling line for an edge, or rot line for a vertex, are errors.
    """
    g = TorusGraph()
    weights = {}
    couplings = {}
    rot_lines = []
    edge_refs = []   # (line, key, edge) of the weight and coupling lines
    lines = text.splitlines()
    if not lines or lines[0].strip() != "torus-graph v1":
        raise ParseError("missing 'torus-graph v1' header", 1)
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "vertex":
                if len(parts) not in (3, 5):
                    raise ParseError("vertex takes: id color [x y]", no)
                pos = (float(parts[3]), float(parts[4])) if len(parts) == 5 else None
                g.add_vertex(parts[1], parts[2], pos)
            elif key == "edge":
                if len(parts) != 6:
                    raise ParseError("edge takes: id v1 v2 dx dy", no)
                g.add_edge(parts[1], parts[2], parts[3], int(parts[4]), int(parts[5]))
            elif key == "rot":
                if len(parts) < 3:
                    raise ParseError("rot takes: vertex dart...", no)
                rot_lines.append((no, parts[1], parts[2:]))
            elif key == "weight":
                if len(parts) != 3:
                    raise ParseError("weight takes: edge value", no)
                weights[parts[1]] = _parse_weight(parts[2], no)
                edge_refs.append((no, key, parts[1]))
            elif key == "coupling":
                if len(parts) != 3:
                    raise ParseError("coupling takes: edge J=<v>|sc=<s>,<c>", no)
                couplings[parts[1]] = _parse_coupling(parts[2], no)
                edge_refs.append((no, key, parts[1]))
            else:
                raise ParseError(f"unknown key {key!r}", no)
        except GraphError as exc:
            raise ParseError(str(exc), no) from exc
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), no) from exc
    for no, v, ds in rot_lines:
        if v not in g.colors:
            raise ParseError(f"rotation for unknown vertex {v}", no)
        resolved = []
        for name in ds:
            if name.endswith("+") or name.endswith("-"):
                if name not in g.darts:
                    raise ParseError(f"unknown dart {name}", no)
                if g.darts[name].vertex != v:
                    raise ParseError(f"dart {name} is not based at {v}", no)
                resolved.append(name)
            else:
                if name not in g.edge_ends:
                    raise ParseError(f"unknown edge {name}", no)
                v1, v2, _, _ = g.edge_ends[name]
                if v1 == v2:
                    raise ParseError(f"loop edge {name} needs an explicit dart (+/-)", no)
                if v1 == v:
                    resolved.append(name + "+")
                elif v2 == v:
                    resolved.append(name + "-")
                else:
                    raise ParseError(f"edge {name} not incident to {v}", no)
        if v in g.rotation:
            raise ParseError(f"repeated rot line for {v}", no)
        g.set_rotation(v, resolved)
    g.freeze()
    named = set()
    for no, key, e in edge_refs:
        if e not in g.edge_ends:
            raise ParseError(f"{key} for unknown edge {e}", no)
        if (key, e) in named:
            raise ParseError(f"repeated {key} line for {e}", no)
        named.add((key, e))
    return g, weights, couplings


def _parse_weight(text, line):
    """An edge weight: a rational p/q or integer, else a float; it must be
    positive and finite."""
    try:
        value = Fraction(text) if "/" in text or text.lstrip("+-").isdigit() else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {text!r}", line) from exc
    if not 0 < value < float("inf"):
        raise ParseError(f"weight must be positive and finite, got {text}", line)
    return value


def _parse_coupling(text, line):
    if text.startswith("J="):
        return {"J": float(text[2:])}
    if text.startswith("sc="):
        body = text[3:]
        if "," not in body:
            raise ParseError("sc= takes two comma-separated rationals", line)
        s, c = body.split(",", 1)
        try:
            return {"s": Fraction(s), "c": Fraction(c)}
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}", line) from None
    raise ParseError(f"bad coupling spec {text!r}", line)


def serialize_torus_graph(g, weights=None, couplings=None):
    """Write the `torus-graph v1` format deterministically."""
    out = ["torus-graph v1"]
    for v in g.vertex_ids():
        pos = g.positions.get(v)
        if pos:
            out.append(f"vertex {v} {g.colors[v]} {pos[0]:.12g} {pos[1]:.12g}")
        else:
            out.append(f"vertex {v} {g.colors[v]}")
    for e in g.edges():
        v1, v2, dx, dy = g.edge_ends[e]
        out.append(f"edge {e} {v1} {v2} {dx} {dy}")
    for v in g.vertex_ids():
        out.append("rot " + v + " " + " ".join(g.rotation[v]))
    if weights:
        for e in sorted(weights):
            w = weights[e]
            s = str(w) if isinstance(w, Fraction) else f"{w:.12g}"
            out.append(f"weight {e} {s}")
    if couplings:
        for e in sorted(couplings):
            c = couplings[e]
            if "s" in c:
                out.append(f"coupling {e} sc={c['s']},{c['c']}")
            else:
                out.append(f"coupling {e} J={c['J']:.12g}")
    return "\n".join(out) + "\n"
