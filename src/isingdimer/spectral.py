"""Kasteleyn signs and matrices, characteristic polynomials, spectral
divisors, the zig-zag/points-at-infinity bijection, discrete Abel labels,
the Ising spectral conditions and amoeba sampling.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .exactalg import (
    LaurentMatrix,
    LaurentPoly2,
    lm_adjugate_column,
    lm_determinant,
    lp_sigma,
    newton_polygon,
    format_coeff,
)
from .torusgraph import GraphError


class SpectralError(ValueError):
    pass


# -- Kasteleyn signs -------------------------------------------------------------


def _gf2_solve(rows, rhs, nvars):
    """Solve A x = b over GF(2). Returns (particular solution, kernel basis)
    or raises SpectralError if inconsistent. Rows are int bitmasks."""
    rows = [r | (b << nvars) for r, b in zip(rows, rhs)]
    pivots = []
    for col in range(nvars):
        piv = next((i for i in range(len(pivots), len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[len(pivots)], rows[piv] = rows[piv], rows[len(pivots)]
        for i in range(len(rows)):
            if i != len(pivots) and rows[i] >> col & 1:
                rows[i] ^= rows[len(pivots)]
        pivots.append(col)
    for i in range(len(pivots), len(rows)):
        if rows[i]:
            raise SpectralError("Kasteleyn sign system is inconsistent (parity obstruction)")
    x = 0
    for i, col in enumerate(pivots):
        if rows[i] >> nvars & 1:
            x |= 1 << col
    free = [c for c in range(nvars) if c not in pivots]
    kernel = []
    for f in free:
        v = 1 << f
        for i, col in enumerate(pivots):
            if rows[i] >> f & 1:
                v |= 1 << col
        kernel.append(v)
    return x, kernel


def solve_kasteleyn_signs(g):
    """All four sign classes on a bipartite torus graph.

    Solves the mod-2 system (face sign products = (-1)^(len/2+1)), then
    quotients the solution space by the vertex sign gauge. Returns a list of
    four dicts edge -> +-1, labeled by the sign of the kappa-product along
    the graph's stored a and b cycles: [( (sa, sb), kappa ), ...].
    """
    if not g.is_bipartite_colored():
        raise GraphError("Kasteleyn signs need a bipartite graph")
    edges = g.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    rows, rhs = [], []
    for fid, orbit in g.faces():
        mask = 0
        for d in orbit:
            mask ^= 1 << eidx[g.darts[d].edge]
        rows.append(mask)
        rhs.append(((len(orbit) // 2) + 1) % 2)
    x0, kernel = _gf2_solve(rows, rhs, len(edges))

    # gauge subspace: one generator per vertex (all edges at the vertex)
    gauge = []
    for v in g.vertex_ids():
        mask = 0
        for d in g.rotation[v]:
            mask ^= 1 << eidx[g.darts[d].edge]
        gauge.append(mask)

    cycle_a, cycle_b = g.homology_basis_cycles()

    def label(mask):
        sa = sb = 1
        for d in cycle_a:
            if mask >> eidx[g.darts[d].edge] & 1:
                sa = -sa
        for d in cycle_b:
            if mask >> eidx[g.darts[d].edge] & 1:
                sb = -sb
        return (sa, sb)

    # the label map is linear over the kernel; find representatives of the
    # four classes by combining kernel elements
    base_label = label(x0)
    reps = {base_label: x0}
    basis_effects = []
    for k in kernel:
        la = label(x0 ^ k)
        basis_effects.append((k, (la[0] * base_label[0], la[1] * base_label[1])))
    for k1, eff1 in basis_effects:
        if len(reps) == 4:
            break
        cand = {(eff1[0] * base_label[0], eff1[1] * base_label[1]): x0 ^ k1}
        for lab, m in cand.items():
            if lab not in reps:
                reps[lab] = m
        for k2, eff2 in basis_effects:
            lab = (base_label[0] * eff1[0] * eff2[0], base_label[1] * eff1[1] * eff2[1])
            if lab not in reps:
                reps[lab] = x0 ^ k1 ^ k2
    if len(reps) != 4:
        raise SpectralError("sign classes do not span all four labels")

    out = []
    for lab in sorted(reps, reverse=True):
        mask = reps[lab]
        kappa = {e: (-1 if mask >> i & 1 else 1) for e, i in eidx.items()}
        out.append((lab, kappa_tree_normalize(g, kappa)))
    return out


def kappa_tree_normalize(g, kappa):
    """Canonical representative of a sign class: +1 on the deterministic
    spanning tree (lowest edge ids)."""
    parent = {v: v for v in g.vertex_ids()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    adj = {v: [] for v in g.vertex_ids()}
    for e in g.edges():
        v1, v2, _, _ = g.edge_ends[e]
        r1, r2 = find(v1), find(v2)
        if r1 != r2:
            parent[r1] = r2
            adj[v1].append((e, v2))
            adj[v2].append((e, v1))
    sign = {g.vertex_ids()[0]: 1}
    stack = [g.vertex_ids()[0]]
    while stack:
        v = stack.pop()
        for e, u in adj[v]:
            if u not in sign:
                sign[u] = sign[v] * kappa[e]
                stack.append(u)
    out = {}
    for e in g.edges():
        v1, v2, _, _ = g.edge_ends[e]
        out[e] = sign.get(v1, 1) * sign.get(v2, 1) * kappa[e]
    return out


def kappa_is_valid(g, kappa):
    for fid, orbit in g.faces():
        prod = 1
        for d in orbit:
            prod *= kappa[g.darts[d].edge]
        if prod != (-1) ** (len(orbit) // 2 + 1):
            return False
    return True


def kappa_gauge_equivalent(g, k1, k2):
    """Do k1 and k2 differ by a vertex sign function?"""
    ratio = {e: k1[e] * k2[e] for e in g.edges()}
    sign = {}
    for root in g.vertex_ids():
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for d in g.rotation[v]:
                u = g.head(d)
                want = sign[v] * ratio[g.darts[d].edge]
                if u in sign:
                    if sign[u] != want:
                        return False
                else:
                    sign[u] = want
                    stack.append(u)
    return True


# -- Kasteleyn matrix and characteristic polynomial --------------------------------


def kasteleyn_matrix(g, wt, kappa):
    """Rows = white vertices, columns = black; entries sum wt * kappa * z^i w^j
    over parallel edges, with (i, j) the displacement of the black->white dart."""
    whites, blacks = g.whites(), g.blacks()
    entries = {}
    for e in g.edges():
        v1, v2, _, _ = g.edge_ends[e]
        b, w = (v1, v2) if g.colors[v1] == "b" else (v2, v1)
        d = e + "+" if g.tail(e + "+") == b else e + "-"
        i, j = g.disp(d)
        term = LaurentPoly2.monomial(i, j, wt[e] * kappa[e])
        key = (w, b)
        entries[key] = entries.get(key, LaurentPoly2.zero()) + term
    return LaurentMatrix(whites, blacks, entries)


class SpectralCurveData:
    def __init__(self, poly, polygon, genus):
        self.poly = poly
        self.polygon = polygon
        self.genus = genus


def characteristic_polynomial(g, wt, kappa, check_polygon=True):
    """P = det K with its Newton polygon and genus (interior lattice points)."""
    K = kasteleyn_matrix(g, wt, kappa)
    if len(K.rows) != len(K.cols):
        raise SpectralError(f"#white={len(K.rows)} != #black={len(K.cols)}")
    P = lm_determinant(K)
    if P.is_zero():
        raise SpectralError("characteristic polynomial vanishes identically")
    poly = newton_polygon(P)
    if check_polygon:
        gp, anchored = g.newton_polygon()
        if poly.normalized().vertices != gp.normalized().vertices:
            raise SpectralError("Newton polygon of P differs from the graph polygon")
    return SpectralCurveData(P, poly, poly.genus)


# -- divisors ------------------------------------------------------------------


class Divisor:
    """Points (z, w) with multiplicity; exact (Fractions) or numeric (complex)."""

    def __init__(self, points, exact=True):
        self.points = list(points)
        self.exact = exact

    def __len__(self):
        return sum(m for _, _, m in self.points)

    def sigma(self):
        return Divisor([(1 / z, 1 / w, m) for z, w, m in self.points], self.exact)

    def as_multiset(self):
        out = []
        for z, w, m in self.points:
            out.extend([(z, w)] * m)
        return sorted(out, key=lambda p: (repr(p[0]), repr(p[1])))

    def matches(self, other, tol=None):
        """Equal multisets: exactly, or with coordinates within tol (default
        1e-8) relative to their size, floored at 1, since a point far out on
        a tentacle carries the relative error of the inverse of a small one."""
        a, b = self.as_multiset(), other.as_multiset()
        if len(a) != len(b):
            return False
        if self.exact and other.exact and tol is None:
            return sorted(a) == sorted(b)

        def close(x, y):
            x, y = complex(x), complex(y)
            return abs(x - y) <= (tol or 1e-8) * max(1.0, abs(x), abs(y))

        used = [False] * len(b)
        for p in a:
            hit = None
            for i, q in enumerate(b):
                if used[i]:
                    continue
                if close(p[0], q[0]) and close(p[1], q[1]):
                    hit = i
                    break
            if hit is None:
                return False
            used[hit] = True
        return True

    def __repr__(self):
        return f"Divisor({self.points})"


def _rational_roots(poly1d):
    """Rational roots of a one-variable Laurent polynomial with Fraction
    coefficients (list indexed from the cleared minimum)."""
    raw, _ = poly1d
    coeffs = [c if isinstance(c, Fraction) else c.coeff(0, 0) for c in raw]
    # clear denominators -> integer polynomial
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return []
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    cands = set()
    for p in divisors(a0):
        for q in divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    roots = []
    for r in sorted(cands):
        val = Fraction(0)
        for c in reversed(ints):
            val = val * r + c
        if val == 0:
            roots.append(r)
    return roots


def divisor_of_vertex(g, wt, kappa, vertex, mode="exact", tol=1e-10):
    """The divisor of a vertex: common zeros on the open curve of the
    adjugate column (white vertex) or row (black vertex).

    Exact mode confirms rational candidates by substitution; numeric mode
    refines companion-matrix roots by Newton iteration and verifies all
    entries vanish within tol."""
    K = kasteleyn_matrix(g, wt, kappa)
    if g.colors[vertex] not in ("w", "b"):
        raise SpectralError(f"vertex {vertex} is uncolored")
    P = lm_determinant(K)
    genus = newton_polygon(P).genus
    if genus == 0:
        return Divisor([], exact=(mode == "exact"))
    # a row of adj(K) is the matching column of adj(K^T)
    col = lm_adjugate_column(K if g.colors[vertex] == "w" else K.transpose(), vertex)
    entries = [e for e in col.values() if not e.is_zero()]
    if len(entries) < 2:
        raise SpectralError("not enough nonzero adjugate entries")
    if mode == "exact":
        try:
            return _divisor_exact(P, entries, genus)
        except SpectralError:
            # refine numerically, then lift back to rationals and verify by
            # exact substitution (continued-fraction reconstruction)
            num = _divisor_numeric(P.to_numeric(), [e.to_numeric() for e in entries],
                                   genus, 1e-10)
            points = []
            for z, w, m in num.points:
                if abs(z.imag) > 1e-9 or abs(w.imag) > 1e-9:
                    raise
                zq = Fraction(z.real).limit_denominator(10 ** 6)
                wq = Fraction(w.real).limit_denominator(10 ** 6)
                if P.eval_exact(zq, wq) != 0 or \
                        any(q.eval_exact(zq, wq) != 0 for q in entries):
                    raise
                points.append((zq, wq, m))
            return Divisor(points, exact=True)
    return _divisor_numeric(P, entries, genus, tol)


def _divisor_exact(P, entries, genus):
    from .exactalg import resultant_eliminate
    e1 = min(entries, key=lambda p: len(p.terms))
    rest = [p for p in entries if p is not e1]
    e2 = min(rest, key=lambda p: len(p.terms))
    res, _ = resultant_eliminate(e1, e2, "w")
    if res.is_zero():
        raise SpectralError("adjugate entries share a component; exact divisor ambiguous")
    zcands = _rational_roots(res.coeffs_in("z"))
    points = []
    for z0 in zcands:
        if z0 == 0:
            continue
        # w-candidates: rational roots of P(z0, w), which always depends on w
        c1, lo = P.coeffs_in("w")
        vals = [c.eval_exact(z0, 1) for c in c1]
        wcands = _rational_roots((vals, lo))
        for w0 in wcands:
            if w0 == 0:
                continue
            if P.eval_exact(z0, w0) != 0:
                continue
            if all(q.eval_exact(z0, w0) == 0 for q in entries):
                points.append((z0, w0, 1))
    if sum(m for _, _, m in points) != genus:
        raise SpectralError(
            f"exact divisor found {len(points)} rational points, genus is {genus};"
            " use numeric mode")
    return Divisor(points, exact=True)


def _newton_refine(P, Q1, z, w, steps=40):
    """Finite-difference Newton iteration on P = Q1 = 0 from (z, w).

    Returns the last iterate at which P and Q1 evaluate finitely: an
    evaluation that overflows or turns non-finite ends the iteration, and
    the caller's residual test rejects the point."""
    h = 1e-7
    last = z, w
    for k in range(steps + 1):
        try:
            f1 = P.eval(z, w)
            f2 = Q1.eval(z, w)
            if not (cmath.isfinite(f1) and cmath.isfinite(f2)):
                break
            last = z, w
            if k == steps or abs(f1) + abs(f2) < 1e-15:
                break
            a = (P.eval(z + h, w) - f1) / h
            b = (P.eval(z, w + h) - f1) / h
            c = (Q1.eval(z + h, w) - f2) / h
            d = (Q1.eval(z, w + h) - f2) / h
            det = a * d - b * c
            if abs(det) < 1e-300:
                break
            dz = (-f1 * d + f2 * b) / det
            dw = (-f2 * a + f1 * c) / det
        except (OverflowError, ZeroDivisionError):
            break
        z, w = z + dz, w + dw
    return last


# absolute error of a numeric coefficient of P or of an adjugate entry, as a
# fraction of the polynomial's largest one: FFT interpolation spreads rounding
# evenly over the coefficients (about 1e-15 measured at 24 whites)
COEFF_EPS = 1e-13


def _vanishes(p, z, w, tol):
    """|p(z, w)| within tol times the sum of |term| at (z, w) (at least tol),
    plus the spread of COEFF_EPS-sized coefficient errors over the support.
    Far out on a tentacle the terms with the smallest coefficients dominate,
    and their relative error is far above tol."""
    az, aw = abs(z), abs(w)
    size = spread = 0.0
    for (i, j), c in p.terms.items():
        m = az ** i * aw ** j
        size += abs(c) * m
        spread += m
    cmax = max(abs(c) for c in p.terms.values())
    return abs(p.eval(z, w)) <= tol * max(1.0, size) + COEFF_EPS * cmax * spread


def _polish(polys, z, w, steps=4):
    """Gauss-Newton steps on all of polys = 0 from (z, w), each equation
    divided by the size of its terms. Newton on P and one entry loses digits
    where their other common zeros come close to a divisor point; the other
    entries do not share those zeros and restore them. Returns the start if
    a step turns non-finite."""
    import numpy as np
    start = z, w
    for _ in range(steps):
        rows, rhs = [], []
        try:
            for p in polys:
                val = dz = dw = size = 0
                for (i, j), c in p.terms.items():
                    t = c * z ** i * w ** j
                    val, dz, dw, size = val + t, dz + i * t / z, dw + j * t / w, size + abs(t)
                rows.append([dz / size, dw / size])
                rhs.append(-val / size)
        except (OverflowError, ZeroDivisionError):
            return start
        step = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return start
        z, w = z + complex(step[0]), w + complex(step[1])
    return z, w


def _divisor_numeric(P, entries, genus, tol):
    import numpy as np
    from .exactalg import resultant_eliminate
    e1 = min(entries, key=lambda p: len(p.terms))
    rest = [p for p in entries if p is not e1]
    e2 = min(rest, key=lambda p: len(p.terms))
    Pn = P.to_numeric()
    res, _ = resultant_eliminate(e1.to_numeric(), e2.to_numeric(), "w")
    coeffs, _ = res.coeffs_in("z")
    arr = np.array([complex(c.coeff(0, 0)) for c in coeffs][::-1])
    if len(arr) < 2:
        raise SpectralError("resultant is constant; no isolated roots")
    zroots = np.roots(arr)
    cands = []
    for z0 in zroots:
        if abs(z0) < 1e-12:
            continue
        # w-candidates from the curve itself, which always depends on w
        cw, lo = Pn.coeffs_in("w")
        wpoly = np.array([complex(c.eval(z0, 1.0)) for c in cw][::-1])
        if len(wpoly) < 2:
            continue
        for w0 in np.roots(wpoly):
            if abs(w0) < 1e-12:
                continue
            cands.append(_newton_refine(Pn, e1.to_numeric(), complex(z0), complex(w0)))
    polys = [Pn] + entries
    points = []
    # the second pass polishes every candidate on all entries; it runs only
    # when the first falls short of the genus
    for polish in (False, True):
        if polish and len(points) >= genus:
            break
        for z1, w1 in cands:
            if polish:
                z1, w1 = _polish(polys, z1, w1)
            if not all(_vanishes(q, z1, w1, tol) for q in polys):
                continue
            if any(abs(z1 - zs) < 1e-6 and abs(w1 - ws) < 1e-6 for zs, ws, _ in points):
                continue
            points.append((z1, w1, 1))
    if len(points) != genus:
        sing = detect_singularities(P)
        if sing:
            raise SpectralError(
                f"curve appears singular near {sing}; isolated nodes are"
                " unsupported (no desingularization)")
        raise SpectralError(
            f"numeric divisor found {len(points)} points, genus is {genus}"
            " (possible root clustering; condition suspect)")
    return Divisor(points, exact=False)


# -- the nu map -----------------------------------------------------------------


def nu_map(g, wt):
    """Assign zig-zag paths to points at infinity per side of the polygon.

    Per side S (primitive vector (i, j)): zig-zags with class along S are
    ordered by the tentacle intercept -log|X_alpha|; ties are reported.
    Returns {'sides': [{'vector', 'length', 'zigzags': [ids in order],
    'intercepts', 'ties'}], 'of_zigzag': {zz_id: (side_index, position)}}.
    """
    from .dimer import x_of_cycle
    polygon, _ = g.newton_polygon()
    zzs = g.zigzag_paths()
    sides = []
    of_zz = {}
    for si, ((vx, vy), length) in enumerate(polygon.sides):
        members = []
        for zz in zzs:
            p, q = zz["class"]
            gcd = math.gcd(abs(p), abs(q))
            if gcd and (p // gcd, q // gcd) == (vx, vy):
                x = x_of_cycle(g, wt, zz["darts"])
                members.append((math.log(abs(float(x))), zz["id"]))
        if len(members) != length:
            raise SpectralError(
                f"side {(vx, vy)} x{length} has {len(members)} zig-zags")
        members.sort(key=lambda t: (-t[0], t[1]))
        intercepts = [-m[0] for m in members]
        ties = [(members[k][1], members[k + 1][1])
                for k in range(len(members) - 1)
                if abs(members[k][0] - members[k + 1][0]) < 1e-12]
        sides.append({"vector": (vx, vy), "length": length,
                      "zigzags": [m[1] for m in members],
                      "intercepts": intercepts, "ties": ties})
        for pos, m in enumerate(members):
            of_zz[m[1]] = (si, pos)
    return {"sides": sides, "of_zigzag": of_zz}


# -- discrete Abel map ------------------------------------------------------------


class AbelLabel:
    """Formal integer combination of zig-zag ids plus a monomial offset."""

    def __init__(self, counts=None, offset=(0, 0)):
        self.counts = {k: v for k, v in (counts or {}).items() if v}
        self.offset = tuple(offset)

    def plus(self, zz_ids):
        c = dict(self.counts)
        for z in zz_ids:
            c[z] = c.get(z, 0) + 1
        return AbelLabel(c, self.offset)

    def minus(self, zz_ids):
        c = dict(self.counts)
        for z in zz_ids:
            c[z] = c.get(z, 0) - 1
        return AbelLabel(c, self.offset)

    def translated(self, di, dj):
        return AbelLabel(self.counts, (self.offset[0] + di, self.offset[1] + dj))

    def reduced(self, zz_classes):
        """Resolve the monomial offset through div(z^i w^j) =
        sum_alpha (j p_alpha - i q_alpha) nu(alpha)."""
        c = dict(self.counts)
        i, j = self.offset
        for zid, (p, q) in zz_classes.items():
            k = j * p - i * q
            if k:
                c[zid] = c.get(zid, 0) + k
        return AbelLabel(c, (0, 0))

    def degree(self):
        return sum(self.counts.values())

    def key(self):
        return (tuple(sorted(self.counts.items())), self.offset)

    def __eq__(self, other):
        return isinstance(other, AbelLabel) and self.key() == other.key()

    def __repr__(self):
        return f"AbelLabel({self.counts}, offset={self.offset})"


def discrete_abel(g, window=1):
    """Labels d(v) on a (2*window+1)^2 lifted block of a bipartite graph.

    d(base white) = 0; across every edge {b, w}: d(b) - d(w) = nu(alpha) +
    nu(beta), the two zig-zags through the edge. Lift translates shift by
    div(z^i w^j). Inconsistency (which would contradict well-definedness)
    raises SpectralError naming the edge.
    Returns {(vertex, (tx, ty)): AbelLabel}.
    """
    zz_of_dart = {}
    for zz in g.zigzag_paths():
        for d in zz["darts"]:
            zz_of_dart[d] = zz["id"]
    zz_classes = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}

    base = g.whites()[0]
    labels = {(base, (0, 0)): AbelLabel()}
    rng = range(-window, window + 1)
    frontier = [(base, (0, 0))]
    while frontier:
        v, t = frontier.pop()
        lab = labels[(v, t)]
        for d in g.rotation[v]:
            e = g.darts[d].edge
            pair = [zz_of_dart[d], zz_of_dart[g.twin(d)]]
            u = g.head(d)
            dd = g.disp(d)
            tu = (t[0] + dd[0], t[1] + dd[1])
            if not (tu[0] in rng and tu[1] in rng):
                continue
            if g.colors[v] == "w":
                nlab = lab.plus(pair)     # d(b) = d(w) + nu(a) + nu(b)
            else:
                nlab = lab.minus(pair)
            key = (u, tu)
            if key in labels:
                got = labels[key].reduced(zz_classes)
                want = nlab.reduced(zz_classes)
                if got != want:
                    raise SpectralError(
                        f"Abel labels inconsistent across edge {e} at {key}")
            else:
                labels[key] = nlab
                frontier.append(key)
    # translation rule: re-anchor each translate copy of the base white
    for (v, t), lab in labels.items():
        if v == base and t != (0, 0):
            expect = AbelLabel({}, t).reduced(zz_classes)
            if lab.reduced(zz_classes) != expect:
                raise SpectralError(f"translate {t} violates the monomial rule")
    return labels


# -- the three Ising conditions -----------------------------------------------------


def verify_ising_spectral(g, wt, kappa, gadget_map, white, mode="exact", tol=1e-8):
    """Check (1) sigma-invariance of P, (2') D_white = sigma(D_partner_black),
    (3) X_alphabar * X_alpha = 1 for every zig-zag. Returns (ok, report)."""
    from .dimer import x_of_cycle
    K = kasteleyn_matrix(g, wt, kappa)
    P = lm_determinant(K)
    cond1 = lp_sigma(P) == P if all(isinstance(v, Fraction) for v in wt.values()) \
        else lp_sigma(P).isclose(P, tol)
    black = gadget_map.partners[white]
    Dw = divisor_of_vertex(g, wt, kappa, white, mode=mode, tol=min(tol, 1e-10))
    Db = divisor_of_vertex(g, wt, kappa, black, mode=mode, tol=min(tol, 1e-10))
    cond2 = Dw.matches(Db.sigma(), None if mode == "exact" else tol)
    # condition (3): sigma maps the points at infinity of side S to those of
    # side -S, i.e. opposite sides carry equal X-value multisets (positive
    # weights). The reversal of a zig-zag is a zig-zag of the color change,
    # whose X there is the inverse; X_alphabar * X_alpha = 1 is this check.
    resid3 = {}
    cond3 = True
    by_side = {}
    for zz in g.zigzag_paths():
        p, q = zz["class"]
        gg = math.gcd(abs(p), abs(q))
        if gg == 0:
            raise SpectralError(f"zig-zag {zz['id']} has zero homology")
        key = (p // gg, q // gg)
        by_side.setdefault(key, []).append(x_of_cycle(g, wt, zz["darts"]))
    for side, values in by_side.items():
        opp = by_side.get((-side[0], -side[1]), [])
        a = sorted(values, key=float)
        b = sorted(opp, key=float)
        if len(a) != len(b):
            cond3 = False
            resid3[side] = float("inf")
            continue
        for x1, x2 in zip(a, b):
            r = x1 / x2 - 1
            resid3.setdefault(side, []).append(r)
            if isinstance(r, Fraction):
                cond3 = cond3 and r == 0
            else:
                cond3 = cond3 and abs(r) <= tol
    report = {
        "sigma_invariant": cond1,
        "P": P,
        "divisor_white": Dw,
        "divisor_black": Db,
        "partner_black": black,
        "divisor_condition": cond2,
        "nu_residuals": resid3,
        "nu_condition": cond3,
    }
    return (cond1 and cond2 and cond3), report


# -- amoeba sampling -----------------------------------------------------------------


def amoeba_sample(P, grid=100, region=(-3.0, 3.0, -3.0, 3.0), tol=1e-8):
    """Sample the amoeba: for z on a log-modulus x phase grid, solve
    P(z, .) = 0 by companion-matrix roots, refine, keep |P| < tol.

    Returns a list of rows (x, y, is_real) with x = log|z|, y = log|w|.
    """
    import numpy as np
    Pn = P.to_numeric()
    rng = P.degree_range("w")
    if rng is None or rng[0] == rng[1]:
        raise SpectralError("polynomial is constant in w; amoeba degenerate")
    x0, x1, _, _ = region
    rows = []
    for ix in range(grid):
        x = x0 + (x1 - x0) * (ix + 0.5) / grid
        r = math.exp(x)
        for ip in range(grid):
            theta = math.pi * ip / (grid - 1) if grid > 1 else 0.0
            z = r * cmath.exp(1j * theta)
            cw, lo = Pn.coeffs_in("w")
            poly = np.array([complex(c.eval(z, 1.0)) for c in cw][::-1])
            if abs(poly[0]) < 1e-300:
                continue
            for w in np.roots(poly):
                if abs(w) < 1e-300:
                    continue
                # one Newton step in w to polish
                for _ in range(3):
                    f = Pn.eval(z, w)
                    h = 1e-7 * max(1.0, abs(w))
                    df = (Pn.eval(z, w + h) - f) / h
                    if abs(df) < 1e-300:
                        break
                    w = w - f / df
                if abs(Pn.eval(z, w)) < tol:
                    is_real = abs(z.imag) < 1e-12 and abs(w.imag) < 1e-9
                    rows.append((math.log(abs(z)), math.log(abs(w)), is_real, z, complex(w)))
    return rows


def amoeba_csv(rows):
    out = ["x,y,is_real"]
    for x, y, is_real, *_ in rows:
        out.append(f"{x:.12g},{y:.12g},{int(is_real)}")
    return "\n".join(out) + "\n"


def amoeba_svg(rows, marks=(), size=480):
    """Minimal deterministic SVG scatter with optional marked points."""
    if not rows:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    lo = min(min(xs), min(ys)) - 0.3
    hi = max(max(xs), max(ys)) + 0.3

    def sx(x):
        return (x - lo) / (hi - lo) * size

    def sy(y):
        return size - (y - lo) / (hi - lo) * size

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' height='{size}' "
             f"viewBox='0 0 {size} {size}'>",
             f"<rect width='{size}' height='{size}' fill='white'/>"]
    for x, y, is_real, *_ in rows:
        color = "#d62728" if is_real else "#1f77b4"
        parts.append(f"<circle cx='{sx(x):.2f}' cy='{sy(y):.2f}' r='1' fill='{color}'/>")
    for x, y in marks:
        parts.append(f"<circle cx='{sx(x):.2f}' cy='{sy(y):.2f}' r='5' fill='none' "
                     f"stroke='black' stroke-width='2'/>")
    parts.append("</svg>")
    return "\n".join(parts)


def _log_w_levels(Pn, r, theta):
    """Sorted log|w| values of the roots of P(r e^{i theta}, .) = 0."""
    import numpy as np
    z = r * cmath.exp(1j * theta)
    cw, _ = Pn.coeffs_in("w")
    poly = np.array([complex(c.eval(z, 1.0)) for c in cw][::-1])
    if abs(poly[0]) < 1e-300:
        return None
    vals = [math.log(abs(w)) for w in np.roots(poly) if abs(w) > 1e-300]
    return sorted(vals)


def harnack_diagnostic(P, probes=None, theta_steps=720):
    """Count Log-preimages of probe points; report 'consistent with 2:1' or
    list violations. A diagnostic, not a certificate.

    For a probe (x, y): with |z| = e^x fixed, each root branch traces
    log|w|(theta) over theta in [0, pi]; level-crossing counts double for
    theta in (0, pi) (complex-conjugate partners) and count once at the real
    fibers theta = 0, pi. Harnack means every interior probe has exactly 2.
    """
    Pn = P.to_numeric()
    if probes is None:
        # non-real samples are strictly interior (the amoeba boundary is the
        # image of the real locus)
        rows = amoeba_sample(P, grid=24, region=(-1.2, 1.2, -1.2, 1.2))
        inner = [(x, y) for x, y, is_real, *_ in rows if not is_real]
        if not inner:
            return {"consistent": True, "probes": [], "violations": []}
        probes = [inner[len(inner) // 3], inner[len(inner) // 2],
                  inner[(2 * len(inner)) // 3]]
    out = []
    violations = []
    for x, y in probes:
        r = math.exp(x)
        thetas = [math.pi * k / theta_steps for k in range(theta_steps + 1)]
        count = 0
        prev = None
        for th in thetas:
            levels = _log_w_levels(Pn, r, th)
            if levels is None:
                prev = None
                continue
            signs = tuple(v - y > 0 for v in levels)
            if prev is not None and len(prev) == len(signs):
                for a, b in zip(prev, signs):
                    if a != b:
                        count += 2   # conjugate fibers come in pairs
            prev = signs
        out.append({"probe": (x, y), "preimages": count})
        if count != 2:
            violations.append({"probe": (x, y), "preimages": count})
    return {"consistent": not violations, "probes": out, "violations": violations}


def derivative(P, var):
    """Formal partial derivative of a Laurent polynomial."""
    k = 0 if var == "z" else 1
    terms = {}
    for (i, j), c in P.terms.items():
        e = (i, j)[k]
        if e == 0:
            continue
        ij = (i - 1, j) if k == 0 else (i, j - 1)
        terms[ij] = terms.get(ij, 0) + c * e
    return LaurentPoly2(terms)


def detect_singularities(P, tol=1e-8):
    """Probe for singular points of the open curve: common zeros of
    (P, dP/dw, dP/dz). Returns a list of approximate singular points; used to
    report isolated real nodes as unsupported rather than desingularizing."""
    import numpy as np
    from .exactalg import resultant_eliminate
    Pw = derivative(P, "w")
    if Pw.is_zero():
        return []
    Pn, Pwn = P.to_numeric(), Pw.to_numeric()
    Pzn = derivative(P, "z").to_numeric()
    res, _ = resultant_eliminate(Pn, Pwn, "w")
    coeffs, _ = res.coeffs_in("z")
    arr = np.array([complex(c.coeff(0, 0)) for c in coeffs][::-1])
    if len(arr) < 2:
        return []
    hits = []
    for z0 in np.roots(arr):
        if abs(z0) < 1e-10:
            continue
        cw, _ = Pn.coeffs_in("w")
        poly = np.array([complex(c.eval(z0, 1.0)) for c in cw][::-1])
        if abs(poly[0]) < 1e-300:
            continue
        for w0 in np.roots(poly):
            if abs(w0) < 1e-10:
                continue
            # polish on the critical system before the residual test; double
            # roots of the resultant are only located to sqrt precision
            z1, w1 = _newton_refine(Pwn, Pzn, complex(z0), complex(w0))
            if abs(Pn.eval(z1, w1)) < tol and abs(Pwn.eval(z1, w1)) < tol \
                    and abs(Pzn.eval(z1, w1)) < tol:
                if not any(abs(z1 - a) < 1e-6 and abs(w1 - b) < 1e-6 for a, b in hits):
                    hits.append((complex(z1), complex(w1)))
    return hits


# -- report --------------------------------------------------------------------------


def canonical_sign(P):
    """Normalize the overall sign (a sign-gauge artifact): make the first
    coefficient in canonical term order positive."""
    from .exactalg import _term_sort_key
    if P.is_zero():
        return P
    lead = min(P.terms, key=_term_sort_key)
    c = P.terms[lead]
    neg = (c < 0) if isinstance(c, Fraction) else (complex(c).real < 0)
    return -P if neg else P


def spectral_report(g, wt, kappa, gadget_map=None, white=None, mode="exact"):
    """Text `spectral-report v1`: polynomial, polygon, genus, conditions,
    divisors. The printed polynomial is sign-normalized (the determinant's
    overall sign is a sign-gauge artifact)."""
    data = characteristic_polynomial(g, wt, kappa)
    lines = ["spectral-report v1",
             f"polynomial {canonical_sign(data.poly).canonical_str()}",
             "polygon " + " ".join(f"{x},{y}" for x, y in data.polygon.vertices),
             f"genus {data.genus}"]
    ok = None
    if gadget_map is not None and white is not None:
        ok, rep = verify_ising_spectral(g, wt, kappa, gadget_map, white, mode=mode)
        lines.append(f"condition sigma-invariance {'pass' if rep['sigma_invariant'] else 'FAIL'}")
        lines.append(f"condition divisor-sigma {'pass' if rep['divisor_condition'] else 'FAIL'}")
        lines.append(f"condition nu-involution {'pass' if rep['nu_condition'] else 'FAIL'}")
        for name, D in (("D_w", rep["divisor_white"]), ("D_b", rep["divisor_black"])):
            pts = " ".join(
                f"({_fmt_val(z)},{_fmt_val(w)})x{m}" for z, w, m in D.points) or "(empty)"
            lines.append(f"divisor {name} {pts}")
        if not ok:
            bad = []
            for side, rs in rep["nu_residuals"].items():
                rs = rs if isinstance(rs, list) else [rs]
                if any((r != 0 if isinstance(r, Fraction) else abs(r) > 1e-8) for r in rs):
                    bad.append(str(side))
            if bad:
                lines.append("residuals " + " ".join(sorted(bad)))
    return "\n".join(lines) + "\n", ok


def _fmt_val(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        if abs(v.imag) < 1e-10:
            return f"{v.real:.12g}"
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return format_coeff(v)
