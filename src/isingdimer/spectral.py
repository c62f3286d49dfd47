"""Kasteleyn signs and matrices, characteristic polynomials, spectral
divisors, the zig-zag/points-at-infinity bijection, the Ising spectral
conditions and amoeba sampling.
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
    sign = {g.vertex_ids()[0]: 1}
    for v, e, u in g.spanning_tree():
        sign[u] = sign[v] * kappa[e]
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
    def __init__(self, poly, polygon, genus, matrix):
        self.poly = poly
        self.polygon = polygon
        self.genus = genus
        self.matrix = matrix


def characteristic_polynomial(g, wt, kappa, check_polygon=True):
    """P = det K with its Newton polygon, genus (interior lattice points)
    and the Kasteleyn matrix K it came from."""
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
    return SpectralCurveData(P, poly, poly.genus, K)


# -- roots: the numeric kernel and exact rational roots ----------------------------


def _roots(coeffs):
    """The root kernel: roots of a batch of polynomials, one per row of
    `coeffs` (highest degree first). The stacked companion matrices are
    built as numpy's `roots` builds them and go to one eigvals call.
    Returns (roots, ok): roots[k] are the roots of row k where ok[k]; a row
    whose leading coefficient vanishes (a root at infinity) is skipped, its
    roots are nan."""
    import numpy as np
    c = np.asarray(coeffs, dtype=complex)
    d = c.shape[1] - 1
    ok = np.abs(c[:, 0]) >= 1e-300
    comp = np.zeros((int(ok.sum()), d, d), dtype=complex)
    comp[:, 0, :] = -c[ok, 1:] / c[ok, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1
    roots = np.full((len(c), d), np.nan, dtype=complex)
    roots[ok] = np.linalg.eigvals(comp)
    return roots, ok


def _pow(x, k):
    """x**k as LaurentPoly2.eval takes it, for arrays x."""
    return x ** k if k >= 0 else 1 / x ** -k


def _fibres(P, z):
    """Rows for _roots: the coefficients of P in w (lowest exponent
    cleared, highest first) at each z of an array."""
    import numpy as np
    lo, hi = P.degree_range("w")
    out = np.zeros((len(z), hi - lo + 1), dtype=complex)
    for (i, j), c in P.terms.items():
        out[:, hi - j] += complex(c) * _pow(z, i)
    return out


def _fibre_roots(Pn, res, eps):
    """Candidate points (z, w) as arrays: z a root of the resultant res in
    z, w a root of Pn(z, .) (the curve always depends on w), both of
    modulus at least eps."""
    import numpy as np
    coeffs, _ = res.coeffs_in("z")
    zroots = _roots([[complex(c.coeff(0, 0)) for c in reversed(coeffs)]])[0][0]
    zroots = zroots[np.abs(zroots) >= eps]
    wroots, ok = _roots(_fibres(Pn, zroots))
    keep = ok[:, None] & (np.abs(wroots) >= eps)
    return np.broadcast_to(zroots[:, None], wroots.shape)[keep], wroots[keep]


def _powers(x, lo, hi):
    """Rows x**lo, ..., x**hi at every point of the 1-d array x, by repeated
    multiplication away from x**0 = 1."""
    import numpy as np
    a, b = min(lo, 0), max(hi, 0)
    out = np.empty((b - a + 1, len(x)), dtype=complex)
    out[-a] = 1
    for k in range(1 - a, b - a + 1):
        np.multiply(out[k - 1], x, out=out[k])
    if a < 0:
        inv = 1 / x
        for k in range(-a - 1, -1, -1):
            np.multiply(out[k + 1], inv, out=out[k])
    return out[lo - a:hi - a + 1]


def _grid(polys):
    """The input of the term kernel `_terms`: the dense coefficient grids
    C[k, i - ilo, j - jlo] of polys (k their index) over their joint degree
    ranges (ilo, ihi) in z and (jlo, jhi) in w, stacked as G = (C, C * j)
    for p and w dp/dw and A = (|C|, C != 0) for the sums of |term| and of
    |monomial|, with the ranges."""
    import numpy as np
    k, i, j = np.array([(k, i, j) for k, p in enumerate(polys) for i, j in p.terms]).T
    (ilo, ihi), (jlo, jhi) = (int(i.min()), int(i.max())), (int(j.min()), int(j.max()))
    C = np.zeros((len(polys), ihi - ilo + 1, jhi - jlo + 1), dtype=complex)
    C[k, i - ilo, j - jlo] = [c for p in polys for c in p.terms.values()]
    return (np.stack([C, C * np.arange(jlo, jhi + 1)]), np.stack([abs(C), C != 0]),
            (ilo, ihi), (jlo, jhi))


# points times polynomials per pass of the term kernel: its temporaries stay
# (degree range) x TERMS_BLOCK on the amoeba's grid of fibres as on a few
# candidates checked against every adjugate entry
TERMS_BLOCK = 1024


def _terms(grid, z, w):
    """Value, logarithmic partial derivatives (z dp/dz and w dp/dw), the sum
    of |term| and the sum of |monomial| over the support of each polynomial
    p of `_grid(polys)` at arrays z, w; each of shape (len(polys),) +
    shape(z).

    The batched term kernel: the dense coefficient grids meet power tables
    of z and w in small matrix products, TERMS_BLOCK // len(polys) points
    at a time, whatever the number of terms. The products are einsum, not
    matmul, whose first BLAS call alone raises the peak resident memory of
    a numeric run by about 0.5 MB."""
    import numpy as np
    G, A, (ilo, ihi), (jlo, jhi) = grid
    n = G.shape[1]
    shape = (n,) + np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    i = np.arange(ilo, ihi + 1)
    val, zdz, wdw = (np.empty((n, len(z)), dtype=complex) for _ in range(3))
    size, spread = np.empty((n, len(z))), np.empty((n, len(z)))
    step = max(1, TERMS_BLOCK // n)
    for k in range(0, len(z), step):
        b = slice(k, k + step)
        Z, W = _powers(z[b], ilo, ihi), _powers(w[b], jlo, jhi)
        t = np.einsum("lkij,jn->lkin", G, W)
        t *= Z
        val[:, b], wdw[:, b] = t.sum(2)
        zdz[:, b] = np.einsum("i,kin->kn", i, t[0])
        t = np.einsum("lkij,jn->lkin", A, abs(W))
        t *= abs(Z)
        size[:, b], spread[:, b] = t.sum(2)
    return tuple(a.reshape(shape) for a in (val, zdz, wdw, size, spread))


def _polish(polys, z, w, steps=4, move_z=True):
    """Newton steps with exact derivatives on all of polys = 0 from a batch
    of points z, w (arrays or scalars; with move_z false only w moves),
    least squares by the normal equations when there are more equations
    than unknowns. Each equation is divided by the size of its terms and
    the unknowns are log z and log w. Newton on P and one entry loses
    digits where their other common zeros come close to a divisor point;
    the other entries do not share those zeros and restore them. A point
    stops when its residuals reach rounding level, or when an evaluation or
    a step turns non-finite: it keeps its last iterate at which every poly
    evaluates finitely."""
    import numpy as np
    shape = np.shape(z)
    z = np.array(z, dtype=complex).ravel()
    w = np.array(w, dtype=complex).ravel()
    prev_z, prev_w = z.copy(), w.copy()
    live = np.ones(len(z), dtype=bool)
    grid = _grid(polys)
    with np.errstate(all="ignore"):
        for k in range(steps + 1):
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            val, zdz, wdw, size, _ = _terms(grid, z[idx], w[idx])
            res, jz, jw = val / size, zdz / size, wdw / size
            bad = ~np.isfinite(np.stack([res, jz, jw])).all((0, 1))
            z[idx[bad]], w[idx[bad]] = prev_z[idx[bad]], prev_w[idx[bad]]
            done = bad | (np.abs(res).max(0) <= 1e-15) | (k == steps)
            live[idx[done]] = False
            idx, res, jz, jw = idx[~done], res[:, ~done], jz[:, ~done], jw[:, ~done]
            a11, a12, a22 = (abs(jz) ** 2).sum(0), (jz.conj() * jw).sum(0), (abs(jw) ** 2).sum(0)
            b1, b2 = -(jz.conj() * res).sum(0), -(jw.conj() * res).sum(0)
            if move_z:
                det = a11 * a22 - abs(a12) ** 2
                sz, sw = (a22 * b1 - a12 * b2) / det, (a11 * b2 - a12.conj() * b1) / det
            else:
                sz, sw = np.zeros(len(idx)), b2 / a22
            ok = np.isfinite(sz) & np.isfinite(sw)
            live[idx[~ok]] = False
            idx, sz, sw = idx[ok], sz[ok], sw[ok]
            prev_z[idx], prev_w[idx] = z[idx], w[idx]
            z[idx] += z[idx] * sz
            w[idx] += w[idx] * sw
    return z.reshape(shape), w.reshape(shape)


def _divmod(a, b):
    """Quotient and remainder of polynomials with rational coefficients,
    highest degree first; the remainder has no leading zeros."""
    a, q = list(a), []
    while len(a) >= len(b):
        q.append(a[0] / b[0])
        a = [x - q[-1] * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    while a and a[0] == 0:
        a.pop(0)
    return q, a


def _rational_zeros(coeffs):
    """Nonzero rational roots, ascending and without repeats, of a
    polynomial with rational coefficients (lowest degree first).

    f is the squarefree part, f / gcd(f, f') by Euclid over Q, as a
    primitive integer polynomial. A rational root p/q in lowest terms has
    p | a_0 and q | a_n, so it is N/a_n with |N| <= |a_0 a_n|. The roots of
    f modulo a small prime p (one dividing neither a_n nor f' at any of
    them) are lifted by Newton steps to roots modulo M > 2 |a_0 a_n|; N is
    the residue of a_n r closest to 0, and N/a_n is kept if f vanishes there
    exactly. All of it is exact arithmetic, with no bound on sizes."""
    a = [Fraction(c) for c in reversed(coeffs)]
    while a and a[0] == 0:
        a.pop(0)
    while a and a[-1] == 0:
        a.pop()
    if len(a) < 2:
        return []
    g, b = a, [k * c for k, c in zip(range(len(a) - 1, 0, -1), a)]
    while b:
        g, b = b, _divmod(g, b)[1]
    q = _divmod(a, g)[0]
    den = math.lcm(*(c.denominator for c in q))
    f = [int(c * den) for c in reversed(q)]
    content = math.gcd(*f)
    f = [c // content for c in f]
    df = [k * c for k, c in enumerate(f)][1:]

    def value(x, coeffs, m=0):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % m if m else v * x + c
        return v

    p = 1000
    while True:
        p += 1
        if f[-1] % p == 0 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            continue
        roots = [r for r in range(p) if value(r, f, p) == 0]
        if all(value(r, df, p) for r in roots):
            break
    out = []
    for r in roots:
        m = p
        while m <= 2 * abs(f[0] * f[-1]):
            m *= m
            r = (r - value(r, f, m) * pow(value(r, df, m), -1, m)) % m
        n = f[-1] * r % m
        root = Fraction(n - m if 2 * n > m else n, f[-1])
        if value(root, f) == 0:
            out.append(root)
    return sorted(out)


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

    def format_points(self):
        """`(z,w)xm` per point, 12 significant digits; a numeric coordinate
        with |imag| < 1e-10 prints as its real part."""
        return " ".join(f"({_fmt_val(z)},{_fmt_val(w)})x{m}"
                        for z, w, m in self.points) or "(empty)"

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


def divisor_of_vertex(g, wt, kappa, vertex, mode="exact", tol=1e-10, K=None, P=None):
    """The divisor of a vertex: common zeros on the open curve of the
    adjugate column (white vertex) or row (black vertex).

    Both modes eliminate w from the two smallest adjugate entries and take
    the roots of the resultant in z, then the roots of P in w on each of
    those fibres. Exact mode takes the rational roots (_rational_zeros,
    p-adic and exact) and confirms each point by exact substitution into P
    and every adjugate entry; it raises SpectralError when it finds other
    than genus rational points. Numeric mode takes the roots from the root
    kernel, refines the candidates by Newton steps with exact derivatives
    and keeps the points at which P and all entries vanish within tol.
    K and P = det K are built here unless the caller passes them."""
    if g.colors[vertex] not in ("w", "b"):
        raise SpectralError(f"vertex {vertex} is uncolored")
    K = kasteleyn_matrix(g, wt, kappa) if K is None else K
    P = lm_determinant(K) if P is None else P
    genus = newton_polygon(P).genus
    if genus == 0:
        return Divisor([], exact=(mode == "exact"))
    # a row of adj(K) is the matching column of adj(K^T)
    col = lm_adjugate_column(K if g.colors[vertex] == "w" else K.transpose(), vertex)
    entries = [e for e in col.values() if not e.is_zero()]
    if len(entries) < 2:
        raise SpectralError("not enough nonzero adjugate entries")
    if mode == "exact":
        return _divisor_exact(P, entries, genus)
    return _divisor_numeric(P, entries, genus, tol)


def _divisor_exact(P, entries, genus):
    from .exactalg import resultant_eliminate
    e1 = min(entries, key=lambda p: len(p.terms))
    rest = [p for p in entries if p is not e1]
    e2 = min(rest, key=lambda p: len(p.terms))
    res, _ = resultant_eliminate(e1, e2, "w")
    if res.is_zero():
        raise SpectralError("adjugate entries share a component; exact divisor ambiguous")
    cw, _ = P.coeffs_in("w")
    points = []
    for z0 in _rational_zeros([c.coeff(0, 0) for c in res.coeffs_in("z")[0]]):
        # w-candidates: rational roots of P(z0, w), which always depends on w
        for w0 in _rational_zeros([c.eval_exact(z0, 1) for c in cw]):
            if P.eval_exact(z0, w0) == 0 and all(q.eval_exact(z0, w0) == 0 for q in entries):
                points.append((z0, w0, 1))
    if len(points) != genus:
        raise SpectralError(
            f"exact divisor found {len(points)} rational points, genus is {genus};"
            " use numeric mode")
    return Divisor(points, exact=True)


# absolute error of a numeric coefficient of P or of an adjugate entry, as a
# fraction of the polynomial's largest one: FFT interpolation spreads rounding
# evenly over the coefficients (about 1e-15 measured at 24 whites)
COEFF_EPS = 1e-13


def _vanishes(polys, z, w, tol):
    """Where |p(z, w)| is within tol times the sum of |term| (at least tol),
    plus the spread of COEFF_EPS-sized coefficient errors over the support,
    for each p of polys at arrays z, w: one row per p. Far out on a
    tentacle the terms with the smallest coefficients dominate, and their
    relative error is far above tol."""
    import numpy as np
    grid = _grid(polys)
    val, _, _, size, spread = _terms(grid, z, w)
    cmax = grid[1][0].max((1, 2)).reshape((-1,) + (1,) * np.ndim(z))
    return abs(val) <= tol * np.maximum(1.0, size) + COEFF_EPS * cmax * spread


def _divisor_numeric(P, entries, genus, tol):
    from .exactalg import resultant_eliminate
    e1 = min(entries, key=lambda p: len(p.terms))
    rest = [p for p in entries if p is not e1]
    e2 = min(rest, key=lambda p: len(p.terms))
    Pn = P.to_numeric()
    res, _ = resultant_eliminate(e1.to_numeric(), e2.to_numeric(), "w")
    if len(res.coeffs_in("z")[0]) < 2:
        raise SpectralError("resultant is constant; no isolated roots")
    z1, w1 = _polish([Pn, e1.to_numeric()], *_fibre_roots(Pn, res, 1e-12), steps=40)
    polys = [Pn] + entries
    points = []
    # the second pass polishes every candidate on all entries; it runs only
    # when the first falls short of the genus
    for polish in (False, True):
        if polish:
            if len(points) >= genus:
                break
            z1, w1 = _polish(polys, z1, w1)
        ok = _vanishes(polys, z1, w1, tol).all(0)
        for z, w in zip(z1[ok].tolist(), w1[ok].tolist()):
            if any(abs(z - zs) < 1e-6 and abs(w - ws) < 1e-6 for zs, ws, _ in points):
                continue
            points.append((z, w, 1))
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


# -- the three Ising conditions -----------------------------------------------------


def verify_ising_spectral(g, wt, kappa, gadget_map, white, mode="exact", tol=1e-8,
                          K=None, P=None):
    """Check (1) sigma-invariance of P, (2') D_white = sigma(D_partner_black),
    (3) X_alphabar * X_alpha = 1 for every zig-zag. Returns (ok, report).
    Both divisors use the one K and P = det K, passed in or built here."""
    from .dimer import x_of_cycle
    K = kasteleyn_matrix(g, wt, kappa) if K is None else K
    P = lm_determinant(K) if P is None else P
    cond1 = P.sigma() == P if all(isinstance(v, Fraction) for v in wt.values()) \
        else P.sigma().isclose(P, tol)
    black = gadget_map.partners[white]
    Dw = divisor_of_vertex(g, wt, kappa, white, mode=mode, tol=min(tol, 1e-10), K=K, P=P)
    Db = divisor_of_vertex(g, wt, kappa, black, mode=mode, tol=min(tol, 1e-10), K=K, P=P)
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
    P(z, .) = 0 for the whole grid in one batched root-kernel call, polish
    every root by Newton steps in w with the exact derivative (vectorised
    over the batch), keep |P| < tol.

    Returns a list of rows (x, y, is_real, z, w) with x = log|z|, y = log|w|,
    taken by math.log and abs of Python complex numbers: numpy's log and abs
    can differ from them in the last bit.
    """
    import numpy as np
    rng = P.degree_range("w")
    if rng is None or rng[0] == rng[1]:
        raise SpectralError("polynomial is constant in w; amoeba degenerate")
    Pn = P.to_numeric()
    x0, x1, _, _ = region
    z = np.outer([math.exp(x0 + (x1 - x0) * (ix + 0.5) / grid) for ix in range(grid)],
                 [cmath.exp(1j * (math.pi * ip / (grid - 1) if grid > 1 else 0.0))
                  for ip in range(grid)]).ravel()
    roots, ok = _roots(_fibres(Pn, z))
    keep = ok[:, None] & (np.abs(roots) >= 1e-300)
    fibre = np.nonzero(keep)[0]
    _, w = _polish([Pn], z[fibre], roots[keep], steps=3, move_z=False)
    hit = np.abs(_terms(_grid([Pn]), z[fibre], w)[0][0]) < tol
    z, w = z[fibre[hit]], w[hit]
    is_real = ((abs(z.imag) < 1e-12) & (abs(w.imag) < 1e-9)).tolist()
    z, w = z.tolist(), w.tolist()
    return list(zip(map(math.log, map(abs, z)), map(math.log, map(abs, w)), is_real, z, w))


def _format(template, *cols):
    """template % row for every row of the equally long columns, joined."""
    flat = [None] * (len(cols) * len(cols[0]))
    for k, col in enumerate(cols):
        flat[k::len(cols)] = col
    return template * len(cols[0]) % tuple(flat)


def amoeba_csv(rows):
    x, y, is_real, *_ = zip(*rows) if rows else ((), (), ())
    return "x,y,is_real\n" + _format("%.12g,%.12g,%d\n", x, y, is_real)


def amoeba_svg(rows, marks=(), size=480):
    """Minimal deterministic SVG scatter with optional marked points."""
    import numpy as np
    if not rows:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    x, y, is_real, *_ = zip(*rows)
    lo = min(min(x), min(y)) - 0.3
    hi = max(max(x), max(y)) + 0.3

    def scaled(x, y):
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        return ((x - lo) / (hi - lo) * size).tolist(), (size - (y - lo) / (hi - lo) * size).tolist()

    return (f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' height='{size}' "
            f"viewBox='0 0 {size} {size}'>\n<rect width='{size}' height='{size}' fill='white'/>\n"
            + _format("<circle cx='%.2f' cy='%.2f' r='1' fill='%s'/>\n", *scaled(x, y),
                      np.where(is_real, "#d62728", "#1f77b4").tolist())
            + _format("<circle cx='%.2f' cy='%.2f' r='5' fill='none' stroke='black' "
                      "stroke-width='2'/>\n", *scaled([m[0] for m in marks], [m[1] for m in marks]))
            + "</svg>")


def harnack_diagnostic(P, probes=None, theta_steps=720):
    """Count Log-preimages of probe points; report 'consistent with 2:1' or
    list violations. A diagnostic, not a certificate.

    For a probe (x, y): with |z| = e^x fixed, each root branch traces
    log|w|(theta) over theta_steps + 1 angles in [0, pi]; the fibres of all
    probes come from one root-kernel call. Sorted, the levels log|w| of a
    fibre lie below y up to k = #{levels <= y}, so between consecutive
    fibres with as many levels the branches cross y |k - k'| times. Each
    crossing counts twice, for its complex-conjugate partner at -theta.
    Harnack means every interior probe has exactly 2. A preimage on a real
    fibre, theta = 0 or pi, sits on an end of the scan, where the count
    depends on the last bit of the roots; so the automatic probes are
    samples with non-real z.
    """
    import numpy as np
    Pn = P.to_numeric()
    if probes is None:
        # samples with non-real z are strictly interior (the amoeba boundary
        # is the image of the real locus)
        rows = amoeba_sample(P, grid=24, region=(-1.2, 1.2, -1.2, 1.2))
        inner = [(x, y) for x, y, _, z, _ in rows if abs(z.imag) >= 1e-12]
        probes = [inner[len(inner) // 3], inner[len(inner) // 2],
                  inner[(2 * len(inner)) // 3]] if inner else []
    if not probes:
        return {"consistent": True, "probes": [], "violations": []}
    z = np.outer([math.exp(x) for x, _ in probes],
                 [cmath.exp(1j * math.pi * k / theta_steps) for k in range(theta_steps + 1)])
    roots, _ = _roots(_fibres(Pn, z.ravel()))
    # levels log|w| by math.log and abs of Python complex numbers; roots of
    # modulus <= 1e-300 and the nan roots of a fibre skipped for a root at
    # infinity are no levels, so only steps between fibres with as many
    # levels count
    mod = np.array(list(map(abs, roots.ravel().tolist()))).reshape(z.shape + (-1,))
    seen = mod > 1e-300
    level = np.full(mod.shape, np.inf)
    level[seen] = list(map(math.log, mod[seen].tolist()))
    k = (level <= np.array([y for _, y in probes])[:, None, None]).sum(2)
    n = seen.sum(2)
    step = n[:, 1:] == n[:, :-1]
    out = [{"probe": (x, y), "preimages": c}
           for (x, y), c in zip(probes, (2 * (abs(np.diff(k)) * step).sum(1)).tolist())]
    violations = [p for p in out if p["preimages"] != 2]
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
    from .exactalg import resultant_eliminate
    Pw = derivative(P, "w")
    if Pw.is_zero():
        return []
    Pn, Pwn = P.to_numeric(), Pw.to_numeric()
    Pzn = derivative(P, "z").to_numeric()
    res, _ = resultant_eliminate(Pn, Pwn, "w")
    if len(res.coeffs_in("z")[0]) < 2:
        return []
    # polish on the critical system before the residual test; double roots
    # of the resultant are only located to sqrt precision
    z1, w1 = _polish([Pwn, Pzn], *_fibre_roots(Pn, res, 1e-10), steps=40)
    hits = []
    for z, w in zip(z1.tolist(), w1.tolist()):
        if all(abs(q.eval(z, w)) < tol for q in (Pn, Pwn, Pzn)) \
                and not any(abs(z - a) < 1e-6 and abs(w - b) < 1e-6 for a, b in hits):
            hits.append((z, w))
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
        ok, rep = verify_ising_spectral(g, wt, kappa, gadget_map, white, mode=mode,
                                        K=data.matrix, P=data.poly)
        lines.append(f"condition sigma-invariance {'pass' if rep['sigma_invariant'] else 'FAIL'}")
        lines.append(f"condition divisor-sigma {'pass' if rep['divisor_condition'] else 'FAIL'}")
        lines.append(f"condition nu-involution {'pass' if rep['nu_condition'] else 'FAIL'}")
        for name, D in (("D_w", rep["divisor_white"]), ("D_b", rep["divisor_black"])):
            lines.append(f"divisor {name} {D.format_points()}")
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
