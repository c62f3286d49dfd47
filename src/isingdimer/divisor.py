"""The spectral divisor engine: the divisor of a vertex on the open curve
P = 0, the common zeros there of P and the vertex's line of adj K, in exact
mode by rational roots and in numeric mode by the float kernels it shares
with the amoeba and the Harnack diagnostic (the batched root kernel, the
term kernel and Newton polishing).

numpy is imported inside the numeric functions: exact runs never load it.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import (LaurentPoly2, _cleared_powers, _int_rows, format_coeff,
                       resultant_eliminate)


class SpectralError(ValueError):
    pass


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


def _fibres(P, z):
    """Rows for _roots: the coefficients of P in w (lowest exponent
    cleared, highest first) at each z of an array. SpectralError, naming
    the least |log|z|| of such a row, if a coefficient is not a finite
    float: e^x can be finite where e^(kx) is not."""
    import numpy as np
    lo, hi = P.degree_range("w")
    ilo, ihi = P.degree_range("z")
    out = np.zeros((len(z), hi - lo + 1), dtype=complex)
    with np.errstate(all="ignore"):
        Z = _powers(z, ilo, ihi)
        for (i, j), c in P.terms.items():
            out[:, hi - j] += complex(c) * Z[i - ilo]
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            x = np.abs(np.log(np.abs(z[bad]))).min()
            raise SpectralError(f"fibre coefficients of P are not finite at |log|z|| = {x:.12g}")
    return out


def _fibre_roots(Pn, res, eps):
    """Candidate points (z, w) as arrays: z a root of the resultant, given
    by its coefficients res in z (resultant_eliminate), w a root of
    Pn(z, .) (the curve always depends on w), both of modulus at least eps."""
    import numpy as np
    zroots = _roots([[complex(c) for c in reversed(res)]])[0][0]
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
        zb, wb = z[b], w[b]
        m = len(zb)
        if m == 1:
            # a lone point goes as two copies of it: einsum would sum it
            # along another inner loop, which can change its last bits
            zb, wb = np.repeat(zb, 2), np.repeat(wb, 2)
        Z, W = _powers(zb, ilo, ihi), _powers(wb, jlo, jhi)
        t = np.einsum("lkij,jn->lkin", G, W)
        t *= Z
        val[:, b], wdw[:, b] = t.sum(2)[..., :m]
        zdz[:, b] = np.einsum("i,kin->kn", i, t[0])[:, :m]
        t = np.einsum("lkij,jn->lkin", A, abs(W))
        t *= abs(Z)
        size[:, b], spread[:, b] = t.sum(2)[..., :m]
    return tuple(a.reshape(shape) for a in (val, zdz, wdw, size, spread))


def _polish(polys, z, w, steps=4, move_z=True, stop=None, grid=None):
    """Newton steps with exact derivatives on all of polys = 0 from a batch
    of points z, w (arrays or scalars; with move_z false only w moves),
    least squares by the normal equations when there are more equations
    than unknowns. Each equation is divided by the size of its terms and
    the unknowns are log z and log w. Newton on P and one entry loses
    digits where their other common zeros come close to a divisor point;
    the other entries do not share those zeros and restore them. A point
    stops when its residuals reach rounding level, or when an evaluation or
    a step turns non-finite: it keeps its last iterate at which every poly
    evaluates finitely. After each step stop(z, w), if given, sees the
    points that stopped in it; all points stop when it returns true.
    grid is _grid(polys) if given.

    Returns z, w and the values (value, size of terms, spread) of _terms
    at each point's last evaluation, one row per poly: at the point where
    it stops, since a point reverted after a non-finite evaluation keeps
    those of the step before. When stop ends the pass, the points that had
    not stopped have moved since theirs."""
    import numpy as np
    shape = np.shape(z)
    z = np.array(z, dtype=complex).ravel()
    w = np.array(w, dtype=complex).ravel()
    prev_z, prev_w = z.copy(), w.copy()
    live = np.ones(len(z), dtype=bool)
    grid = grid or _grid(polys)
    last = (np.empty((len(polys), len(z)), dtype=complex),
            np.empty((len(polys), len(z))), np.empty((len(polys), len(z))))
    with np.errstate(all="ignore"):
        for k in range(steps + 1):
            ran = idx = np.flatnonzero(live)
            if not len(idx):
                break
            val, zdz, wdw, size, spread = _terms(grid, z[idx], w[idx])
            res, jz, jw = val / size, zdz / size, wdw / size
            bad = ~np.isfinite(np.stack([res, jz, jw])).all((0, 1))
            # the first evaluation is where every point starts and is
            # reverted to
            kept = ~bad if k and bad.any() else slice(None)
            at = idx[kept]
            for a, b in zip(last, (val, size, spread)):
                a[:, at] = b[:, kept]
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
            ended = ran[~live[ran]]
            if stop and k < steps and len(ended) and stop(z[ended], w[ended]):
                break
    return z.reshape(shape), w.reshape(shape), tuple(a.reshape((len(polys),) + shape)
                                                     for a in last)


def _pseudo_divmod(a, b):
    """(q, r) with b_0^(len(a) - len(b) + 1) a = q b + r, for polynomials
    with integer coefficients, highest degree first; r has no leading zeros."""
    q = []
    while len(a) >= len(b):
        q = [b[0] * x for x in q] + [a[0]]
        a = [b[0] * x - a[0] * y for x, y in zip(a[1:], b[1:])] + [b[0] * x for x in a[len(b):]]
    while a and not a[0]:
        a = a[1:]
    return q, a


def _primitive(a):
    """The integer polynomial a divided by the gcd of its coefficients."""
    content = math.gcd(*a)
    return [c // content for c in a] if content else a


def _rational_zeros(coeffs):
    """Nonzero rational roots, ascending and without repeats, of a
    polynomial with rational coefficients (lowest degree first).

    All of it runs in integers, with no bound on sizes. f is the
    squarefree part, the primitive part of the polynomial cleared of
    denominators over its gcd with its derivative, which the primitive
    remainder sequence gives. A rational root p/q in lowest terms has
    p | a_0 and q | a_n, so it is N/a_n with |N| <= |a_0 a_n|. The roots of
    f modulo the smallest prime p that divides neither a_n nor f' at any of
    them (roots that meet modulo p make f' vanish there) are lifted by
    Newton steps to roots modulo M > 2 |a_0 a_n|; N is the residue of a_n r
    closest to 0, and N/a_n is kept if f_d N^d + f_(d-1) N^(d-1) a_n + ...
    + f_0 a_n^d = 0, d the degree of f."""
    den = math.lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    while a and a[0] == 0:
        a.pop(0)
    while a and a[-1] == 0:
        a.pop()
    if len(a) < 2:
        return []
    g, b = a, [k * c for k, c in zip(range(len(a) - 1, 0, -1), a)]
    while b:
        g, b = b, _primitive(_pseudo_divmod(g, b)[1])
    f = _primitive(_pseudo_divmod(a, g)[0])[::-1]
    df = [k * c for k, c in enumerate(f)][1:]

    def value(x, coeffs, m):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % m
        return v

    p = 1
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
        n = n - m if 2 * n > m else n
        v, s = 0, 1
        for c in reversed(f):
            v, s = v * n + c * s, s * f[-1]
        if v == 0:
            out.append(Fraction(n, f[-1]))
    return sorted(out)


# -- divisors ------------------------------------------------------------------


def _fmt_val(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        if abs(v.imag) < 1e-10:
            return f"{v.real:.12g}"
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return format_coeff(v)


class Divisor:
    """Points (z, w) with multiplicity; exact (Fractions) or numeric
    (complex), in the order of (Re z, Im z, Re w, Im w)."""

    def __init__(self, points, exact=True):
        self.points = sorted(points, key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
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

    def matches(self, other, tol=None):
        """Equal multisets: exactly, or with coordinates within tol (default
        1e-8) relative to their size, floored at 1, since a point far out on
        a tentacle carries the relative error of the inverse of a small one."""
        a, b = ([(z, w) for z, w, m in D.points for _ in range(m)] for D in (self, other))
        if len(a) != len(b):
            return False
        if self.exact and other.exact and tol is None:
            return a == b

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


def divisor_on_curve(P, genus, entries, mode, tol):
    """The divisor on the open curve P = 0 of the given genus of a vertex
    whose line of adj K (the white's column or the black's row) holds
    `entries`: the common zeros there of P and every nonzero entry, which on
    the curve is r (x) l with r in ker K and l in ker K^T (Kenyon-Okounkov).

    Both modes eliminate w from the two entries with the fewest terms and
    take the roots of the resultant in z, then the roots of P in w on each
    of those fibres. Exact mode takes the rational roots (_rational_zeros,
    p-adic and exact) and confirms each point by substituting it into P
    and every entry in integers; it raises SpectralError when it finds
    other than genus rational points. Numeric mode takes the roots from the
    root kernel, refines the candidates by Newton steps with exact
    derivatives, which end once the candidates done with them hold genus
    accepted points, and keeps the points at which P and all entries vanish
    within min(tol, 1e-10)."""
    if genus == 0:
        return Divisor([], exact=(mode == "exact"))
    entries = [e for e in entries if not e.is_zero()]
    if len(entries) < 2:
        raise SpectralError("not enough nonzero adjugate entries")
    e1, e2 = sorted(entries, key=lambda p: len(p.terms))[:2]
    if mode == "exact":
        return _divisor_exact(P, entries, e1, e2, genus)
    return _divisor_numeric(P, entries, e1, e2, genus, min(tol, 1e-10))


def _divisor_exact(P, entries, e1, e2, genus):
    res = resultant_eliminate(e1, e2)
    if not res:
        raise SpectralError("adjugate entries share a component; exact divisor ambiguous")
    # P and the entries with integer coefficients (each times the lcm L of
    # its denominators) on their joint exponent box: at z0 = p/q, w0 = r/s,
    # sum n_ij zp[i] wp[j] is L p^-ilo q^ihi r^-jlo s^jhi times the value
    polys = [row[0] for row in _int_rows([[q] for q in [P] + entries])[0]]
    (ilo, ihi), (jlo, jhi) = ((min(ij[k] for q in polys for ij in q),
                               max(ij[k] for q in polys for ij in q)) for k in (0, 1))
    points = []
    for z0 in _rational_zeros(res):
        zp = _cleared_powers(z0, ilo, ihi)
        # w-candidates: rational roots of P(z0, w), which always depends on w
        cw = dict.fromkeys(range(jlo, jhi + 1), 0)
        for (i, j), n in polys[0].items():
            cw[j] += n * zp[i]
        for w0 in _rational_zeros(list(cw.values())):
            # P(z0, w0) = 0 by the choice of w0
            wp = _cleared_powers(w0, jlo, jhi)
            if all(not sum(n * zp[i] * wp[j] for (i, j), n in q.items()) for q in polys[1:]):
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


def _vanishes(polys, z, w, tol, grid=None):
    """Where |p(z, w)| is within tol times the sum of |term| (at least tol),
    plus the spread of COEFF_EPS-sized coefficient errors over the support,
    for each p of polys at arrays z, w: one row per p. Far out on a
    tentacle the terms with the smallest coefficients dominate, and their
    relative error is far above tol. grid is _grid(polys) if given."""
    grid = grid or _grid(polys)
    val, _, _, size, spread = _terms(grid, z, w)
    return _vanish_rule(grid, (val, size, spread), tol)


def _vanish_rule(grid, values, tol):
    """_vanishes from the values (value, size of terms, spread) of _terms
    at the points, such as those _polish hands back."""
    import numpy as np
    val, size, spread = values
    cmax = grid[1][0].max((1, 2)).reshape((-1,) + (1,) * (val.ndim - 1))
    return abs(val) <= tol * np.maximum(1.0, size) + COEFF_EPS * cmax * spread


def _divisor_numeric(P, entries, e1, e2, genus, tol):
    import numpy as np
    Pn = P.to_numeric()
    res = resultant_eliminate(e1.to_numeric(), e2.to_numeric())
    if len(res) < 2:
        raise SpectralError("resultant is constant; no isolated roots")
    polys = [Pn] + entries
    grid = _grid(polys)

    def accept(points, z, w, values=None):
        """points, extended by those of z, w at which every poly vanishes
        and that lie 1e-6 or more from each point held. Candidates within
        1e-6 of a point held on entry could not be added, so they skip the
        vanishing test. values are those of _terms at z, w, if given, as
        _polish hands them back."""
        held = np.array([p[:2] for p in points]).reshape(-1, 2).T
        far = ((abs(z[:, None] - held[0]) >= 1e-6) | (abs(w[:, None] - held[1]) >= 1e-6)).all(1)
        z, w = z[far], w[far]
        ok = (_vanishes(polys, z, w, tol, grid) if values is None else
              _vanish_rule(grid, [v[:, far] for v in values], tol)).all(0)
        for a, b in zip(z[ok].tolist(), w[ok].tolist()):
            if not any(abs(a - zs) < 1e-6 and abs(b - ws) < 1e-6 for zs, ws, _ in points):
                points.append((a, b, 1))
        return points

    # the first pass stops once the candidates that stopped hold genus
    # points; the second polishes every candidate on all entries, and runs
    # only when the first falls short of the genus
    found = []
    z1, w1, _ = _polish([Pn, e1.to_numeric()], *_fibre_roots(Pn, res, 1e-12), steps=40,
                        stop=lambda z, w: len(accept(found, z, w)) >= genus)
    points = accept([], z1, w1)
    if len(points) < genus:
        points = accept(points, *_polish(polys, z1, w1, grid=grid))
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


def detect_singularities(P):
    """Probe for singular points of the open curve: common zeros of
    (P, dP/dw, dP/dz), each below 1e-8 in modulus. Returns a list of
    approximate singular points; used to report isolated real nodes as
    unsupported rather than desingularizing."""
    Pw = derivative(P, "w")
    if Pw.is_zero():
        return []
    Pn, Pwn = P.to_numeric(), Pw.to_numeric()
    Pzn = derivative(P, "z").to_numeric()
    res = resultant_eliminate(Pn, Pwn)
    if len(res) < 2:
        return []
    # polish on the critical system before the residual test; double roots
    # of the resultant are only located to sqrt precision
    z1, w1, _ = _polish([Pwn, Pzn], *_fibre_roots(Pn, res, 1e-10), steps=40)
    hits = []
    for z, w in zip(z1.tolist(), w1.tolist()):
        if all(abs(q.eval(z, w)) < 1e-8 for q in (Pn, Pwn, Pzn)) \
                and not any(abs(z - a) < 1e-6 and abs(w - b) < 1e-6 for a, b in hits):
            hits.append((z, w))
    return hits

