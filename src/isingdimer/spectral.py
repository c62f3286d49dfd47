"""Kasteleyn signs and matrices, characteristic polynomials, the divisor
of a vertex (by divisor.divisor_on_curve), the zig-zag/points-at-infinity
bijection, the Ising spectral conditions, amoeba sampling and the Harnack
diagnostic.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .dimer import x_of_cycle
from .divisor import (SpectralError, _fibres, _grid, _polish, _roots, _vanish_rule,
                      divisor_on_curve)
from .exactalg import (
    LaurentMatrix,
    LaurentPoly2,
    lm_adjugate_lines,
    lm_determinant,
    newton_polygon,
)
from .torusgraph import GraphError


# -- Kasteleyn signs -------------------------------------------------------------


def _gf2_solve(rows, rhs, nvars):
    """One solution x of A x = b over GF(2), as an int bitmask; raises
    SpectralError if there is none. Rows are int bitmasks."""
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
    if any(rows[len(pivots):]):
        raise SpectralError("Kasteleyn sign system is inconsistent (parity obstruction)")
    return sum(1 << col for i, col in enumerate(pivots) if rows[i] >> nvars & 1)


def solve_kasteleyn_signs(g):
    """All four sign classes on a bipartite torus graph.

    Solves the mod-2 system (face sign products = (-1)^(len/2+1)) once. The
    four classes are that solution twisted by s^dx t^dy on each edge of
    stored displacement (dx, dy), for (s, t) in {1, -1}^2: every face has
    zero total displacement, so its product is kept, while the product along
    the stored a (b) cycle flips with s (t). So, up to gauge, the class
    labeled (s, t) has the Kasteleyn matrix of class (1, 1) at (s z, t w).
    Returns a list of four dicts edge -> +-1, tree-normalized and labeled
    by the sign of the kappa-product along the graph's stored a and b
    cycles: [((sa, sb), kappa), ...], labels in the order (1,1), (1,-1),
    (-1,1), (-1,-1).
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
    x = _gf2_solve(rows, rhs, len(edges))
    kappa = {e: (-1 if x >> i & 1 else 1) for e, i in eidx.items()}
    sa, sb = (math.prod(kappa[g.darts[d].edge] for d in cycle)
              for cycle in g.homology_basis_cycles())
    out = []
    for lab in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        s, t = lab[0] * sa, lab[1] * sb
        twisted = {e: k * s ** (g.edge_ends[e][2] % 2) * t ** (g.edge_ends[e][3] % 2)
                   for e, k in kappa.items()}
        out.append((lab, kappa_tree_normalize(g, twisted)))
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


# -- Kasteleyn matrix and characteristic polynomial --------------------------------


def kasteleyn_matrix(g, wt, kappa):
    """Rows = white vertices, columns = black; entries sum wt * kappa * z^i w^j
    over parallel edges, with (i, j) the displacement of the black->white dart,
    summed in edge order into one term dict per cell."""
    cells = {}
    for e in g.edges():
        v1, v2, _, _ = g.edge_ends[e]
        b, w = (v1, v2) if g.colors[v1] == "b" else (v2, v1)
        d = e + "+" if g.tail(e + "+") == b else e + "-"
        ij = g.disp(d)
        terms = cells.setdefault((w, b), {})
        terms[ij] = terms.get(ij, 0) + wt[e] * kappa[e]
    return LaurentMatrix(g.whites(), g.blacks(),
                         {cell: LaurentPoly2(terms) for cell, terms in cells.items()})


class SpectralCurveData:
    def __init__(self, poly, polygon, genus, matrix):
        self.poly = poly
        self.polygon = polygon
        self.genus = genus
        self.matrix = matrix

    def format_lines(self):
        """The `polynomial`, `polygon` and `genus` lines. The printed
        polynomial is sign-normalized: the determinant's overall sign is a
        sign-gauge artifact."""
        return [f"polynomial {canonical_sign(self.poly).canonical_str()}",
                "polygon " + " ".join(f"{x},{y}" for x, y in self.polygon.vertices),
                f"genus {self.genus}"]


def characteristic_polynomial(g, wt, kappa):
    """P = det K with its Newton polygon, genus (interior lattice points)
    and the Kasteleyn matrix K it came from: the one place that builds
    them, checking that K is square, P is not zero, P's polygon is the
    graph's, and last that the graph has F = 2 Area(N) faces.

    The face count is the cheap part of the minimality test of
    `TorusGraph.check_minimal` (Goncharov-Kenyon): a minimal graph passes
    it, but a pass does not prove the graph minimal. A failure is a
    GraphError, an input error: the genus and degrees that the divisors
    assume hold only on minimal graphs."""
    K = kasteleyn_matrix(g, wt, kappa)
    if len(K.rows) != len(K.cols):
        raise SpectralError(f"#white={len(K.rows)} != #black={len(K.cols)}")
    P = lm_determinant(K)
    if P.is_zero():
        raise SpectralError("characteristic polynomial vanishes identically")
    poly = newton_polygon(P)
    if poly.normalized().vertices != g.newton_polygon().normalized().vertices:
        raise SpectralError("Newton polygon of P differs from the graph polygon")
    faces = len(g.face_ids())
    if faces != poly.twice_area:
        raise GraphError(f"graph is not minimal (face-count: {faces} faces, "
                         f"twice the polygon area {poly.twice_area})")
    return SpectralCurveData(P, poly, poly.genus, K)


def divisor_of_vertex(g, wt, kappa, vertex, mode="exact", tol=1e-8, curve=None, line=None):
    """The divisor of a vertex by divisor_on_curve: the common zeros on the
    open curve of the adjugate column (white vertex) or row (black vertex)
    of adj K. The curve (characteristic_polynomial) and the vertex's line
    of adj K ({label: entry}, from lm_adjugate_lines) are built here unless
    the caller passes them."""
    color = g.colors[vertex]
    if color not in ("w", "b"):
        raise SpectralError(f"vertex {vertex} is uncolored")
    curve = characteristic_polynomial(g, wt, kappa) if curve is None else curve
    if line is None:
        # a white names a row of K, so a column of adj K; a black a row of adj K
        cols, rows = (lm_adjugate_lines(curve.matrix, columns=[vertex]) if color == "w"
                      else lm_adjugate_lines(curve.matrix, rows=[vertex]))
        line = (cols or rows)[0]
    return divisor_on_curve(curve.poly, curve.genus, line.values(), mode, tol)


# -- the nu map -----------------------------------------------------------------


def nu_map(g, wt, polygon):
    """The zig-zag paths on each side of `polygon`, g's Newton polygon up to
    translation, whose points at infinity they are (nu of Goncharov-Kenyon,
    "Dimers and cluster integrable systems", 2013).

    Side S (primitive vector (i, j)) holds the zig-zags whose class is a
    positive multiple of S, ordered exactly by (X_alpha, zig-zag id), with
    their X values (exact from exact weights) in that order. On a graph
    that is not minimal a side can hold a number of zig-zags other than its
    lattice length. Returns [{'vector', 'zigzags', 'x'}], one per side of
    the polygon.
    """
    by_vector = {}
    for zz in g.zigzag_paths():
        p, q = zz["class"]
        d = math.gcd(p, q)
        x = x_of_cycle(g, wt, zz["darts"])
        by_vector.setdefault((p // d, q // d), []).append((x, zz["id"]))
    sides = []
    for vector, _ in polygon.sides:
        members = sorted(by_vector.get(vector, ()))
        sides.append({"vector": vector, "zigzags": [m[1] for m in members],
                      "x": [m[0] for m in members]})
    return sides


# -- the three Ising conditions -----------------------------------------------------


def verify_ising_spectral(g, wt, kappa, gadget_map, white, mode="exact", tol=1e-8):
    """Check (1) sigma-invariance of P, (2') D_white = sigma(D_partner_black),
    (3) X_alphabar * X_alpha = 1 for every zig-zag. Returns (ok, report),
    the report holding the curve as "curve".
    In numeric mode tol bounds the coefficients of P - sigma(P), the
    distance of matched divisor points and each residual of (3); the
    divisors themselves are found within min(tol, 1e-10). Both divisors use
    the one curve and one lm_adjugate_lines call for the white's column and
    the partner black's row of adj K (in numeric mode, one sample grid)."""
    curve = characteristic_polynomial(g, wt, kappa)
    P = curve.poly
    cond1 = P.sigma() == P if P.exact else P.sigma().isclose(P, tol)
    black = gadget_map.partners[white]
    (col,), (row,) = lm_adjugate_lines(curve.matrix, [white], [black])
    Dw = divisor_of_vertex(g, wt, kappa, white, mode=mode, tol=tol, curve=curve, line=col)
    Db = divisor_of_vertex(g, wt, kappa, black, mode=mode, tol=tol, curve=curve, line=row)
    cond2 = Dw.matches(Db.sigma(), None if mode == "exact" else tol)
    # condition (3): sigma maps the points at infinity of side S to those of
    # side -S, i.e. opposite sides carry equal X-value multisets (positive
    # weights). The reversal of a zig-zag is a zig-zag of the color change,
    # whose X there is the inverse; X_alphabar * X_alpha = 1 is this check.
    # A side with as many zig-zags as its opposite compares their X values
    # in nu_map's order, which is sorted by X exactly; one with another
    # number fails.
    resid3, failed = {}, []
    x_of_side = {side["vector"]: side["x"] for side in nu_map(g, wt, curve.polygon)}
    for side, a in x_of_side.items():
        b = x_of_side.get((-side[0], -side[1]), [])
        if len(a) != len(b):
            resid3[side] = float("inf")
            failed.append(side)
            continue
        resid3[side] = [x1 / x2 - 1 for x1, x2 in zip(a, b)]
        if any(r != 0 if isinstance(r, Fraction) else abs(r) > tol for r in resid3[side]):
            failed.append(side)
    cond3 = not failed
    report = {
        "sigma_invariant": cond1,
        "curve": curve,
        "divisor_white": Dw,
        "divisor_black": Db,
        "partner_black": black,
        "divisor_condition": cond2,
        "nu_residuals": resid3,
        "nu_failed": failed,
        "nu_condition": cond3,
    }
    return (cond1 and cond2 and cond3), report


# -- amoeba sampling -----------------------------------------------------------------


def _numeric_in_w(P):
    """P.to_numeric() for the fibre solvers; SpectralError when P is
    constant in w, so that no fibre has a root."""
    rng = P.degree_range("w")
    if rng is None or rng[0] == rng[1]:
        raise SpectralError("polynomial is constant in w; amoeba degenerate")
    return P.to_numeric()


class AmoebaSample:
    """The rows of an amoeba sample as columns: x = log|z| and y = log|w|
    as lists of floats, is_real as a bool array, z and w as complex arrays.
    len() is the number of rows."""

    __slots__ = ("x", "y", "is_real", "z", "w")

    def __init__(self, x, y, is_real, z, w):
        self.x, self.y, self.is_real, self.z, self.w = x, y, is_real, z, w

    def __len__(self):
        return len(self.x)


def amoeba_sample(P, grid=100, region=(-3.0, 3.0, -3.0, 3.0), tol=1e-8):
    """Sample the amoeba: for z on a log-modulus x phase grid, solve
    P(z, .) = 0 for the whole grid in one batched root-kernel call, polish
    every root by Newton steps in w with the exact derivative (vectorised
    over the batch), keep the roots at which P vanishes by the relative
    rule of _vanishes, applied to the values of the last Newton step.

    Returns an AmoebaSample, one row per root kept. x = log|z| (taken once
    per fibre) and y = log|w| are taken by math.log and abs of Python
    complex numbers: numpy's log and abs can differ from them in the last
    bit. is_real holds where z lies on a real fibre (phase 0 or pi) and
    |Im w| < 1e-9.
    """
    import numpy as np
    Pn = _numeric_in_w(P)
    x0, x1, _, _ = region
    z = np.outer([math.exp(x0 + (x1 - x0) * (ix + 0.5) / grid) for ix in range(grid)],
                 [cmath.exp(1j * (math.pi * ip / (grid - 1) if grid > 1 else 0.0))
                  for ip in range(grid)]).ravel()
    roots, ok = _roots(_fibres(Pn, z))
    keep = ok[:, None] & (np.abs(roots) >= 1e-300)
    fibre = np.nonzero(keep)[0]
    terms = _grid([Pn])
    _, w, last = _polish([Pn], z[fibre], roots[keep], steps=3, move_z=False, grid=terms)
    hit = _vanish_rule(terms, last, tol)[0]
    fibre, w = fibre[hit], w[hit]
    phase = fibre % grid
    # z is real on the fibres of phase 0 and pi, whose Im z = |z| sin(theta)
    # in floats no absolute threshold tells from the others' at every |z|
    is_real = ((phase == 0) | (phase == grid - 1)) & (abs(w.imag) < 1e-9)
    x = np.array(list(map(math.log, map(abs, z.tolist()))))[fibre].tolist()
    return AmoebaSample(x, list(map(math.log, map(abs, w.tolist()))), is_real, z[fibre], w)


def _format(template, *cols):
    """template % row for every row of the equally long columns, joined."""
    flat = [None] * (len(cols) * len(cols[0]))
    for k, col in enumerate(cols):
        flat[k::len(cols)] = col
    return template * len(cols[0]) % tuple(flat)


def amoeba_csv(sample):
    return "x,y,is_real\n" + _format("%.12g,%.12g,%d\n", sample.x, sample.y,
                                      sample.is_real.tolist())


def amoeba_svg(sample, marks=()):
    """Minimal deterministic SVG scatter, 480 px square, with optional
    marked points."""
    import numpy as np
    size = 480
    if not sample:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    lo = min(min(sample.x), min(sample.y)) - 0.3
    hi = max(max(sample.x), max(sample.y)) + 0.3

    def scaled(x, y):
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        return ((x - lo) / (hi - lo) * size).tolist(), (size - (y - lo) / (hi - lo) * size).tolist()

    return (f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' height='{size}' "
            f"viewBox='0 0 {size} {size}'>\n<rect width='{size}' height='{size}' fill='white'/>\n"
            + _format("<circle cx='%.2f' cy='%.2f' r='1' fill='%s'/>\n", *scaled(sample.x, sample.y),
                      np.where(sample.is_real, "#d62728", "#1f77b4").tolist())
            + _format("<circle cx='%.2f' cy='%.2f' r='5' fill='none' stroke='black' "
                      "stroke-width='2'/>\n", *scaled([m[0] for m in marks], [m[1] for m in marks]))
            + "</svg>")


# angles of harnack_diagnostic's scan of |z| = 1 over [0, pi]
HARNACK_STEPS = 720


def harnack_diagnostic(P):
    """Count Log-preimages of three probe points on |z| = 1; report
    'consistent with 2:1' or list violations. A diagnostic, not a
    certificate.

    Each root branch traces log|w|(theta) for z = e^(i theta) over
    HARNACK_STEPS + 1 angles in [0, pi]. Sorted, the levels log|w| of a
    fibre lie below a probe's y up to k = #{levels <= y}, so between
    consecutive fibres with as many levels the branches cross y |k - k'|
    times. Each crossing counts twice, for its complex-conjugate partner at
    -theta. Harnack means every interior probe has exactly 2.

    The probes are (0.0, the lower median level of the fibre at theta =
    pi (k + 1/2) / HARNACK_STEPS), for k a quarter, a half and three
    quarters of HARNACK_STEPS; these three fibres go in the same root-kernel
    call as the scan. Each sits between two scan angles, so its preimage is
    interior to the scan, never on a real fibre (theta = 0 or pi), where the
    count would turn on the last bit of the roots. A fibre with no level
    gives no probe. SpectralError if P is constant in w or its coefficients
    in w on |z| = 1 are not finite floats.
    """
    import numpy as np
    Pn = _numeric_in_w(P)
    steps = HARNACK_STEPS
    # the scan's angles pi k / steps, then the probe fibres' between them
    ks = [*range(steps + 1), *(k + 0.5 for k in (steps // 4, steps // 2, 3 * steps // 4))]
    roots, _ = _roots(_fibres(Pn, np.array([cmath.exp(1j * math.pi * k / steps) for k in ks])))
    # levels log|w| by math.log and abs of Python complex numbers; roots of
    # modulus <= 1e-300 and the nan roots of a fibre skipped for a root at
    # infinity are no levels, so only steps between fibres with as many
    # levels count
    mod = np.array(list(map(abs, roots.ravel().tolist()))).reshape(roots.shape)
    seen = mod > 1e-300
    level = np.full(mod.shape, np.inf)
    level[seen] = list(map(math.log, mod[seen].tolist()))
    probes = [(0.0, v[(c - 1) // 2]) for v, c in
              zip(np.sort(level[-3:]).tolist(), seen[-3:].sum(1).tolist()) if c]
    level = level[:-3]
    k = (level <= np.array([y for _, y in probes])[:, None, None]).sum(2)
    step = np.diff(np.isfinite(level).sum(1)) == 0
    out = [{"probe": p, "preimages": c}
           for p, c in zip(probes, (2 * (abs(np.diff(k)) * step).sum(1)).tolist())]
    violations = [p for p in out if p["preimages"] != 2]
    return {"consistent": not violations, "probes": out, "violations": violations}


# -- report --------------------------------------------------------------------------


def canonical_sign(P):
    """Normalize the overall sign (a sign-gauge artifact): make the first
    coefficient in canonical term order positive. P is not zero:
    characteristic_polynomial rejects a zero P."""
    from .exactalg import _term_sort_key
    lead = min(P.terms, key=_term_sort_key)
    c = P.terms[lead]
    neg = (c < 0) if isinstance(c, Fraction) else (complex(c).real < 0)
    return -P if neg else P


def spectral_report(g, wt, kappa, gadget_map, white, mode="exact", tol=1e-8):
    """Text `spectral-report v1`: the curve's polynomial, polygon and genus
    lines, the three conditions of verify_ising_spectral at tol, divisors,
    and the polygon sides that fail the nu condition. Returns (text, ok)."""
    ok, rep = verify_ising_spectral(g, wt, kappa, gadget_map, white, mode=mode, tol=tol)
    lines = ["spectral-report v1", *rep["curve"].format_lines(),
             f"condition sigma-invariance {'pass' if rep['sigma_invariant'] else 'FAIL'}",
             f"condition divisor-sigma {'pass' if rep['divisor_condition'] else 'FAIL'}",
             f"condition nu-involution {'pass' if rep['nu_condition'] else 'FAIL'}"]
    for name, D in (("D_w", rep["divisor_white"]), ("D_b", rep["divisor_black"])):
        lines.append(f"divisor {name} {D.format_points()}")
    if rep["nu_failed"]:
        lines.append("residuals " + " ".join(sorted(map(str, rep["nu_failed"]))))
    return "\n".join(lines) + "\n", ok
