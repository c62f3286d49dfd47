"""Output checks that do not rely on the code under test.

Every check reads the program's printed text with the parsers below and
returns a list of problems; an empty list means the output is correct.
The facts checked come from the paper's characterization and from plane
geometry, not from the library:

(a) `verify-ising` prints `pass` on all four conditions and exits 0 for
    every Ising-derived dimer model;
(b) the printed P is sigma-invariant, P(1/z, 1/w) = P(z, w); each printed
    divisor has genus-many points, the genus being the interior lattice
    point count of the printed polygon by Pick's theorem; D_b = sigma(D_w);
(c) every printed divisor point lies on P = 0;
(d) `move` transports every X value unchanged through a script of
    involutive move pairs;
(e) `todimer` turns |E| Ising edges into 2|E| white and 2|E| black vertices.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

CONDITIONS = ("sigma-invariance", "divisor-sigma", "nu-involution", "weight-mutation")

# Printed numeric values carry 12 significant digits.
SIGMA_TOL = 1e-9
VANISH_TOL = 1e-7
X_TOL = 1e-9

_MONO = re.compile(r"^([zw])(?:\^(-?\d+))?$")
_POINT = re.compile(r"\(([^,()]+),([^,()]+)\)x(\d+)")


def number(text):
    """Exact p/q as a Fraction, anything else as a complex or float."""
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        return Fraction(text)
    if text.endswith("j") or text.startswith("("):
        return complex(text)
    return float(text)


def parse_poly(text):
    """Parse `canonical_str` output into {(i, j): coefficient}."""
    terms = {}
    tokens = text.split()
    sign = 1
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, i, j = None, 0, 0
        for factor in tok.split("*"):
            m = _MONO.match(factor)
            if m:
                k = int(m.group(2) or 1)
                if m.group(1) == "z":
                    i += k
                else:
                    j += k
            elif coeff is None:
                coeff = number(factor)
            else:
                raise ValueError(f"bad term {tok!r}")
        c = sign * (Fraction(1) if coeff is None else coeff)
        if (i, j) in terms:
            raise ValueError(f"repeated monomial in {tok!r}")
        terms[(i, j)] = c
        sign = 1
    if not terms:
        raise ValueError("empty polynomial")
    return terms


def evaluate(terms, z, w):
    return sum(c * z ** i * w ** j for (i, j), c in terms.items())


def magnitude(terms, z, w):
    return sum(abs(c) * abs(z) ** i * abs(w) ** j for (i, j), c in terms.items())


def pick_genus(vertices):
    """Interior lattice points of a lattice polygon: I = A - B/2 + 1."""
    n = len(vertices)
    twice_area = abs(sum(vertices[k][0] * vertices[(k + 1) % n][1]
                         - vertices[(k + 1) % n][0] * vertices[k][1] for k in range(n)))
    boundary = sum(math.gcd(vertices[(k + 1) % n][0] - vertices[k][0],
                            vertices[(k + 1) % n][1] - vertices[k][1]) for k in range(n))
    return (twice_area - boundary + 2) // 2


def parse_points(text):
    if text.strip() == "(empty)":
        return []
    pts = [(number(z), number(w), int(m)) for z, w, m in _POINT.findall(text)]
    if not pts:
        raise ValueError(f"cannot read divisor {text!r}")
    return pts


def parse_report(text):
    """Fields of a `spectral-report v1` plus the weight-mutation line."""
    rep = {"conditions": {}, "divisors": {}}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "polynomial":
            rep["poly"] = parse_poly(rest)
        elif key == "polygon":
            rep["polygon"] = [tuple(int(c) for c in p.split(",")) for p in rest.split()]
        elif key == "genus":
            rep["genus"] = int(rest)
        elif key == "condition":
            name, verdict = rest.split()
            rep["conditions"][name] = verdict
        elif key == "divisor":
            name, _, pts = rest.partition(" ")
            rep["divisors"][name] = parse_points(pts)
    for field in ("poly", "polygon", "genus"):
        if field not in rep:
            raise ValueError(f"report has no {field} line")
    return rep


def close(a, b, tol):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(a)), abs(complex(b)))


def check_verify(text, rc, exact):
    """(a), (b) and (c) on the output of `verify-ising`. Returns (problems,
    parsed report or None)."""
    try:
        rep = parse_report(text)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"unreadable report: {exc}"], None
    bad = []
    if rc != 0:
        bad.append(f"(a) exit status {rc}")
    for cond in CONDITIONS:
        if rep["conditions"].get(cond) != "pass":
            bad.append(f"(a) condition {cond} is {rep['conditions'].get(cond)}")
    P = rep["poly"]
    scale = max(abs(c) for c in P.values())
    for (i, j), c in P.items():
        partner = P.get((-i, -j), 0)
        if (c != partner) if exact else not abs(c - partner) <= SIGMA_TOL * scale:
            bad.append(f"(b) P not sigma-invariant at z^{i} w^{j}")
            break
    genus = pick_genus(rep["polygon"])
    if rep["genus"] != genus:
        bad.append(f"(b) printed genus {rep['genus']}, Pick's theorem gives {genus}")
    for name in ("D_w", "D_b"):
        pts = rep["divisors"].get(name)
        if pts is None or any(z == 0 or w == 0 for z, w, _ in pts):
            bad.append(f"(b) divisor {name} is missing or leaves the open curve")
            return bad, rep
        if sum(m for _, _, m in pts) != genus:
            bad.append(f"(b) {name} has {sum(m for _, _, m in pts)} points, genus is {genus}")
        for z, w, _ in pts:
            if exact and not (isinstance(z, Fraction) and isinstance(w, Fraction)):
                bad.append(f"(c) {name} point ({z}, {w}) is not exact")
            elif exact and evaluate(P, z, w) != 0:
                bad.append(f"(c) P({z}, {w}) != 0 for {name}")
            elif not exact and not abs(evaluate(P, z, w)) <= VANISH_TOL * magnitude(P, z, w):
                bad.append(f"(c) |P| = {abs(evaluate(P, z, w)):.3g} at {name} point")
    dw, db = rep["divisors"].get("D_w", []), rep["divisors"].get("D_b", [])
    if not _same_points([(1 / z, 1 / w, m) for z, w, m in dw], db, exact):
        bad.append("(b) D_b is not sigma(D_w)")
    return bad, rep


def _same_points(a, b, exact):
    left = [p for z, w, m in a for p in [(z, w)] * m]
    right = [p for z, w, m in b for p in [(z, w)] * m]
    if len(left) != len(right):
        return False
    for z, w in left:
        hit = next((k for k, (z2, w2) in enumerate(right)
                    if ((z, w) == (z2, w2) if exact
                        else close(z, z2, VANISH_TOL) and close(w, w2, VANISH_TOL))), None)
        if hit is None:
            return False
        right.pop(hit)
    return True


def graph_counts(text):
    """(whites, blacks, edges) of a `torus-graph v1` text, read line by line."""
    colors = [ln.split()[2] for ln in text.splitlines() if ln.startswith("vertex ")]
    edges = sum(1 for ln in text.splitlines() if ln.startswith("edge "))
    return colors.count("w"), colors.count("b"), edges


def check_todimer(text, ising_edges):
    """(e) 2|E| whites and 2|E| blacks, each of degree 3: 6|E| edges."""
    whites, blacks, edges = graph_counts(text)
    want = 2 * ising_edges
    if (whites, blacks, edges) != (want, want, 3 * want):
        return [f"(e) todimer gave {whites} whites, {blacks} blacks, {edges} edges for "
                f"{ising_edges} Ising edges; expected {want}, {want}, {3 * want}"]
    return []


def parse_x_values(text):
    """The `# X[k] = v` lines of `move` output, before and after the script."""
    before, after, cur = {}, {}, None
    for line in text.splitlines():
        if line.startswith("# X basis before"):
            cur = before
        elif line.startswith("# X basis after"):
            cur = after
        elif line.startswith("# X[") and cur is not None:
            key, _, val = line[4:].partition("] = ")
            cur[key] = number(val)
    return before, after


def check_move(text, start_text):
    """(d) transported X values equal the values before the script, exactly
    for Fractions; the graph keeps its vertex and edge counts."""
    before, after = parse_x_values(text)
    bad = []
    if not before or before.keys() != after.keys():
        return [f"(d) X keys before {sorted(before)} and after {sorted(after)} differ"]
    for k, v in before.items():
        u = after[k]
        same = (v == u) if isinstance(v, Fraction) and isinstance(u, Fraction) \
            else close(v, u, X_TOL)
        if not same:
            bad.append(f"(d) X[{k}] = {v} before, {u} after")
    if graph_counts(text) != graph_counts(start_text):
        bad.append("(d) the move pairs changed the vertex or edge counts")
    return bad


def check_amoeba(csv_text, svg_text, genus):
    """Amoeba output is readable: finite (log|z|, log|w|) rows, and the SVG
    marks one point per divisor point, genus-many."""
    lines = csv_text.splitlines()
    bad = []
    if not lines or lines[0] != "x,y,is_real" or len(lines) < 2:
        return ["amoeba CSV has no header or no rows"]
    for ln in lines[1:]:
        x, y, r = ln.split(",")
        if not (math.isfinite(float(x)) and math.isfinite(float(y))) or r not in ("0", "1"):
            bad.append(f"amoeba row {ln!r} is not finite")
            break
    marks = svg_text.count("r='5'")
    if marks != genus:
        bad.append(f"amoeba SVG marks {marks} divisor points, genus is {genus}")
    return bad
