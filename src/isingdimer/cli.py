"""Command-line front end.

Verbs: inspect, todimer, dual, ydelta, move, charpoly, divisor,
verify-ising, abel, amoeba. Exit codes: 0 success, 1 check failure,
2 parse/validation error. Output is deterministic: exact values print as
p/q, numeric values with 12 significant digits, no timestamps.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .torusgraph import parse_torus_graph, serialize_torus_graph, ParseError, GraphError
from .ising import (IsingModel, CouplingError, couplings_from_file_data, dual_ising,
                    y_delta, to_dimer, parse_gadget_map)
from .dimer import (basis_x_values, square_move, contraction_move, color_change,
                    ising_locus_check, MoveError)
from .spectral import (SpectralError, solve_kasteleyn_signs, characteristic_polynomial,
                       divisor_of_vertex, spectral_report, amoeba_sample,
                       amoeba_csv, amoeba_svg, kasteleyn_matrix)
from .abel import discrete_abel
from .exactalg import lm_determinant, format_coeff


class CliError(Exception):
    def __init__(self, message, code):
        self.code = code
        super().__init__(message)


def _load(path):
    try:
        with open(path) as fh:
            return parse_torus_graph(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)
    except (ParseError, GraphError) as exc:
        raise CliError(str(exc), 2)


def _validate(g):
    """The report of g.validate(); a GraphError exits 2."""
    try:
        return g.validate()
    except GraphError as exc:
        raise CliError(str(exc), 2)


def _load_validated(path):
    g, weights, couplings = _load(path)
    _validate(g)
    return g, weights, couplings


def _load_model(g, couplings):
    try:
        return IsingModel(g, couplings_from_file_data(couplings))
    except (CouplingError, GraphError) as exc:
        raise CliError(str(exc), 2)


def _need_weights(weights, g, mode):
    missing = [e for e in g.edges() if e not in weights]
    if missing:
        raise CliError(f"edges without weights: {missing}", 2)
    if mode == "auto":
        mode = "exact" if all(isinstance(v, Fraction) for v in weights.values()) \
            else "numeric"
    if mode == "numeric":
        return {e: float(v) for e, v in weights.items()}, "numeric"
    if any(not isinstance(v, Fraction) for v in weights.values()):
        raise CliError("exact mode needs rational weights throughout", 2)
    return weights, "exact"


def _pick_kappa(g, sign):
    label = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}[sign]
    try:
        return dict(solve_kasteleyn_signs(g))[label]
    except SpectralError as exc:
        raise CliError(str(exc), 2)


def _check_vertex(g, vertex):
    if vertex not in g.colors:
        raise CliError(f"unknown vertex {vertex}", 2)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_inspect(args):
    g, _, _ = _load(args.graph)
    rep = _validate(g)
    lines = [f"vertices {rep['V']}", f"edges {rep['E']}", f"faces {rep['F']}",
             f"euler {rep['euler']}", f"bipartite {int(rep['bipartite'])}"]
    for fid in sorted(rep["faces"]):
        lines.append(f"face {fid} size {rep['faces'][fid]}")
    for zz in g.zigzag_paths():
        lines.append(f"zigzag {zz['id']} class {zz['class'][0]},{zz['class'][1]} "
                     f"len {len(zz['darts'])}")
    try:
        poly, anchored = g.newton_polygon()
        lines.append("polygon " + " ".join(f"{x},{y}" for x, y in poly.vertices)
                     + ("" if anchored else " (up to translation)"))
        minimal, cert = g.check_minimal()
        lines.append(f"minimal {int(minimal)}" + ("" if minimal else f" {cert['kind']}"))
    except GraphError as exc:
        lines.append(f"polygon unavailable: {exc}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_todimer(args):
    g, weights, couplings = _load_validated(args.graph)
    if not couplings:
        raise CliError("input has no coupling lines", 2)
    model = _load_model(g, couplings)
    gd, wt, gm = to_dimer(model)
    _emit(serialize_torus_graph(gd, weights=wt), args.out)
    if args.gadget_map:
        with open(args.gadget_map, "w") as fh:
            fh.write(gm.serialize())
    return 0


def cmd_dual(args):
    g, weights, couplings = _load_validated(args.graph)
    if couplings:
        dm = dual_ising(_load_model(g, couplings))
        coup = {e: {"s": c.s, "c": c.c} if c.exact else {"J": c.J}
                for e, c in dm.couplings.items()}
        _emit(serialize_torus_graph(dm.graph, couplings=coup), args.out)
    else:
        _emit(serialize_torus_graph(g.dual_graph(), weights=weights or None), args.out)
    return 0


def cmd_ydelta(args):
    g, weights, couplings = _load_validated(args.graph)
    if not couplings:
        raise CliError("ydelta needs coupling lines", 2)
    model = _load_model(g, couplings)
    try:
        out = y_delta(model, args.site)
    except (GraphError, MoveError) as exc:
        raise CliError(str(exc), 2)
    coup = {e: {"s": c.s, "c": c.c} if c.exact else {"J": c.J}
            for e, c in out.couplings.items()}
    _emit(serialize_torus_graph(out.graph, couplings=coup), args.out)
    return 0


def cmd_move(args):
    g, weights, _ = _load_validated(args.graph)
    wt, _mode = _need_weights(weights, g, args.mode)
    try:
        with open(args.script) as fh:
            script = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.script}: {exc}", 2)
    from .dimer import x_of_cycle
    before, _ = basis_x_values(g, wt)
    lines_out = ["# X basis before"]
    for k in sorted(before):
        lines_out.append(f"# X[{k}] = {format_coeff(before[k])}")
    # track the initial basis through the move ledger so the after-values
    # refer to the same cycles
    face_map = {fid: fid for fid in g.face_ids()}
    cycle_a, cycle_b = g.homology_basis_cycles()
    ca, cb = list(cycle_a), list(cycle_b)
    for no, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] != "move" or len(parts) < 2:
                raise CliError(f"script line {no}: expected 'move ...'", 2)
            kind = parts[1]
            opts = {}
            for p in parts[2:]:
                if "=" not in p:
                    raise CliError(f"script line {no}: expected key=value, got {p!r}", 2)
                key, value = p.split("=", 1)
                if key in opts:
                    raise CliError(f"script line {no}: repeated key {key!r}", 2)
                opts[key] = value
            need = {"square": "f=<face>", "contract": "v=<vertex>"}.get(kind)
            if need and need.split("=")[0] not in opts:
                raise CliError(f"script line {no}: move {kind} needs {need}", 2)
            if kind == "square":
                g, wt, rec = square_move(g, wt, opts["f"])
                lines_out.append(f"# move square f={opts['f']} -> f'={rec.data['new_face']}")
            elif kind == "contract":
                g, wt, rec = contraction_move(g, wt, opts["v"])
            elif kind == "color":
                g, wt = color_change(g, wt)
                rec = None
            else:
                raise CliError(f"script line {no}: unknown move {kind!r}", 2)
            if rec is not None:
                face_map = {old: rec.map_face(nf) for old, nf in face_map.items()}
                ca = rec.reroute(ca)
                cb = rec.reroute(cb)
        except (MoveError, GraphError, KeyError) as exc:
            raise CliError(f"script line {no}: {exc}", 2)
    lines_out.append("# X basis after (transported)")
    faces_before = sorted(k for k in before if k not in ("a", "b"))
    for k in faces_before:
        x = x_of_cycle(g, wt, g.face_darts(face_map[k]))
        lines_out.append(f"# X[{k}] = {format_coeff(x)}")
    lines_out.append(f"# X[a] = {format_coeff(x_of_cycle(g, wt, ca))}")
    lines_out.append(f"# X[b] = {format_coeff(x_of_cycle(g, wt, cb))}")
    text = serialize_torus_graph(g, weights=wt)
    _emit(text + "".join(s + "\n" for s in lines_out), args.out)
    return 0


def cmd_charpoly(args):
    g, weights, _ = _load_validated(args.graph)
    wt, _mode = _need_weights(weights, g, args.mode)
    kappa = _pick_kappa(g, args.sign)
    try:
        data = characteristic_polynomial(g, wt, kappa)
    except SpectralError as exc:
        raise CliError(str(exc), 1)
    from .spectral import canonical_sign
    lines = [f"polynomial {canonical_sign(data.poly).canonical_str()}",
             "polygon " + " ".join(f"{x},{y}" for x, y in data.polygon.vertices),
             f"genus {data.genus}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_divisor(args):
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    _check_vertex(g, args.vertex)
    kappa = _pick_kappa(g, args.sign)
    try:
        D = divisor_of_vertex(g, wt, kappa, args.vertex, mode=mode,
                              tol=args.tol)
    except (SpectralError, GraphError) as exc:
        raise CliError(str(exc), 1)
    _emit(f"divisor {args.vertex} {D.format_points()}\n", args.out)
    return 0


def cmd_verify_ising(args):
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    if args.gadget_map:
        try:
            with open(args.gadget_map) as fh:
                gm = parse_gadget_map(fh.read())
        except (OSError, GraphError) as exc:
            raise CliError(str(exc), 2)
    else:
        raise CliError("verify-ising needs --gadget-map", 2)
    _check_vertex(g, args.vertex)
    if args.vertex not in gm.partners:
        raise CliError(f"vertex {args.vertex} has no partner in the gadget map", 2)
    kappa = _pick_kappa(g, args.sign)
    try:
        weight_ok, wrep = ising_locus_check(g, wt, gm,
                                            tol=None if mode == "exact" else args.tol)
        text, spec_ok = spectral_report(g, wt, kappa, gm, args.vertex, mode=mode, tol=args.tol)
    except (SpectralError, MoveError, GraphError) as exc:
        raise CliError(str(exc), 1)
    lines = [text.rstrip("\n"),
             f"condition weight-mutation {'pass' if weight_ok else 'FAIL'}"]
    if not weight_ok:
        for k in sorted(wrep["residuals"], key=str):
            lines.append(f"residual {k} {format_coeff(wrep['residuals'][k])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if (weight_ok and spec_ok) else 1


def cmd_abel(args):
    if args.window < 0:
        raise CliError(f"--window must be at least 0, got {args.window}", 2)
    g, weights, _ = _load_validated(args.graph)
    try:
        labels = discrete_abel(g, window=args.window)
    except GraphError as exc:
        raise CliError(str(exc), 2)
    except SpectralError as exc:
        raise CliError(str(exc), 1)
    lines = []
    for (v, t), lab in sorted(labels.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        body = " ".join(f"{z}:{c}" for z, c in sorted(lab.counts.items())) or "0"
        lines.append(f"label {v} @({t[0]},{t[1]}) {body}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_amoeba(args):
    if args.grid < 1:
        raise CliError(f"--grid must be at least 1, got {args.grid}", 2)
    # exp(range) must be a finite float; nan fails the comparison
    top = math.log(sys.float_info.max)
    if not 0 < args.range <= top:
        raise CliError(f"--range must be in (0, {top}], got {args.range}", 2)
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    if args.vertex:
        _check_vertex(g, args.vertex)
    kappa = _pick_kappa(g, args.sign)
    K = kasteleyn_matrix(g, wt, kappa)
    P = lm_determinant(K)
    r = args.range
    marks = []
    try:
        rows = amoeba_sample(P, grid=args.grid, region=(-r, r, -r, r), tol=args.tol)
        if args.vertex:
            D = divisor_of_vertex(g, wt, kappa, args.vertex, mode=mode, tol=args.tol,
                                  K=K, P=P)
            for z, w, _m in D.points:
                marks.append((math.log(abs(complex(z))), math.log(abs(complex(w)))))
    except SpectralError as exc:
        raise CliError(str(exc), 1)
    _emit(amoeba_csv(rows), args.out)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(amoeba_svg(rows, marks))
    return 0


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(prog="isingdimer",
                                  description="Spectral transform tools for Ising and dimer models on a torus")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, *options):
        """The graph and --out, plus those of --mode, --tol and --sign named."""
        p.add_argument("graph", help="torus-graph v1 file")
        p.add_argument("--out", default=None)
        if "mode" in options:
            p.add_argument("--mode", choices=("auto", "exact", "numeric"), default="auto")
        if "tol" in options:
            p.add_argument("--tol", type=float, default=1e-8)
        if "sign" in options:
            p.add_argument("--sign", choices=("++", "+-", "-+", "--"), default="++")

    p = sub.add_parser("inspect");           common(p); p.set_defaults(fn=cmd_inspect)
    p = sub.add_parser("todimer");           common(p)
    p.add_argument("--gadget-map", default=None); p.set_defaults(fn=cmd_todimer)
    p = sub.add_parser("dual");              common(p); p.set_defaults(fn=cmd_dual)
    p = sub.add_parser("ydelta");            common(p)
    p.add_argument("--site", required=True); p.set_defaults(fn=cmd_ydelta)
    p = sub.add_parser("move");              common(p, "mode")
    p.add_argument("--script", required=True); p.set_defaults(fn=cmd_move)
    p = sub.add_parser("charpoly");          common(p, "mode", "sign"); p.set_defaults(fn=cmd_charpoly)
    p = sub.add_parser("divisor");           common(p, "mode", "tol", "sign")
    p.add_argument("--vertex", required=True); p.set_defaults(fn=cmd_divisor)
    p = sub.add_parser("verify-ising");      common(p, "mode", "tol", "sign")
    p.add_argument("--vertex", required=True)
    p.add_argument("--gadget-map", default=None); p.set_defaults(fn=cmd_verify_ising)
    p = sub.add_parser("abel");              common(p)
    p.add_argument("--window", type=int, default=1); p.set_defaults(fn=cmd_abel)
    p = sub.add_parser("amoeba");            common(p, "mode", "tol", "sign")
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--range", type=float, default=2.5)
    p.add_argument("--vertex", default=None)
    p.add_argument("--svg", default=None); p.set_defaults(fn=cmd_amoeba)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
