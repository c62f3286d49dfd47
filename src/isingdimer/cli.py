"""Command-line front end.

Verbs: inspect, todimer, dual, ydelta, move, charpoly, divisor,
verify-ising, abel, amoeba. Exit codes: 0 success, 1 check failure,
2 input error, by the error classes of EXIT_CODES. Output is deterministic:
exact values print as p/q, numeric values with 12 significant digits, no
timestamps.
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
                       amoeba_csv, amoeba_svg)
from .abel import discrete_abel
from .exactalg import format_coeff


class CliError(Exception):
    """A usage or input error that the library cannot see: exit 2."""


# The one exit-code policy of the command line: main maps an error of one of
# these classes, or of a subclass, to its code. Any other exception is a bug
# and keeps its traceback. A MemoryError, such as an amoeba --grid too large
# for memory, is a computation that cannot finish on this input.
EXIT_CODES = {CliError: 2, ParseError: 2, GraphError: 2, CouplingError: 2, MoveError: 2,
              SpectralError: 1, MemoryError: 1}


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _emit(text, path):
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_validated(path):
    g, weights, couplings = parse_torus_graph(_read(path))
    g.validate()
    return g, weights, couplings


def _need_weights(weights, g, mode):
    missing = [e for e in g.edges() if e not in weights]
    if missing:
        raise CliError(f"edges without weights: {missing}")
    if mode == "auto":
        mode = "exact" if all(isinstance(v, Fraction) for v in weights.values()) \
            else "numeric"
    if mode == "numeric":
        return {e: float(v) for e, v in weights.items()}, "numeric"
    if any(not isinstance(v, Fraction) for v in weights.values()):
        raise CliError("exact mode needs rational weights throughout")
    return weights, "exact"


def _sign_class(sign):
    """The Kasteleyn sign class (s, t) that a --sign value names: ++, +-, -+
    or --, or the same in letters, p for + and m for -. argparse reads a
    bare -- as the end of the options, and --sign=-- as no value (a list),
    so the class -- is selectable only as mm."""
    label = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1), "pp": (1, 1),
             "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}.get(sign) if isinstance(sign, str) else None
    if label is None:
        got = repr(sign) if isinstance(sign, str) else "no value"
        raise CliError(f"--sign takes ++, +-, -+, --, pp, pm, mp or mm (the class -- as mm), got {got}")
    return label


def _pick_kappa(g, sign):
    label = _sign_class(sign)
    try:
        return dict(solve_kasteleyn_signs(g))[label]
    except SpectralError as exc:
        raise CliError(str(exc))


def _check_vertex(g, vertex):
    if vertex not in g.colors:
        raise CliError(f"unknown vertex {vertex}")


def cmd_inspect(args):
    g, _, _ = parse_torus_graph(_read(args.graph))
    rep = g.validate()
    lines = [f"vertices {rep['V']}", f"edges {rep['E']}", f"faces {rep['F']}",
             f"euler {rep['euler']}", f"bipartite {int(rep['bipartite'])}"]
    for fid in sorted(rep["faces"]):
        lines.append(f"face {fid} size {rep['faces'][fid]}")
    for zz in g.zigzag_paths():
        lines.append(f"zigzag {zz['id']} class {zz['class'][0]},{zz['class'][1]} "
                     f"len {len(zz['darts'])}")
    try:
        lines.append("polygon " + " ".join(f"{x},{y}" for x, y in g.newton_polygon().vertices)
                     + (" (up to translation)" if g.is_bipartite_colored() else ""))
        minimal, cert = g.check_minimal()
        lines.append(f"minimal {int(minimal)}" + ("" if minimal else f" {cert['kind']}"))
    except GraphError as exc:
        lines.append(f"polygon unavailable: {exc}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_todimer(args):
    g, weights, couplings = _load_validated(args.graph)
    if not couplings:
        raise CliError("input has no coupling lines")
    gd, wt, gm = to_dimer(IsingModel(g, couplings_from_file_data(couplings)))
    _emit(serialize_torus_graph(gd, weights=wt), args.out)
    if args.gadget_map:
        _emit(gm.serialize(), args.gadget_map)
    return 0


def _emit_model(model, path):
    """Write an Ising model with each coupling as sc= when exact, else J=."""
    coup = {e: {"s": c.s, "c": c.c} if c.exact else {"J": c.J}
            for e, c in model.couplings.items()}
    _emit(serialize_torus_graph(model.graph, couplings=coup), path)


def cmd_dual(args):
    g, weights, couplings = _load_validated(args.graph)
    if couplings:
        _emit_model(dual_ising(IsingModel(g, couplings_from_file_data(couplings))), args.out)
    else:
        _emit(serialize_torus_graph(g.dual_graph(), weights=weights or None), args.out)
    return 0


def cmd_ydelta(args):
    g, weights, couplings = _load_validated(args.graph)
    if not couplings:
        raise CliError("ydelta needs coupling lines")
    _emit_model(y_delta(IsingModel(g, couplings_from_file_data(couplings)), args.site), args.out)
    return 0


def cmd_move(args):
    g, weights, _ = _load_validated(args.graph)
    wt, _mode = _need_weights(weights, g, args.mode)
    script = _read(args.script)
    # the basis of the before-values is carried through the moves, so the
    # after-values refer to the same cycles
    before, basis = basis_x_values(g, wt)
    lines_out = ["# X basis before"]
    for k in sorted(before):
        lines_out.append(f"# X[{k}] = {format_coeff(before[k])}")
    for no, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] != "move" or len(parts) < 2:
                raise CliError(f"script line {no}: expected 'move ...'")
            kind = parts[1]
            opts = {}
            for p in parts[2:]:
                if "=" not in p:
                    raise CliError(f"script line {no}: expected key=value, got {p!r}")
                key, value = p.split("=", 1)
                if key in opts:
                    raise CliError(f"script line {no}: repeated key {key!r}")
                opts[key] = value
            takes = {"square": ("f", "<face>"), "contract": ("v", "<vertex>"), "color": ()}.get(kind)
            if takes is None:
                raise CliError(f"script line {no}: unknown move {kind!r}")
            if takes and takes[0] not in opts:
                raise CliError(f"script line {no}: move {kind} needs {'='.join(takes)}")
            extra = [k for k in opts if k not in takes[:1]]
            if extra:
                raise CliError(f"script line {no}: move {kind} takes no key {extra[0]!r}")
            if kind == "color":
                g, wt = color_change(g, wt)
                continue
            if kind == "square":
                g, wt, rec = square_move(g, wt, opts["f"])
                lines_out.append(f"# move square f={opts['f']} -> f'={rec.data['new_face']}")
            else:
                g, wt, rec = contraction_move(g, wt, opts["v"])
            basis = basis.follow(rec)
        except (MoveError, GraphError) as exc:
            raise CliError(f"script line {no}: {exc}")
    lines_out.append("# X basis after (transported)")
    after = basis.values(g, wt, sorted(k for k in before if k not in ("a", "b")))
    lines_out += [f"# X[{k}] = {format_coeff(x)}" for k, x in after.items()]
    text = serialize_torus_graph(g, weights=wt)
    _emit(text + "".join(s + "\n" for s in lines_out), args.out)
    return 0


def cmd_charpoly(args):
    g, weights, _ = _load_validated(args.graph)
    wt, _mode = _need_weights(weights, g, args.mode)
    curve = characteristic_polynomial(g, wt, _pick_kappa(g, args.sign))
    _emit("\n".join(curve.format_lines()) + "\n", args.out)
    return 0


def cmd_divisor(args):
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    _check_vertex(g, args.vertex)
    kappa = _pick_kappa(g, args.sign)
    D = divisor_of_vertex(g, wt, kappa, args.vertex, mode=mode, tol=args.tol)
    _emit(f"divisor {args.vertex} {D.format_points()}\n", args.out)
    return 0


def cmd_verify_ising(args):
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    if not args.gadget_map:
        raise CliError("verify-ising needs --gadget-map")
    gm = parse_gadget_map(_read(args.gadget_map))
    # the gadget map must name the graph's faces and vertices before any
    # computation looks them up
    _check_vertex(g, args.vertex)
    black = gm.partners.get(args.vertex)
    if black is None:
        raise CliError(f"vertex {args.vertex} has no partner in the gadget map")
    if g.colors[args.vertex] != "w":
        raise CliError(f"vertex {args.vertex} is not white")
    if g.colors.get(black) != "b":
        raise CliError(f"partner {black} of {args.vertex} is not a black vertex")
    faces = set(g.face_ids())
    unknown = sorted(fid for fid in gm.squares.values() if fid not in faces)
    if unknown:
        raise CliError(f"gadget map names unknown face {unknown[0]}")
    kappa = _pick_kappa(g, args.sign)
    weight_ok, wrep = ising_locus_check(g, wt, gm, tol=None if mode == "exact" else args.tol)
    text, spec_ok = spectral_report(g, wt, kappa, gm, args.vertex, mode=mode, tol=args.tol)
    lines = [text.rstrip("\n"),
             f"condition weight-mutation {'pass' if weight_ok else 'FAIL'}"]
    if not weight_ok:
        for k in sorted(wrep["residuals"], key=str):
            lines.append(f"residual {k} {format_coeff(wrep['residuals'][k])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if (weight_ok and spec_ok) else 1


def cmd_abel(args):
    if args.window < 0:
        raise CliError(f"--window must be at least 0, got {args.window}")
    g, weights, _ = _load_validated(args.graph)
    labels = discrete_abel(g, window=args.window)
    lines = []
    for (v, t), lab in sorted(labels.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        body = " ".join(f"{z}:{c}" for z, c in sorted(lab.items())) or "0"
        lines.append(f"label {v} @({t[0]},{t[1]}) {body}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_amoeba(args):
    if args.grid < 1:
        raise CliError(f"--grid must be at least 1, got {args.grid}")
    # exp(range) must be a finite float; nan fails the comparison
    top = math.log(sys.float_info.max)
    if not 0 < args.range <= top:
        raise CliError(f"--range must be in (0, {top}], got {args.range}")
    g, weights, _ = _load_validated(args.graph)
    wt, mode = _need_weights(weights, g, args.mode)
    if args.vertex:
        _check_vertex(g, args.vertex)
    kappa = _pick_kappa(g, args.sign)
    curve = characteristic_polynomial(g, wt, kappa)
    r = args.range
    marks = []
    rows = amoeba_sample(curve.poly, grid=args.grid, region=(-r, r, -r, r), tol=args.tol)
    if args.vertex:
        D = divisor_of_vertex(g, wt, kappa, args.vertex, mode=mode, tol=args.tol, curve=curve)
        for z, w, _m in D.points:
            marks.append((math.log(abs(complex(z))), math.log(abs(complex(w)))))
    _emit(amoeba_csv(rows), args.out)
    if args.svg:
        _emit(amoeba_svg(rows, marks), args.svg)
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
            p.add_argument("--sign", default="++", metavar="{++,+-,-+,--,pp,pm,mp,mm}",
                           help="Kasteleyn sign class; p is +, m is - (write -- as mm)")

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
        # the verbs with --tol need a finite tolerance above 0, and those
        # with --sign a sign class, checked before the graph is read; nan
        # fails the comparison
        if not 0 < getattr(args, "tol", 1) < math.inf:
            raise CliError(f"--tol must be finite and greater than 0, got {args.tol}")
        _sign_class(getattr(args, "sign", "++"))
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        # a MemoryError may carry no message
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
