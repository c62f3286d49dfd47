"""The traced run: spans around the calls into each module of the program,
held in memory, and the per-layer metrics computed from them.

Per op, in one op span:
- each verb runs as `cli.main` in a `cli.<verb>` span, with nothing inside
  it instrumented;
- the verb is then replayed as the public library calls it makes, with the
  functions in TARGETS instrumented, so that calls into them, also those
  from one module into another, get spans of their own.
After the op span closes, probe spans outside the op time `exactalg`'s
determinant and adjugate on the op's Kasteleyn matrix, and `check_minimal`
on its `todimer` output.

A span's self time is its duration minus the time of its child spans; the
`.s` metrics sum self time per traced pass.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time

import ops

MODULES = ("cli", "torusgraph", "ising", "dimer", "spectral", "exactalg")


def _divisor_name(args, kwargs):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "exact")
    return f"spectral.divisor_{mode}"


def _graph_meta(args, kwargs, out):
    return {"edges": len(out[0].edge_ends)}


def _zigzag_meta(args, kwargs, out):
    return {"zigzag_len": max((len(z["darts"]) for z in out), default=0)}


def _poly_meta(args, kwargs, out):
    P = out.poly
    bits = [max(c.numerator.bit_length(), c.denominator.bit_length())
            for c in P.terms.values() if hasattr(c, "denominator")]
    return {"terms": len(P.terms), "bits": max(bits, default=0), "genus": out.genus}


def _amoeba_meta(args, kwargs, out):
    P = args[0]
    grid = kwargs.get("grid", args[1] if len(args) > 1 else 100)
    lo, hi = P.degree_range("w")
    return {"attempted": grid * grid * (hi - lo), "kept": len(out)}


# (module, attribute or Class.method, span name or name function, meta function)
TARGETS = [
    ("torusgraph", "parse_torus_graph", "torusgraph.parse", _graph_meta),
    ("torusgraph", "serialize_torus_graph", "torusgraph.serialize", None),
    ("torusgraph", "TorusGraph.validate", "torusgraph.validate", None),
    ("torusgraph", "TorusGraph.zigzag_paths", "torusgraph.zigzag_paths", _zigzag_meta),
    ("torusgraph", "TorusGraph.check_minimal", "torusgraph.check_minimal", None),
    ("ising", "couplings_from_file_data", "ising.couplings", None),
    ("ising", "to_dimer", "ising.to_dimer", None),
    ("ising", "parse_gadget_map", "ising.gadget_map", None),
    ("ising", "GadgetMap.serialize", "ising.gadget_map", None),
    ("dimer", "basis_x_values", "dimer.basis_x", None),
    ("dimer", "square_move", "dimer.square_move", None),
    ("dimer", "color_change", "dimer.color_change", None),
    ("dimer", "x_of_cycle", "dimer.x_of_cycle", None),
    ("dimer", "ising_locus_check", "dimer.locus_check", None),
    ("spectral", "solve_kasteleyn_signs", "spectral.signs", None),
    ("spectral", "kasteleyn_matrix", "spectral.kasteleyn_matrix", None),
    ("spectral", "characteristic_polynomial", "spectral.charpoly", _poly_meta),
    ("spectral", "verify_ising_spectral", "spectral.verify", None),
    ("spectral", "spectral_report", "spectral.report", None),
    ("spectral", "divisor_of_vertex", _divisor_name, None),
    ("spectral", "amoeba_sample", "spectral.amoeba", _amoeba_meta),
    ("spectral", "amoeba_csv", "spectral.amoeba_out", None),
    ("spectral", "amoeba_svg", "spectral.amoeba_out", None),
    ("spectral", "harnack_diagnostic", "spectral.harnack", None),
]

SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1", "fail", "probe", "verb", "meta")

    def __init__(self, sid, parent, op, name, probe, verb):
        self.id, self.parent, self.op, self.name = sid, parent, op, name
        self.probe, self.verb = probe, verb
        self.t0 = self.t1 = 0.0
        self.fail = False
        self.meta = None

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Spans of a traced run. `limit` bounds each replay and each probe."""

    def __init__(self, lib, limit):
        self.lib = lib
        self.limit = limit
        self.spans = []
        self.stack = []
        self.op = None
        self.verb_id = None     # the verb span the current replay belongs to
        self.patches = self._patches()

    # -- spans ----------------------------------------------------------------

    def call(self, name, fn, probe=False, meta=None):
        """fn() inside a span named `name`; a raise marks the span failed."""
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, probe,
                    self.verb_id if parent == self.op else None)
        self.spans.append(span)
        self.stack.append(span)
        span.t0 = time.perf_counter()
        try:
            out = fn()
        except BaseException:
            span.fail = True
            raise
        finally:
            span.t1 = time.perf_counter()
            self.stack.pop()
        if meta is not None:
            span.meta = meta(out)
        return out

    def op_span(self, op, fn):
        """Run fn() as one op: its own span, then the probes outside it."""
        sid = self.op = len(self.spans)
        try:
            return self.call("op", fn, meta=lambda r: {"name": op.name, "outcome": r.outcome})
        finally:
            self.probes(op, sid)
            self.op = None

    def verb(self, verb, fn):
        """A verb's span; the replay that follows is attributed to it."""
        sid = len(self.spans)
        try:
            return self.call("cli." + verb.replace("-", "_"), fn)
        finally:
            self.verb_id = sid

    # -- instrumentation -------------------------------------------------------

    def _patches(self):
        """(owner, attribute, original, wrapper) for every target, in every
        module that holds a reference to the target."""
        mods = {m: importlib.import_module(f"isingdimer.{m}") for m in MODULES}
        out = []
        for modname, attr, name, meta in TARGETS:
            owner = mods[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                out.append((owner, attr, original, self._wrap(original, name, meta)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, meta)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        out.append((mod, key, original, wrapper))
        return out

    def _wrap(self, fn, name, meta):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return tracer.call(span_name, lambda: fn(*args, **kwargs),
                               meta=None if meta is None else
                               (lambda out: meta(args, kwargs, out)))
        return wrapper

    def instrumented(self, fn):
        """fn() with every target replaced by its span-recording wrapper."""
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        try:
            return fn()
        finally:
            for owner, attr, original, _ in self.patches:
                setattr(owner, attr, original)

    # -- replay and probes -------------------------------------------------------

    def replay(self, cli, step, limit):
        """Replay a verb as library calls; returns the seconds it took."""
        if step.verb == "harnack":
            return 0.0
        args = cli.build_parser().parse_args(step.argv)
        fn = REPLAY[step.verb]
        _, _, secs = ops.timed(lambda: self.instrumented(lambda: fn(self.lib, args, self)),
                               limit)
        self.verb_id = None
        return secs

    def probes(self, op, op_id):
        """Determinant and adjugate of the op's Kasteleyn matrix, and
        check_minimal on its todimer output, each outside the op span."""
        lib = self.lib
        first = op.steps[0]
        path = first.out[0] if first.verb == "todimer" else first.argv[1]

        def matrix():
            g, weights, _ = lib.torusgraph.parse_torus_graph(ops.read(path))
            wt = weights if op.exact else {e: float(x) for e, x in weights.items()}
            return lib.spectral.kasteleyn_matrix(g, wt, _kappa(lib, g, "++"))

        status, K, _ = ops.timed(matrix, self.limit)
        if status != "ok":
            return      # no dimer graph to probe, e.g. todimer failed
        n = len(K.rows)
        self.op = op_id
        try:
            for name, fn in (("exactalg.det", lib.exactalg.lm_determinant),
                             ("exactalg.adjugate", lib.exactalg.lm_adjugate)):
                ops.timed(lambda: self.call(name, lambda: fn(K), probe=True,
                                            meta=lambda out: {"n": n}), self.limit)
            if first.verb == "todimer":
                fresh, _, _ = lib.torusgraph.parse_torus_graph(ops.read(path))
                ops.timed(lambda: self.call("torusgraph.zigzag_paths", fresh.zigzag_paths,
                                            probe=True,
                                            meta=lambda out: _zigzag_meta((), {}, out)),
                          self.limit)
                ops.timed(lambda: self.call("torusgraph.check_minimal", fresh.check_minimal,
                                            probe=True), self.limit)
        finally:
            self.op = None

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(), default=str) + "\n")


# -- replays: the public calls each verb makes, in order ----------------------------


def _weights(weights, mode):
    if mode == "numeric" or (mode == "auto" and not all(
            hasattr(v, "denominator") for v in weights.values())):
        return {e: float(v) for e, v in weights.items()}, "numeric"
    return weights, "exact"


def _kappa(lib, g, sign):
    return next(k for lab, k in lib.spectral.solve_kasteleyn_signs(g) if lab == SIGNS[sign])


def _load(lib, path):
    g, weights, couplings = lib.torusgraph.parse_torus_graph(ops.read(path))
    g.validate()
    return g, weights, couplings


def replay_todimer(lib, args, tracer):
    g, _, couplings = _load(lib, args.graph)
    model = lib.ising.IsingModel(g, lib.ising.couplings_from_file_data(couplings))
    gd, wt, gm = lib.ising.to_dimer(model)
    lib.torusgraph.serialize_torus_graph(gd, weights=wt)
    gm.serialize()


def replay_verify(lib, args, tracer):
    g, weights, _ = _load(lib, args.graph)
    wt, mode = _weights(weights, args.mode)
    gm = lib.ising.parse_gadget_map(ops.read(args.gadget_map))
    kappa = _kappa(lib, g, args.sign)
    lib.dimer.ising_locus_check(g, wt, gm, tol=None if mode == "exact" else args.tol)
    lib.spectral.spectral_report(g, wt, kappa, gm, args.vertex, mode=mode)


def replay_amoeba(lib, args, tracer):
    g, weights, _ = _load(lib, args.graph)
    wt, mode = _weights(weights, args.mode)
    kappa = _kappa(lib, g, args.sign)
    K = lib.spectral.kasteleyn_matrix(g, wt, kappa)
    P = tracer.call("exactalg.det", lambda: lib.exactalg.lm_determinant(K),
                    meta=lambda out: {"n": len(K.rows)})
    r = args.range
    rows = lib.spectral.amoeba_sample(P, grid=args.grid, region=(-r, r, -r, r), tol=args.tol)
    marks = []
    if args.vertex:
        D = lib.spectral.divisor_of_vertex(g, wt, kappa, args.vertex, mode=mode)
        marks = [(math.log(abs(complex(z))), math.log(abs(complex(w)))) for z, w, _ in D.points]
    lib.spectral.amoeba_csv(rows)
    lib.spectral.amoeba_svg(rows, marks)


def replay_move(lib, args, tracer):
    """The benchmark's scripts hold only `move square f=<face>` and
    `move color` lines."""
    g, weights, _ = _load(lib, args.graph)
    wt, _ = _weights(weights, args.mode)
    before, _ = lib.dimer.basis_x_values(g, wt)
    face_map = {fid: fid for fid in g.face_ids()}
    ca, cb = (list(c) for c in g.homology_basis_cycles())
    for line in ops.read(args.script).splitlines():
        parts = line.split()
        if parts[1] == "square":
            g, wt, rec = lib.dimer.square_move(g, wt, parts[2].split("=", 1)[1])
            face_map = {old: rec.map_face(nf) for old, nf in face_map.items()}
            ca, cb = rec.reroute(ca), rec.reroute(cb)
        else:
            g, wt = lib.dimer.color_change(g, wt)
    for k in sorted(k for k in before if k not in ("a", "b")):
        lib.dimer.x_of_cycle(g, wt, g.face_darts(face_map[k]))
    lib.dimer.x_of_cycle(g, wt, ca)
    lib.dimer.x_of_cycle(g, wt, cb)
    lib.torusgraph.serialize_torus_graph(g, weights=wt)


REPLAY = {"todimer": replay_todimer, "verify-ising": replay_verify,
          "amoeba": replay_amoeba, "move": replay_move}


# -- per-layer metrics --------------------------------------------------------------

LAYER_METRICS = [
    ("cli.todimer.s", "s"), ("cli.verify_ising.s", "s"), ("cli.amoeba.s", "s"),
    ("cli.move.s", "s"), ("cli.unattributed.s", "s"),
    ("torusgraph.parse.s", "s"), ("torusgraph.validate.s", "s"),
    ("torusgraph.serialize.s", "s"), ("torusgraph.zigzag_paths.s", "s"),
    ("torusgraph.check_minimal.s", "s"), ("torusgraph.edges", "count"),
    ("torusgraph.zigzag_len_max", "count"),
    ("ising.to_dimer.s", "s"), ("ising.to_dimer.calls", "count"), ("ising.gadget_map.s", "s"),
    ("dimer.square_move.s", "s"), ("dimer.square_move.calls", "count"),
    ("dimer.moves_per_s", "1/s"), ("dimer.color_change.s", "s"), ("dimer.x_of_cycle.s", "s"),
    ("dimer.locus_check.s", "s"),
    ("spectral.signs.s", "s"), ("spectral.kasteleyn_matrix.s", "s"),
    ("spectral.charpoly.s", "s"), ("spectral.verify.s", "s"),
    ("spectral.divisor_exact.s", "s"), ("spectral.divisor_numeric.s", "s"),
    ("spectral.divisor.fail", "count"), ("spectral.amoeba.s", "s"),
    ("spectral.amoeba.pts_per_s", "1/s"), ("spectral.amoeba.kept_ratio", "ratio"),
    ("spectral.harnack.s", "s"), ("spectral.P_terms", "count"), ("spectral.P_bits_max", "bits"),
    ("spectral.genus", "count"),
    ("exactalg.det.s", "s"), ("exactalg.det.fail", "count"), ("exactalg.det.n_max", "count"),
    ("exactalg.adjugate.s", "s"),
    ("trace.overhead_s", "s"),
]


def self_times(spans):
    """span id -> duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.t1 - s.t0
    return {s.id: (s.t1 - s.t0) - child[s.id] for s in spans}


def layer_metrics(spans, passes):
    """Per-layer metrics over the traced passes, times and counts per pass.
    Probe spans count only towards the `exactalg` metrics and the zig-zag
    length; every other metric is about work inside the ops. Returns
    {metric name: value} and the self time per pass of every span name,
    probes listed apart."""
    selft = self_times(spans)
    by_name, table = {}, {}
    for s in spans:
        # a torusgraph probe is kept apart from the same call inside an op
        key = s.name + ".probe" if s.probe and s.name.startswith("torusgraph.") else s.name
        by_name.setdefault(key, []).append(s)
        label = s.name + " (probe)" if s.probe else s.name
        table[label] = table.get(label, 0.0) + selft[s.id] / passes

    def busy(name):
        return sum(selft[s.id] for s in by_name.get(name, ())) / passes

    def count(name, pred=lambda s: True):
        return sum(1 for s in by_name.get(name, ()) if pred(s)) / passes

    def meta_max(name, key, pred=lambda s: True):
        return max((s.meta[key] for s in by_name.get(name, ())
                    if s.meta is not None and pred(s)), default=0)

    def meta_sum(name, key):
        return sum(s.meta[key] for s in by_name.get(name, ()) if s.meta is not None)

    replayed = {}
    for s in spans:
        if s.verb is not None:
            replayed[s.verb] = replayed.get(s.verb, 0.0) + (s.t1 - s.t0)
    verbs = [s for s in spans if s.name.startswith("cli.")]
    m = {f"cli.{v}.s": busy(f"cli.{v}") for v in ("todimer", "verify_ising", "amoeba", "move")}
    m["cli.unattributed.s"] = sum((s.t1 - s.t0) - replayed.get(s.id, 0.0)
                                  for s in verbs) / passes
    for name in ("torusgraph.parse", "torusgraph.validate", "torusgraph.serialize",
                 "torusgraph.zigzag_paths", "torusgraph.check_minimal", "ising.to_dimer",
                 "ising.gadget_map", "dimer.square_move", "dimer.color_change",
                 "dimer.x_of_cycle", "dimer.locus_check", "spectral.signs",
                 "spectral.kasteleyn_matrix", "spectral.charpoly", "spectral.verify",
                 "spectral.divisor_exact", "spectral.divisor_numeric", "spectral.amoeba",
                 "spectral.harnack", "exactalg.det", "exactalg.adjugate"):
        m[name + ".s"] = busy(name)
    m["torusgraph.edges"] = meta_max("torusgraph.parse", "edges")
    m["torusgraph.zigzag_len_max"] = max(meta_max("torusgraph.zigzag_paths", "zigzag_len"),
                                         meta_max("torusgraph.zigzag_paths.probe", "zigzag_len"))
    m["ising.to_dimer.calls"] = count("ising.to_dimer")
    m["dimer.square_move.calls"] = count("dimer.square_move")
    m["dimer.moves_per_s"] = (m["dimer.square_move.calls"] / m["dimer.square_move.s"]
                              if m["dimer.square_move.s"] > 0 else 0.0)
    m["spectral.divisor.fail"] = (count("spectral.divisor_exact", lambda s: s.fail)
                                  + count("spectral.divisor_numeric", lambda s: s.fail))
    attempted = meta_sum("spectral.amoeba", "attempted")
    amoeba_time = busy("spectral.amoeba") * passes
    m["spectral.amoeba.pts_per_s"] = attempted / amoeba_time if amoeba_time > 0 else 0.0
    m["spectral.amoeba.kept_ratio"] = (meta_sum("spectral.amoeba", "kept") / attempted
                                       if attempted else 0.0)
    m["spectral.P_terms"] = meta_max("spectral.charpoly", "terms")
    m["spectral.P_bits_max"] = meta_max("spectral.charpoly", "bits")
    m["spectral.genus"] = meta_max("spectral.charpoly", "genus")
    m["exactalg.det.fail"] = count("exactalg.det", lambda s: s.fail)
    m["exactalg.det.n_max"] = meta_max("exactalg.det", "n", lambda s: not s.fail)
    return m, table
