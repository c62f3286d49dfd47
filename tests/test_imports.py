"""Every module of the package and of the tests uses each name its
top-level imports bind, every test module takes the square and honeycomb
lattices from `isingdimer.lattices` alone, the CLI reaches K and P only
through `characteristic_polynomial` and carries X through moves only by
`dimer.XBasis`, every private top-level function of the package is
referenced, every public function and method of the package is read in
the package or named in KEEP with a reason, every parameter of a package
function takes more than one value over the calls in the package and the
benchmark or is named in KEEP_PARAMETERS, every string key of a dict the
package builds is read somewhere, the benchmark's calls into the package
bind to its signatures and unpack as many names as the function returns,
its traced targets exist, a graph's data is written only while the graph
is built, only `TorusGraph.add_edge` makes a `Dart`, only `exactalg._interpolate`
makes a `LaurentPoly2` without its checks, only `cli._emit` opens a path
for writing, every option of a CLI verb is read by that verb,
every exception class of the package has an exit code, every module stays
below TOKEN_LIMIT parser tokens, and the modules of the package import
each other one way, with no cycle.

Stdlib stand-ins for a linter's unused-import and dead-code rules: an
imported name counts as used when it is read anywhere in the module; a
private function counts as referenced when its name is read, as a name or
an attribute, or imported anywhere in the package outside its own body, so
that a replaced kernel cannot linger as a second path; a public function
or method counts as read by the same rule, `__init__.py` left out, so that
API that only the tests call moves into the tests; a key of a dict the
package builds counts as read when the package, the benchmark or the tests
read that string as a key (a constant subscript, `.get`, `.pop` or
`.setdefault` of it, `in` or `not in` of it, or a dict display holding it
compared by `==` or `!=`), so that no result is built that nothing reads
(a dict indexed where it is written is a lookup table and is left out);
an option counts as read when its verb's `cmd_*` function reads
`args.<dest>`; an exception class has an exit code when it or a base class
is a key of `cli.EXIT_CODES`.
"""
import argparse
import ast
import graphlib
import importlib
import inspect
import io
import textwrap
import tokenize
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isingdimer"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
LATTICES = ("square", "honeycomb")
# what builds K and P = det K; a verb takes both from characteristic_polynomial
CURVE_BUILDERS = ("kasteleyn_matrix", "lm_determinant")


def unused_imports(source):
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nx = sep\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def own_lattices(source):
    """Names among LATTICES that source defines, at any depth, or imports
    from a module other than isingdimer.lattices."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [n.name]
        elif isinstance(n, ast.ImportFrom) and n.module != "isingdimer.lattices":
            names = [a.name for a in n.names]
        else:
            continue
        out += [name for name in names if name in LATTICES]
    return out


def test_finds_an_own_lattice():
    source = ("from isingdimer.lattices import square\nfrom test_x import honeycomb\n"
              "def f():\n    def square(n):\n        pass\n")
    assert own_lattices(source) == ["honeycomb", "square"]


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_lattices_come_from_the_library(path):
    assert own_lattices(path.read_text()) == []


def curve_builders_used(source):
    """Names among CURVE_BUILDERS that source imports or reads as an
    attribute, at any depth."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            out += [a.name for a in n.names if a.name in CURVE_BUILDERS]
        elif isinstance(n, ast.Attribute) and n.attr in CURVE_BUILDERS:
            out.append(n.attr)
    return out


def test_finds_a_curve_builder():
    source = ("from .spectral import amoeba_sample, kasteleyn_matrix\n"
              "from . import exactalg\ndef f(K):\n    return exactalg.lm_determinant(K)\n")
    assert curve_builders_used(source) == ["kasteleyn_matrix", "lm_determinant"]


def test_cli_takes_k_and_p_from_the_curve():
    assert curve_builders_used((PACKAGE / "cli.py").read_text()) == []


# what carries X through moves by hand; a verb takes it from dimer.XBasis
TRANSPORT_CALLS, TRANSPORT_IMPORTS = ("reroute", "map_face"), ("x_of_cycle",)


def hand_transport(source):
    """Calls of a method among TRANSPORT_CALLS and imports of a name among
    TRANSPORT_IMPORTS in source, at any depth."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            out += [a.name for a in n.names if a.name in TRANSPORT_IMPORTS]
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in TRANSPORT_CALLS):
            out.append(n.func.attr)
    return out


def test_finds_a_hand_transport():
    source = ("from .dimer import XBasis, x_of_cycle\n"
              "def f(rec, c, faces):\n"
              "    return rec.reroute(c), {k: rec.map_face(k) for k in faces}, rec.data\n")
    assert hand_transport(source) == ["x_of_cycle", "reroute", "map_face"]


def test_cli_carries_x_by_the_basis():
    assert hand_transport((PACKAGE / "cli.py").read_text()) == []


def unreferenced_private_functions(sources):
    """Private top-level functions (not dunder) of the given module sources
    whose name nothing reads or imports outside the function itself."""
    defined, read = [], set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append(own)
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names = [n.id]
                elif isinstance(n, ast.Attribute):
                    names = [n.attr]
                elif isinstance(n, ast.ImportFrom):
                    names = [a.name for a in n.names]
                else:
                    continue
                read.update(name for name in names if name != own)
    return [name for name in defined if name not in read]


def test_finds_an_unreferenced_private_function():
    a = ("def _used():\n    pass\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
         "def _gone():\n    pass\n")
    b = "from .a import _used\nimport a\nx = a._used\n"
    assert unreferenced_private_functions([a, b]) == ["_loop", "_gone"]
    assert unreferenced_private_functions([a, "import a\na._gone(a._loop)\n"]) == ["_used"]


def test_private_functions_are_referenced():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


# Library API that no code of the package reads, each with its reason to stay.
KEEP = {
    "spectral.harnack_diagnostic": "the numeric-curve benchmark's harnack step calls it",
    "exactalg.lm_adjugate": "the benchmark's exactalg.adjugate probe calls it",
    "lattices.square": "the tests' one source of square lattices",
    "lattices.honeycomb": "the tests' one source of honeycomb lattices",
    "dimer.MoveRecord.map_face": "the benchmark's move replay carries faces by name with it",
}


def unread_api(sources):
    """module.name of each public top-level function and each non-dunder
    method (module.Class.name) of the {module: source} given whose name
    nothing reads, as a name or an attribute, or imports outside its own
    body."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defs = [(n.name, n) for n in tree.body
                if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
        defs += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)
                 and not (f.name.startswith("__") and f.name.endswith("__"))]
        inside = {id(n): d.name for _, d in defs for n in ast.walk(d)}
        defined += [(f"{module}.{q}", d.name) for q, d in defs]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names = [n.id]
            elif isinstance(n, ast.Attribute):
                names = [n.attr]
            elif isinstance(n, ast.ImportFrom):
                names = [a.name for a in n.names]
            else:
                continue
            read.update(name for name in names if inside.get(id(n)) != name)
    return [q for q, name in defined if name not in read]


def test_finds_unread_api():
    a = ("def used():\n    pass\n\ndef loop(n):\n    return loop(n - 1)\n\n"
         "def _private():\n    used()\n\nclass C:\n    def m(self):\n        return self.m()\n\n"
         "    def spare(self):\n        pass\n\n    def __len__(self):\n        return 0\n")
    assert unread_api({"a": a, "b": "from .a import C\nx = C().spare\n"}) == ["a.loop", "a.C.m"]
    assert unread_api({"a": a, "b": "from .a import loop, m\n"}) == ["a.C.spare"]


def test_library_api_has_readers():
    # __init__.py re-exports are not readers: MODULES leaves it out
    assert sorted(unread_api({p.stem: p.read_text() for p in MODULES})) == sorted(KEEP)


def single_valued_parameters(package, callers):
    """function.parameter for each parameter of a function defined in the
    `package` sources whose values over every call in the `callers` sources
    are all one literal. Calls match by bare name, and a function name
    defined twice is skipped. A call passes a value positionally or by
    keyword; one that leaves the parameter out passes its default, or any
    value if it has *args or **kwargs. `self` and `cls` take none."""
    defs, twice = {}, set()
    for source in package:
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            twice |= {f.name} & defs.keys()
            a = f.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)
            params = (a.posonlyargs + a.args)[id(f) in methods and not static:]
            defaults = {p.arg: d for p, d in zip(reversed(params), reversed(a.defaults))}
            defaults |= {p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults) if d}
            defs[f.name] = ([p.arg for p in params], [p.arg for p in params + a.kwonlyargs],
                            defaults)

    def literal(node):
        try:
            ast.literal_eval(node)
        except ValueError:
            return None     # any value
        return ast.dump(node)

    values = {}
    for source in callers:
        for n in ast.walk(ast.parse(source)):
            name = getattr(n, "func", None)
            name = getattr(name, "id", getattr(name, "attr", None))
            if not isinstance(n, ast.Call) or name not in defs.keys() - twice:
                continue
            positional, params, defaults = defs[name]
            star = any(isinstance(a, ast.Starred) for a in n.args) or any(
                k.arg is None for k in n.keywords)
            given = dict(zip(positional, n.args)) | {k.arg: k.value for k in n.keywords}
            for p in params:
                node = given.get(p, None if star else defaults.get(p))
                values.setdefault(f"{name}.{p}", set()).add(
                    None if node is None or isinstance(node, ast.Starred) else literal(node))
    return sorted(q for q, v in values.items() if len(v) == 1 and None not in v)


def test_finds_a_single_valued_parameter():
    a = ("def f(p, q, var='w', n=3, *, k=None):\n    pass\n\n"
         "class C:\n    def m(self, x, y=1):\n        pass\n\n"
         "def g(a):\n    pass\n\nclass D:\n    def g(self, b):\n        pass\n")
    b = ("f(1, x, 'w')\nf(y, 2, var='w', n=4)\nf(*args, n=3)\n"
         "C().m(2, y=1)\nobj.m(2)\ng(1)\n")
    # f.var: 'w' twice, and any value from *args; f.k: the default None
    # twice, any value once; C.m: self takes none; g is defined twice
    assert single_valued_parameters([a], [a, b]) == ["m.x", "m.y"]
    b = b.replace("*args", "p")
    assert single_valued_parameters([a], [a, b]) == ["f.k", "f.var", "m.x", "m.y"]
    assert single_valued_parameters([a], [a, b, "f(1, 2, **kw)\n"]) == ["m.x", "m.y"]


# Library parameters that every call in the package and the benchmark
# passes one literal value, each with its reason to stay a parameter.
KEEP_PARAMETERS = {}


def test_library_parameters_take_two_values():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    perfbench = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert single_valued_parameters(package, package + perfbench) == sorted(KEEP_PARAMETERS)


def displayed_keys(node):
    """String keys of the dict displays in node, a display itself or a tuple
    or list display holding them, at any depth."""
    if isinstance(node, ast.Dict):
        yield from (k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str))
        items = node.values
    else:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else ()
    for item in items:
        yield from displayed_keys(item)


def key_reads(tree):
    """The string keys that tree reads: a constant subscript, `.get`, `.pop`
    or `.setdefault` with a constant first argument, a constant left of
    `in` or `not in`, and the keys of a dict display compared by `==` or
    `!=` (a whole certificate compared in a test)."""
    def const(n):
        return isinstance(n, ast.Constant) and isinstance(n.value, str)

    for n in ast.walk(tree):
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load) and const(n.slice):
            yield n.slice.value
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and n.func.attr in ("get", "pop", "setdefault") and n.args and const(n.args[0]):
            yield n.args[0].value
        elif isinstance(n, ast.Compare):
            sides = [n.left, *n.comparators]
            for op, left, right in zip(n.ops, sides, sides[1:]):
                if isinstance(op, (ast.In, ast.NotIn)) and const(left):
                    yield left.value
                elif isinstance(op, (ast.Eq, ast.NotEq)):
                    yield from displayed_keys(left)
                    yield from displayed_keys(right)


def unread_result_keys(package, readers):
    """String keys of the dict displays in the `package` sources that no
    source of `package` or `readers` reads (key_reads). A dict display
    indexed in place, by `[...]` or `.get(...)`, is a lookup table and is
    skipped."""
    written, read = set(), set()
    for source in package + readers:
        read.update(key_reads(ast.parse(source)))
    for source in package:
        tree = ast.parse(source)
        tables = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Subscript)
                  or (isinstance(n, ast.Attribute) and n.attr == "get")}
        written.update(k.value for n in ast.walk(tree)
                       if isinstance(n, ast.Dict) and id(n) not in tables
                       for k in n.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return sorted(written - read)


def test_finds_an_unread_result_key():
    a = ("def f(x):\n    return {'kept': x, 'spare': x, 'twice': x}\n\n"
         "def g(x):\n    return {'twice': x}, {'k': 1}['k'], {'t': 2}.get(x)\n")
    # 'k' and 't' key lookup tables; 'twice' is written twice and read nowhere
    assert unread_result_keys([a], ["r = f(1)['kept']\n"]) == ["spare", "twice"]
    assert unread_result_keys([a], ["r = f(1)\nr['kept'], r.get('twice'), r['spare']\n"]) == []
    assert unread_result_keys([a], ["r = f(1)\nr.pop('kept'), r.setdefault('twice', 0)\n",
                                    "assert 'spare' not in f(1)\n"]) == []
    assert unread_result_keys([a], ["assert (f(1), 2) == ({'kept': 1, 'spare': 1}, 2)\n",
                                    "assert g(1)[0] != {'twice': 1}\n"]) == []
    # a store is not a read
    assert unread_result_keys([a], ["r = f(1)\nr['kept'] = r['spare'] = r['twice'] = 0\n"]) \
        == ["kept", "spare", "twice"]


def test_a_string_elsewhere_is_not_a_read():
    # 'vertex' also names a slot and another dict's key, and neither reads it
    a = ("class Dart:\n    __slots__ = ('vertex', 'edge')\n\n"
         "def move(g, v):\n    return {'vertex': v, 'edge': g}\n")
    assert unread_result_keys([a], ["table = {'vertex': 1}\nrec = move(1, 2)['edge']\n"]) \
        == ["vertex"]


def test_library_results_have_readers():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py")) + TESTS]
    assert unread_result_keys(package, readers) == []


def package_references(source):
    """(module, name, call) for each reference of source into the package:
    `lib.<module>.<name>`, `<module>.<name>` for a module bound by `from
    isingdimer import <module>`, and `<name>` bound by `from
    isingdimer.<module> import <name>`. call is the ast.Call whose function
    the reference is, or None."""
    tree = ast.parse(source)
    modules, names = {}, {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "isingdimer":
            modules |= {a.asname or a.name: a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("isingdimer."):
            names |= {a.asname or a.name: (n.module.split(".")[1], a.name) for a in n.names}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in names:
            target = names[n.id]
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and (
                n.value.id in modules):
            target = (modules[n.value.id], n.attr)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
              and isinstance(n.value.value, ast.Name) and n.value.value.id == "lib"):
            target = (n.value.attr, n.attr)
        else:
            continue
        out.append((*target, calls.get(id(n))))
    return out


def returned_tuple_lengths(fn):
    """Lengths of the tuple displays, without a starred item, that the
    return statements of fn's own body return; nested functions left out."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    nested = {id(m) for d in ast.walk(tree) if d is not tree and isinstance(
        d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) for m in ast.walk(d)}
    return {len(n.value.elts) for n in ast.walk(tree)
            if isinstance(n, ast.Return) and id(n) not in nested and isinstance(n.value, ast.Tuple)
            and not any(isinstance(e, ast.Starred) for e in n.value.elts)}


def broken_package_references(source):
    """`module.name` for each reference of package_references(source) that
    the package does not define; `module.name(...)` at line k for each call
    whose arguments do not bind to the signature, a call with *args or
    **kwargs binding; and `module.name(...)` at line k unpacked into m names
    for each assignment that unpacks a call of a package function into m
    names where the function returns a tuple of another length."""
    unpacked = {(n.value.lineno, n.value.col_offset): len(n.targets[0].elts)
                for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assign)
                and len(n.targets) == 1 and isinstance(n.targets[0], (ast.Tuple, ast.List))
                and not any(isinstance(e, ast.Starred) for e in n.targets[0].elts)}
    out = []
    for module, name, call in package_references(source):
        fn = getattr(importlib.import_module(f"isingdimer.{module}"), name, None)
        if fn is None:
            out.append(f"{module}.{name}")
            continue
        if call is not None and not any(isinstance(a, ast.Starred) for a in call.args) and all(
                k.arg for k in call.keywords):
            try:
                inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError:
                out.append(f"{module}.{name}(...) at line {call.lineno}")
        names = unpacked.get((call.lineno, call.col_offset)) if call is not None else None
        if names and inspect.isfunction(fn) and returned_tuple_lengths(fn) - {names}:
            out.append(f"{module}.{name}(...) at line {call.lineno} unpacked into {names} names")
    return out


def unresolved_targets(source):
    """`module:attribute` of each entry of source's TARGETS (module,
    attribute or Class.method, ...) that Tracer._patches would not find:
    a module outside source's MODULES, or an attribute the module, or a
    method the class's own __dict__, does not hold."""
    assigned = {t.id: n.value for n in ast.parse(source).body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    modules = ast.literal_eval(assigned["MODULES"])
    out = []
    for entry in assigned["TARGETS"].elts:
        module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        space = vars(importlib.import_module(f"isingdimer.{module}")) if module in modules else {}
        cls, _, name = attr.rpartition(".")
        if cls:
            space = vars(space[cls]) if cls in space else {}
        if name not in space:
            out.append(f"{module}:{attr}")
    return out


def test_finds_broken_benchmark_calls():
    source = ("from isingdimer import spectral\nfrom isingdimer.dimer import square_move\n"
              "MODULES = ('spectral', 'torusgraph')\n"
              "TARGETS = [('spectral', 'harnack_diagnostic', 'h', None),\n"
              "           ('spectral', 'amoeba', 'a', None),\n"
              "           ('dimer', 'square_move', 's', None),\n"
              "           ('torusgraph', 'TorusGraph.validate', 'v', None),\n"
              "           ('torusgraph', 'TorusGraph.split', 'v', None)]\n"
              "def f(lib, P, g):\n"
              "    spectral.harnack_diagnostic(P, theta_steps=45)\n"
              "    lib.exactalg.resultant_eliminate(P, P, 'w')\n"
              "    lib.exactalg.resultant_eliminate(*P)\n"
              "    square_move(g)\n"
              "    return lib.spectral.kasteleyn_matrix, lib.spectral.amoeba\n")
    # a *args call binds whatever it holds
    assert broken_package_references(source) == [
        "spectral.harnack_diagnostic(...) at line 10",
        "exactalg.resultant_eliminate(...) at line 11", "dimer.square_move(...) at line 13",
        "spectral.amoeba"]
    assert unresolved_targets(source) == [
        "spectral:amoeba", "dimer:square_move", "torusgraph:TorusGraph.split"]


def test_finds_a_wrong_unpack():
    # basis_x_values returns two values, square_move three; a starred
    # target and a call that is not unpacked take any number
    source = ("from isingdimer import dimer\nfrom isingdimer.dimer import square_move\n"
              "def f(lib, g, wt):\n"
              "    values, omitted, extra = lib.dimer.basis_x_values(g, wt)\n"
              "    before, _ = dimer.basis_x_values(g, wt)\n"
              "    g, wt, rec = square_move(g, wt, 'f0')\n"
              "    g, *rest = square_move(g, wt, 'f0')\n"
              "    return square_move(g, wt, 'f1')\n")
    assert broken_package_references(source) == [
        "dimer.basis_x_values(...) at line 4 unpacked into 3 names"]


def test_benchmark_calls_bind_to_the_library():
    spans, ops = ((PERFBENCH / name).read_text() for name in ("spans.py", "ops.py"))
    assert broken_package_references(spans) + broken_package_references(ops) == []
    assert unresolved_targets(spans) == []


def unread_options(parser, source):
    """(verb, dest) for every option or positional that a subparser of
    `parser` registers and that its verb's function, defined in `source`
    and set as the subparser's `fn` default, never reads as `args.<dest>`."""
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for verb, p in sub.choices.items():
        fn = functions[p.get_default("fn").__name__]
        read = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        out += [(verb, a.dest) for a in p._actions
                if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    return out


def test_finds_an_unread_option():
    source = "def cmd_x(args):\n    return args.graph + args.out\n"

    def cmd_x(args):
        pass

    top = argparse.ArgumentParser()
    p = top.add_subparsers().add_parser("x")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=cmd_x)
    assert unread_options(top, source) == [("x", "tol")]


def test_every_cli_option_is_read():
    from isingdimer.cli import build_parser
    assert unread_options(build_parser(), (PACKAGE / "cli.py").read_text()) == []


# What a TorusGraph holds. A graph is not changed after it is built, so that
# an edit and a colour swap may share these dicts with their input: package
# code writes into them only in the methods that build a graph, into self,
# and in edit and color_swapped, into the new graph they made.
GRAPH_DATA = ("darts", "edge_ends", "rotation", "_next", "_prev", "colors", "positions")
GRAPH_BUILDERS = ("__init__", "add_vertex", "add_edge", "set_rotation", "freeze", "_link")
GRAPH_COPIERS = ("edit", "color_swapped")
MUTATORS = ("append", "clear", "extend", "insert", "pop", "popitem", "remove", "reverse",
            "setdefault", "sort", "update")


def graph_writes(source):
    """`function:line` of each write into a graph's GRAPH_DATA in source
    outside its building: a store or del of an item of `x.<data>`, of an
    item of it (a rotation list) or of a local name bound to either, a call
    of a MUTATORS method on them, and a rebinding of `x.<data>`. A method of
    TorusGraph among GRAPH_BUILDERS may write into self, and one among
    GRAPH_COPIERS into any graph but self; nested functions count as their
    enclosing function."""
    tree = ast.parse(source)
    functions = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)]
    functions += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    out = []
    for name, fn in functions:
        aliases = {}

        def base(node):
            """The graph whose data node is, unparsed, or None."""
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
            if isinstance(node, ast.Attribute) and node.attr in GRAPH_DATA:
                return ast.unparse(node.value)
            return base(node.value) if isinstance(node, ast.Subscript) else None

        def pairs(target, value):
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, (ast.Tuple, ast.List)) \
                    and len(target.elts) == len(value.elts):
                for t, v in zip(target.elts, value.elts):
                    yield from pairs(t, v)
            else:
                yield target, value

        assigns = [n for n in ast.walk(fn) if isinstance(n, ast.Assign)]
        for _ in assigns:       # aliases of aliases, to a fixed point
            for n in assigns:
                for target, value in ((t, v) for tg in n.targets for t, v in pairs(tg, n.value)):
                    if isinstance(target, ast.Name) and base(value) is not None:
                        aliases[target.id] = base(value)
        writes = []
        for n in ast.walk(fn):
            targets = (n.targets if isinstance(n, (ast.Assign, ast.Delete)) else
                       [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])
            while any(isinstance(t, (ast.Tuple, ast.List, ast.Starred)) for t in targets):
                targets = [e for t in targets for e in (
                    t.elts if isinstance(t, (ast.Tuple, ast.List)) else
                    [t.value] if isinstance(t, ast.Starred) else [t])]
            for t in targets:
                if isinstance(t, ast.Subscript) and base(t.value) is not None:
                    writes.append((base(t.value), t.lineno))
                elif isinstance(t, ast.Attribute) and t.attr in GRAPH_DATA:
                    writes.append((ast.unparse(t.value), t.lineno))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr in MUTATORS and base(n.func.value) is not None:
                writes.append((base(n.func.value), n.lineno))
        method = name.partition("TorusGraph.")[2]
        out += [f"{name}:{line}" for graph, line in writes
                if not (method in GRAPH_BUILDERS and graph == "self")
                and not (method in GRAPH_COPIERS and graph != "self")]
    return sorted(set(out), key=lambda w: int(w.rpartition(":")[2]))


def test_finds_a_graph_write():
    source = ("class TorusGraph:\n"
              "    def add_vertex(self, v):\n"
              "        self.colors[v] = 'n'\n"
              "    def edit(self, v):\n"
              "        g = TorusGraph()\n"
              "        g.colors, rot = self.colors.copy(), self.rotation\n"
              "        g.colors[v] = 'b'\n"
              "        rot[v].append(v)\n"
              "    def faces(self):\n"
              "        self._faces = []\n"
              "        self.positions = {}\n"
              "def move(g, v):\n"
              "    darts, here = g.darts, [v]\n"
              "    ds = darts\n"
              "    del ds[v]\n"
              "    here.append(v)\n"
              "    g.rotation[v][0] += 1\n"
              "    def inner():\n"
              "        g.colors.update({v: 'w'})\n"
              "    return g.colors.get(v), sorted(g.rotation[v])\n")
    # edit may write into g, not into self; caches are not graph data
    assert graph_writes(source) == ["TorusGraph.edit:8", "TorusGraph.faces:11", "move:15",
                                    "move:17", "move:19"]


def test_graphs_are_written_only_while_built():
    assert {p.name: graph_writes(p.read_text()) for p in MODULES} == {p.name: [] for p in MODULES}


# The one maker of darts. add_edge makes an edge's two darts from one ends
# tuple, so each dart's twin exists, with swapped ends and the negated
# displacement; no run-time check repeats that.
DART_MAKER = "TorusGraph.add_edge"


def scope_owners(tree):
    """{id(node): Class.method or function} for the nodes of the module
    tree inside a top-level class's method or a top-level function (nested
    functions count as their enclosing one)."""
    scopes = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
              for f in c.body if isinstance(f, ast.FunctionDef)]
    scopes += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    return {id(n): name for name, f in scopes for n in ast.walk(f)}


def dart_makers(source):
    """`where:line` of each reference to the name Dart in source outside
    DART_MAKER: a call, an alias, an attribute `.Dart` or an import of it.
    where is Class.method or function for code in a top-level class or
    function (nested functions count as their enclosing one), else
    <module>."""
    tree = ast.parse(source)
    owner = scope_owners(tree)
    out = []
    for n in ast.walk(tree):
        named = (getattr(n, "id", None) == "Dart" if isinstance(n, ast.Name) else
                 n.attr == "Dart" if isinstance(n, ast.Attribute) else
                 any(a.name == "Dart" for a in n.names) if isinstance(n, ast.ImportFrom) else False)
        where = owner.get(id(n), "<module>")
        if named and where != DART_MAKER:
            out.append(f"{where}:{n.lineno}")
    return out


def test_finds_a_dart_maker():
    source = ("from .torusgraph import Dart\n"
              "class Dart:\n"
              "    def __repr__(self):\n"
              "        return 'Dart()'\n"
              "class TorusGraph:\n"
              "    def add_edge(self, e):\n"
              "        self.darts[e] = Dart(e)\n"
              "    def edit(self, e):\n"
              "        make = Dart\n"
              "        return make(e)\n"
              "def move(g, m):\n"
              "    def inner():\n"
              "        return m.Dart(1)\n"
              "    return Dart(g)\n")
    # the class statement and a string do not name it; add_edge may
    assert sorted(dart_makers(source), key=lambda w: int(w.rpartition(":")[2])) == [
        "<module>:1", "TorusGraph.edit:9", "move:13", "move:14"]


def test_only_add_edge_makes_darts():
    assert {p.name: dart_makers(p.read_text()) for p in MODULES} == {p.name: [] for p in MODULES}


# The one maker of a LaurentPoly2 that skips its constructor's checks: the
# numeric read-out, whose terms are int exponents with nonzero float or
# complex coefficients by construction.
UNCHECKED_MAKER = "exactalg._interpolate"


def unchecked_makers(module, source):
    """`module.where:line` of each `__new__` attribute in source outside
    UNCHECKED_MAKER, such as `LaurentPoly2.__new__(LaurentPoly2)`, which
    makes an object without running its __init__; where as in
    dart_makers."""
    tree = ast.parse(source)
    owner = scope_owners(tree)
    return [f"{module}.{owner.get(id(n), '<module>')}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "__new__"
            and f"{module}.{owner.get(id(n))}" != UNCHECKED_MAKER]


def test_finds_an_unchecked_maker():
    source = ("make = LaurentPoly2.__new__\n"
              "class LaurentPoly2:\n"
              "    def sigma(self):\n"
              "        return object.__new__(LaurentPoly2)\n"
              "def _interpolate(values):\n"
              "    def one():\n"
              "        return LaurentPoly2.__new__(LaurentPoly2)\n"
              "    return one()\n"
              "def _sample_grid(a):\n"
              "    return LaurentPoly2.__new__(LaurentPoly2)\n")
    assert sorted(unchecked_makers("exactalg", source)) == [
        "exactalg.<module>:1", "exactalg.LaurentPoly2.sigma:4", "exactalg._sample_grid:10"]
    assert sorted(unchecked_makers("divisor", source)) == [
        "divisor.<module>:1", "divisor.LaurentPoly2.sigma:4", "divisor._interpolate:7",
        "divisor._sample_grid:10"]


def test_polys_skip_their_checks_only_in_the_read_out():
    found = {p.stem: unchecked_makers(p.stem, p.read_text()) for p in MODULES}
    assert found == {p.stem: [] for p in MODULES}
    assert "LaurentPoly2.__new__(LaurentPoly2)" in inspect.getsource(
        importlib.import_module("isingdimer.exactalg")._interpolate)


# The one opener of a path for writing: the CLI's output writer, which
# overwrites an existing file in place instead of truncating it first
# (README, command line). A second writer would bring the truncate back.
PATH_WRITER = "cli._emit"


def path_writers(module, source):
    """`module.where:line` of each call in source outside PATH_WRITER that
    opens a path for writing; where as in dart_makers. That is the builtin
    `open` with a mode holding w, a, x or + or a mode that is not a string
    literal, any `os.open`, an `.open` method with such a literal mode
    (`Path.open`, `io.open`), and `.write_text` or `.write_bytes`."""
    def writes(mode):
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value).isdisjoint("wax+"))

    tree = ast.parse(source)
    owner = scope_owners(tree)
    out = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f, kw = n.func, [k.value for k in n.keywords if k.arg == "mode"]
        if isinstance(f, ast.Name):
            found = f.id == "open" and any(writes(m) for m in n.args[1:2] + kw)
        elif isinstance(f, ast.Attribute):
            found = (f.attr in ("write_text", "write_bytes")
                     or f.attr == "open" and (getattr(f.value, "id", None) == "os" or any(
                         isinstance(m, ast.Constant) and writes(m) for m in n.args[:2] + kw)))
        else:
            found = False
        where = f"{module}.{owner.get(id(n), '<module>')}"
        if found and where != PATH_WRITER:
            out.append(f"{where}:{n.lineno}")
    return out


def test_finds_a_path_writer():
    source = ("import os\n"
              "def read(p):\n"
              "    with open(p) as fh, open(p, 'rb') as fb, p.open() as fp:\n"
              "        return fh.read(), fb.read(), fp.read(), open(p, mode='r')\n"
              "def write(p, t, m):\n"
              "    open(p, 'w').write(t)\n"
              "    open(p, mode='a+')\n"
              "    open(p, m)\n"
              "    os.open(p, os.O_RDONLY)\n"
              "    p.write_text(t)\n"
              "    p.open('xb')\n"
              "def _emit(text, p):\n"
              "    return open(os.open(p, os.O_WRONLY), 'w')\n"
              "class C:\n"
              "    def m(self, p):\n"
              "        p.write_bytes(b'')\n")
    assert sorted(path_writers("cli", source), key=lambda w: int(w.rpartition(":")[2])) == [
        "cli.write:6", "cli.write:7", "cli.write:8", "cli.write:9", "cli.write:10",
        "cli.write:11", "cli.C.m:16"]
    # elsewhere _emit may not: its os.open and its open(fd, 'w') count
    found = path_writers("spectral", source)
    assert len(found) == 9 and found.count("spectral._emit:13") == 2


def test_only_emit_opens_paths_for_writing():
    found = {p.stem: path_writers(p.stem, p.read_text()) for p in PACKAGE.glob("*.py")}
    assert found == {p.stem: [] for p in PACKAGE.glob("*.py")}


# Errors that only a bug in the package can raise, so a traceback is the
# right report; no input reaches them. Each with its reason.
MISUSE_ERRORS = {
    "ModeError": "an operation mixes exact and numeric operands; each verb picks one mode",
    "DimensionError": "matrix shapes come from the graph's own colour classes",
}


def unmapped_errors(modules, exit_codes):
    """Names of the Exception subclasses defined in `modules` that are not a
    key of exit_codes, a subclass of one, or in MISUSE_ERRORS."""
    return [name for mod in modules for name, obj in vars(mod).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == mod.__name__
            and not issubclass(obj, tuple(exit_codes)) and name not in MISUSE_ERRORS]


def test_finds_an_unmapped_error():
    mod = types.ModuleType("fake")
    exec("class Mapped(ValueError): pass\n"
         "class Derived(Mapped): pass\n"
         "class Unmapped(ValueError): pass\n"
         "class ModeError(TypeError): pass\n", vars(mod))
    assert unmapped_errors([mod], {mod.Mapped: 2}) == ["Unmapped"]


def test_every_error_has_an_exit_code():
    from isingdimer.cli import EXIT_CODES
    modules = [importlib.import_module(f"isingdimer.{p.stem}") for p in MODULES]
    assert unmapped_errors(modules, EXIT_CODES) == []


# The parser keeps a module's tokens in an array that doubles past 8192
# entries: compiling a module with more tokens peaks about 0.5 MB higher,
# and without bytecode caching that compile is part of the peak memory of
# every run that imports the package.
TOKEN_LIMIT = 8192


def parser_tokens(source):
    """Tokens the parser sees: tokenize's tokens without COMMENT and NL."""
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(source).readline)
               if t.type not in (tokenize.COMMENT, tokenize.NL))


def test_counts_parser_tokens():
    # x = 1 NEWLINE, y = ( 2 , 3 ) NEWLINE, ENDMARKER; the comment, the
    # blank line and the line break inside the brackets do not count
    assert parser_tokens("x = 1  # one\n\ny = (2,\n     3)\n") == 13


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_below_token_limit(path):
    assert parser_tokens(path.read_text()) < TOKEN_LIMIT


def package_imports(source):
    """Modules of the package that source imports, at any depth: by
    `from .x import`, `from . import x`, `import isingdimer.x` and
    `from isingdimer.x import`."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            top, _, mod = (n.module or "").partition(".")
            if n.level:
                mod = top
            elif top != "isingdimer":
                continue
            out |= {mod.split(".")[0]} if mod else {a.name for a in n.names}
        elif isinstance(n, ast.Import):
            out |= {a.name.split(".")[1] for a in n.names if a.name.startswith("isingdimer.")}
    return out


def import_cycle(graph):
    """A cycle [m, ..., m] of graph {module: modules it imports}, or []."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_finds_an_import_cycle():
    sources = {"a": "from .b import f\nimport math\n",
               "b": "def f():\n    import isingdimer.c.sub\n",
               "c": "from . import a\nfrom isingdimer.d import g\n", "d": ""}
    graph = {m: package_imports(src) for m, src in sources.items()}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": set()}
    cycle = import_cycle(graph)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]
    assert import_cycle({**graph, "c": {"d"}}) == []


def test_package_imports_run_one_way():
    graph = {p.stem: package_imports(p.read_text()) for p in MODULES}
    assert import_cycle(graph) == []
    assert graph["divisor"] == {"exactalg"}
    assert "ising" not in graph["dimer"]
