import contextlib
import functools
import io
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

import isingdimer
from isingdimer import cli
from isingdimer.cli import build_parser, main
from isingdimer.dimer import XBasis
from isingdimer.ising import IsingModel, make_coupling, to_dimer, y_delta
from isingdimer.lattices import honeycomb, square
from isingdimer.torusgraph import TorusGraph, parse_torus_graph, serialize_torus_graph

from conftest import DIMER_FIXTURE, ISING_FIXTURE, gauge_transform, uncontraction_move
from test_torusgraph import doubled


GADGET_MAP = """gadget-map v1
square 1 f2
square 2 f3
partner w1 b4
partner w2 b3
partner w3 b2
partner w4 b1
"""


@pytest.fixture
def files(tmp_path):
    gp = tmp_path / "dimer.tg"
    gp.write_text(DIMER_FIXTURE)
    ip = tmp_path / "ising.tg"
    ip.write_text(ISING_FIXTURE)
    gm = tmp_path / "gm.txt"
    gm.write_text(GADGET_MAP)
    return tmp_path, str(gp), str(ip), str(gm)


def run_main(*args, capsys=None):
    code = main(list(args))
    return code


class TestExitCodes:
    def test_verify_ising_passes(self, files, capsys):
        _, gp, _, gm = files
        code = main(["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm, "--sign", "++"])
        out = capsys.readouterr().out
        assert code == 0
        assert "divisor D_w (13/20,52/25)x1" in out
        assert "condition weight-mutation pass" in out

    def test_perturbed_weight_fails(self, files, tmp_path, capsys):
        _, gp, _, gm = files
        bad = DIMER_FIXTURE.replace("weight e5 1", "weight e5 2")
        bp = tmp_path / "bad.tg"
        bp.write_text(bad)
        code = main(["verify-ising", str(bp), "--vertex", "w2", "--gadget-map", gm])
        assert code == 1

    def test_gadget_squares_sharing_a_corner_exit_2(self, files, tmp_path, capsys):
        # the worked example after one square move at its first quad, with
        # a gadget map naming f1 and f2, which then share a corner: mu is
        # not one move there, and the batch move names the faces
        _, _, ip, _ = files
        dp, gm, mp = (str(tmp_path / n) for n in ("dimer.tg", "gm.txt", "moved.tg"))
        assert main(["todimer", ip, "--out", dp, "--gadget-map", gm]) == 0
        (tmp_path / "s.txt").write_text("move square f=f1\n")
        assert main(["move", dp, "--script", str(tmp_path / "s.txt"), "--out", mp]) == 0
        lines = [x for x in open(gm).read().splitlines() if not x.startswith("square")]
        (tmp_path / "gm.txt").write_text("\n".join(lines + ["square 1 f1", "square 2 f2"]) + "\n")
        capsys.readouterr()
        assert main(["verify-ising", mp, "--vertex", "W_n_0", "--gadget-map", gm]) == 2
        assert capsys.readouterr() == ("", "error: square faces f1 and f2 share the corner W_n_1\n")

    def test_malformed_rot_exits_2(self, files, tmp_path, capsys):
        bad = DIMER_FIXTURE.replace("rot b1 e9 e8 e7", "rot b1 e9 e8 nosuch")
        bp = tmp_path / "bad.tg"
        bp.write_text(bad)
        code = main(["inspect", str(bp)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["inspect", "/nonexistent/file.tg"]) == 2

    @pytest.mark.parametrize("verb", ["divisor", "amoeba", "verify-ising"])
    def test_unknown_vertex_exits_2(self, files, verb, capsys):
        _, gp, _, gm = files
        extra = ["--gadget-map", gm] if verb == "verify-ising" else []
        assert main([verb, gp, "--vertex", "nope"] + extra) == 2
        assert capsys.readouterr().err == "error: unknown vertex nope\n"

    @pytest.mark.parametrize("argv,message", [
        (["abel", "--window", "-1"], "--window must be at least 0, got -1"),
        (["amoeba", "--grid", "0"], "--grid must be at least 1, got 0"),
        (["amoeba", "--grid", "-3"], "--grid must be at least 1, got -3"),
        (["amoeba", "--range", "nan"], "--range must be in (0, 709.782712893384], got nan"),
        (["amoeba", "--range", "inf"], "--range must be in (0, 709.782712893384], got inf"),
        (["amoeba", "--range", "1e6"], "--range must be in (0, 709.782712893384], got 1000000.0"),
        (["amoeba", "--range", "0"], "--range must be in (0, 709.782712893384], got 0.0"),
        (["amoeba", "--range=-1"], "--range must be in (0, 709.782712893384], got -1.0"),
    ], ids=["window", "grid 0", "grid negative", "range nan", "range inf", "range overflow",
            "range 0", "range negative"])
    def test_out_of_range_size_exits_2(self, files, argv, message, capsys):
        _, gp, _, _ = files
        assert main([argv[0], gp] + argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("verb", ["amoeba", "divisor", "verify-ising"])
    def test_bad_tol_exits_2_before_reading_the_graph(self, tmp_path, verb, tol, capsys):
        # the graph file does not exist: the --tol error comes first
        extra = {"divisor": ["--vertex", "w2"],
                 "verify-ising": ["--vertex", "w2", "--gadget-map", "gm.txt"]}.get(verb, [])
        assert main([verb, str(tmp_path / "missing.tg"), f"--tol={tol}"] + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --tol must be finite and greater than 0, got {float(tol)}\n"

    @pytest.mark.parametrize("verb", ["inspect", "todimer"])
    def test_disconnected_graph_exits_2(self, tmp_path, verb, capsys):
        from test_torusgraph import disjoint_union
        g = disjoint_union(square(1, 1), square(1, 1))
        coup = {e: {"s": Fraction(4, 5), "c": Fraction(3, 5)} for e in g.edges()}
        path = tmp_path / "two.tg"
        path.write_text(serialize_torus_graph(g, couplings=coup))
        assert main([verb, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: graph is not connected: 2 components\n"

    def test_parity_obstruction_exits_2(self, tmp_path, capsys):
        from test_spectral import PARITY_OBSTRUCTED
        path = tmp_path / "octagon.tg"
        path.write_text(PARITY_OBSTRUCTED)
        assert main(["charpoly", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Kasteleyn sign system is inconsistent (parity obstruction)\n"

    def test_abel_of_uncolored_graph_exits_2(self, files, capsys):
        _, _, ip, _ = files
        assert main(["abel", ip]) == 2
        assert capsys.readouterr().err == \
            "error: the discrete Abel map needs a bipartite graph\n"

    def test_abel_of_reflected_marking_exits_1(self, tmp_path, capsys):
        # the swap of x and y reverses the orientation of the marking; the
        # check sees it whatever the window
        from test_ising import reference_apply_lattice_map
        g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
        bad = tmp_path / "swapped.tg"
        bad.write_text(serialize_torus_graph(reference_apply_lattice_map(g, ((0, 1), (1, 0))),
                                             wt))
        for window in ("0", "2"):
            assert main(["abel", str(bad), "--window", window]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: Abel labels inconsistent across edge e")
            assert err.count("\n") == 1

    def test_fibres_outside_the_float_range_exit_1(self, tmp_path, capsys):
        # P has degree 2 in z: e^525 is a float, e^1050 is not
        gp, _, _ = _gadget(tmp_path, square(2, 2), [Fraction(k, 2 * k + 1) for k in range(1, 9)])
        capsys.readouterr()
        assert main(["amoeba", gp, "--range", "700", "--grid", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fibre coefficients of P are not finite at |log|z|| = 525\n"

    def test_vertex_without_partner_exits_2(self, files, capsys):
        _, gp, _, gm = files
        assert main(["verify-ising", gp, "--vertex", "b3", "--gadget-map", gm]) == 2
        assert capsys.readouterr().err.startswith("error: vertex b3 ")

    def test_script_token_without_equals_exits_2(self, files, tmp_path, capsys):
        _, gp, _, _ = files
        script = tmp_path / "bad.txt"
        script.write_text("move square f\n")
        assert main(["move", gp, "--script", str(script)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: script line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line,message", [
        ("move square", "move square needs f=<face>"),
        ("move square v=f2", "move square needs f=<face>"),
        ("move contract", "move contract needs v=<vertex>"),
    ])
    def test_move_without_its_option_exits_2(self, files, tmp_path, capsys, line, message):
        _, gp, _, _ = files
        script = tmp_path / "bad.txt"
        script.write_text(line + "\n")
        assert main(["move", gp, "--script", str(script)]) == 2
        assert capsys.readouterr().err == f"error: script line 1: {message}\n"

    @pytest.mark.parametrize("script,message", [
        ("move color\nmove contract v=nope\n", "script line 2: unknown vertex nope"),
        ("move square f=f2 f=f3\n", "script line 1: repeated key 'f'"),
        ("move color\nsquare f=f2\n", "script line 2: expected 'move ...'"),
        ("move twist\n", "script line 1: unknown move 'twist'"),
        ("move color f=f1\n", "script line 1: move color takes no key 'f'"),
        ("move color =f1\n", "script line 1: move color takes no key ''"),
        ("move color\nmove square f=f3 g=7\n", "script line 2: move square takes no key 'g'"),
        ("move contract v=b1 f=f2\n", "script line 1: move contract takes no key 'f'"),
    ], ids=["unknown vertex", "repeated key", "not a move", "unknown move", "color with a key",
            "color with an empty key", "square with a second key", "contract with a second key"])
    def test_bad_move_script_exits_2(self, files, tmp_path, capsys, script, message):
        _, gp, _, _ = files
        path = tmp_path / "bad.txt"
        path.write_text(script)
        assert main(["move", gp, "--script", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("before", ["", "move square f=f2\n", "move color\n"],
                             ids=["first line", "after a square move", "after a colour change"])
    @pytest.mark.parametrize("fid", ["f03", "f-1", "f1.0", "F1", "f", "f4"])
    def test_unknown_face_exits_2(self, files, tmp_path, capsys, before, fid):
        # the dimer fixture has faces f0 to f3 before and after each move,
        # so f4 is one past the last
        _, gp, _, _ = files
        path = tmp_path / "bad.txt"
        path.write_text(before + f"move square f={fid}\n")
        assert main(["move", gp, "--script", str(path)]) == 2
        no = before.count("\n") + 1
        assert capsys.readouterr() == ("", f"error: script line {no}: unknown face {fid}\n")

    def test_move_makes_one_basis(self, files, tmp_path, monkeypatch):
        # the basis of the before-values is the one carried through the moves
        _, gp, _, _ = files
        path = tmp_path / "ok.txt"
        path.write_text("move square f=f2\nmove color\n")
        made = []
        of = XBasis.of.__func__
        monkeypatch.setattr(XBasis, "of", classmethod(lambda cls, g: made.append(g) or of(cls, g)))
        assert main(["move", gp, "--script", str(path), "--out", str(tmp_path / "out.tg")]) == 0
        assert len(made) == 1

    def test_key_error_in_a_move_keeps_its_traceback(self, files, tmp_path, monkeypatch):
        # every key of a script line is checked before use, so a KeyError
        # inside a move is a bug, not an input error
        import isingdimer.cli

        def broken(g, wt, fid):
            raise KeyError("e9+")

        _, gp, _, _ = files
        path = tmp_path / "ok.txt"
        path.write_text("move square f=f2\n")
        monkeypatch.setattr(isingdimer.cli, "square_move", broken)
        with pytest.raises(KeyError, match="e9"):
            main(["move", gp, "--script", str(path)])

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000) "
                     "and data type float64"),
         "Unable to allocate 149. GiB for an array with shape (100000, 100000) and data type "
         "float64"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy message", "no message"])
    def test_out_of_memory_exits_1(self, files, monkeypatch, capsys, exc, message):
        # a grid too large for memory is a computation that cannot finish on
        # this input; the sample is not allocated here, its failure is faked
        import isingdimer.cli

        def no_memory(*args, **kwargs):
            raise exc

        _, gp, _, _ = files
        monkeypatch.setattr(isingdimer.cli, "amoeba_sample", no_memory)
        assert main(["amoeba", gp, "--grid", "100000"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv,graph,message", [
        (["charpoly", "--mode", "exact"],
         DIMER_FIXTURE.replace("weight e5 1\n", "weight e5 1.5\n"),
         "exact mode needs rational weights throughout"),
        (["verify-ising", "--vertex", "w2"], DIMER_FIXTURE, "verify-ising needs --gadget-map"),
    ], ids=["exact mode float weight", "verify-ising without gadget map"])
    def test_missing_input_exits_2(self, tmp_path, argv, graph, message, capsys):
        gp = tmp_path / "graph.tg"
        gp.write_text(graph)
        assert main([argv[0], str(gp)] + argv[1:]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_exact_x_outside_the_float_range_fails_the_nu_condition(self, files, tmp_path,
                                                                      capsys):
        # the X values of two sides are near 10^-400 and 10^400: Fractions
        # sorted exactly, not as floats
        _, _, _, gm = files
        gp = tmp_path / "tiny.tg"
        gp.write_text(DIMER_FIXTURE.replace("weight e1 1\n", f"weight e1 1/{10 ** 400}\n"))
        assert main(["verify-ising", str(gp), "--vertex", "w2", "--gadget-map", gm]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "condition nu-involution FAIL\n" in out
        assert "\nresiduals (-1, -1) (1, 1)\n" in out

    @pytest.mark.parametrize("verb", [["todimer"], ["dual"], ["ydelta", "--site", "n"]],
                             ids=["todimer", "dual", "ydelta"])
    @pytest.mark.parametrize("bad,message", [
        ("coupling 1 sc=1/2,1/2", "error: s^2 + c^2 = 1/2 != 1\n"),
        ("coupling 1 J=-1", "error: J must be positive\n"),
        ("", "error: edges without couplings: ['1']\n"),
    ], ids=["sc", "J", "missing"])
    def test_bad_coupling_exits_2(self, tmp_path, verb, bad, message, capsys):
        ip = tmp_path / "bad.tg"
        ip.write_text(ISING_FIXTURE.replace("coupling 1 sc=4/5,3/5", bad))
        assert main([verb[0], str(ip)] + verb[1:]) == 2
        assert capsys.readouterr().err == message


# line number of a line appended to the dimer (Ising) fixture
_NEW = DIMER_FIXTURE.count("\n") + 1
_NEW_ISING = ISING_FIXTURE.count("\n") + 1


class TestInputValidation:
    """Each malformed input exits 2 with one `error:` line that names the
    offending line by its number."""

    @pytest.mark.parametrize("text,message", [
        (DIMER_FIXTURE.replace("torus-graph v1", "torus-graph v2"),
         "line 1: missing 'torus-graph v1' header"),
        (DIMER_FIXTURE + "vertex x\n", f"line {_NEW}: vertex takes: id color [x y]"),
        (DIMER_FIXTURE + "vertex x w 0.5 north\n",
         f"line {_NEW}: could not convert string to float: 'north'"),
        (DIMER_FIXTURE + "vertex b1 w\n", f"line {_NEW}: duplicate vertex b1"),
        (DIMER_FIXTURE + "vertex x q\n", f"line {_NEW}: bad color 'q' for vertex x"),
        (DIMER_FIXTURE + "edge e13 b1 w1 0\n", f"line {_NEW}: edge takes: id v1 v2 dx dy"),
        (DIMER_FIXTURE + "edge e13 b1 w1 0 x\n",
         f"line {_NEW}: invalid literal for int() with base 10: 'x'"),
        (DIMER_FIXTURE + "edge e1 b1 w1 0 0\n", f"line {_NEW}: duplicate edge e1"),
        (DIMER_FIXTURE + "edge e13 b1 nowhere 0 0\n",
         f"line {_NEW}: edge e13 references unknown vertex nowhere"),
        (DIMER_FIXTURE + "rot b1\n", f"line {_NEW}: rot takes: vertex dart..."),
        (DIMER_FIXTURE + "rot b1 e99+\n", f"line {_NEW}: unknown dart e99+"),
        (DIMER_FIXTURE + "rot b1 e99\n", f"line {_NEW}: unknown edge e99"),
        (DIMER_FIXTURE + "rot b1 e1\n", f"line {_NEW}: edge e1 not incident to b1"),
        (DIMER_FIXTURE + "rot nowhere e1+\n", f"line {_NEW}: rotation for unknown vertex nowhere"),
        (ISING_FIXTURE.replace("rot n 1+ 2+ 1- 2-", "rot n 1 2+ 1- 2-"),
         "line 5: loop edge 1 needs an explicit dart (+/-)"),
        (DIMER_FIXTURE.replace("rot b1 e9 e8 e7", "rot b1 e9 e8 e1+"),
         "line 22: dart e1+ is not based at b1"),
        (DIMER_FIXTURE + "weight e1\n", f"line {_NEW}: weight takes: edge value"),
        (DIMER_FIXTURE + "weight e1 x1\n", f"line {_NEW}: bad number 'x1'"),
        (DIMER_FIXTURE + "weight e99 1\n", f"line {_NEW}: weight for unknown edge e99"),
        (DIMER_FIXTURE + "coupling e1\n",
         f"line {_NEW}: coupling takes: edge J=<v>|sc=<s>,<c>"),
        (DIMER_FIXTURE + "coupling e1 K=1\n", f"line {_NEW}: bad coupling spec 'K=1'"),
        (DIMER_FIXTURE + "coupling e1 sc=1/2\n",
         f"line {_NEW}: sc= takes two comma-separated rationals"),
        (DIMER_FIXTURE + "coupling e1 sc=a,b\n",
         f"line {_NEW}: Invalid literal for Fraction: 'a'"),
        (DIMER_FIXTURE + "coupling e1 J=x\n",
         f"line {_NEW}: could not convert string to float: 'x'"),
        (DIMER_FIXTURE + "coupling e99 J=1\n", f"line {_NEW}: coupling for unknown edge e99"),
        (DIMER_FIXTURE + "frobnicate\n", f"line {_NEW}: unknown key 'frobnicate'"),
        (DIMER_FIXTURE + "weight e1 1/2\n", f"line {_NEW}: repeated weight line for e1"),
        (ISING_FIXTURE + "coupling 1 J=0.5\n",
         f"line {_NEW_ISING}: repeated coupling line for 1"),
        (DIMER_FIXTURE + "rot b1 e7 e9 e8\n", f"line {_NEW}: repeated rot line for b1"),
    ], ids=["header", "vertex arity", "vertex position", "duplicate vertex", "bad color",
            "edge arity", "edge displacement", "duplicate edge", "edge vertex", "rot arity",
            "rot dart", "rot edge", "rot incidence", "rot vertex", "rot loop", "rot base",
            "weight arity", "weight number", "weight edge", "coupling arity",
            "coupling spec", "coupling sc", "coupling fraction", "coupling J",
            "coupling edge", "unknown key", "repeated weight", "repeated coupling",
            "repeated rot"])
    def test_malformed_graph_line_exits_2(self, tmp_path, text, message, capsys):
        path = tmp_path / "bad.tg"
        path.write_text(text)
        assert main(["inspect", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (GADGET_MAP.replace("v1", "v0"), "line 1: missing 'gadget-map v1' header"),
        (GADGET_MAP + "square 3\n", "line 8: bad gadget-map line: 'square 3'"),
        (GADGET_MAP + "corner w1 b4\n", "line 8: bad gadget-map line: 'corner w1 b4'"),
        (GADGET_MAP + "square 1 f3\n", "line 8: repeated square line for 1"),
        (GADGET_MAP + "partner w1 b3\n", "line 8: repeated partner line for w1"),
    ], ids=["header", "arity", "key", "repeated square", "repeated partner"])
    def test_malformed_gadget_map_line_exits_2(self, files, text, message, capsys):
        tmp, gp, _, _ = files
        path = tmp / "bad.gm"
        path.write_text(text)
        assert main(["verify-ising", gp, "--vertex", "w2", "--gadget-map", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


def _line_of(text, prefix):
    """The number of the first line of text that starts with prefix."""
    return next(no for no, line in enumerate(text.splitlines(), start=1)
                if line.startswith(prefix))


def _doubled_e1():
    """The dimer fixture with a parallel copy of e1: a digon face, so a
    zig-zag of zero homology."""
    g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
    return serialize_torus_graph(doubled(g, "e1"), weights={**wt, "e1d": wt["e1"]})


# the Ising fixture with weight lines: uncolored, so it has no Kasteleyn signs
_WEIGHTED_ISING = ISING_FIXTURE + "weight 1 1/2\nweight 2 1/3\n"
_E5 = _line_of(DIMER_FIXTURE, "weight e5 ")
_SC1 = _line_of(ISING_FIXTURE, "coupling 1 ")


def _weight_e5(value):
    return DIMER_FIXTURE.replace("weight e5 1\n", f"weight e5 {value}\n")


def _bad_weight(value):
    return f"line {_E5}: weight must be positive and finite, got {value}"


class TestNoTraceback:
    """Inputs that once ended in a Python traceback: each exits 2 with one
    `error:` line and prints nothing on stdout. {missing} in an option is a
    path in a directory that does not exist, {out} a writable path; {gm} and
    {script} are the gadget map and move script written beside the graph."""

    @pytest.mark.parametrize("argv,graph,gadget_map,message", [
        (["charpoly"], _WEIGHTED_ISING, GADGET_MAP, "Kasteleyn signs need a bipartite graph"),
        (["divisor", "--vertex", "n"], _WEIGHTED_ISING, GADGET_MAP,
         "Kasteleyn signs need a bipartite graph"),
        (["amoeba"], _WEIGHTED_ISING, GADGET_MAP, "Kasteleyn signs need a bipartite graph"),
        (["inspect", "--out", "{missing}"], DIMER_FIXTURE, GADGET_MAP,
         "cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["todimer", "--out", "{out}", "--gadget-map", "{missing}"], ISING_FIXTURE, GADGET_MAP,
         "cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["amoeba", "--grid", "4", "--out", "{out}", "--svg", "{missing}"], DIMER_FIXTURE,
         GADGET_MAP, "cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["charpoly"], _doubled_e1(), GADGET_MAP, "zero-homology zig-zag: graph is not minimal"),
        (["move", "--script", "{script}"],
         _WEIGHTED_ISING.replace("edge 1 n n 1 0", "edge 1 n n 2 0"), GADGET_MAP,
         "no cycle of class (1, 0) found"),
        (["inspect"], _weight_e5("1/0"), GADGET_MAP, f"line {_E5}: bad number '1/0'"),
        (["todimer"], ISING_FIXTURE.replace("sc=4/5,3/5", "sc=4/0,3/5"), GADGET_MAP,
         f"line {_SC1}: zero denominator in 'sc=4/0,3/5'"),
        (["verify-ising", "--vertex", "w2", "--gadget-map", "{gm}"], _weight_e5("0"), GADGET_MAP,
         _bad_weight("0")),
        (["move", "--script", "{script}"], _weight_e5("0"), GADGET_MAP, _bad_weight("0")),
        (["move", "--script", "{script}"], _weight_e5("-1"), GADGET_MAP, _bad_weight("-1")),
        (["charpoly"], _weight_e5("nan"), GADGET_MAP, _bad_weight("nan")),
        (["charpoly"], _weight_e5("inf"), GADGET_MAP, _bad_weight("inf")),
        (["charpoly"], _weight_e5("1e400"), GADGET_MAP, _bad_weight("1e400")),
        (["todimer"], ISING_FIXTURE.replace("sc=4/5,3/5", "J=nan"), GADGET_MAP,
         "J must be finite, got nan"),
        (["todimer"], ISING_FIXTURE.replace("sc=4/5,3/5", "J=inf"), GADGET_MAP,
         "J must be finite, got inf"),
        (["verify-ising", "--vertex", "w2", "--gadget-map", "{gm}"], DIMER_FIXTURE,
         GADGET_MAP.replace("square 1 f2", "square 1 f99"), "gadget map names unknown face f99"),
        (["verify-ising", "--vertex", "w2", "--gadget-map", "{gm}"], DIMER_FIXTURE,
         GADGET_MAP.replace("partner w2 b3", "partner w2 bX"),
         "partner bX of w2 is not a black vertex"),
        (["verify-ising", "--vertex", "b3", "--gadget-map", "{gm}"], DIMER_FIXTURE,
         GADGET_MAP.replace("partner w2 b3", "partner b3 b1"), "vertex b3 is not white"),
        # a face that is not a gadget square is an input error, not a failed check
        (["verify-ising", "--vertex", "w2", "--gadget-map", "{gm}"], DIMER_FIXTURE,
         GADGET_MAP.replace("square 1 f2", "square 1 f0"), "face f0 has 8 sides, need 4"),
        (["todimer"], ISING_FIXTURE.replace("sc=4/5,3/5", "J=400"), GADGET_MAP,
         f"J must be at most {math.acosh(sys.float_info.max) / 2!r}, above which cosh(2J)"
         " overflows; got 400.0"),
        # the moved weights are in range, the products of one face's X are not
        (["move", "--script", "{script}"],
         _weight_e5("1e300").replace("weight e7 4/5\n", "weight e7 1e300\n"), GADGET_MAP,
         "X of a cycle leaves the float range: 1.25e-300 / 0.0"),
        (["move", "--script", "{script}"], _WEIGHTED_ISING, GADGET_MAP,
         "X coordinates need a bipartite graph"),
    ], ids=["charpoly uncolored", "divisor uncolored", "amoeba uncolored", "--out",
            "todimer --gadget-map", "amoeba --svg", "charpoly not minimal", "move homology",
            "weight p/0", "sc p/0", "verify-ising weight 0", "move weight 0",
            "move weight negative", "weight nan", "weight inf", "weight overflow", "J nan",
            "J inf", "square face", "partner black", "vertex white", "square not a square",
            "J overflow", "move float range", "move uncolored"])
    def test_exits_2(self, tmp_path, argv, graph, gadget_map, message, capsys):
        paths = {"missing": str(tmp_path / "missing" / "out"), "out": str(tmp_path / "out"),
                 "gm": str(tmp_path / "gm.txt"), "script": str(tmp_path / "moves.txt")}
        (tmp_path / "gm.txt").write_text(gadget_map)
        (tmp_path / "moves.txt").write_text(_FUZZ_SCRIPT)
        gp = tmp_path / "graph.tg"
        gp.write_text(graph)
        assert main([argv[0], str(gp)] + [a.format(**paths) for a in argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message.format(**paths)}\n"


# a valid graph with one white and three blacks: K is 1x3 and has no determinant
_UNBALANCED = """torus-graph v1
vertex b0 b
vertex b1 b
vertex b2 b
vertex w0 w
edge e0 w0 b1 0 1
edge e1 w0 b2 0 0
edge e2 w0 b0 -1 0
edge e3 w0 b0 -1 1
edge e4 w0 b0 0 0
rot b0 e3- e2- e4-
rot b1 e0-
rot b2 e1-
rot w0 e1+ e3+ e0+ e2+ e4+
weight e0 1
weight e1 1
weight e2 1
weight e3 1
weight e4 1
"""


@functools.cache
def _honeycomb44_numeric():
    """The numeric gadget graph of honeycomb 4x4 (96 whites), J uniform in
    (0.2, 0.8). The FFT determinant on the unit torus keeps 37 of P's terms;
    their polygon has genus 19, the graph's 37."""
    rng = random.Random(4)
    g = honeycomb(4, 4)
    gd, wt, _ = to_dimer(IsingModel(g, {e: make_coupling(J=rng.uniform(0.2, 0.8))
                                        for e in g.edges()}))
    return serialize_torus_graph(gd, weights=wt)


class TestCurveChecks:
    """divisor and amoeba take K and P from characteristic_polynomial, so
    they fail its checks as charpoly does: exit 1 with one `error:` line and
    nothing on stdout, not a traceback or the divisor or amoeba of a
    truncated P; exit 2, an input error, on a graph that fails its face
    count, verify-ising too."""

    @pytest.mark.parametrize("graph,vertex,message", [
        (lambda: _UNBALANCED, "w0", "#white=1 != #black=3"),
        (_honeycomb44_numeric, "W_u00_0", "Newton polygon of P differs from the graph polygon"),
    ], ids=["unbalanced", "honeycomb 4x4"])
    @pytest.mark.parametrize("argv", [["charpoly"], ["divisor", "--vertex", "{vertex}"],
                                      ["amoeba", "--grid", "4"]],
                             ids=["charpoly", "divisor", "amoeba"])
    def test_exits_1(self, tmp_path, argv, graph, vertex, message, capsys):
        gp = tmp_path / "graph.tg"
        gp.write_text(graph())
        assert main([argv[0], str(gp)] + [a.format(vertex=vertex) for a in argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    # Without the face-count test all three pass charpoly and amoeba and exit
    # 1 from divisor and verify-ising with "numeric divisor found 6 points,
    # genus is 5" (8 points, genus 7 for the second): a misleading error.
    @pytest.mark.parametrize("cells,faces,twice_area", [
        ([(0, 0, True), (0, 1, False)], 20, 16),
        ([(0, 0, False), (1, 0, False), (1, 1, True), (0, 1, False)], 24, 22),
        ([(1, 1, True)], 18, 16),
    ], ids=["crossed", "three-one", "one"])
    @pytest.mark.parametrize("argv", [["charpoly"], ["divisor", "--vertex", "{white}"],
                                      ["verify-ising", "--vertex", "{white}", "--gadget-map", "{gm}"],
                                      ["amoeba", "--grid", "4"]],
                             ids=["charpoly", "divisor", "verify-ising", "amoeba"])
    def test_non_minimal_graph_exits_2(self, tmp_path, argv, cells, faces, twice_area, capsys):
        gp, gm, white = _gadget(tmp_path, _square22_with_diagonals(cells), _X_SEQUENCE)
        assert not parse_torus_graph(open(gp).read())[0].check_minimal()[0]
        argv = [a.format(white=white, gm=gm) for a in argv]
        assert main([argv[0], gp, "--mode", "numeric"] + argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: graph is not minimal (face-count: {faces} faces, "
                                     f"twice the polygon area {twice_area})\n")

    def test_minimal_graph_with_diagonals_passes(self, tmp_path, capsys):
        # parallel diagonals make a triangular lattice, which is minimal
        gp, gm, white = _gadget(tmp_path, _square22_with_diagonals([(0, 0, True), (0, 1, True)]),
                                _X_SEQUENCE)
        assert parse_torus_graph(open(gp).read())[0].check_minimal()[0]
        assert main(["verify-ising", gp, "--vertex", white, "--gadget-map", gm,
                     "--mode", "numeric"]) == 0
        assert "condition weight-mutation pass" in capsys.readouterr().out


_X_SEQUENCE = [Fraction(k, 2 * k + 1) for k in range(1, 13)]


def _square22_with_diagonals(cells):
    """The square 2x2 Ising graph plus one diagonal across each face of
    `cells`, (i, j, up): p{i}{j} to p{i+1}{j+1} when up, else p{i+1}{j} to
    p{i}{j+1}. Diagonals of both directions make the gadget graph
    non-minimal."""
    g = square(2, 2)
    rot = {v: list(g.rotation[v]) for v in g.vertex_ids()}
    h = TorusGraph()
    for v in g.vertex_ids():
        h.add_vertex(v, "n")
    for e in g.edges():
        h.add_edge(e, *g.edge_ends[e])
    for k, (i, j, up) in enumerate(cells):
        i1, j1, wx, wy, e = (i + 1) % 2, (j + 1) % 2, int(i == 1), int(j == 1), f"d{k}"
        # each dart goes in ccw order just after the lattice dart before it
        ends = ([(f"p{i}{j}", f"h{i}{j}+"), (f"p{i1}{j1}", f"h{i}{j1}-")] if up else
                [(f"p{i1}{j}", f"v{i1}{j}+"), (f"p{i}{j1}", f"v{i}{j}-")])
        h.add_edge(e, ends[0][0], ends[1][0], wx if up else -wx, wy)
        for (v, before), dart in zip(ends, (e + "+", e + "-")):
            rot[v].insert(rot[v].index(before) + 1, dart)
    for v in g.vertex_ids():
        h.set_rotation(v, rot[v])
    h.freeze()
    h.validate()
    return h


_FUZZ_SCRIPT = "move square f=f2\nmove color\n"
_FUZZ_GRAPHS = [DIMER_FIXTURE, ISING_FIXTURE, _WEIGHTED_ISING]
_FUZZ_TOKENS = ["0", "-1", "1/0", "nan", "inf", "1e400", "1e300", "J=400", "x"]
# every verb with valid options; {dir} is the directory of the input files
_FUZZ_VERBS = {
    "inspect": [], "todimer": ["--gadget-map", "{dir}/out.gm"], "dual": [],
    "ydelta": ["--site", "n"], "move": ["--script", "{dir}/script"], "charpoly": [],
    "divisor": ["--vertex", "w2"],
    "verify-ising": ["--vertex", "w2", "--gadget-map", "{dir}/gadget_map"],
    "abel": [], "amoeba": ["--grid", "4"],
}


@st.composite
def _mutated(draw, text):
    """text after 1 to 3 mutations of its whitespace-separated tokens: delete
    or duplicate a line, replace a token by another token of the text or by
    one of _FUZZ_TOKENS, drop a token, swap two tokens."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if not tokens:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "replace", "drop", "swap"]))
        i, j = draw(st.sampled_from(tokens))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, list(lines[i]))
        elif kind == "replace":
            lines[i][j] = draw(st.sampled_from([lines[a][b] for a, b in tokens] + _FUZZ_TOKENS))
        elif kind == "drop":
            del lines[i][j]
        else:
            a, b = draw(st.sampled_from(tokens))
            lines[i][j], lines[a][b] = lines[a][b], lines[i][j]
    return "".join(" ".join(line) + "\n" for line in lines)


class TestMutationFuzz:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_mutated_inputs_exit_cleanly(self, data):
        # one mutated input of one verb: main returns 0, 1 or 2 and raises
        # nothing; stderr is empty or one `error:` line, and on exit 2
        # stdout is empty
        verb = data.draw(st.sampled_from(sorted(_FUZZ_VERBS)), label="verb")
        texts = {"graph": data.draw(st.sampled_from(_FUZZ_GRAPHS), label="graph"),
                 "gadget_map": GADGET_MAP, "script": _FUZZ_SCRIPT}
        target = data.draw(st.sampled_from(
            ["graph"] + {"verify-ising": ["gadget_map"], "move": ["script"]}.get(verb, [])),
            label="mutated")
        texts[target] = data.draw(_mutated(texts[target]), label="text")
        with tempfile.TemporaryDirectory() as d:
            for name, text in texts.items():
                with open(os.path.join(d, name), "w") as fh:
                    fh.write(text)
            argv = [verb, os.path.join(d, "graph")] + [a.format(dir=d) for a in _FUZZ_VERBS[verb]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                             and err.endswith("\n"))
        assert code != 2 or out.getvalue() == ""

    @pytest.mark.parametrize("verb", sorted(_FUZZ_VERBS))
    def test_header_only_graph_exits_2(self, tmp_path, verb, capsys):
        # a file with the header line alone: no vertices to work on
        for name, text in (("graph", "torus-graph v1\n"), ("gadget_map", GADGET_MAP),
                           ("script", _FUZZ_SCRIPT)):
            (tmp_path / name).write_text(text)
        argv = [verb, str(tmp_path / "graph")] + [a.format(dir=tmp_path) for a in _FUZZ_VERBS[verb]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: graph has no vertices\n"


class TestDeterminism:
    def test_byte_identical_runs(self, files, tmp_path):
        _, gp, _, gm = files
        o1, o2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm,
                     "--out", str(o1)]) == 0
        assert main(["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm,
                     "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_charpoly_output(self, files, capsys):
        _, gp, _, _ = files
        assert main(["charpoly", gp]) == 0
        out = capsys.readouterr().out
        assert "polynomial 2 - 4/13*w - 4/13*w^-1 - 36/65*z - 36/65*z^-1" in out
        assert "genus 1" in out

    def test_divisor_output(self, files, capsys):
        _, gp, _, _ = files
        assert main(["divisor", gp, "--vertex", "w2"]) == 0
        assert "(13/20,52/25)x1" in capsys.readouterr().out

    def test_numeric_divisor_drops_roundoff_imaginary_parts(self, files, capsys):
        # the numeric points carry imaginary parts ~1e-17; they print as
        # verify-ising prints them, real part only
        _, gp, _, _ = files
        assert main(["divisor", gp, "--vertex", "w2", "--mode", "numeric"]) == 0
        out = capsys.readouterr().out
        assert out == "divisor w2 (0.65,2.08)x1\n"
        assert "j" not in out


def reference_emit(text, path):
    """The CLI's writer before it overwrote in place: open(path, "w"), which
    truncates an existing file first. Kept to compare what each does with a
    destination it cannot write."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise cli.CliError(f"cannot write {path}: {exc}")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestOutputFiles:
    """cli._emit, the one writer of --out, --gadget-map and --svg: an
    existing file is overwritten in place and cut to the written length;
    otherwise it behaves as open(path, "w") did."""

    @pytest.fixture
    def text(self, files, capsys):
        """The inspect report of the dimer fixture, as written to stdout."""
        assert main(["inspect", files[1]]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("umask,mode", [(0o027, 0o640), (0o002, 0o664)], ids=["027", "002"])
    def test_new_file_mode_follows_the_umask(self, files, tmp_path, text, umask, mode):
        out = tmp_path / "new.txt"
        old = os.umask(umask)
        try:
            assert main(["inspect", files[1], "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.read_text() == text
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("extra", [100, -5, 0], ids=["longer", "shorter", "equal"])
    def test_existing_file_holds_the_text_alone(self, files, tmp_path, text, extra):
        out = tmp_path / "out.txt"
        out.write_text("#" * (len(text) + extra))
        out.chmod(0o600)
        before, fds = out.stat(), open_fds()
        assert main(["inspect", files[1], "--out", str(out)]) == 0
        assert out.read_text() == text
        # overwritten in place: the same inode and mode, and no descriptor left open
        assert (out.stat().st_ino, stat.S_IMODE(out.stat().st_mode)) == (before.st_ino, 0o600)
        assert open_fds() == fds

    def test_symlink_rewrites_its_target(self, files, tmp_path, text):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("#" * 1000)
        link.symlink_to(target)
        assert main(["inspect", files[1], "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == text

    def test_hard_links_stay_shared(self, files, tmp_path, text):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("#" * 1000)
        os.link(a, b)
        assert main(["inspect", files[1], "--out", str(a)]) == 0
        assert b.read_text() == text and a.stat().st_nlink == 2

    def test_dev_null(self, files, capsys):
        assert main(["inspect", files[1], "--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_pipe(self, files, text):
        # the text is far below a pipe's buffer, so the write does not block
        r, w = os.pipe()
        try:
            assert main(["inspect", files[1], "--out", f"/dev/fd/{w}"]) == 0
        finally:
            os.close(w)
        with open(r) as fh:
            assert fh.read() == text

    def test_fifo(self, files, tmp_path, text):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            assert main(["inspect", files[1], "--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=30)
        assert got == [text]

    @pytest.mark.parametrize("dest", ["read-only", "directory", "missing directory", "/dev/full"])
    def test_unwritable_destination_as_before(self, files, tmp_path, monkeypatch, capsys, dest):
        def make(root):
            root.mkdir()
            if dest == "read-only":
                (root / "ro.txt").write_text("old\n")
                (root / "ro.txt").chmod(0o444)
                return str(root / "ro.txt")
            return {"directory": str(root), "missing directory": str(root / "no" / "out.txt"),
                    "/dev/full": dest}[dest]
        seen = []
        for name, emit in (("now", cli._emit), ("before", reference_emit)):
            monkeypatch.setattr(cli, "_emit", emit)
            path, fds = make(tmp_path / name), open_fds()
            code = main(["inspect", files[1], "--out", path])
            out, err = capsys.readouterr()
            assert open_fds() == fds
            written = open(path).read() if dest == "read-only" else None
            seen.append((code, out, err.replace(str(tmp_path / name), "<root>"), written))
        assert seen[0] == seen[1]
        # the superuser may write a read-only file
        if dest != "read-only" or os.geteuid() != 0:
            assert seen[0][0] == 2 and seen[0][2].startswith("error: cannot write ")

    def test_gadget_map_wins_over_out_on_one_path(self, files, tmp_path):
        _, _, ip, _ = files
        dim, gm, both = tmp_path / "d.tg", tmp_path / "d.gm", tmp_path / "both"
        assert main(["todimer", ip, "--out", str(dim), "--gadget-map", str(gm)]) == 0
        assert main(["todimer", ip, "--out", str(both), "--gadget-map", str(both)]) == 0
        # the gadget map is the shorter, so its write cut the graph's
        assert len(gm.read_text()) < len(dim.read_text())
        assert both.read_text() == gm.read_text()

    def test_no_output_is_truncated_before_it_is_written(self, files, tmp_path, monkeypatch):
        # on ext4 a rewrite through a truncate to 0 costs about 100 us at
        # close (auto_da_alloc): the writer must open without O_TRUNC
        _, gp, ip, _ = files
        calls, real = [], os.open
        monkeypatch.setattr(os, "open", lambda path, flags, *a: calls.append((path, flags))
                            or real(path, flags, *a))
        paths = [str(tmp_path / name) for name in ("d.tg", "d.gm", "a.csv", "a.svg")]
        for _ in range(2):      # new files, then existing ones
            assert main(["todimer", ip, "--out", paths[0], "--gadget-map", paths[1]]) == 0
            assert main(["amoeba", gp, "--grid", "3", "--out", paths[2], "--svg", paths[3]]) == 0
        assert [p for p, _ in calls] == paths * 2
        assert not any(flags & os.O_TRUNC for _, flags in calls)


class TestPipelines:
    def test_todimer_writes_sidecar(self, files, tmp_path, capsys):
        _, _, ip, _ = files
        gm_out = tmp_path / "gm_out.txt"
        out = tmp_path / "dimer_out.tg"
        assert main(["todimer", ip, "--gadget-map", str(gm_out), "--out", str(out)]) == 0
        text = gm_out.read_text()
        assert text.startswith("gadget-map v1\n")
        assert sum(1 for line in text.splitlines() if line.startswith("square ")) == 2
        assert sum(1 for line in text.splitlines() if line.startswith("partner ")) == 4
        # the emitted graph file parses and passes verify-ising end to end
        code = main(["verify-ising", str(out), "--vertex", "W_n_0",
                     "--gadget-map", str(gm_out)])
        assert code == 0

    def test_move_script_involution(self, files, tmp_path, capsys):
        _, gp, _, _ = files
        script = tmp_path / "moves.txt"
        script.write_text("move square f=f2\n")
        out1 = tmp_path / "after1.tg"
        assert main(["move", gp, "--script", str(script), "--out", str(out1)]) == 0
        body = out1.read_text()
        assert "# X basis before" in body and "# X basis after" in body

    def test_square_involution_via_scripts(self, files, tmp_path):
        # move at f2, read the image face id, move there again: X basis restored
        _, gp, _, _ = files
        s1 = tmp_path / "s1.txt"
        s1.write_text("move square f=f2\n")
        mid = tmp_path / "mid.tg"
        assert main(["move", gp, "--script", str(s1), "--out", str(mid)]) == 0
        body = mid.read_text()
        image = next(line.split("f'=")[1] for line in body.splitlines()
                     if line.startswith("# move square f=f2"))
        s2 = tmp_path / "s2.txt"
        s2.write_text(f"move square f=f2\nmove square f={image}\n")
        out = tmp_path / "back.tg"
        assert main(["move", gp, "--script", str(s2), "--out", str(out)]) == 0
        final = out.read_text()

        def x_lines(text, tag):
            seen = []
            on = False
            for line in text.splitlines():
                if line.startswith("# X basis " + tag):
                    on = True
                    continue
                if line.startswith("# X basis"):
                    on = False
                if on and line.startswith("# X["):
                    seen.append(line.split("= ")[1])
            return sorted(seen)

        assert x_lines(final, "before") == x_lines(final, "after")

    def test_script_comments_and_blank_lines_are_skipped(self, files, tmp_path, capsys):
        _, gp, _, _ = files
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        plain.write_text("move color\nmove color\n")
        commented.write_text("# two colour changes\n\nmove color\n   \nmove color  # back\n")
        assert main(["move", gp, "--script", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["move", gp, "--script", str(commented)]) == 0
        assert capsys.readouterr() == want

    def test_dual_of_a_weighted_dimer_graph(self, files, capsys):
        # the dual has a vertex per face and keeps each edge's weight
        _, gp, _, _ = files
        assert main(["dual", gp]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "torus-graph v1"
        assert [ln.split()[1] for ln in lines if ln.startswith("vertex ")] == [
            "f0", "f1", "f2", "f3"]
        assert sorted(ln for ln in lines if ln.startswith("weight ")) == sorted(
            ln for ln in DIMER_FIXTURE.splitlines() if ln.startswith("weight "))

    def test_empty_script_identity(self, files, tmp_path):
        _, gp, _, _ = files
        script = tmp_path / "empty.txt"
        script.write_text("")
        out = tmp_path / "same.tg"
        assert main(["move", gp, "--script", str(script), "--out", str(out)]) == 0
        emitted = out.read_text()
        assert "# X basis before" in emitted

    def test_illegal_move_aborts(self, files, tmp_path, capsys):
        _, gp, _, _ = files
        script = tmp_path / "bad.txt"
        script.write_text("move square f=f0\n")
        assert main(["move", gp, "--script", str(script)]) == 2

    def test_contraction_transports_the_basis(self, tmp_path, capsys):
        # split b1 so that a new degree-2 white sits on both basis cycles,
        # gauge its edges away from 1, and contract it again by script
        from isingdimer.dimer import contraction_move
        g0, wt0, _ = parse_torus_graph(DIMER_FIXTURE)
        g, wt, rec = uncontraction_move(g0, wt0, "b1", 1, 1)
        mid = rec.data["parts"][2]
        wt = gauge_transform(g, wt, {mid: Fraction(7, 3)})
        cycles = g.homology_basis_cycles()
        assert all(any(g.tail(d) == mid for d in c) for c in cycles)
        gp, script, out = tmp_path / "split.tg", tmp_path / "s.txt", tmp_path / "out.tg"
        gp.write_text(serialize_torus_graph(g, weights=wt))
        script.write_text(f"move contract v={mid}\n")
        assert main(["move", str(gp), "--script", str(script), "--out", str(out)]) == 0
        before, after = out.read_text().split("# X basis after (transported)\n")
        before = before.split("# X basis before\n")[1]
        before, after = before.splitlines(), after.splitlines()
        assert sorted(after) == sorted(before) and len(before) == len(g.face_ids()) + 1
        g2, _, rec2 = contraction_move(g, wt, mid)
        assert [g2.cycle_displacement(rec2.reroute(c)) for c in cycles] == [(1, 0), (0, 1)]

    def test_ydelta_cli(self, files, tmp_path):
        # honeycomb cell with a degree-3 vertex
        hc = tmp_path / "hc.tg"
        hc.write_text(
            "torus-graph v1\nvertex u n\nvertex v n\n"
            "edge a u v 0 0\nedge b u v 1 0\nedge c u v 0 1\n"
            "rot u a b c\nrot v a b c\n"
            "coupling a sc=4/5,3/5\ncoupling b sc=4/5,3/5\ncoupling c sc=4/5,3/5\n")
        out = tmp_path / "tri.tg"
        assert main(["ydelta", str(hc), "--site", "u", "--out", str(out)]) == 0
        assert "vertex v" in out.read_text()

    @staticmethod
    def _triangle_file(tmp_path, legs):
        """Honeycomb 2x2 with star legs a00, b00, c00 at u00 (x = 1/2
        elsewhere) after the star-triangle move there; returns the file and
        the triangle face."""
        g = honeycomb(2, 2)
        xs = {e: legs.get(e, Fraction(1, 2)) for e in g.edges()}
        m = y_delta(IsingModel(g, {e: make_coupling(x=x) for e, x in xs.items()}), "u00")
        tri = [f for f in m.graph.face_ids() if len(m.graph.face_darts(f)) == 3]
        coup = {e: {"s": c.s, "c": c.c} if c.exact else {"J": c.J}
                for e, c in m.couplings.items()}
        ip = tmp_path / "tri.tg"
        ip.write_text(serialize_torus_graph(m.graph, couplings=coup))
        return str(ip), tri[0]

    def test_ydelta_triangle_with_leg_near_one(self, tmp_path, capsys):
        ip, f = self._triangle_file(tmp_path, {"a00": 0.969, "b00": 0.424, "c00": 0.131})
        assert main(["ydelta", ip, "--site", "f:" + f]) == 0
        out = capsys.readouterr().out
        J = sorted(float(line.split("J=")[1]) for line in out.splitlines()
                   if line.startswith("coupling dyleg_"))
        expect = sorted(-0.5 * math.log(x) for x in (0.969, 0.424, 0.131))
        assert max(abs(p - q) for p, q in zip(J, expect)) < 1e-9

    def test_ydelta_triangle_exact_legs(self, tmp_path, capsys):
        b = Fraction(1234, 2345)
        a = Fraction(11600885418600409, 12244033579929900)
        ip, f = self._triangle_file(tmp_path, {"a00": a, "b00": b, "c00": b})
        assert main(["ydelta", ip, "--site", "f:" + f]) == 0
        legs = [line.split()[2] for line in capsys.readouterr().out.splitlines()
                if line.startswith("coupling dyleg_")]
        expect = [make_coupling(x=x) for x in (a, b, b)]
        assert sorted(legs) == sorted(f"sc={c.s},{c.c}" for c in expect)

    def test_abel_cli(self, files, capsys):
        _, gp, _, _ = files
        assert main(["abel", gp]) == 0
        out = capsys.readouterr().out
        assert out.count("label") >= 8

    def test_amoeba_csv_and_svg(self, files, tmp_path):
        # the files of the per-row references on P of the ++ class, the SVG
        # ringing the divisor point (13/20, 52/25) of w2
        from isingdimer.spectral import characteristic_polynomial, solve_kasteleyn_signs
        from test_spectral import reference_amoeba_csv, reference_amoeba_sample, reference_amoeba_svg
        _, gp, _, _ = files
        csv = tmp_path / "am.csv"
        svg = tmp_path / "am.svg"
        assert main(["amoeba", gp, "--grid", "24", "--vertex", "w2",
                     "--out", str(csv), "--svg", str(svg)]) == 0
        g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
        P = characteristic_polynomial(g, wt, dict(solve_kasteleyn_signs(g))[(1, 1)]).poly
        rows = reference_amoeba_sample(P, 24, (-2.5, 2.5, -2.5, 2.5))
        assert len(rows) > 10
        assert csv.read_text() == reference_amoeba_csv(rows)
        assert svg.read_text() == reference_amoeba_svg(rows, [(math.log(13 / 20),
                                                                math.log(52 / 25))])

    def test_numeric_verify_on_honeycomb_gadget(self, tmp_path, capsys):
        # 12 whites: beyond the old float-Bareiss and size-bound limits
        g = honeycomb(2, 1)
        x = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 4),
             Fraction(3, 5)]
        model = IsingModel(g, {e: make_coupling(x=v) for e, v in zip(g.edges(), x)})
        coup = {e: {"s": c.s, "c": c.c} for e, c in model.couplings.items()}
        ip = tmp_path / "hc.tg"
        ip.write_text(serialize_torus_graph(model.graph, couplings=coup))
        dim, gm = str(tmp_path / "hc.dimer"), str(tmp_path / "hc.gm")
        assert main(["todimer", str(ip), "--out", dim, "--gadget-map", gm]) == 0
        assert main(["verify-ising", dim, "--vertex", "W_u00_0", "--gadget-map", gm,
                     "--mode", "numeric"]) == 0
        out = capsys.readouterr().out
        assert sum(line.startswith("condition ") and line.endswith(" pass")
                   for line in out.splitlines()) == 4

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_one_kasteleyn_matrix_and_determinant(self, files, monkeypatch, capsys, mode):
        # each verb builds K once and takes det K once, in
        # characteristic_polynomial; the divisors reuse both
        import isingdimer.spectral as spectral
        calls = {"kasteleyn_matrix": 0, "lm_determinant": 0}
        for name in calls:
            def counted(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        tmp, gp, _, gm = files
        for argv in (["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm],
                     ["amoeba", gp, "--grid", "8", "--vertex", "w2", "--out", str(tmp / "am.csv")],
                     ["divisor", gp, "--vertex", "w2"],
                     ["charpoly", gp]):
            calls.update(kasteleyn_matrix=0, lm_determinant=0)
            assert main(argv + ["--mode", mode]) == 0
            assert calls == {"kasteleyn_matrix": 1, "lm_determinant": 1}

    def test_one_adjugate_grid_no_transpose(self, files, monkeypatch, capsys):
        # numeric verify-ising takes one sample grid of K for the white's
        # column and the partner black's row of adj K together; amoeba
        # --vertex and divisor of a black one for their line; LaurentMatrix
        # has no transpose
        import isingdimer.exactalg as exactalg
        calls = {"_adjugate_qr": 0}
        qr = exactalg._adjugate_qr

        def counted_qr(*args):
            calls["_adjugate_qr"] += 1
            return qr(*args)

        monkeypatch.setattr(exactalg, "_adjugate_qr", counted_qr)
        tmp, gp, _, gm = files
        for argv in (["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm],
                     ["amoeba", gp, "--grid", "8", "--vertex", "w2", "--out", str(tmp / "am.csv")],
                     ["divisor", gp, "--vertex", "b3"]):
            calls.update(_adjugate_qr=0)
            assert main(argv + ["--mode", "numeric"]) == 0
            assert calls == {"_adjugate_qr": 1}

    def test_amoeba_vertex_builds_one_grid_of_k(self, files, monkeypatch, capsys):
        # det K and the vertex's adjugate line read one sample grid of K
        import isingdimer.exactalg as exactalg
        import isingdimer.spectral as spectral
        matrices, grids = [], []
        build, grid = spectral.kasteleyn_matrix, exactalg._sample_grid
        monkeypatch.setattr(spectral, "kasteleyn_matrix",
                            lambda *args: matrices.append(build(*args)) or matrices[-1])
        monkeypatch.setattr(exactalg, "_sample_grid", lambda a: grids.append(a) or grid(a))
        tmp, gp, _, _ = files
        assert main(["amoeba", gp, "--grid", "8", "--vertex", "w2", "--mode", "numeric",
                     "--out", str(tmp / "am.csv")]) == 0
        (K,) = matrices
        assert sum(a is K.nonzero() for a in grids) == 1

    def test_inspect_dual(self, files, capsys):
        _, _, ip, _ = files
        assert main(["dual", ip]) == 0
        out = capsys.readouterr().out
        assert out.startswith("torus-graph v1")

    def test_inspect_validates_once(self, files, capsys, monkeypatch):
        _, gp, ip, _ = files
        calls = []
        validate = TorusGraph.validate
        monkeypatch.setattr(TorusGraph, "validate", lambda g: calls.append(g) or validate(g))
        for path in (gp, ip):
            calls.clear()
            assert main(["inspect", path]) == 0
            assert len(calls) == 1
        assert "faces 4\n" in capsys.readouterr().out


class TestTolerance:
    @pytest.mark.parametrize("tol", [1e-300, 1.5e-16])
    def test_verify_ising_tol_reaches_the_spectral_conditions(self, tmp_path, capsys, tol):
        # the nu residuals of this model are rounding errors of 1.1e-16 to
        # 2.2e-16; the residuals line names the sides above tol, each side
        # (p, q) as a primitive zig-zag class
        from isingdimer.dimer import x_of_cycle
        gp, gm, white = _square21_gadget(tmp_path)
        g, wt, _ = parse_torus_graph(open(gp).read())
        wt = {e: float(v) for e, v in wt.items()}
        by_side = {}
        for zz in g.zigzag_paths():
            p, q = zz["class"]
            k = math.gcd(p, q)
            by_side.setdefault((p // k, q // k), []).append(x_of_cycle(g, wt, zz["darts"]))
        above = sorted(str(side) for side, xs in by_side.items()
                       if any(abs(x / y - 1) > tol for x, y in
                              zip(sorted(xs), sorted(by_side[(-side[0], -side[1])]))))
        assert 0 < len(above) and (len(above) < len(by_side) or tol < 1e-100)
        capsys.readouterr()
        assert main(["verify-ising", gp, "--vertex", white, "--gadget-map", gm,
                     "--mode", "numeric", "--tol", repr(tol)]) == 1
        lines = capsys.readouterr().out.splitlines()
        if tol == 1e-300:
            assert "condition sigma-invariance FAIL" in lines
        assert "condition nu-involution FAIL" in lines
        assert [line.split(" ", 1)[1] for line in lines if line.startswith("residuals ")] \
            == [" ".join(above)]

    @pytest.mark.parametrize("verb", ["move", "charpoly"])
    def test_verbs_without_a_tolerance_reject_tol(self, files, verb, capsys):
        _, gp, _, _ = files
        extra = ["--script", gp] if verb == "move" else []
        with pytest.raises(SystemExit) as exc:
            main([verb, gp, "--tol", "1"] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["fixture", "square 2x1", "honeycomb 2x2"])
    def test_divisor_verb_prints_the_verify_ising_divisor(self, which, files, capsys):
        # ... and both divisors print their points in the order of (Re z,
        # Im z, Re w, Im w), not in the root finder's: on honeycomb 2x2 that
        # order is another
        tmp, gp, _, gm = files
        white = "w2"
        if which == "square 2x1":
            gp, gm, white = _square21_gadget(tmp)
        if which == "honeycomb 2x2":
            gp, gm, white = _gadget(tmp, honeycomb(2, 2), [Fraction(k, 13) for k in range(1, 13)])
        capsys.readouterr()
        main(["verify-ising", gp, "--vertex", white, "--gadget-map", gm, "--mode", "numeric"])
        out = capsys.readouterr().out
        d_w = next(line for line in out.splitlines() if line.startswith("divisor D_w "))
        for points in _printed_divisors(out).values():
            assert len(points) > 0
            assert points == sorted(points, key=lambda p: (p[0].real, p[0].imag,
                                                           p[1].real, p[1].imag))
        assert main(["divisor", gp, "--vertex", white, "--mode", "numeric"]) == 0
        assert capsys.readouterr().out == f"divisor {white} {d_w[len('divisor D_w '):]}\n"


class TestSignClasses:
    """--sign selects each of the four Kasteleyn sign classes, by symbols
    where argparse keeps them and by letters (p for +, m for -) always."""

    LETTERS = {"++": "pp", "+-": "pm", "-+": "mp", "--": "mm"}

    @staticmethod
    def extra(verb, gm):
        return {"charpoly": [], "divisor": ["--vertex", "w2"], "amoeba": ["--grid", "4"],
                "verify-ising": ["--vertex", "w2", "--gadget-map", gm]}[verb]

    @pytest.mark.parametrize("verb", ["charpoly", "divisor", "verify-ising", "amoeba"])
    def test_every_class(self, files, verb, capsys):
        _, gp, _, gm = files
        argv = [verb, gp, *self.extra(verb, gm)]
        outs = []
        for symbols, letters in self.LETTERS.items():
            code = main(argv + ["--sign", letters])
            got = capsys.readouterr()
            assert code in (0, 1) and got.out and not got.err
            # the verb run on the symbols, as the parser would pass them on
            args = build_parser().parse_args(argv)
            args.sign = symbols
            assert (args.fn(args), capsys.readouterr()) == (code, got)
            if symbols != "--":
                assert (main(argv + [f"--sign={symbols}"]), capsys.readouterr()) == (code, got)
            outs.append(got.out)
        assert len(set(outs)) > 1

    @pytest.mark.parametrize("verb", ["charpoly", "divisor", "verify-ising", "amoeba"])
    @pytest.mark.parametrize("value,got", [("--sign=--", "no value"), ("--sign=xx", "'xx'"),
                                           ("--sign=", "''"), ("--sign=m", "'m'")])
    def test_a_value_that_names_no_class(self, files, verb, value, got, capsys):
        _, gp, _, gm = files
        assert main([verb, gp, *self.extra(verb, gm), value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: --sign takes ++, +-, -+, --, pp, pm, mp or mm "
                                     f"(the class -- as mm), got {got}\n")

    def test_a_bare_double_dash_is_a_usage_error(self, files, capsys):
        _, gp, _, _ = files
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", gp, "--sign", "--"])
        assert exc.value.code == 2
        assert "argument --sign: expected one argument" in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_module_invocation(self, files):
        # the child process imports the package from where this one found it
        _, gp, _, _ = files
        src = os.path.dirname(os.path.dirname(isingdimer.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-m", "isingdimer.cli", "inspect", gp],
                           capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert r.returncode == 0
        assert "vertices 8" in r.stdout

    def test_exact_todimer_and_move_leave_numpy_unloaded(self, files):
        # the exact write side and the exact checks need no numpy; importing
        # it would raise the memory of every exact todimer, move,
        # verify-ising and charpoly run
        d, _, ip, _ = files
        dim, gm, script = d / "d.tg", d / "d.gm", d / "moves.txt"
        child = f"""
import sys
from isingdimer.cli import main
assert main(["todimer", {ip!r}, "--out", {str(dim)!r}, "--gadget-map", {str(gm)!r}]) == 0
face = open({str(gm)!r}).read().split("square 1 ")[1].split()[0]
white = open({str(gm)!r}).read().split("partner ")[1].split()[0]
open({str(script)!r}, "w").write(f"move square f={{face}}\\nmove color\\n")
assert main(["move", {str(dim)!r}, "--script", {str(script)!r}, "--out", {str(d / "m.tg")!r}]) == 0
assert main(["verify-ising", {str(dim)!r}, "--vertex", white, "--gadget-map", {str(gm)!r},
             "--mode", "exact", "--out", {str(d / "v.txt")!r}]) == 0
assert main(["charpoly", {str(dim)!r}, "--mode", "exact", "--out", {str(d / "c.txt")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
        src = os.path.dirname(os.path.dirname(isingdimer.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"
        assert "# move square" in (d / "m.tg").read_text()
        assert "condition weight-mutation pass" in (d / "v.txt").read_text()
        assert (d / "c.txt").read_text().startswith("polynomial ")


def _square21_gadget(tmp):
    """todimer of the square 2x1 Ising model with x = 1/3, 2/5, 3/7, 4/9:
    (dimer graph path, gadget-map path, its first white)."""
    return _gadget(tmp, square(2, 1), [Fraction(k, 2 * k + 1) for k in range(1, 5)])


def _gadget(tmp, g, x):
    """todimer of the Ising model on g with x the couplings in edge order."""
    model = IsingModel(g, {e: make_coupling(x=v) for e, v in zip(g.edges(), x)})
    ip = tmp / "sq.tg"
    ip.write_text(serialize_torus_graph(model.graph, couplings={
        e: {"s": c.s, "c": c.c} for e, c in model.couplings.items()}))
    gp, gm = str(tmp / "sq.dimer"), str(tmp / "sq.gm")
    assert main(["todimer", str(ip), "--out", gp, "--gadget-map", gm]) == 0
    return gp, gm, parse_torus_graph(open(gp).read())[0].whites()[0]


def _printed_divisors(text):
    """{name: [(z, w)]} from the `divisor` lines of a spectral report."""
    out = {}
    for line in text.splitlines():
        if line.startswith("divisor "):
            _, name, *points = line.split()
            out[name] = [tuple(map(complex, p.rsplit("x", 1)[0][1:-1].split(",")))
                         for p in points]
    return out


class TestScaledWeights:
    """Every weight times t multiplies P by t^n and leaves the curve, its
    divisors and the Ising conditions as they are. On the honeycomb 2x2
    rung (24 whites) the numeric sigma-invariance test was absolute and
    failed at t = 10, and the divisor's vanishing floor was absolute, so at
    t = 0.1 (max |coefficient| of P about 1e-23) every candidate vanished."""

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_verify_and_divisor_ignore_the_scale(self, tmp_path, scale, capsys):
        rng, gi = random.Random(7), honeycomb(2, 2)
        g, wt, gadgets = to_dimer(IsingModel(gi, {e: make_coupling(J=rng.uniform(0.2, 0.8))
                                                  for e in gi.edges()}))
        gp, sp, gm = (str(tmp_path / n) for n in ("plain.dimer", "scaled.dimer", "gm.txt"))
        open(gp, "w").write(serialize_torus_graph(g, weights=wt))
        open(sp, "w").write(serialize_torus_graph(g, weights={e: x * scale for e, x in wt.items()}))
        open(gm, "w").write(gadgets.serialize())
        white = g.whites()[0]
        for verb, extra in (("verify-ising", ["--gadget-map", gm]), ("divisor", [])):
            texts = []
            for path in (gp, sp):
                out = str(tmp_path / "out.txt")
                assert main([verb, path, "--vertex", white, "--mode", "numeric",
                             "--out", out] + extra) == 0
                texts.append(open(out).read())
            kept = [[x for x in t.splitlines() if not x.startswith(("polynomial", "divisor"))]
                    for t in texts]
            assert kept[0] == kept[1]
            # the weights are written to 12 significant digits, so the
            # scaled input differs there and so can a point's 12th digit
            plain, scaled = map(_printed_divisors, texts)
            assert plain.keys() == scaled.keys() and len(plain) == (2 if extra else 1)
            for name, points in plain.items():
                assert len(points) == 7 and all(
                    abs(a - b) <= 1e-9 * abs(a) for p, q in zip(points, scaled[name])
                    for a, b in zip(p, q))
        assert capsys.readouterr().err == ""


class TestDifferentialOracle:
    @pytest.mark.parametrize("which", ["fixture", "square 2x1"])
    def test_numeric_divisors_against_mpmath(self, which, files, capsys):
        # every printed point of a numeric verify-ising, polished at 30 digits
        # on (det K, one cofactor of its line of adj K) = 0 by mpmath, is its
        # printed value to 1e-10 relative
        mpmath = pytest.importorskip("mpmath")
        from isingdimer.exactalg import lm_adjugate_lines
        from isingdimer.ising import parse_gadget_map
        from isingdimer.spectral import kasteleyn_matrix, solve_kasteleyn_signs
        tmp, gp, _, gm = files
        white = "w2"
        if which == "square 2x1":
            gp, gm, white = _square21_gadget(tmp)
        capsys.readouterr()
        assert main(["verify-ising", gp, "--vertex", white, "--gadget-map", gm,
                     "--mode", "numeric"]) == 0
        printed = _printed_divisors(capsys.readouterr().out)
        g, wt, _ = parse_torus_graph(open(gp).read())
        black = parse_gadget_map(open(gm).read()).partners[white]
        K = kasteleyn_matrix(g, wt, dict(solve_kasteleyn_signs(g))[(1, 1)])
        (col,), (row,) = lm_adjugate_lines(K, [white], [black])
        mp = mpmath.mp.clone()
        mp.dps = 30

        def matrix(z, w):
            return mp.matrix([[sum((mp.mpf(c.numerator) / c.denominator * z ** i * w ** j
                                    for (i, j), c in K[(r, b)].terms.items()), mp.mpf(0))
                               for b in K.cols] for r in K.rows])

        def cofactor(M, i, j):
            n = len(K.rows)
            return mp.det(mp.matrix([[M[a, b] for b in range(n) if b != j]
                                     for a in range(n) if a != i]))

        # the first nonzero entry of each line: entry (b, w) is the cofactor
        # of K without row w and column b
        b0 = next(b for b, e in col.items() if not e.is_zero())
        w0 = next(w for w, e in row.items() if not e.is_zero())
        minors = {"D_w": (K.rows.index(white), K.cols.index(b0)),
                  "D_b": (K.rows.index(w0), K.cols.index(black))}
        assert sorted(printed) == ["D_b", "D_w"] and len(printed["D_w"]) == len(printed["D_b"]) > 0
        for name, (i, j) in minors.items():

            def system(z, w, i=i, j=j):
                M = matrix(z, w)
                return mp.det(M), cofactor(M, i, j)

            for point in printed[name]:
                solution = mp.findroot(system, tuple(map(mp.mpc, point)))
                for got, want in zip(point, map(complex, solution)):
                    assert abs(got - want) <= 1e-10 * abs(want)
