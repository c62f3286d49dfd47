import math
import os
import subprocess
import sys

import pytest

from fractions import Fraction

import isingdimer
from isingdimer.cli import main
from isingdimer.ising import IsingModel, make_coupling, y_delta
from isingdimer.torusgraph import serialize_torus_graph

from conftest import DIMER_FIXTURE, ISING_FIXTURE
from test_ising import honeycomb_model
from test_torusgraph import honeycomb


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

    def test_abel_of_uncolored_graph_exits_2(self, files, capsys):
        _, _, ip, _ = files
        assert main(["abel", ip]) == 2
        assert capsys.readouterr().err == \
            "error: the discrete Abel map needs a bipartite graph\n"

    def test_abel_of_reflected_marking_exits_1(self, tmp_path, capsys):
        # the swap of x and y reverses the orientation of the marking; the
        # check sees it whatever the window
        from isingdimer.ising import _apply_lattice_map
        from isingdimer.torusgraph import parse_torus_graph
        g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
        bad = tmp_path / "swapped.tg"
        bad.write_text(serialize_torus_graph(_apply_lattice_map(g, ((0, 1), (1, 0))), wt))
        for window in ("0", "2"):
            assert main(["abel", str(bad), "--window", window]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: Abel labels inconsistent across edge e")
            assert err.count("\n") == 1

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
    ], ids=["unknown vertex", "repeated key"])
    def test_bad_move_script_exits_2(self, files, tmp_path, capsys, script, message):
        _, gp, _, _ = files
        path = tmp_path / "bad.txt"
        path.write_text(script)
        assert main(["move", gp, "--script", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        _, gp, _, _ = files
        csv = tmp_path / "am.csv"
        svg = tmp_path / "am.svg"
        assert main(["amoeba", gp, "--grid", "24", "--vertex", "w2",
                     "--out", str(csv), "--svg", str(svg)]) == 0
        body = csv.read_text().splitlines()
        assert body[0] == "x,y,is_real"
        assert len(body) > 10
        assert svg.read_text().startswith("<svg")

    def test_numeric_verify_on_honeycomb_gadget(self, tmp_path, capsys):
        # 12 whites: beyond the old float-Bareiss and size-bound limits
        model = honeycomb_model([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                                 Fraction(3, 7), Fraction(1, 4), Fraction(3, 5)], n=2, m=1)
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
        # verify-ising and amoeba --vertex build K once and take det K once;
        # the divisors reuse both
        import isingdimer.cli as cli
        import isingdimer.spectral as spectral
        calls = {"kasteleyn_matrix": 0, "lm_determinant": 0}
        for name in calls:
            def counted(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
            monkeypatch.setattr(cli, name, counted)
        tmp, gp, _, gm = files
        assert main(["verify-ising", gp, "--vertex", "w2", "--gadget-map", gm,
                     "--mode", mode]) == 0
        assert calls == {"kasteleyn_matrix": 1, "lm_determinant": 1}
        calls.update(kasteleyn_matrix=0, lm_determinant=0)
        assert main(["amoeba", gp, "--grid", "8", "--vertex", "w2", "--mode", mode,
                     "--out", str(tmp / "am.csv")]) == 0
        assert calls == {"kasteleyn_matrix": 1, "lm_determinant": 1}

    def test_inspect_dual(self, files, capsys):
        _, _, ip, _ = files
        assert main(["dual", ip]) == 0
        out = capsys.readouterr().out
        assert out.startswith("torus-graph v1")


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
        # the exact write side needs no numpy; importing it would raise
        # the memory of every exact todimer and move run
        d, _, ip, _ = files
        dim, gm, script = d / "d.tg", d / "d.gm", d / "moves.txt"
        child = f"""
import sys
from isingdimer.cli import main
assert main(["todimer", {ip!r}, "--out", {str(dim)!r}, "--gadget-map", {str(gm)!r}]) == 0
face = open({str(gm)!r}).read().split("square 1 ")[1].split()[0]
open({str(script)!r}, "w").write(f"move square f={{face}}\\nmove color\\n")
assert main(["move", {str(dim)!r}, "--script", {str(script)!r}, "--out", {str(d / "m.tg")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
        src = os.path.dirname(os.path.dirname(isingdimer.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"
        assert "# move square" in (d / "m.tg").read_text()
