import json
from fractions import Fraction

import pytest

from planemoduli.betti import assemble_m6
from planemoduli.cli import render_svg, run
from planemoduli.exactmath import QPoly
from planemoduli.walls import Wall
from oracles import N6_COEFFICIENTS


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_capture(capsys, ["nef", "--degree", "6"])
        assert code == 0

    def test_usage_error_on_unknown_command(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1
        assert err

    def test_usage_error_on_missing_flag(self, capsys):
        code, _, err = run_capture(capsys, ["nef"])
        assert code == 1

    def test_usage_error_on_unknown_flag(self, capsys):
        code, _, _ = run_capture(capsys, ["nef", "--degree", "6", "--frob"])
        assert code == 1

    def test_usage_error_on_unknown_space(self, capsys):
        code, _, _ = run_capture(capsys, ["betti", "--space", "M7"])
        assert code == 1

    def test_domain_error(self, capsys):
        code, _, err = run_capture(capsys, ["nef", "--degree", "2"])
        assert code == 2
        assert "error" in err

    def test_domain_error_from_betti(self, capsys):
        code, _, _ = run_capture(capsys, ["betti", "--space", "hilb:99"])
        assert code == 2

    def test_help(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert "walls" in out

    @pytest.mark.parametrize("argv", [
        ["betti", "--space", "kronecker:3:11:10"],
        ["betti", "--space", "kronecker:3:13:12"],
        ["betti", "--space", "gr:200:400"],
        ["walls", "--degree", "300"],
    ])
    def test_unbounded_work_rejected_up_front(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestTextOutput:
    def test_nef(self, capsys):
        _, out, _ = run_capture(capsys, ["nef", "--degree", "6"])
        assert out == "A, 16A + L\n"

    def test_effective(self, capsys):
        _, out, _ = run_capture(capsys, ["effective", "--degree", "6"])
        assert out == "A, L\n"

    def test_divisor(self, capsys):
        _, out, _ = run_capture(capsys,
                                ["divisor", "--degree", "6",
                                 "--destabilizer", "1,3,-7/2"])
        assert out == "3A + L\n"

    def test_intersect(self, capsys):
        _, out, _ = run_capture(capsys,
                                ["intersect", "--family", "evenwall",
                                 "--degree", "6", "--w", "-6,1,-1/2"])
        assert out == "-21\n"

    def test_euler_both_pairings(self, capsys):
        _, out, _ = run_capture(capsys, ["euler", "--v", "1,-3,9/2",
                                         "--w", "1,3,-7/2",
                                         "--pairing", "hom"])
        assert out == "20\n"
        _, out, _ = run_capture(capsys, ["euler", "--v", "0,6,-8",
                                         "--w", "-6,1,9/2",
                                         "--pairing", "product"])
        assert out == "0\n"

    def test_betti_polynomial(self, capsys):
        _, out, _ = run_capture(capsys, ["betti", "--space", "hilb:1"])
        assert out == "1 + q + q^2\n"

    def test_betti_evaluation(self, capsys):
        _, out, _ = run_capture(capsys, ["betti", "--space", "M6",
                                         "--at", "1"])
        assert out == "17064\n"

    def test_deep_grassmannian(self, capsys):
        # the Pascal recurrence runs 1500 rows deep without a traceback
        code, out, err = run_capture(capsys, ["betti", "--space", "gr:2:1500",
                                              "--at", "1"])
        assert (code, out) == (0, "1124250\n")
        assert "Traceback" not in err

    def test_walls_table(self, capsys):
        _, out, _ = run_capture(capsys, ["walls", "--degree", "6"])
        lines = out.splitlines()
        assert len(lines) == 10  # header + 9 candidates
        assert lines[0].split() == \
            ["center", "radius_sq", "destabilizer", "status", "divisor"]
        first = lines[1].split()
        assert first[0] == "-4/3" and first[1] == "64/9"
        assert sum("actual" in line for line in lines[1:]) == 7
        assert sum("potential" in line for line in lines[1:]) == 2


class TestJsonOutput:
    def test_nef_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, ["nef", "--degree", "6", "--json"])
        data = json.loads(out)
        assert Fraction(data["B"]["a"]) == 16
        assert Fraction(data["B"]["l"]) == 1

    def test_betti_n6(self, capsys):
        _, out, _ = run_capture(capsys, ["betti", "--space", "N6", "--json"])
        data = json.loads(out)
        poly = QPoly.from_coefficient_strings(data["coefficients"])
        assert poly == QPoly(N6_COEFFICIENTS)
        assert data["degree"] == 20
        assert Fraction(data["euler"]) == poly(1)

    def test_betti_m6_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, ["betti", "--space", "M6", "--json"])
        data = json.loads(out)
        assert QPoly.from_coefficient_strings(data["coefficients"]) == assemble_m6()

    def test_betti_gr_and_kronecker(self, capsys):
        _, out, _ = run_capture(capsys,
                                ["betti", "--space", "kronecker:3:1:1", "--json"])
        assert json.loads(out)["coefficients"] == ["1", "1", "1"]
        _, out, _ = run_capture(capsys, ["betti", "--space", "gr:1:3", "--json"])
        assert json.loads(out)["coefficients"] == ["1", "1", "1"]

    def test_walls_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, ["walls", "--degree", "6", "--json"])
        data = json.loads(out)
        assert data["degree"] == 6
        assert len(data["walls"]) == 9
        radii = {Fraction(w["radius_sq"]) for w in data["walls"]}
        assert Fraction(64, 9) in radii and Fraction(61, 9) in radii
        for w in data["walls"]:
            if w["actual"]:
                assert w["divisor"] is not None
                Fraction(w["divisor"]["a"])
            else:
                assert w["divisor"] is None

    def test_intersect_json(self, capsys):
        _, out, _ = run_capture(capsys,
                                ["intersect", "--family", "jacobian",
                                 "--degree", "6", "--w", "-6,1,-1/2", "--json"])
        assert json.loads(out)["value"] == "60"

    def test_divisor_and_euler_json(self, capsys):
        _, out, _ = run_capture(capsys, ["divisor", "--degree", "6",
                                         "--destabilizer", "1,2,0", "--json"])
        data = json.loads(out)
        assert (Fraction(data["a"]), Fraction(data["l"])) == (16, 1)
        _, out, _ = run_capture(capsys, ["euler", "--v", "0,6,-8",
                                         "--w", "1,2,0",
                                         "--pairing", "hom", "--json"])
        assert Fraction(json.loads(out)["value"]) == Fraction(-29)

    def test_effective_json(self, capsys):
        _, out, _ = run_capture(capsys, ["effective", "--degree", "9", "--json"])
        data = json.loads(out)
        assert data["A"] == {"a": "1", "l": "0"}
        assert data["L"] == {"a": "0", "l": "1"}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["walls", "--degree", "6"],
        ["walls", "--degree", "6", "--json"],
        ["betti", "--space", "Q6", "--json"],
        ["nef", "--degree", "8", "--json"],
    ])
    def test_identical_bytes(self, capsys, argv):
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second


class TestSvg:
    def test_render_walls(self, tmp_path, capsys):
        target = tmp_path / "walls.svg"
        code, _, _ = run_capture(capsys, ["walls", "--degree", "6",
                                          "--svg", str(target)])
        assert code == 0
        body = target.read_text()
        assert body.count("<path") == 9
        assert body.startswith("<svg")

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        wall_list = [Wall(Fraction(-4, 3), Fraction(64, 9)),
                     Wall(Fraction(-4, 3), Fraction(16, 9))]
        render_svg(wall_list, str(a))
        render_svg(wall_list, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().count(b"<path") == 2

    def test_single_wall(self, tmp_path):
        target = tmp_path / "one.svg"
        render_svg([Wall(0, 1)], str(target))
        assert target.read_text().count("<path") == 1

    def test_unwritable_path(self, capsys):
        code, _, err = run_capture(capsys, ["walls", "--degree", "6",
                                            "--svg", "/nonexistent/dir/out.svg"])
        assert code == 2
        assert "error" in err
