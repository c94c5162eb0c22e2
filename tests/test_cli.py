import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from planemoduli import betti, divisors, ktheory, walls
from planemoduli.betti import assemble_m6
from planemoduli.cli import _space_poly, _value_too_long, run
from planemoduli.exactmath import QPoly, grassmannian_poincare
from importpath import loaded_after, package_modules
from oracles import N6_COEFFICIENTS


CHOOSE_COMMAND = ("(choose from 'walls', 'nef', 'effective', 'divisor', 'intersect', "
                  "'euler', 'betti')")


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_capture(capsys, ["nef", "--degree", "6"])
        assert code == 0

    # the package words these bytes: argparse's wording of an invalid choice,
    # and what it does with a leading "--", differ between releases
    @pytest.mark.parametrize("argv, err", [
        ("frobnicate", "planemoduli: error: argument command: "
                       f"invalid choice: 'frobnicate' {CHOOSE_COMMAND}"),
        ("-- betti --space M6 --at 1",
         f"planemoduli: error: argument command: invalid choice: '--' {CHOOSE_COMMAND}"),
        ("intersect --family x --degree 6 --w 1,0,0",
         "planemoduli intersect: error: argument --family: invalid choice: 'x' "
         "(choose from 'pencil', 'jacobian', 'evenwall', 'oddwall')"),
        ("euler --v 1,0,0 --w 1,0,0 --pairing x",
         "planemoduli euler: error: argument --pairing: invalid choice: 'x' "
         "(choose from 'product', 'hom')"),
        ("nef --degree x", "planemoduli nef: error: argument --degree: invalid int value: 'x'"),
        ("betti --space M7", "planemoduli betti: error: unknown space 'M7'"),
        ("betti --space gr:a:3",
         "planemoduli betti: error: bad space parameters in 'gr:a:3'"),
    ], ids=["frobnicate", "leading-dashes", "family", "pairing", "int", "space",
            "space-parameters"])
    def test_usage_error_on_unknown_command(self, capsys, argv, err):
        assert run_capture(capsys, argv.split()) == (1, "", err + "\n")

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
        ["betti", "--space", "kronecker:50:5:4"],
        ["betti", "--space", "kronecker:1000:2:1"],
        # exponent notation would build the huge integer before any check
        ["betti", "--space", "M6", "--at", "1e400"],
        ["betti", "--space", "M6", "--at", "1e3000000"],
        ["euler", "--v", "1,0,1e3000000", "--w", "1,0,0", "--pairing", "hom"],
        # results above Python's 4300-digit int-to-str limit
        ["betti", "--space", "gr:2:3000", "--at", "10"],
        ["nef", "--degree", "1" + "0" * 1500],
        # negative moduli dimension: empty, rejected before any counting
        ["betti", "--space", "kronecker:1:9:8"],
        ["betti", "--space", "kronecker:3:4:1"],
        # the 4300-digit cases again, under --json
        ["betti", "--space", "gr:2:3000", "--at", "10", "--json"],
        ["nef", "--degree", "1" + "0" * 1500, "--json"],
    ])
    def test_unbounded_work_rejected_up_front(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, expected", [
        # integers are an optional "-" and ASCII digits, nothing else
        (["nef", "--degree", "\uff11\uff12"], 1),
        (["nef", "--degree", " 7"], 1),
        (["betti", "--space", "kronecker:4:2:\u0663"], 1),
        (["divisor", "--degree", "6", "--destabilizer", "\u0661,\u0663,-7/2"], 2),
        (["betti", "--space", "M6", "--at", "\u0661/\u0662"], 2),
        # and one spelling each: no leading zero, no "-0"
        (["betti", "--space", "kronecker:3:02:1", "--json"], 1),
        (["nef", "--degree", "06"], 1),
        (["nef", "--degree", "-0"], 1),
        (["divisor", "--degree", "6", "--destabilizer", "01,3,-7/2"], 2),
    ])
    def test_non_ascii_and_padded_numbers_rejected(self, capsys, argv, expected):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (expected, "")
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
        # a deep Gr(2, 1500) runs without a traceback, and
        # [n 0] = [n n] = 1 is the empty product, with no step at all
        for argv, expected in (
                (["gr:2:1500", "--at", "1"], "1124250\n"),
                (["gr:0:" + str(10 ** 12)], "1\n"),
                (["gr:" + str(10 ** 12) + ":" + str(10 ** 12)], "1\n")):
            code, out, err = run_capture(capsys, ["betti", "--space", *argv])
            assert (code, out) == (0, expected)
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
        poly = QPoly(map(int, data["coefficients"]))
        assert poly == QPoly(N6_COEFFICIENTS)
        assert data["degree"] == 20
        assert Fraction(data["euler"]) == poly(1)

    def test_betti_m6_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, ["betti", "--space", "M6", "--json"])
        data = json.loads(out)
        assert QPoly(map(int, data["coefficients"])) == assemble_m6()

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

    def test_echo_is_canonical(self, capsys):
        # the echoed classes are str() of the parsed values, not the argv text
        _, out, _ = run_capture(capsys, ["euler", "--v", " 1, 0, 0.0", "--w",
                                         "1,0,0", "--pairing", "hom", "--json"])
        assert json.loads(out) == {"pairing": "hom", "v": "1,0,0",
                                   "w": "1,0,0", "value": "1"}
        _, out, _ = run_capture(capsys, ["intersect", "--family", "pencil",
                                         "--degree", "6", "--w", " -6, 1, -0.5",
                                         "--json"])
        assert json.loads(out)["w"] == "-6,1,-1/2"

    @pytest.mark.parametrize("n", [0, 2, 8])
    def test_hilb_default_model_has_one_echo(self, capsys, n):
        outs = [run_capture(capsys, ["betti", "--space", space, "--json"])[1]
                for space in (f"hilb:{n}", f"hilb:{n}:0")]
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["space"] == f"hilb:{n}"

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

    # sha256 of whole files, written arc by arc from the candidate stream
    @pytest.mark.parametrize("d, digest", [
        (6, "93eb37633d7c35ec7b3a5608a0623df136433cd97bc170900566cb0b1a92136d"),
        (60, "71151a7a730e8235f24f3b42801d537b897848383b292dda67bbdf4ab9eca814"),
        (120, "bc0046bdd57dc7ff5e72ab146b260eb0d0b1b3ae410c1ae00b3bb1ef0302f1d8"),
    ])
    def test_svg_bytes(self, tmp_path, capsys, d, digest):
        target = tmp_path / "walls.svg"
        assert run_capture(capsys, ["walls", "--degree", str(d), "--svg", str(target)])[0] == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_single_wall(self, tmp_path, capsys):
        # degree 3 has one potential wall: the first wall is the collapsing one
        target = tmp_path / "one.svg"
        assert run_capture(capsys, ["walls", "--degree", "3", "--svg", str(target)])[0] == 0
        assert target.read_text().count("<path") == 1

    def test_unwritable_path(self, capsys):
        for path in ("/nonexistent/dir/out.svg", ""):
            code, out, err = run_capture(capsys, ["walls", "--degree", "6",
                                                  "--svg", path])
            assert code == 2
            assert "error" in err
            assert out == ""


# Expected stdout of every subcommand in text and --json mode, byte for
# byte: the CLI bytes are part of the interface.
GOLDEN = [
    (['walls', '--degree', '6'],
     'center  radius_sq  destabilizer  status     divisor\n'
     '-4/3    64/9       1,2,0         actual     16A + L\n'
     '-4/3    61/9       1,3,-3/2      potential  -\n'
     '-4/3    49/9       1,1,1/2       actual     11A + L\n'
     '-4/3    46/9       1,2,-1        actual     10A + L\n'
     '-4/3    43/9       1,3,-5/2      potential  -\n'
     '-4/3    31/9       1,1,-1/2      actual     5A + L\n'
     '-4/3    28/9       1,2,-2        actual     4A + L\n'
     '-4/3    25/9       1,3,-7/2      actual     3A + L\n'
     '-4/3    16/9       1,0,0         actual     L\n'),
    (['walls', '--degree', '6', '--json'],
     '{"degree": 6, "walls": [{"center": "-4/3", "radius_sq": "64/9", '
     '"destabilizer": "1,2,0", "actual": true, "divisor": {"a": "16", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "61/9", '
     '"destabilizer": "1,3,-3/2", "actual": false, "divisor": null}, '
     '{"center": "-4/3", "radius_sq": "49/9", '
     '"destabilizer": "1,1,1/2", "actual": true, "divisor": {"a": "11", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "46/9", '
     '"destabilizer": "1,2,-1", "actual": true, "divisor": {"a": "10", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "43/9", '
     '"destabilizer": "1,3,-5/2", "actual": false, "divisor": null}, '
     '{"center": "-4/3", "radius_sq": "31/9", '
     '"destabilizer": "1,1,-1/2", "actual": true, "divisor": {"a": "5", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "28/9", '
     '"destabilizer": "1,2,-2", "actual": true, "divisor": {"a": "4", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "25/9", '
     '"destabilizer": "1,3,-7/2", "actual": true, "divisor": {"a": "3", '
     '"l": "1"}}, {"center": "-4/3", "radius_sq": "16/9", '
     '"destabilizer": "1,0,0", "actual": true, "divisor": {"a": "0", '
     '"l": "1"}}]}\n'),
    (['nef', '--degree', '6'],
     'A, 16A + L\n'),
    (['nef', '--degree', '6', '--json'],
     '{"A": {"a": "1", "l": "0"}, "B": {"a": "16", "l": "1"}}\n'),
    (['nef', '--degree', '7'],
     'A, 33A + L\n'),
    (['nef', '--degree', '7', '--json'],
     '{"A": {"a": "1", "l": "0"}, "B": {"a": "33", "l": "1"}}\n'),
    (['effective', '--degree', '6'],
     'A, L\n'),
    (['effective', '--degree', '6', '--json'],
     '{"A": {"a": "1", "l": "0"}, "L": {"a": "0", "l": "1"}}\n'),
    (['divisor', '--degree', '6', '--destabilizer', '1,3,-7/2'],
     '3A + L\n'),
    (['divisor', '--degree', '6', '--destabilizer', '1,3,-7/2', '--json'],
     '{"a": "3", "l": "1"}\n'),
    (['divisor', '--degree', '6', '--destabilizer', '-1,1,1/2'],
     '-11A + L\n'),
    (['divisor', '--degree', '6', '--destabilizer', '-1,1,1/2', '--json'],
     '{"a": "-11", "l": "1"}\n'),
    (['intersect', '--family', 'evenwall', '--degree', '6', '--w', '-6,1,-1/2'],
     '-21\n'),
    (['intersect', '--family', 'evenwall', '--degree', '6', '--w', '-6,1,-1/2', '--json'],
     '{"family": "evenwall", "degree": 6, "w": "-6,1,-1/2", "value": "-21"}\n'),
    (['euler', '--v', '1,-3,9/2', '--w', '1,3,-7/2', '--pairing', 'hom'],
     '20\n'),
    (['euler', '--v', '1,-3,9/2', '--w', '1,3,-7/2', '--pairing', 'hom', '--json'],
     '{"pairing": "hom", "v": "1,-3,9/2", "w": "1,3,-7/2", "value": "20"}\n'),
    (['betti', '--space', 'M6'],
     '1 + 2*q + 6*q^2 + 13*q^3 + 29*q^4 + 54*q^5 + 101*q^6 + 169*q^7 '
     '+ 273*q^8 + 401*q^9 + 547*q^10 + 675*q^11 + 779*q^12 + 847*q^13 '
     '+ 894*q^14 + 919*q^15 + 935*q^16 + 942*q^17 + 945*q^18 + 945*q^19 '
     '+ 942*q^20 + 935*q^21 + 919*q^22 + 894*q^23 + 847*q^24 + 779*q^25 '
     '+ 675*q^26 + 547*q^27 + 401*q^28 + 273*q^29 + 169*q^30 + 101*q^31 '
     '+ 54*q^32 + 29*q^33 + 13*q^34 + 6*q^35 + 2*q^36 + q^37\n'),
    (['betti', '--space', 'M6', '--json'],
     '{"space": "M6", "coefficients": ["1", "2", "6", "13", "29", "54", '
     '"101", "169", "273", "401", "547", "675", "779", "847", "894", '
     '"919", "935", "942", "945", "945", "942", "935", "919", "894", '
     '"847", "779", "675", "547", "401", "273", "169", "101", "54", '
     '"29", "13", "6", "2", "1"], "degree": 37, "euler": "17064"}\n'),
    (['betti', '--space', 'M6', '--at', '1/2'],
     '2012329991637/137438953472\n'),
    (['betti', '--space', 'M6', '--at', '1/2', '--json'],
     '{"space": "M6", "coefficients": ["1", "2", "6", "13", "29", "54", '
     '"101", "169", "273", "401", "547", "675", "779", "847", "894", '
     '"919", "935", "942", "945", "945", "942", "935", "919", "894", '
     '"847", "779", "675", "547", "401", "273", "169", "101", "54", '
     '"29", "13", "6", "2", "1"], "degree": 37, "euler": "17064", '
     '"at": "1/2", "value": "2012329991637/137438953472"}\n'),
    (['betti', '--space', 'N6'],
     '1 + q + 3*q^2 + 5*q^3 + 10*q^4 + 14*q^5 + 23*q^6 + 30*q^7 '
     '+ 41*q^8 + 46*q^9 + 51*q^10 + 46*q^11 + 41*q^12 + 30*q^13 '
     '+ 23*q^14 + 14*q^15 + 10*q^16 + 5*q^17 + 3*q^18 + q^19 + q^20\n'),
    (['betti', '--space', 'N6', '--json'],
     '{"space": "N6", "coefficients": ["1", "1", "3", "5", "10", "14", '
     '"23", "30", "41", "46", "51", "46", "41", "30", "23", "14", "10", '
     '"5", "3", "1", "1"], "degree": 20, "euler": "399"}\n'),
    (['betti', '--space', 'N6', '--at', '1/2'],
     '5105751/1048576\n'),
    (['betti', '--space', 'N6', '--at', '1/2', '--json'],
     '{"space": "N6", "coefficients": ["1", "1", "3", "5", "10", "14", '
     '"23", "30", "41", "46", "51", "46", "41", "30", "23", "14", "10", '
     '"5", "3", "1", "1"], "degree": 20, "euler": "399", "at": "1/2", '
     '"value": "5105751/1048576"}\n'),
    (['betti', '--space', 'Q6'],
     '1 + 2*q + 5*q^2 + 10*q^3 + 20*q^4 + 34*q^5 + 57*q^6 + 87*q^7 '
     '+ 128*q^8 + 174*q^9 + 225*q^10 + 271*q^11 + 312*q^12 + 342*q^13 '
     '+ 365*q^14 + 379*q^15 + 389*q^16 + 394*q^17 + 396*q^18 + 396*q^19 '
     '+ 394*q^20 + 389*q^21 + 379*q^22 + 365*q^23 + 342*q^24 + 312*q^25 '
     '+ 271*q^26 + 225*q^27 + 174*q^28 + 128*q^29 + 87*q^30 + 57*q^31 '
     '+ 34*q^32 + 20*q^33 + 10*q^34 + 5*q^35 + 2*q^36 + q^37\n'),
    (['betti', '--space', 'Q6', '--json'],
     '{"space": "Q6", "coefficients": ["1", "2", "5", "10", "20", "34", '
     '"57", "87", "128", "174", "225", "271", "312", "342", "365", '
     '"379", "389", "394", "396", "396", "394", "389", "379", "365", '
     '"342", "312", "271", "225", "174", "128", "87", "57", "34", "20", '
     '"10", "5", "2", "1"], "degree": 37, "euler": "7182"}\n'),
    (['betti', '--space', 'Q6', '--at', '1/2'],
     '1338436884393/137438953472\n'),
    (['betti', '--space', 'Q6', '--at', '1/2', '--json'],
     '{"space": "Q6", "coefficients": ["1", "2", "5", "10", "20", "34", '
     '"57", "87", "128", "174", "225", "271", "312", "342", "365", '
     '"379", "389", "394", "396", "396", "394", "389", "379", "365", '
     '"342", "312", "271", "225", "174", "128", "87", "57", "34", "20", '
     '"10", "5", "2", "1"], "degree": 37, "euler": "7182", "at": "1/2", '
     '"value": "1338436884393/137438953472"}\n'),
    (['betti', '--space', 'hilb:8:6'],
     '1 + 2*q + 4*q^2 + 5*q^3 + 7*q^4 + 8*q^5 + 10*q^6 + 11*q^7 '
     '+ 12*q^8 + 11*q^9 + 10*q^10 + 8*q^11 + 7*q^12 + 5*q^13 + 4*q^14 '
     '+ 2*q^15 + q^16\n'),
    (['betti', '--space', 'hilb:8:6', '--json'],
     '{"space": "hilb:8:6", "coefficients": ["1", "2", "4", "5", "7", '
     '"8", "10", "11", "12", "11", "10", "8", "7", "5", "4", "2", "1"], '
     '"degree": 16, "euler": "108"}\n'),
    (['betti', '--space', 'hilb:8:6', '--at', '1/2'],
     '304045/65536\n'),
    (['betti', '--space', 'hilb:8:6', '--at', '1/2', '--json'],
     '{"space": "hilb:8:6", "coefficients": ["1", "2", "4", "5", "7", '
     '"8", "10", "11", "12", "11", "10", "8", "7", "5", "4", "2", "1"], '
     '"degree": 16, "euler": "108", "at": "1/2", '
     '"value": "304045/65536"}\n'),
    (['betti', '--space', 'kronecker:3:5:4'],
     '1 + q + 3*q^2 + 5*q^3 + 10*q^4 + 14*q^5 + 23*q^6 + 30*q^7 '
     '+ 41*q^8 + 46*q^9 + 51*q^10 + 46*q^11 + 41*q^12 + 30*q^13 '
     '+ 23*q^14 + 14*q^15 + 10*q^16 + 5*q^17 + 3*q^18 + q^19 + q^20\n'),
    (['betti', '--space', 'kronecker:3:5:4', '--json'],
     '{"space": "kronecker:3:5:4", "coefficients": ["1", "1", "3", "5", '
     '"10", "14", "23", "30", "41", "46", "51", "46", "41", "30", "23", '
     '"14", "10", "5", "3", "1", "1"], "degree": 20, "euler": "399"}\n'),
    (['betti', '--space', 'kronecker:3:5:4', '--at', '1/2'],
     '5105751/1048576\n'),
    (['betti', '--space', 'kronecker:3:5:4', '--at', '1/2', '--json'],
     '{"space": "kronecker:3:5:4", "coefficients": ["1", "1", "3", "5", '
     '"10", "14", "23", "30", "41", "46", "51", "46", "41", "30", "23", '
     '"14", "10", "5", "3", "1", "1"], "degree": 20, "euler": "399", '
     '"at": "1/2", "value": "5105751/1048576"}\n'),
    (['betti', '--space', 'gr:2:9'],
     '1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6 + 4*q^7 + 4*q^8 '
     '+ 3*q^9 + 3*q^10 + 2*q^11 + 2*q^12 + q^13 + q^14\n'),
    (['betti', '--space', 'gr:2:9', '--json'],
     '{"space": "gr:2:9", "coefficients": ["1", "1", "2", "2", "3", '
     '"3", "4", "4", "4", "3", "3", "2", "2", "1", "1"], "degree": 14, '
     '"euler": "36"}\n'),
    (['betti', '--space', 'gr:2:9', '--at', '1/2'],
     '43435/16384\n'),
    (['betti', '--space', 'gr:2:9', '--at', '1/2', '--json'],
     '{"space": "gr:2:9", "coefficients": ["1", "1", "2", "2", "3", '
     '"3", "4", "4", "4", "3", "3", "2", "2", "1", "1"], "degree": 14, '
     '"euler": "36", "at": "1/2", "value": "43435/16384"}\n'),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, expected", GOLDEN,
                             ids=[" ".join(argv) for argv, _ in GOLDEN])
    def test_stdout(self, capsys, argv, expected):
        assert run_capture(capsys, argv)[:2] == (0, expected)


# sha256 of the stdout of larger walls tables, text and --json
WALLS_DIGESTS = [
    (["walls", "--degree", "7"],
     "d906822dad2e944f48b4fd530c0969b91d4d3e6152c12be1116713b8a530eff7"),
    (["walls", "--degree", "7", "--json"],
     "97a5aa9213e3a2d69eca5b2a1be140eec3245282d49cf1fd8ffa1ae8a1c9a8d1"),
    (["walls", "--degree", "60"],
     "57b721386ef9ce210e16d1827be1d1a5b8cbf27941e61f0331198b1a3ddbe0eb"),
    (["walls", "--degree", "60", "--json"],
     "0be6845d3dda0d7a4f31d6098c542ec4d9a4bef3a7001c7eb7f7efe5c43fcc7c"),
    (["walls", "--degree", "120"],
     "7e1953588e91362ec0e49bbec7323cb3a85d51e86241e8761f8308b144dce1d3"),
    (["walls", "--degree", "120", "--json"],
     "123ef98acc73a8b494187c42a7d79154df32c6f48a970cc03eac13e6a2b97ab4"),
    (["walls", "--degree", "200"],
     "b6f1116162c9b47860b054081a35d4a9bd34a3296b7caf1fb4634d92dcc389e2"),
    (["walls", "--degree", "200", "--json"],
     "e014a776896489741c43e3d085dfa6ff445eabdb58329b8e0436b9c2053c7b7f"),
]


class TestWallsDigests:
    @pytest.mark.parametrize("argv, digest", WALLS_DIGESTS,
                             ids=[" ".join(argv) for argv, _ in WALLS_DIGESTS])
    def test_stdout(self, capsys, argv, digest):
        code, out, _ = run_capture(capsys, argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


class _HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


WALLS_60 = [(argv, digest) for argv, digest in WALLS_DIGESTS if argv[2] == "60"]


class TestWallsStream:
    @pytest.mark.parametrize("argv, digest", WALLS_60,
                             ids=[" ".join(argv) for argv, _ in WALLS_60])
    def test_rows_are_written_as_they_are_made(self, monkeypatch, argv, digest):
        # the table is written row by row, so the command holds O(d), not
        # the rows, the payload or its text (1.7 and 5.1 MB when it did)
        sink = _HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (code, sink.hash.hexdigest()) == (0, digest)
        assert peak < 500_000

    def test_picture_is_written_as_it_is_made(self, monkeypatch, tmp_path):
        # each arc is written as it comes from the candidate stream, with no
        # list of walls, radii or path strings (4 MB when there was one)
        target = tmp_path / "walls.svg"
        sink = _HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = run(["walls", "--degree", "60", "--svg", str(target)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        [text] = [digest for argv, digest in WALLS_60 if "--json" not in argv]
        assert (code, sink.hash.hexdigest()) == (0, text)
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            "71151a7a730e8235f24f3b42801d537b897848383b292dda67bbdf4ab9eca814"
        assert peak < 500_000


class TestWallsAgainstLibrary:
    def test_json_rows_match_the_enumeration(self, capsys):
        # the command formats its rows from the runs of candidates, and the
        # library builds values from the same runs on a route of its own
        for d in range(3, 61):
            if d == 6:
                curated = {rec.destabilizer for rec in betti.m6_wall_records()}
            else:
                curated = {divisors.first_wall_destabilizer(d)}
            curated.add(ktheory.line_bundle(0))
            code, out, _ = run_capture(capsys, ["walls", "--degree", str(d), "--json"])
            assert code == 0
            rows = json.loads(out)["walls"]
            pairs = walls.enumerate_potential_walls(d)
            assert [(row["center"], row["radius_sq"], row["destabilizer"])
                    for row in rows] == \
                [(str(w.center), str(w.radius_sq), str(c)) for c, w in pairs]
            assert [(row["actual"], row["divisor"]) for row in rows] == \
                [(True, divisors.wall_divisor(d, c).to_json()) if c in curated
                 else (False, None) for c, _ in pairs]
            assert sum(row["actual"] for row in rows) == len(curated)

    @pytest.mark.parametrize("d, divisors_built", [(6, 7), (60, 2)])
    def test_only_the_picture_builds_wall_values(self, capsys, monkeypatch, tmp_path,
                                                 d, divisors_built):
        # no ChernP2 or Wall per candidate in any mode, the picture included:
        # the enumeration that builds them is not called, and wall_divisor
        # runs once per curated class
        def no_enumeration(degree):
            raise AssertionError("walls were enumerated as values")

        built, real = [], divisors.wall_divisor
        monkeypatch.setattr(walls, "enumerate_potential_walls", no_enumeration)
        monkeypatch.setattr(divisors, "wall_divisor",
                            lambda degree, v: built.append(v) or real(degree, v))
        for extra in ([], ["--json"], ["--svg", str(tmp_path / "walls.svg")]):
            built.clear()
            assert run_capture(capsys, ["walls", "--degree", str(d), *extra])[0] == 0
            assert len(built) == divisors_built


TOO_MANY_DIGITS = "error: the result has too many digits to print\n"

#: points for gr:100:200, of degree 10,000 and leading coefficient 1, with
#: whether the refusal comes before the evaluation: a denominator b of
#: 41 digits gives b**10000, and a 300-digit integer exceeds 2 max|c_i| + 1
#: (max|c_i| has 56 digits), so the value has far more than 4300 digits
HUGE_VALUE_POINTS = [
    ("3/2", False),
    ("-3/2", False),
    ("123456789012345678901234567890", False),
    ("1234567890123456789012345678901234567891/"
     "12345678901234567890123456789012345678901", True),
    ("7" * 300, True),
    ("-" + "7" * 300, True),
    ("3" * 400 + "/" + "7" * 401, True),
]


@pytest.fixture(scope="module")
def gr_100_200() -> QPoly:
    return _space_poly("gr:100:200")


class TestHugeValues:
    @pytest.mark.parametrize("at, up_front", HUGE_VALUE_POINTS,
                             ids=[at[:12] for at, _ in HUGE_VALUE_POINTS])
    def test_gr_100_200(self, capsys, gr_100_200, at, up_front):
        argv = ["betti", "--space", "gr:100:200", "--at", at]
        assert run_capture(capsys, argv) == (2, "", TOO_MANY_DIGITS)
        if up_front:  # cheap now, so under --json too
            assert run_capture(capsys, argv + ["--json"]) == (2, "", TOO_MANY_DIGITS)
        assert _value_too_long(gr_100_200, Fraction(at)) == up_front

    def test_refuses_only_what_str_refuses(self):
        # at the least limit Python allows, over points whose numerators and
        # denominators straddle it: a refusal is always right, and a monic
        # polynomial is refused whenever its denominator alone is too long
        bound = 10 ** 640
        rng = random.Random(2013)
        cases = []
        for poly in [*(_space_poly(spec) for spec in
                       ("M6", "N6", "Q6", "hilb:8:6", "kronecker:3:5:4", "gr:2:9",
                        "gr:10:30", "gr:20:60")),
                     QPoly([1, 5, -1]), QPoly([3, 0, 0, 2]), QPoly([-7] * 40 + [-1])]:
            top = 2 * 640 // poly.degree + 3
            cases += [(poly, Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** rng.randrange(top)),
                                      rng.randrange(1, 10 ** rng.randrange(top) + 1)))
                      for _ in range(60)]
        # at the edges of the two bounds: q^n - m (q^(n-1) + ... + 1), the
        # least |P(x)| for max|c_i| = m, at m + 1 (where it is 1), 2m and
        # 2m + 1 (where it is (x^n + 1) / 2), with x^n just past 10^640 or
        # 2 10^640; and 2 q^n + 1 at 1/2, whose denominator is 2^(n-1)
        for m in (1, 2, 3, 4, 5, 9, 30):
            for x in (m + 1, 2 * m, 2 * m + 1):
                for least in (bound, 2 * bound):
                    n = 1
                    while x ** n < least:
                        n += 1
                    cases.append((QPoly([-m] * n + [1]), Fraction(x)))
        cases.append((QPoly([1] + [0] * 2126 + [2]), Fraction(1, 2)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        refused = 0
        try:
            for poly, x in cases:
                value = Fraction(poly(x))
                too_long = max(abs(value.numerator), value.denominator) >= bound
                if too_long:
                    with pytest.raises(ValueError, match="integer string conversion"):
                        str(value)
                else:
                    str(value)
                if _value_too_long(poly, x):
                    assert too_long
                    refused += 1
                elif abs(poly.coefficients[-1]) == 1:
                    assert x.denominator ** poly.degree < bound
        finally:
            sys.set_int_max_str_digits(limit)
        assert refused > 100

    def test_no_limit_keeps_printing(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{grassmannian_poincare(2, 3000)(10)}\n"
            got = run_capture(capsys, ["betti", "--space", "gr:2:3000", "--at", "10"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (0, expected, "")
        assert len(expected) > 5000

    def test_interpreter_without_the_limit(self, capsys, monkeypatch):
        # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits and no limit
        argv = ["betti", "--space", "gr:2:5", "--at", "1/2"]
        expected = run_capture(capsys, argv)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert run_capture(capsys, argv) == expected
        assert expected[0] == 0


#: the planemoduli submodules that one call of each command loads, on top of
#: cli and the errors and number parsers that every call loads
COMMAND_MODULES = [
    (["euler", "--v", "1,-3,9/2", "--w", "1,3,-7/2", "--pairing", "hom"],
     {"ktheory"}),
    (["nef", "--degree", "6"], {"divisors", "ktheory"}),
    (["effective", "--degree", "6", "--json"], {"divisors", "ktheory"}),
    (["divisor", "--degree", "6", "--destabilizer", "1,3,-7/2"],
     {"divisors", "ktheory"}),
    (["intersect", "--family", "evenwall", "--degree", "6", "--w", "-6,1,-1/2"],
     {"chow", "divisors", "ktheory"}),
    (["walls", "--degree", "7"], {"divisors", "ktheory", "walls"}),
    (["walls", "--degree", "6"], {"betti", "divisors", "ktheory", "walls"}),
    (["betti", "--space", "kronecker:3:2:1"], {"betti", "ktheory"}),
    (["frobnicate"], set()),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    code = f"""
    import contextlib, io
    from planemoduli import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run({argv!r})
    """
    assert package_modules(loaded_after(code)) == {"cli", "errors", "exactmath"} | modules


#: calls that must not load typing: a cone, a wall table, the M6 polynomial
#: as JSON and an Euler pairing
TYPING_FREE_CALLS = [["nef", "--degree", "12"], ["walls", "--degree", "6"],
                     ["betti", "--space", "M6", "--json"],
                     ["euler", "--v", "1,-3,9/2", "--w", "1,3,-7/2", "--pairing", "hom"]]


@pytest.mark.parametrize("argv", TYPING_FREE_CALLS, ids=[argv[0] for argv in TYPING_FREE_CALLS])
def test_no_command_loads_typing(argv):
    # without site: a .pth file that site runs can import typing before any package code
    code = f"""
    import contextlib, io
    from planemoduli import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run({argv!r}) == 0
    """
    assert "typing" not in loaded_after(code, "-S")
