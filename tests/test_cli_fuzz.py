"""Seeded random argument vectors for every subcommand.

Each argv must end with exit 0, 1 or 2 and print no traceback.  Legitimate
but slow inputs are drawn from bounded ranges (walls up to degree 40,
Grassmannians up to n = 24) so the whole run stays under two seconds;
the Kronecker shapes cover the full range the guards accept and beyond.
The bytes and exit codes of 600 of these argv are pinned by digest.
"""

import argparse
import random
from fractions import Fraction

import pytest

from planemoduli.cli import run

#: tokens no flag should take at face value: empty, non-numbers, division
#: by zero, hex, non-ASCII digits, exponents, wrong field counts
JUNK = ["", "nan", "inf", "-", "--", "1/0", "0x10", "٣", "１２",
        "½", "1e3", "-0", " 7", "+5", "3/-2", "0.5.1", "1,2",
        "1,2,3,4", "a,b,c", ",,", "::", "--help"]

FAMILIES = ["pencil", "jacobian", "evenwall", "oddwall"]


def _junk_or(rng, token):
    return rng.choice(JUNK) if rng.random() < 0.12 else token


def _int(rng, lo, hi):
    return _junk_or(rng, str(rng.randint(lo, hi)))


def _rational(rng):
    num, den = rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5, 0))
    token = rng.choice((str(num), f"{num}/{den}", f"{num}.{rng.randint(0, 99)}"))
    return _junk_or(rng, token)


def _chern(rng):
    # r, c integers and e - c^2/2 an integer, or else any rational e;
    # sometimes a field too few or too many
    c = rng.randint(-8, 8)
    e = Fraction(c * c, 2) + rng.randint(-6, 6)
    fields = [str(rng.randint(-3, 3)), str(c),
              str(e) if rng.random() < 0.7 else _rational(rng)]
    if rng.random() < 0.1:
        fields = fields[:2] if rng.random() < 0.5 else fields + ["1"]
    return _junk_or(rng, ",".join(fields))


def _degree(rng, hi):
    return _int(rng, -3, rng.choice((12, hi)))


def _space(rng):
    kind = rng.choice(("M6", "N6", "Q6", "hilb", "kronecker", "kronecker",
                       "gr", "junk"))
    if kind in ("M6", "N6", "Q6"):
        return kind
    if kind == "hilb":
        fields = [_int(rng, -2, 14) for _ in range(rng.choice((1, 2, 2, 3)))]
    elif kind == "kronecker":
        # the large accepted shapes lie near the diagonal e = f
        arrows = rng.choice((3, 3, 4, rng.randint(0, 5), rng.randint(0, 120)))
        e = rng.randint(0, 18)
        f = max(0, e + rng.randint(-2, 2)) if rng.random() < 0.7 else rng.randint(0, 18)
        fields = [str(arrows), str(e), _junk_or(rng, str(f))]
        if rng.random() < 0.1:
            fields = fields[:2] if rng.random() < 0.5 else fields + ["1"]
    elif kind == "gr":
        fields = [_int(rng, -2, 12), _int(rng, -2, 24)]
    else:
        return rng.choice(JUNK + ["M7", "hilb", "kronecker", "gr:2"])
    return ":".join([kind] + fields)


def _argv(rng, svg_path):
    command = rng.choice(("walls", "nef", "effective", "divisor", "intersect",
                          "euler", "betti", "betti"))
    if command == "walls":
        flags = [("--degree", _degree(rng, 40))]
        if rng.random() < 0.05:
            flags.append(("--svg", svg_path))
    elif command in ("nef", "effective"):
        flags = [("--degree", _degree(rng, 10 ** 6))]
    elif command == "divisor":
        flags = [("--degree", _degree(rng, 60)), ("--destabilizer", _chern(rng))]
    elif command == "intersect":
        flags = [("--family", _junk_or(rng, rng.choice(FAMILIES))),
                 ("--degree", _degree(rng, 60)), ("--w", _chern(rng))]
    elif command == "euler":
        flags = [("--v", _chern(rng)), ("--w", _chern(rng)),
                 ("--pairing", _junk_or(rng, rng.choice(("product", "hom"))))]
    else:
        flags = [("--space", _space(rng))]
        if rng.random() < 0.4:
            flags.append(("--at", _rational(rng)))
    if rng.random() < 0.1:
        flags.pop(rng.randrange(len(flags)))
    argv = [rng.choice(JUNK) if rng.random() < 0.03 else command]
    for flag, value in flags:
        argv += [flag, value]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(JUNK))
    return argv


def test_every_argv_ends_with_an_exit_code(capsys, tmp_path):
    rng = random.Random(2013)
    svg_path = str(tmp_path / "walls.svg")
    escapes, codes, commands = [], set(), set()
    for _ in range(600):
        argv = _argv(rng, svg_path)
        commands.add(argv[0])
        try:
            code = run(argv)
        except Exception as exc:  # an escape is what this test looks for
            escapes.append((argv, repr(exc)))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            escapes.append((argv, code, err))
        codes.add(code)
    assert escapes == []
    # the draw reaches every subcommand and every exit code
    assert codes == {0, 1, 2}
    assert {"walls", "nef", "effective", "divisor", "intersect", "euler",
            "betti"} <= commands


#: sha256 digests of cli_digest.digests(2013, 600), recorded when this
#: test was written; a change to the bytes or the exit code of any of
#: those argv must update them and say why.  Only the stderr digest
#: depends on the interpreter: newer argparse releases (3.13.13, not
#: 3.13.0) print the choices of an invalid choice unquoted and drop a
#: "--" in front of the subcommand, so it is keyed by _argparse_wording
CLI_DIGESTS = {
    "stdout": "70fad2d0789ef7aa73c783005c96d27d94acfd60937260ff7f8cdf916f2e2197",
    "codes": "0281f6cb35444a20adbd1d3bd31f3a9218702540872b6ffe221c816c57421d90",
}
STDERR_DIGESTS = {
    (True, True): "e9fd44eeb4958a124fbbb6791cc9002644d4d344b4f73d9c2e1dcd29b40aaec9",
    (False, False): "0f333db47798617d0c7e721faf35f6228d13f7dee4fdef5aceb2d06bf9ab383f",
}


def _argparse_wording() -> tuple[bool, bool]:
    """Whether this interpreter's argparse quotes the choices of an invalid
    subcommand, and whether it keeps a "--" in front of the subcommand."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_subparsers(dest="command").add_parser("a")
    with pytest.raises(argparse.ArgumentError) as invalid:
        parser.parse_args(["b"])
    keeps_dashes = False
    try:
        parser.parse_args(["--", "a"])
    except argparse.ArgumentError:
        keeps_dashes = True
    return "'a'" in str(invalid.value), keeps_dashes


def test_cli_bytes_are_pinned():
    from cli_digest import digests  # it imports this module: not at the top

    found = digests(2013, 600)
    assert {"stdout": found["stdout"], "codes": found["codes"]} == CLI_DIGESTS
    assert found["stderr"] == STDERR_DIGESTS[_argparse_wording()]
