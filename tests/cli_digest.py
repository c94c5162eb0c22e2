"""Draw the command line's fuzz argv and digest how it behaves on them.

outcomes() runs cli.run in-process on `count` argv drawn with `seed`,
once per session.  Run as a script, this prints the sha256 of all stdout,
of all stderr and of the list of exit codes: two checkouts or
interpreters whose digests agree print the same bytes and exit the same
way on every one of those argv.  It is not a test module, and it needs
only the standard library and the checkout's own src, imported first:

    python tests/cli_digest.py --seed 2013 --count 1500
"""

import argparse
import functools
import hashlib
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from planemoduli.cli import run  # noqa: E402

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


def _argv(rng):
    command = rng.choice(("walls", "nef", "effective", "divisor", "intersect",
                          "euler", "betti", "betti"))
    if command == "walls":
        flags = [("--degree", _degree(rng, 40))]
        if rng.random() < 0.05:
            # the SVG file's bytes are not digested; its path must not vary
            flags.append(("--svg", os.devnull))
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


@functools.cache
def outcomes(seed: int, count: int) -> tuple[tuple, ...]:
    """(argv, exit code or repr of the exception that escaped, stdout, stderr) per argv."""
    rng = random.Random(seed)
    found = []
    for _ in range(count):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(argv)
            except Exception as exc:  # an escape is what test_cli_fuzz looks for
                code = repr(exc)
        found.append((tuple(argv), code, out.getvalue(), err.getvalue()))
    return tuple(found)


def digests(seed: int, count: int) -> dict[str, str]:
    """sha256 of stdout, stderr and the exit codes over `count` argv of `seed`."""
    found = outcomes(seed, count)
    texts = {"stdout": "".join(out for _, _, out, _ in found),
             "stderr": "".join(err for _, _, _, err in found),
             "codes": repr([code for _, code, _, _ in found])}
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--count", type=int, default=1500)
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.count).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
