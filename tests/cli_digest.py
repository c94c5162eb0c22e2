"""Digest the command line's behaviour over the fuzz generator's argv.

Runs cli.run in-process on `count` argv drawn by test_cli_fuzz with the
given seed, and prints the sha256 of everything written to stdout, of
everything written to stderr, and of the list of exit codes.  Two
checkouts whose digests agree print the same bytes and exit the same way
on every one of those argv.  The checkout's own src is imported first:

    python tests/cli_digest.py --seed 2013 --count 1500

It is not a test module; pytest does not collect it.
"""

import argparse
import hashlib
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), HERE]

from planemoduli.cli import run  # noqa: E402
from test_cli_fuzz import _argv  # noqa: E402


def digests(seed: int, count: int) -> dict[str, str]:
    """sha256 of stdout, stderr and the exit codes over `count` argv of `seed`."""
    rng = random.Random(seed)
    out, err, codes = io.StringIO(), io.StringIO(), []
    with redirect_stdout(out), redirect_stderr(err):
        for _ in range(count):
            # the SVG file's bytes are not digested; its path must not vary
            codes.append(run(_argv(rng, os.devnull)))
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                               ("codes", repr(codes)))}


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
