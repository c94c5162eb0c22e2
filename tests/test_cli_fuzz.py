"""Seeded random argument vectors for every subcommand.

The first two tests read cli_digest's one draw of 600 argv of seed
2013.  Each argv must end with exit 0, 1 or 2 and print no traceback,
and the stdout, stderr and exit codes of all of them are pinned by one
digest each, the same on every supported interpreter.  Legitimate but
slow inputs are drawn from bounded ranges (walls up to degree 40,
Grassmannians up to n = 24) so the draw stays under two seconds; the
Kronecker shapes cover the full range the guards accept and beyond.
SVG output goes to os.devnull.
"""

import subprocess
import sys

import cli_digest


def test_every_argv_ends_with_an_exit_code():
    found = cli_digest.outcomes(2013, 600)
    escapes = [(argv, code, err) for argv, code, _, err in found
               if code not in (0, 1, 2) or "Traceback" in err]
    assert escapes == []
    # the draw reaches every subcommand and every exit code
    assert {code for _, code, _, _ in found} == {0, 1, 2}
    assert {"walls", "nef", "effective", "divisor", "intersect", "euler",
            "betti"} <= {argv[0] for argv, _, _, _ in found}


#: sha256 digests of cli_digest.digests(2013, 600), recorded when this
#: test was written; a change to the bytes or the exit code of any of
#: those argv must update them and say why.  They are the same on every
#: supported interpreter: the package, not argparse, words an invalid
#: choice and a leading "--", where argparse's releases differ
CLI_DIGESTS = {
    "stdout": "70fad2d0789ef7aa73c783005c96d27d94acfd60937260ff7f8cdf916f2e2197",
    "stderr": "ada145a8229c7d35ed6538f3f050a7eb8fd7bd2c8e910d3068cb293e54cf369b",
    "codes": "0281f6cb35444a20adbd1d3bd31f3a9218702540872b6ffe221c816c57421d90",
}


def test_cli_bytes_are_pinned():
    assert cli_digest.digests(2013, 600) == CLI_DIGESTS


def test_digest_script_runs_without_site_packages():
    # -S keeps site-packages, and with them pytest, out of the child
    done = subprocess.run([sys.executable, "-S", cli_digest.__file__, "--count", "20"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["stdout", "stderr", "codes"]
