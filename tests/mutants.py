"""Mutation run over the finite-field oracle, the chain sum's step weight,
the wall stream, the field kinds and the float, bool and operand checks of
the exact constructors, the Gaussian binomial product, the Hilbert-scheme walls
and flips, the M6 wall records, the Euler pairing, the Todd class, the
polynomial evaluation, the {A, L} coordinates of a divisor, the nef closed
form and the Chow ring product: how many slips their tests catch.

Each mutant is one exact string replacement in one file of the package.
For each, the script copies src/, tests/ and pyproject.toml to a
temporary directory, applies the replacement there, runs the mutant's
own test files with -x and prints whether they failed (killed) or passed
(survived), and for a kill the id of the test that failed first.  It
ends with the kill ratio over the mutants that are not equivalent.  The
checkout itself is never written.

    python tests/mutants.py          # every mutant, a few minutes
    python tests/mutants.py 1 4      # mutants 1 and 4 only

Not a test module, so pytest does not collect it; test_mutants.py, which
the run leaves out, checks that each mutant's old text occurs exactly
once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "planemoduli")
ORACLE = ("tests/test_fieldcount.py", "tests/test_betti.py")
WALLS = ("tests/test_walls.py", "tests/test_cli.py", "tests/test_cli_fuzz.py")
BINOMIAL = ("tests/test_exactmath.py", "tests/test_betti.py")
HILBERT = ("tests/test_betti.py", "tests/test_walls.py", "tests/test_acceptance.py")
M6 = ("tests/test_betti.py", "tests/test_acceptance.py", "tests/test_ktheory.py")
DIVISORS = ("tests/test_divisors.py", "tests/test_chow.py", "tests/test_acceptance.py")

#: (file in the package, old text, new text, the slip, the test files run);
#: a slip that ends in "(equivalent)" changes no result and is not counted
#: in the ratio
MUTANTS = [
    ("_fieldcount.py", "d * inverse[scale[i]] % p", "d * scale[i] % p",
     "scale a line by its first digit instead of the digit's inverse", ORACLE),
    ("_fieldcount.py", "[scale[i] or d for", "[scale[i] or 1 for",
     "forget the first digit of the functionals p^j d", ORACLE),
    ("_fieldcount.py", "below[(s - a * c) % p]", "below[(s + a * c) % p]",
     "flip the sign of the residue a new digit adds", ORACLE),
    ("_fieldcount.py", "step = {width: [full << s * width", "step = {width: [full << s",
     "put the classes of p^j at the wrong digit", ORACLE),
    ("_fieldcount.py", "// ((1 << p ** f) - 1)", "// ((1 << p ** e) - 1)",
     "do not tile the heads' masks over the digits beyond f", ORACLE),
    ("_fieldcount.py", "for j in range(r))]", "for j in range(f))]",
     "let a head of rank r see all f coordinates of phi", ORACLE),
    ("_fieldcount.py", "p ** (w * e // f + 1)", "p ** (w * e // f)",
     "destabilize at dimension dim(W) e / f instead of above it", ORACLE),
    ("_fieldcount.py", "(p ** f - p ** i) * (p ** e - p ** i)",
     "(p ** f - p ** i) * (p ** f - p ** i)",
     "count square matrices of rank r in the rank weight", ORACLE),
    ("_fieldcount.py", "if state.bit_count() >= sub.need:", "if state.bit_count() > sub.need:",
     "skip the subspaces whose preimage is exactly at the threshold", ORACLE),
    ("_fieldcount.py", "range(p if j + 1 < last else 1)", "range(p)",
     "keep every residue class at the last level (equivalent)", ORACLE),
    ("betti.py", "if numerator % group_order != 0:", "if numerator % group_order < 0:",
     "drop the group-order divisibility check", ORACLE),
    ("betti.py", "any(p % d == 0 for d in range(2, math.isqrt(p) + 1))",
     "any(p % d == 0 for d in range(2, math.isqrt(p)))",
     "stop the prime test's trial division one short", ORACLE),
    ("betti.py", "p ** max(e, f) > MAX_PREIMAGE_MASK_BITS",
     "p ** max(e, f) >= MAX_PREIMAGE_MASK_BITS",
     "refuse the widest accepted masks, 2^16 bits", ORACLE),
    ("betti.py", "MAX_BRUTE_FORCE_EXPONENT = 20", "MAX_BRUTE_FORCE_EXPONENT = 21",
     "accept one more power of p", ORACLE),
    ("betti.py", "if min(e, f) > 3:", "if min(e, f) > 4:",
     "accept a smaller side of 4", ORACLE),
    ("betti.py", "p ** (m * e * f) > 400_000_000", "p ** (m * e * f) > 800_000_000",
     "accept twice as many tuples", ORACLE),
    ("walls.py", "runs.sort(key=lambda run: run[7])", "runs.sort(key=lambda run: run[0])",
     "order the runs of a band by c instead of by residue r", WALLS),
    ("walls.py", "for e in (lo + q, hi + q + 1)", "for e in (lo, hi + 1)",
     "place the band edges without the offset q", WALLS),
    ("walls.py", "max(0, math.ceil((tt - s_hi) / (2 * s)))",
     "max(0, math.floor((tt - s_hi) / (2 * s)))",
     "round n_min down, past the first wall", WALLS),
    ("walls.py", "n_max = math.floor((tt - s_lo) / (2 * s))",
     "n_max = math.ceil((tt - s_lo) / (2 * s))",
     "round n_max up, inside the collapsing wall", WALLS),
    ("walls.py", "set_denominator(rsq, den)", "set_denominator(rsq, -(-den))",
     "build each radius's denominator anew instead of sharing its c's", WALLS),
    # at every accepted degree the header "destabilizer" is wider than each
    # destabilizer cell and the curated first wall holds the widest radius
    ("cli.py", "for n in (lo, hi)]", "for n in (lo, lo)]",
     "take the text widths from each run's n_min end only (equivalent)", WALLS),
    ("cli.py", "for _, lo, hi, *_ in runs) > len(divisor)",
     "for _, lo, hi, *_ in runs) >= len(divisor)",
     "widen the status column for a table without potential rows", WALLS),
    ("cli.py", "top = next(radii)", "top = min(radii)",
     "take the picture's top from the last candidate instead of the first", WALLS),
    ("cli.py", "lo, hi = center - top, center + top", "lo, hi = center - top, center - top",
     "put the picture's right end at x0 - top", WALLS),
    ("cli.py", "math.sqrt(num / den)", "math.sqrt(num // den)",
     "draw each radius from the floor of its radius_sq", WALLS),
    ("cli.py", "itertools.chain([top], radii)", "radii",
     "drop the outermost arc, the one read for the top", WALLS),
    ("exactmath.py", "if not isinstance(x, int):", "if not isinstance(x, (int, float)):",
     "let the exact constructors store a float as its binary Fraction",
     ("tests/test_exactmath.py",)),
    ("exactmath.py", "top = i * m + 1", "top = i * m",
     "keep each partial product one coefficient short, dropping its top coefficient",
     BINOMIAL),
    ("exactmath.py", "c[m + i:top] = map(sub, c[m + i:top], c[:top - m - i])",
     "c[i:top] = map(sub, c[i:top], c[:top - i])",
     "multiply by 1 - q^i instead of 1 - q^(m+i)", BINOMIAL),
    ("exactmath.py", "for r in range(i):", "for r in range(i - 1):",
     "leave the last residue class out of the running sums that divide by 1 - q^i",
     BINOMIAL),
    ("walls.py", "c * c - 2 * n\n", "c * c - n\n",
     "give every row 2 ch_2 = c^2 - n instead of c^2 - 2n", WALLS),
    ("exactmath.py", "        if not isinstance(value, cls):\n            raise",
     "        if False:\n            raise",
     "let a foreign operand reach the field reads as a bare AttributeError",
     ("tests/test_exactmath.py",)),
    ("_fieldcount.py", "while classes:", "while len(classes) > 1:",
     "leave each level's first class out of the next level's build", ORACLE),
    ("betti.py", "q ** (m * (a - ya) * b)", "q ** (m * (b - yb) * a)",
     "weigh a chain step by q^(m s_b x_a) instead of q^(m s_a x_b)", ORACLE),
    ("exactmath.py", " and not isinstance(x, bool)", "",
     "let a bool pass the integer guard as 0 or 1", ("tests/test_exactmath.py",)),
    ("betti.py", "_flip(b - 1, a - 1,", "_flip(a - 1, b - 1,",
     "swap the two fiber dimensions of a Hilbert-scheme flip", HILBERT),
    ("walls.py", "ideal_twisted(w, -k)", "ideal_twisted(w, k)",
     "twist the ABCH destabilizer by O(k) instead of O(-k)", HILBERT),
    ("betti.py", "_flip(a - 1, b - 1,", "_flip(b - 1, a - 1,",
     "swap the two fiber dimensions of an M6 wall's flip", M6),
    ("betti.py", '        WallRecord("W5", ChernP2(1, 2, 0), Hilb(2)),\n', "",
     "drop the M6 wall W5", M6),
    ("betti.py", "Bundle(HilbModel(4, 2), Hilb(2))", "Bundle(HilbModel(4, 1), Hilb(2))",
     "put the base of W1' one model of Hilb^4 short", M6),
    ("ktheory.py", "- v.c * c", "+ v.c * c",
     "leave the left class of euler_hom undualized", M6),
    ("ktheory.py", "+ 2 * r", "+ r",
     "halve the h^2 term of the Todd class", M6),
    ("exactmath.py", "den *= b", "den *= a",
     "scale Horner's powers by the numerator instead of the denominator",
     (*M6, "tests/test_exactmath.py")),
    ("exactmath.py", "if not isinstance(x, int):", "if not isinstance(x, (int, str)):",
     "let a rational field take a string through Fraction(str)", ("tests/test_exactmath.py",)),
    ("exactmath.py", "_require_class(tuple, value)", "pass",
     "drop the tuple check of a record kind, so a list of walls is stored",
     ("tests/test_exactmath.py",)),
    ("exactmath.py", "(_int,) * len(fields)", "(lambda value: value,) * len(fields)",
     "store the fields of a class that declares no kinds unchecked",
     ("tests/test_exactmath.py",)),
    ("divisors.py", "(3 - 2 * d) * w.c", "(3 - d) * w.c",
     "weigh c by 3 - d instead of 3 - 2d in a divisor's A coordinate", DIVISORS),
    ("divisors.py", "(d + 4) * (d - 3), 8)", "(d + 4) * (d - 2), 8)",
     "take (d - 2) for (d - 3) in the odd degrees' nef closed form", DIVISORS),
    ("chow.py", "a1 * y0 + ", "",
     "drop a1 y0, the h * p term, from a Chow product's p h coefficient", DIVISORS),
]


def run(index: int | None, workdir: Path, tests: tuple[str, ...]) -> str | None:
    """Apply mutant `index`, or none, in a fresh copy under `workdir`;
    the id of the first test of `tests` that fails, or None if none does."""
    tree = workdir / f"mutant{index}"
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    if index is not None:
        name, old, new, _, _ = MUTANTS[index]
        path = tree / PACKAGE / name
        text = path.read_text()
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(tree)
    if done.returncode == 0:
        return None
    # -x stops at the first failure; the short summary names it
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit code {done.returncode}"


def main(argv: list[str]) -> None:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    killed = counted = 0
    with tempfile.TemporaryDirectory() as workdir:
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        if run(None, Path(workdir), tuple(every)):
            sys.exit("the tests fail without any mutant")
        for index in chosen:
            name, _, _, slip, tests = MUTANTS[index]
            equivalent = slip.endswith("(equivalent)")
            failed = run(index, Path(workdir), tests)
            verdict = "killed" if failed else "survived"
            print(f"{index:2} {verdict:8} {name:14} {slip}", flush=True)
            if failed:
                print(f"   first failing: {failed}", flush=True)
            if not equivalent:
                counted += 1
                killed += verdict == "killed"
    print(f"killed {killed} of {counted} mutants that are not equivalent")


if __name__ == "__main__":
    main(sys.argv[1:])
