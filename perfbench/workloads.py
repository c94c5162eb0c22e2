"""Workload definitions: seeded inputs, and the checks on every output.

This module imports nothing from planemoduli at import time, because the
child script imports it before the timed part of a job; the checks that
need the library import it lazily, in the parent process only.

Every check returns a list of problems (empty when the output is right).
Expected values come from the paper's printed constants and closed forms,
from identities between two public routes, or, for cli_sweep, from the
same argv run in-process through planemoduli.cli.run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 1

#: the 21 printed coefficients of N(3;5,4), the 3-Kronecker moduli space
N6_COEFFICIENTS = (1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30,
                   23, 14, 10, 5, 3, 1, 1)
#: the printed degree-20 factor of the degree-6 moduli space M6; the full
#: Poincare polynomial is this factor times 1 + q + ... + q^17
M6_FACTOR_COEFFICIENTS = (1, 1, 4, 7, 16, 25, 47, 68, 104, 128, 146, 128,
                          104, 68, 47, 25, 16, 7, 4, 1, 1)
M6_EULER = 17064
M6_DEGREE = 37

#: every coprime (e, f) with e + f <= 10 whose 3-Kronecker moduli space is
#: nonempty, that is m e f - e^2 - f^2 + 1 >= 0
KRONECKER_TABLE = tuple((3, e, f) for e in range(1, 10) for f in range(1, 10)
                        if e + f <= 10 and math.gcd(e, f) == 1
                        and 3 * e * f - e * e - f * f + 1 >= 0)

#: the finite-field oracle cases (m, e, f, p) of acceptance criterion 08
ORACLE_CASES = tuple((3, e, f, p) for e, f in ((1, 1), (2, 1), (3, 2))
                     for p in (2, 3))

#: wall enumerations every library session makes, with their known
#: candidate counts; five more seeded degrees in 7..50 ride along
WALL_CANDIDATES = {6: 9, 60: 5337, 120: 39472}
WALL_DEGREES_FIXED = tuple(WALL_CANDIDATES)

#: cold one-shot polynomial jobs of poincare_cold
POINCARE_COLD_ARGV = (
    ("betti", "--space", "M6", "--json"),
    ("betti", "--space", "kronecker:3:6:5", "--json"),
    ("betti", "--space", "Q6", "--at", "2"),
    ("betti", "--space", "hilb:8:6", "--json"),
)

TRACEBACK = b"Traceback (most recent call last)"


# ---------------------------------------------------------------------------
# exact helpers of the benchmark's own, independent of the package

def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gaussian_binomial(n: int, k: int) -> list[int]:
    """[n choose k]_q by the q-Pascal rule [m j] = [m-1 j-1] + q^j [m-1 j]."""
    row = [[1]]
    for m in range(1, n + 1):
        row = [[1]] + [_poly_add(row[j - 1], [0] * j + row[j])
                       for j in range(1, m)] + [[1]]
    return row[k]


def _poly_add(a, b) -> list[int]:
    size = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(size)]


def m6_coefficients() -> list[int]:
    return poly_mul(M6_FACTOR_COEFFICIENTS, [1] * 18)


def nef_coefficient(d: int) -> int:
    """A-coefficient of the second nef generator B = c A + L (closed form)."""
    if d % 2 == 0:
        return (d - 2) ** 2 * (d + 2) // 8
    return (d - 1) * (d + 4) * (d - 3) // 8


def first_wall_destabilizer(d: int) -> str:
    """(r, c, e) of I_n(n) for even d = 2n + 2, of O(k) for odd d = 2k + 3."""
    if d % 2 == 0:
        n = (d - 2) // 2
        return f"1,{n},{Fraction(n * n, 2) - n}"
    k = (d - 3) // 2
    return f"1,{k},{Fraction(k * k, 2)}"


def theta_class(d: int) -> str:
    return f"{-d},1,-1/2"


def intersection_closed_form(family: str, d: int) -> Fraction:
    """Degree of the theta-like class on each test family (criteria 03, 04)."""
    if family == "pencil":
        return Fraction(1 - d)
    if family == "jacobian":
        return Fraction(d * (d - 1) * (d - 2) // 2)
    if family == "evenwall":
        return Fraction(-d * (d * d - 2 * d + 4), 8)
    return Fraction(-(d - 1) * (d * d + d - 4), 8)


def divisor_text(a: int, l: int) -> str:
    parts = []
    for coef, name in ((a, "A"), (l, "L")):
        if coef:
            body = name if abs(coef) == 1 else f"{abs(coef)}{name}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def polynomial_problems(coeffs: list[int], degree: int | None = None) -> list[str]:
    """Shape of a Poincare polynomial: palindromic, nonnegative, constant 1."""
    problems = []
    if not coeffs or coeffs[0] != 1:
        problems.append("constant term is not 1")
    if any(c < 0 for c in coeffs):
        problems.append("negative coefficient")
    if list(coeffs) != list(coeffs)[::-1]:
        problems.append("not palindromic")
    if degree is not None and len(coeffs) - 1 != degree:
        problems.append(f"degree {len(coeffs) - 1}, expected {degree}")
    return problems


def kronecker_degree(m: int, e: int, f: int) -> int:
    return m * e * f - e * e - f * f + 1


def oracle_tuples(m: int, e: int, f: int, p: int) -> int:
    """Matrix tuples the oracle enumerates (computed, not counted).

    The first matrix is fixed to the rank normal form of each rank class
    0..min(e, f); the other m - 1 matrices range over p^((m-1) e f) values.
    """
    return (min(e, f) + 1) * p ** ((m - 1) * e * f)


# ---------------------------------------------------------------------------
# jobs

Check = Callable[[int, bytes, bytes], list]


@dataclass
class Job:
    """One child process: `python -m planemoduli ARGS` or `python child.py ARGS`."""

    label: str
    kind: str  # "cli" or "script"
    args: list[str]
    check: Check
    expect_codes: tuple[int, ...] = (0,)

    def problems(self, code: int, out: bytes, err: bytes) -> list[str]:
        found = []
        if code not in self.expect_codes:
            found.append(f"exit code {code}, expected {self.expect_codes}")
        if TRACEBACK in err:
            found.append("traceback on stderr: "
                         + err.decode(errors="replace").strip().splitlines()[-1])
        if not found:
            try:
                found.extend(self.check(code, out, err))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                found.append(f"unreadable output: {exc!r}")
        return found


def _last_json(out: bytes):
    return json.loads(out.decode().strip().splitlines()[-1])


def _no_check(code, out, err) -> list:
    return []


# ---------------------------------------------------------------------------
# cli_sweep: about 40 short cold calls over all seven subcommands

@dataclass
class CliCase:
    argv: list[str]
    check: Check = _no_check
    expect_codes: tuple[int, ...] = (0,)


def _degree(rng: random.Random, lo: int = 3, hi: int = 10 ** 5) -> int:
    """Log-uniform degree, so small and huge degrees are both common."""
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _chern_text(rng: random.Random) -> str:
    """A random integral class: ch_2 - c^2/2 must be an integer."""
    c = rng.randint(-5, 5)
    return f"{rng.randint(-3, 3)},{c},{Fraction(c * c, 2) + rng.randint(-6, 6)}"


def _text_is(expected: str) -> Check:
    def check(code, out, err):
        got = out.decode()
        return [] if got == expected + "\n" else [f"stdout {got!r}, expected {expected!r}"]
    return check


def _cone_check(first, second, as_json: bool) -> Check:
    """The two cone generators (name, a, l), printed as text or as JSON."""
    if not as_json:
        return _text_is(f"{divisor_text(*first[1:])}, {divisor_text(*second[1:])}")
    expected = {name: {"a": str(a), "l": str(l)} for name, a, l in (first, second)}

    def check(code, out, err):
        got = _last_json(out)
        return [] if got == expected else [f"generators {got}, expected {expected}"]
    return check


def _betti_json_check(degree: int | None = None, euler: int | None = None,
                      coefficients: list[int] | None = None) -> Check:
    def check(code, out, err):
        payload = _last_json(out)
        coeffs = [int(c) for c in payload["coefficients"]]
        found = polynomial_problems(coeffs, degree)
        if payload["degree"] != len(coeffs) - 1:
            found.append("degree field disagrees with the coefficients")
        if int(payload["euler"]) != sum(coeffs):
            found.append("euler field disagrees with the coefficients")
        if euler is not None and sum(coeffs) != euler:
            found.append(f"euler {sum(coeffs)}, expected {euler}")
        if coefficients is not None and coeffs != list(coefficients):
            found.append("coefficients differ from the printed values")
        return found
    return check


def _walls_json_check(d: int) -> Check:
    def check(code, out, err):
        payload = _last_json(out)
        radii = [Fraction(w["radius_sq"]) for w in payload["walls"]]
        found = [] if payload["degree"] == d else ["wrong degree field"]
        if any(a < b for a, b in zip(radii, radii[1:])):
            found.append("walls not sorted by descending radius")
        if d == 6 and (len(radii), sum(w["actual"] for w in payload["walls"])) != (9, 7):
            found.append("degree 6 needs 9 candidates and 7 actual walls")
        return found
    return check


def _euler_check(v: str, w: str, pairing: str) -> Check:
    """euler_product is symmetric; euler_hom(v, w) = euler_product(dual v, w)."""
    def check(code, out, err):
        from planemoduli import ktheory
        cv, cw = ktheory.parse_chern(v), ktheory.parse_chern(w)
        other = (ktheory.euler_product(cw, cv) if pairing == "product"
                 else ktheory.euler_product(ktheory.dual(cv), cw))
        got = out.decode().strip()
        return [] if got == str(other) else [f"euler {got}, identity gives {other}"]
    return check


#: small cheap Kronecker spaces (m, e, f) for cli_sweep
_SMALL_KRONECKER = ((3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 1, 3), (3, 3, 1),
                    (3, 2, 3), (3, 3, 2), (4, 1, 1), (4, 2, 1), (4, 3, 2),
                    (5, 2, 1))
_HILB_MODELS = ((3, 1), (4, 1), (4, 2), (5, 2), (8, 6))


def _invalid_case(rng: random.Random) -> CliCase:
    """An argv that must end in exit 1 (usage) or 2 (domain), never a traceback."""
    even, odd = 2 * rng.randint(2, 30), 2 * rng.randint(2, 30) + 1
    choices = [
        ["nef", "--degree", str(rng.randint(-5, 2))],
        ["walls", "--degree", str(rng.randint(-3, 2))],
        ["betti", "--space", f"hilb:{rng.randint(13, 40)}"],
        ["betti", "--space", f"kronecker:3:{2 * rng.randint(1, 3)}:{2 * rng.randint(1, 3)}"],
        ["betti", "--space", f"gr:{rng.randint(6, 9)}:{rng.randint(1, 5)}"],
        ["betti", "--space", "M7"],
        ["frobnicate"],
        ["nef"],
        ["intersect", "--family", "evenwall", "--degree", str(odd),
         "--w", theta_class(odd)],
        ["intersect", "--family", "oddwall", "--degree", str(even),
         "--w", theta_class(even)],
        ["euler", "--v", "1,2", "--w", "1,0,0", "--pairing", "hom"],
        ["betti", "--space", f"kronecker:3:{rng.randint(4, 6)}:1"],
    ]
    return CliCase(rng.choice(choices), expect_codes=(1, 2))


def _betti_case(rng: random.Random) -> CliCase:
    kind = rng.choice(("gr", "hilb", "model", "kronecker"))
    as_json = rng.random() < 0.5
    if kind == "gr":
        n = rng.randint(1, 12)
        k = rng.randint(0, n)
        space, check = f"gr:{k}:{n}", _betti_json_check(k * (n - k), math.comb(n, k))
    elif kind == "hilb":
        n = rng.randint(0, 8)
        space, check = f"hilb:{n}", _betti_json_check(2 * n)
    elif kind == "model":
        n, k = rng.choice(_HILB_MODELS)
        space, check = f"hilb:{n}:{k}", _betti_json_check(2 * n)
    else:
        m, e, f = rng.choice(_SMALL_KRONECKER)
        space, check = f"kronecker:{m}:{e}:{f}", _betti_json_check(kronecker_degree(m, e, f))
    argv = ["betti", "--space", space]
    if as_json:
        argv.append("--json")
    else:
        check = _no_check
    if rng.random() < 0.3:
        argv += ["--at", str(Fraction(rng.randint(-3, 5), rng.randint(1, 3)))]
    return CliCase(argv, check)


#: cases per subcommand in one cli_sweep pass (40 in all, 4 invalid)
CLI_SWEEP_MIX = (("nef", 4), ("effective", 3), ("divisor", 4), ("intersect", 6),
                 ("euler", 4), ("walls", 6), ("betti", 9), ("invalid", 4))


def cli_sweep(seed: int) -> list[CliCase]:
    """The seeded argv of one cli_sweep pass, in a seeded order."""
    rng = random.Random(seed)
    cases: list[CliCase] = []
    for kind, count in CLI_SWEEP_MIX:
        for i in range(count):
            as_json = rng.random() < 0.5
            if kind in ("nef", "effective"):
                d = _degree(rng)
                second = ("B", nef_coefficient(d), 1) if kind == "nef" else ("L", 0, 1)
                argv = [kind, "--degree", str(d)] + (["--json"] if as_json else [])
                cases.append(CliCase(argv, _cone_check(("A", 1, 0), second, as_json)))
            elif kind == "divisor":
                d = _degree(rng)
                argv = ["divisor", "--degree", str(d),
                        "--destabilizer", first_wall_destabilizer(d)]
                cases.append(CliCase(argv, _text_is(divisor_text(nef_coefficient(d), 1))))
            elif kind == "intersect":
                families = ("pencil", "jacobian", "evenwall", "oddwall")
                family = families[i] if i < 4 else rng.choice(families)
                d = _degree(rng, 4)
                if family.endswith("wall") and (family == "evenwall") != (d % 2 == 0):
                    d += 1  # the wall families exist for one parity only
                argv = ["intersect", "--family", family, "--degree", str(d),
                        "--w", theta_class(d)]
                cases.append(CliCase(argv, _text_is(str(intersection_closed_form(family, d)))))
            elif kind == "euler":
                pairing = ("product", "hom")[i % 2]
                v, w = (_chern_text(rng), _chern_text(rng))
                cases.append(CliCase(["euler", "--v", v, "--w", w, "--pairing", pairing],
                                     _euler_check(v, w, pairing)))
            elif kind == "walls":
                d = rng.randint(3, 12)
                argv = ["walls", "--degree", str(d)]
                cases.append(CliCase(argv + ["--json"], _walls_json_check(d))
                             if i % 2 else CliCase(argv))
            elif kind == "betti":
                cases.append(_betti_case(rng))
            else:
                cases.append(_invalid_case(rng))
    rng.shuffle(cases)
    return cases


def cli_sweep_argv(seed: int) -> list[list[str]]:
    return [case.argv for case in cli_sweep(seed)]


def run_in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """planemoduli.cli.run on argv with stdout and stderr captured."""
    import contextlib
    import io

    from planemoduli import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _same_as_in_process(argv: list[str], semantic: Check) -> Check:
    """Cold-process stdout and exit code byte-identical to cli.run in-process."""
    ref_code, ref_out, _ = run_in_process(argv)

    def check(code, out, err):
        found = []
        if (code, out) != (ref_code, ref_out):
            found.append(f"cold process (exit {code}, {len(out)} bytes) differs "
                         f"from in-process run (exit {ref_code}, {len(ref_out)} bytes)")
        return found + semantic(code, out, err)
    return check


def cli_sweep_jobs(seed: int) -> list[Job]:
    return [Job(" ".join(case.argv), "cli", case.argv,
                _same_as_in_process(case.argv, case.check), case.expect_codes)
            for case in cli_sweep(seed)]


# ---------------------------------------------------------------------------
# poincare_cold: one-shot polynomial jobs, each with an empty HN cache

def _q6_at_2(code, out, err) -> list:
    n6_at_2 = sum(c * 2 ** i for i, c in enumerate(N6_COEFFICIENTS))
    expected = n6_at_2 * (2 ** 18 - 1)
    got = out.decode().strip()
    return [] if got == str(expected) else [f"Q6(2) = {got}, expected {expected}"]


def poincare_cold_jobs(seed: int) -> list[Job]:
    checks = {
        "M6": _betti_json_check(M6_DEGREE, M6_EULER, m6_coefficients()),
        "kronecker:3:6:5": _betti_json_check(kronecker_degree(3, 6, 5)),
        "Q6": _q6_at_2,
        "hilb:8:6": _betti_json_check(
            16, coefficients=poly_mul(gaussian_binomial(9, 2), [1, 1, 1])),
    }
    jobs = [Job(" ".join(argv), "cli", list(argv), checks[argv[2]])
            for argv in POINCARE_COLD_ARGV]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# library_session: one cold child process over the public API

def kronecker_rows_problems(rows) -> list[str]:
    found = []
    seen = set()
    for m, e, f, coeffs in rows:
        seen.add((m, e, f))
        found += [f"kronecker ({m};{e},{f}): {p}"
                  for p in polynomial_problems(coeffs, kronecker_degree(m, e, f))]
        if (m, e, f) == (3, 5, 4) and tuple(coeffs) != N6_COEFFICIENTS:
            found.append("N(3;5,4) differs from its 21 printed coefficients")
    if seen != set(KRONECKER_TABLE):
        found.append("the Kronecker table is incomplete")
    return found


def m6_problems(coeffs) -> list[str]:
    found = []
    if list(coeffs) != m6_coefficients():
        found.append("M6 differs from the printed factor times P(P^17)")
    if sum(coeffs) != M6_EULER or len(coeffs) - 1 != M6_DEGREE:
        found.append(f"M6 has euler {sum(coeffs)} and degree {len(coeffs) - 1}")
    return found


def nef_problems(rows) -> list[str]:
    return [f"nef generator at degree {d}: {a}A + {l}L"
            for d, a, l in rows if (a, l) != (str(nef_coefficient(d)), "1")]


def theta_problems(rows) -> list[str]:
    return [f"D at degree {d}: {a}A + {l}L"
            for d, a, l in rows if (a, l) != (str(1 - d), "1")]


def _library_check(code, out, err) -> list:
    res = _last_json(out)
    found = kronecker_rows_problems(res["kronecker"]) + m6_problems(res["m6"])
    for d, count, first, last, hi, lo, ordered in res["walls"]:
        if d in WALL_CANDIDATES and count != WALL_CANDIDATES[d]:
            found.append(f"{count} wall candidates at degree {d}, "
                         f"expected {WALL_CANDIDATES[d]}")
        if (first, last) != (hi, lo) or not ordered:
            found.append(f"wall candidates at degree {d} do not run from the "
                         "first wall down to the collapsing wall")
    if res["locate"] != [6, 1]:
        found.append(f"chamber indices {res['locate']}, expected [6, 1]")
    found += nef_problems(res["nef"]) + theta_problems(res["d_in_AL"])
    family_flag = {"pencil": "pencil", "jacobian": "jacobian",
                   "even_wall": "evenwall", "odd_wall": "oddwall"}
    found += [f"{kind} degree at {d}: {value}" for kind, d, value in res["intersect"]
              if Fraction(value) != intersection_closed_form(family_flag[kind], d)]
    found += ["euler pairing identity broken" for a, b, c, d in res["euler"]
              if a != b or c != d]
    found += ["chow product not commutative" for a, b in res["chow"] if a != b]
    return found


def library_session_jobs(seed: int) -> list[Job]:
    return [Job("library session", "script", ["library", str(seed)], _library_check)]


# ---------------------------------------------------------------------------
# ff_oracle: the finite-field brute force against the recursion

def oracle_rows_problems(rows) -> list[str]:
    from planemoduli import betti
    found = []
    for m, e, f, p, count, recursion in rows:
        reference = betti.kronecker_poincare(m, (e, f))(p)
        if not count == recursion == reference:
            found.append(f"oracle ({m};{e},{f}) at p={p}: count {count}, "
                         f"recursion {recursion}, reference {reference}")
    return found


def ff_oracle_jobs(seed: int, cases=ORACLE_CASES) -> list[Job]:
    def check(code, out, err):
        rows = _last_json(out)["oracle"]
        found = oracle_rows_problems(rows)
        if [tuple(r[:4]) for r in rows] != list(cases):
            found.append("oracle cases missing")
        return found
    return [Job("oracle cases", "script",
                ["oracle"] + [":".join(map(str, c)) for c in cases], check)]


#: name -> (function from seed to job list, reason the workload exists)
WORKLOADS = {
    "cli_sweep": (cli_sweep_jobs,
                  "start-up and per-call overhead: ~40 short cold CLI calls over all "
                  "seven subcommands, where interpreter start, import and argparse dominate"),
    "poincare_cold": (poincare_cold_jobs,
                      "cold one-shot polynomial jobs: each process starts with an empty HN "
                      "cache, so the QRational Harder-Narasimhan recursion dominates"),
    "library_session": (library_session_jobs,
                        "one exploratory session: the HN layer with a warm shared cache, "
                        "plus the walls, divisors, ktheory and chow layers at scale"),
    "ff_oracle": (ff_oracle_jobs,
                  "the numpy finite-field oracle, used by no other workload; its (3,2) "
                  "case at p = 3 is most of the tier-1 test time"),
}
