"""Child side of the benchmark: one job in a fresh interpreter.

Each subcommand calls the public API of planemoduli and prints its outputs
as one JSON object on stdout; the parent (run.py) times the process and
checks the outputs.  With `--spans FILE --job ID` the child first wraps
the package's public functions (see tracing.py) and writes the recorded
spans to FILE when the job ends.

    python perfbench/child.py [--spans F --job J] cli ARGV...
    python perfbench/child.py [--spans F --job J] library SEED
    python perfbench/child.py [--spans F --job J] oracle M:E:F:P ...
    python perfbench/child.py layers SEED
    python perfbench/child.py cold kronecker M E F
    python perfbench/child.py cold assemble_m6

Run from the repository root with PYTHONPATH=src.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from workloads import (KRONECKER_TABLE, ORACLE_CASES, WALL_DEGREES_FIXED,
                       cli_sweep_argv, oracle_tuples, run_in_process)


def _dump(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _coeffs(poly) -> list[int]:
    return list(poly.coefficients)


# ---------------------------------------------------------------------------
# jobs of the workloads

def cmd_cli(argv: list[str]) -> int:
    from planemoduli import cli
    return cli.run(argv)


def cmd_library(seed: int) -> int:
    """An exploratory session over the public API with one warm cache."""
    from planemoduli import betti, chow, divisors, ktheory, walls
    rng = random.Random(seed)
    out: dict = {}

    table = list(KRONECKER_TABLE)
    rng.shuffle(table)
    out["kronecker"] = [[m, e, f, _coeffs(betti.kronecker_poincare(m, (e, f)))]
                        for m, e, f in table]
    out["m6"] = _coeffs(betti.assemble_m6())

    degrees = list(WALL_DEGREES_FIXED) + rng.sample(range(7, 51), 5)
    rng.shuffle(degrees)
    wall_rows = []
    for d in degrees:
        found = walls.enumerate_potential_walls(d)
        radii = [w.radius_sq for _, w in found]
        lo = walls.wall_between(ktheory.moduli(d), ktheory.line_bundle(0))
        hi = walls.wall_between(ktheory.moduli(d), divisors.first_wall_destabilizer(d))
        wall_rows.append([d, len(found), str(radii[0]), str(radii[-1]),
                          str(hi.radius_sq), str(lo.radius_sq),
                          all(a >= b for a, b in zip(radii, radii[1:]))])
    out["walls"] = wall_rows
    hilb8 = walls.transform_walls(walls.abch_reference_walls(8), "twist", 3)
    hilb4 = walls.transform_walls(
        walls.transform_walls(walls.abch_reference_walls(4), "dual"), "twist", -5)
    out["locate"] = [
        walls.locate_model(walls.Wall(Fraction(-4, 3), Fraction(25, 9)), hilb8),
        walls.locate_model(walls.Wall(Fraction(-4, 3), Fraction(49, 9)), hilb4)]

    nef_degrees = list(range(3, 301)) + [rng.randint(301, 10 ** 5) for _ in range(50)]
    out["nef"] = [[d, str(b.a), str(b.l)]
                  for d in nef_degrees for _, b in [divisors.nef_generators(d)]]
    out["d_in_AL"] = [[d, str(x.a), str(x.l)]
                      for d in range(3, 201) for x in [divisors.d_in_AL(d)]]
    rows = []
    for d in range(3, 151):
        w = divisors.d_class(d)
        kinds = ("pencil", "jacobian", "even_wall" if d % 2 == 0 else "odd_wall")
        for kind in kinds:
            value = divisors.intersection_degree(divisors.family_class(kind, d), w)
            rows.append([kind, d, str(value)])
    out["intersect"] = rows

    def chern() -> ktheory.ChernP2:
        c = rng.randint(-5, 5)
        return ktheory.ChernP2(rng.randint(-3, 3), c,
                               Fraction(c * c, 2) + rng.randint(-6, 6))

    rows = []
    for _ in range(300):
        v, w = chern(), chern()
        rows.append([str(ktheory.euler_product(v, w)),
                     str(ktheory.euler_product(w, v)),
                     str(ktheory.euler_hom(v, w)),
                     str(ktheory.euler_product(ktheory.dual(v), w))])
    out["euler"] = rows

    def chow_class() -> chow.ChowCurveP2:
        return chow.ChowCurveP2(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(6)))

    rows = []
    for _ in range(300):
        x, y = chow_class(), chow_class()
        rows.append([str(x * y), str(y * x)])
    out["chow"] = rows
    _dump(out)
    return 0


def cmd_oracle(cases: list[str]) -> int:
    """Finite-field brute force against the recursion, one case at a time."""
    from planemoduli import betti
    rows = []
    for case in cases:
        m, e, f, p = (int(x) for x in case.split(":"))
        count = betti.brute_force_kronecker_count(m, (e, f), p)
        rows.append([m, e, f, p, count, betti.kronecker_poincare(m, (e, f))(p)])
    _dump({"oracle": rows})
    return 0


# ---------------------------------------------------------------------------
# per-layer probes

def _median_time(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def cmd_layers(seed: int) -> int:
    """Time fixed calls into each layer's public functions, in-process.

    The process starts with empty caches, so the first sweep of a cached
    function is timed cold on purpose; everything repeated is reported as
    a median.
    """
    from planemoduli import betti, chow, divisors, exactmath, ktheory, walls
    rng = random.Random(seed)
    metrics: dict[str, float] = {}
    checks: dict[str, object] = {}

    # exactmath: polynomial products and exact quotients up to degree 37
    pairs = []
    for _ in range(60):
        da = rng.randint(0, 20)
        db = rng.randint(0, 37 - da)
        pairs.append((exactmath.QPoly([rng.randint(1, 999) for _ in range(da + 1)]),
                      exactmath.QPoly([rng.randint(1, 999) for _ in range(db + 1)])))
    reps = 20
    metrics["exactmath.qpoly_mul_s"], products = _median_time(
        lambda: [[a * b for a, b in pairs] for _ in range(reps)][-1], 5)
    metrics["exactmath.qpoly_mul_ops"] = len(pairs) * reps
    metrics["exactmath.qpoly_exact_div_s"], quotients = _median_time(
        lambda: [[c.exact_div(b) for c, (_, b) in zip(products, pairs)]
                 for _ in range(reps)][-1], 5)
    metrics["exactmath.qpoly_exact_div_ops"] = len(pairs) * reps
    checks["exact_div_roundtrip"] = all(q == a for q, (a, _) in zip(quotients, pairs))
    shapes = [(k, n) for n in range(61) for k in range(n + 1)]
    start = perf_counter()
    grass = [exactmath.grassmannian_poincare(k, n) for k, n in shapes]
    metrics["exactmath.grassmannian_poincare_s"] = perf_counter() - start
    checks["grassmannian_euler"] = all(g(1) == math.comb(n, k)
                                       for g, (k, n) in zip(grass, shapes))

    # betti: cold Hilbert-scheme sweep, space algebra, the Kronecker table
    start = perf_counter()
    hilbs = [betti.hilb_poincare(n) for n in range(betti.MAX_HILB_POINTS + 1)]
    metrics["betti.hilb_poincare_s"] = perf_counter() - start
    checks["hilb_euler"] = [h(1) for h in hilbs]
    spaces = [rec.base for rec in betti.m6_wall_records()]
    spaces += [betti.Grassmannian(2, 9), betti.Projective(17), betti.Hilb(8),
               betti.Bundle(betti.Projective(17), betti.KroneckerModuli(3, 2, 1))]
    metrics["betti.space_poincare_s"], polys = _median_time(
        lambda: [betti.space_poincare(sd) for sd in spaces], 5)
    checks["space_palindromic"] = all(exactmath.is_palindromic(p) for p in polys)
    start = perf_counter()
    table = [_coeffs(betti.kronecker_poincare(m, (e, f)))
             for m, e, f in KRONECKER_TABLE]
    metrics["betti.kronecker_poincare.table_s"] = perf_counter() - start
    metrics["betti.kronecker_poincare.calls"] = len(KRONECKER_TABLE)
    checks["kronecker_table"] = [[m, e, f, c] for (m, e, f), c
                                 in zip(KRONECKER_TABLE, table)]
    metrics["betti.assemble_m6.warm_s"], m6 = _median_time(betti.assemble_m6, 3)
    checks["m6"] = _coeffs(m6)

    # betti: the finite-field oracle, one timing per case
    total = 0.0
    rows = []
    for m, e, f, p in ORACLE_CASES:
        start = perf_counter()
        count = betti.brute_force_kronecker_count(m, (e, f), p)
        seconds = perf_counter() - start
        total += seconds
        metrics[f"betti.brute_force_kronecker_count_s.{e}-{f}.p{p}"] = seconds
        rows.append([m, e, f, p, count, betti.kronecker_poincare(m, (e, f))(p)])
    metrics["betti.brute_force_kronecker_count_s"] = total
    metrics["betti.oracle.tuples"] = sum(oracle_tuples(*case) for case in ORACLE_CASES)
    checks["oracle"] = rows

    # walls
    for d, repeats in ((60, 3), (120, 1)):
        metrics[f"walls.enumerate_potential_walls_s.d{d}"], found = _median_time(
            lambda: walls.enumerate_potential_walls(d), repeats)
        metrics[f"walls.candidates.d{d}"] = len(found)
    hilb8 = walls.transform_walls(walls.abch_reference_walls(8), "twist", 3)
    probe = walls.Wall(Fraction(-4, 3), Fraction(25, 9))
    metrics["walls.locate_model_s"], located = _median_time(
        lambda: [walls.locate_model(probe, hilb8) for _ in range(2000)][-1], 5)
    checks["locate"] = located

    # divisors, ktheory, chow: sweeps over degree and random classes
    degrees = range(3, 1003)
    metrics["divisors.nef_generators_s"], nef = _median_time(
        lambda: [divisors.nef_generators(d)[1] for d in degrees], 3)
    checks["nef"] = [[d, str(b.a), str(b.l)] for d, b in zip(degrees, nef)]
    metrics["divisors.wall_divisor_s"], _ = _median_time(
        lambda: [divisors.wall_divisor(d, divisors.first_wall_destabilizer(d))
                 for d in degrees], 3)
    metrics["divisors.d_in_AL_s"], thetas = _median_time(
        lambda: [divisors.d_in_AL(d) for d in range(3, 503)], 3)
    checks["d_in_AL"] = [[d, str(x.a), str(x.l)] for d, x in zip(range(3, 503), thetas)]
    families = [(divisors.family_class(kind, d), divisors.d_class(d))
                for d in range(3, 303)
                for kind in ("pencil", "jacobian",
                             "even_wall" if d % 2 == 0 else "odd_wall")]
    metrics["divisors.intersection_degree_s"], _ = _median_time(
        lambda: [divisors.intersection_degree(fam, w) for fam, w in families], 3)
    classes = []
    for _ in range(2000):
        c = rng.randint(-5, 5)
        classes.append(ktheory.ChernP2(rng.randint(-3, 3), c,
                                       Fraction(c * c, 2) + rng.randint(-6, 6)))
    couples = list(zip(classes, reversed(classes)))
    metrics["ktheory.euler_product_s"], _ = _median_time(
        lambda: [ktheory.euler_product(v, w) for v, w in couples], 5)
    metrics["ktheory.euler_hom_s"], _ = _median_time(
        lambda: [ktheory.euler_hom(v, w) for v, w in couples], 5)
    chows = [chow.ChowCurveP2(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(6))) for _ in range(1000)]
    metrics["chow.product_s"], _ = _median_time(
        lambda: [x * y for x, y in zip(chows, reversed(chows))], 5)

    # cli: the cli_sweep argv run in-process, stdout captured
    argv_list = cli_sweep_argv(seed)
    metrics["cli.run_s"], metrics["cli.stdout_bytes"] = _median_time(
        lambda: sum(len(run_in_process(argv)[1]) for argv in argv_list), 3)
    _dump({"metrics": metrics, "checks": checks})
    return 0


def cmd_cold(what: list[str]) -> int:
    """Time one call with every cache empty (this process is fresh)."""
    from planemoduli import betti
    start = perf_counter()
    if what[0] == "kronecker":
        m, e, f = (int(x) for x in what[1:])
        poly = betti.kronecker_poincare(m, (e, f))
    else:
        poly = betti.assemble_m6()
    _dump({"seconds": perf_counter() - start, "coefficients": _coeffs(poly)})
    return 0


def main(argv: list[str]) -> int:
    spans = job = None
    while argv[:1] in (["--spans"], ["--job"]):
        if argv[0] == "--spans":
            spans = argv[1]
        else:
            job = argv[1]
        argv = argv[2:]
    command, rest = argv[0], argv[1:]
    recorder = None
    if spans:
        from tracing import Recorder
        recorder = Recorder(job or "job")
        recorder.install()
    try:
        if command == "cli":
            return cmd_cli(rest)
        if command == "library":
            return cmd_library(int(rest[0]))
        if command == "oracle":
            return cmd_oracle(rest)
        if command == "layers":
            return cmd_layers(int(rest[0]))
        if command == "cold":
            return cmd_cold(rest)
        raise SystemExit(f"child.py: unknown command {command!r}")
    finally:
        if recorder is not None:
            sys.stdout.flush()
            recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
