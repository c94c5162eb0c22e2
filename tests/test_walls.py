import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from planemoduli import walls
from planemoduli.betti import m6_wall_records
from planemoduli.divisors import first_wall_destabilizer
from planemoduli.errors import (AmbiguousChamberError, DomainError,
                                EmptyWallError, NoWallError)
from planemoduli.ktheory import ChernP2, dual, line_bundle, moduli, shift, twist
from planemoduli.walls import (Wall, abch_reference_walls,
                               enumerate_potential_walls, locate_model,
                               transform_walls, wall_between)
from oracles import potential_walls_by_search, rand_chern


def rand_wall_pair(rng) -> tuple[ChernP2, ChernP2, Wall]:
    while True:
        v, w = rand_chern(rng), rand_chern(rng)
        try:
            return v, w, wall_between(v, w)
        except (NoWallError, EmptyWallError):
            continue


class TestWallBetween:
    def test_outermost_wall_at_degree_six(self):
        wall = wall_between(moduli(6), ChernP2(1, 2, 0))
        assert wall == Wall(Fraction(-4, 3), Fraction(64, 9))

    def test_transformed_reference_wall(self):
        wall = wall_between(ChernP2(-1, 5, Fraction(-17, 2)),
                            ChernP2(-1, 4, -8))
        assert wall == Wall(Fraction(-1, 2), Fraction(49, 4))

    def test_collapsing_wall(self):
        wall = wall_between(moduli(6), line_bundle(0))
        assert wall == Wall(Fraction(-4, 3), Fraction(16, 9))

    def test_degenerate_pair(self):
        with pytest.raises(NoWallError):
            wall_between(line_bundle(0), line_bundle(0))

    def test_empty_wall(self):
        with pytest.raises(EmptyWallError):
            wall_between(moduli(6), ChernP2(1, 0, -1))

    def test_wall_validation(self):
        with pytest.raises(EmptyWallError):
            Wall(0, 0)


class TestEnumeratePotentialWalls:
    def test_degree_six_candidates(self):
        found = enumerate_potential_walls(6)
        assert len(found) == 9
        radii = {w.radius_sq for _, w in found}
        table_radii = {Fraction(64, 9), Fraction(49, 9), Fraction(46, 9),
                       Fraction(31, 9), Fraction(28, 9), Fraction(25, 9),
                       Fraction(16, 9)}
        extras = {Fraction(61, 9), Fraction(43, 9)}
        assert radii == table_radii | extras
        by_radius = {w.radius_sq: c for c, w in found}
        assert by_radius[Fraction(25, 9)] == ChernP2(1, 3, Fraction(-7, 2))
        assert by_radius[Fraction(61, 9)] == ChernP2(1, 3, Fraction(-3, 2))
        assert by_radius[Fraction(43, 9)] == ChernP2(1, 3, Fraction(-5, 2))

    def test_sorted_by_descending_radius(self):
        found = enumerate_potential_walls(6)
        radii = [w.radius_sq for _, w in found]
        assert radii == sorted(radii, reverse=True)

    def test_degree_six_radius_formula(self):
        for cand, wall in enumerate_potential_walls(6):
            assert wall.center == Fraction(-4, 3)
            assert wall.radius_sq == \
                Fraction(16, 9) + (6 * cand.e + 8 * cand.c) / 3

    def test_collapsing_candidate_always_present(self):
        for d in (3, 4, 5, 6, 7):
            found = enumerate_potential_walls(d)
            assert any(c == line_bundle(0) for c, _ in found)
            first = max(w.radius_sq for _, w in found)
            assert all(0 < w.radius_sq <= first for _, w in found)

    def test_candidates_satisfy_filters_and_closed_forms(self):
        for d in range(3, 10):
            center = Fraction(2 - 3 * d, 2 * d)
            for cand, wall in enumerate_potential_walls(d):
                assert cand.r == 1
                assert 0 <= cand.c <= d // 2
                assert cand.e <= Fraction(cand.c ** 2, 2)
                assert (cand.e - Fraction(cand.c ** 2, 2)).denominator == 1
                assert wall.center == center
                assert wall.radius_sq == (center ** 2 + 2 * cand.e
                                          + Fraction(cand.c * (3 * d - 2), d))

    @pytest.mark.parametrize("d", [*range(3, 31), 60, 100])
    def test_matches_stepping_search(self, d):
        assert enumerate_potential_walls(d) == potential_walls_by_search(d)

    @pytest.mark.parametrize("d", [*range(3, 61), 120])
    def test_values_match_their_validated_construction(self, d):
        # the candidates are built unchecked; the public constructors must
        # accept each one and store the same fields, of the same types, so
        # that the reprs match too
        found = enumerate_potential_walls(d)
        assert [(ChernP2(cand.r, cand.c, cand.e), Wall(wall.center, wall.radius_sq))
                for cand, wall in found] == found
        assert {(type(cand.r), type(cand.c), type(cand.e), type(wall.center),
                 type(wall.radius_sq)) for cand, wall in found} == \
            {(int, int, Fraction, Fraction, Fraction)}
        assert all(rsq.denominator > 0 and math.gcd(rsq.numerator, rsq.denominator) == 1
                   for rsq in (wall.radius_sq for _, wall in found))

    def test_degree_too_small(self):
        with pytest.raises(DomainError):
            enumerate_potential_walls(2)

    def test_degree_too_large(self):
        with pytest.raises(DomainError):
            enumerate_potential_walls(201)


def traced(call):
    """call()'s result, with its traced peak and kept memory in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


class TestWallKeys:
    @pytest.mark.parametrize("d", [*range(3, 31), 120])
    def test_one_sorted_negative_key_per_candidate(self, d):
        x0, runs = walls._wall_runs(d)
        s, w = 4 * d * d, d // 2 + 1
        tts = [(2 * d * (x0 - c)) ** 2 for c in range(w)]
        assert all(tt.denominator == 1 for tt in tts)
        # every (key, c, n) between the collapsing and first walls, by search,
        # sorted here: the stream must give them in this order without a sort
        lo = math.ceil(s * wall_between(moduli(d), line_bundle(0)).radius_sq)
        hi = math.floor(s * wall_between(moduli(d), first_wall_destabilizer(d)).radius_sq)
        expected = sorted((2 * s * n - int(tt), c, n) for c, tt in enumerate(tts)
                          for n in range(int(tt) // (2 * s) + 1)
                          if lo <= tt - 2 * s * n <= hi)
        rows = list(walls._candidates(runs))
        assert all((c * c - m) % 2 == 0 for _, _, c, m in rows)
        points = [(c, (c * c - m) // 2) for _, _, c, m in rows]
        streamed = [(2 * s * n - int(tts[c]), c, n) for c, n in points]
        assert streamed == expected
        assert all(key < 0 for key, _, _ in streamed)
        # each row's num/den is its radius_sq -key/s in lowest terms
        assert all(den > 0 and math.gcd(num, den) == 1 and num * s == -key * den
                   for (num, den, _, _), (key, _, _) in zip(rows, streamed))
        # one run per c with candidates, by ascending residue r, where the
        # code key * w + c of (c, n) is (n + q) S + r
        spans: dict[int, list[int]] = {}
        for _, c, n in expected:
            spans.setdefault(c, []).append(n)
        assert sorted(run[:6] for run in runs) == \
            [(c, min(ns), max(ns), int(tts[c]) // g, 2 * s // g, s // g)
             for c, ns in sorted(spans.items()) for g in [math.gcd(int(tts[c]), s)]]
        residues = [r for *_, r in runs]
        assert residues == sorted(residues) and 0 <= residues[0]
        assert residues[-1] < 2 * s * w
        offsets = {c: (q, r) for c, *_, q, r in runs}
        assert all((n + offsets[c][0]) * 2 * s * w + offsets[c][1] == key * w + c
                   for key, c, n in streamed)
        found, peak, kept = traced(lambda: enumerate_potential_walls(d))
        assert [(1, c, Fraction(c * c - 2 * n, 2), x0, Fraction(-key, s))
                for key, c, n in streamed] == \
            [(cand.r, cand.c, cand.e, wall.center, wall.radius_sq)
             for cand, wall in found]
        # the radii of one c share its one denominator int
        assert len({id(wall.radius_sq.denominator) for _, wall in found}) <= len(runs)
        if d == 120:
            # besides its result the enumeration holds O(d): the runs and
            # the distinct ch_2 values, with no list of keys or codes
            assert peak <= 1.05 * kept

    def test_every_curated_class_is_a_candidate(self):
        # the walls table sizes its columns from the runs' ends alone: at
        # every accepted degree each curated destabilizer, and O, lies
        # inside its c's run, and only d = 3 has no candidate besides them
        m6 = {rec.destabilizer for rec in m6_wall_records()}
        no_potential_row = []
        for d in range(3, walls.MAX_WALL_DEGREE + 1):
            _, runs = walls._wall_runs(d)
            curated = (m6 if d == 6 else {first_wall_destabilizer(d)}) | {line_bundle(0)}
            spans = {c: (lo, hi) for c, lo, hi, *_ in runs}
            for v in curated:
                n = Fraction(v.c ** 2, 2) - v.e
                assert v.r == 1 and n.denominator == 1 and v.c in spans, (d, v)
                assert spans[v.c][0] <= n <= spans[v.c][1], (d, v)
            total = sum(hi - lo + 1 for lo, hi in spans.values())
            if total == len(curated):
                no_potential_row.append(d)
        assert no_potential_row == [3]


class TestCollectorState:
    """The enumeration pauses the garbage collector and leaves it as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept(self, enabled):
        caller = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            enumerate_potential_walls(30)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if caller else gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_the_build_raises(self, monkeypatch, enabled):
        calls, states = [], []

        def failing_fraction(*args):
            # wall_between makes the first two; the build loop the rest
            calls.append(args)
            if len(calls) == 5:
                states.append(gc.isenabled())
                raise RuntimeError("build interrupted")
            return Fraction(*args)

        monkeypatch.setattr(walls, "Fraction", failing_fraction)
        caller = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(RuntimeError, match="build interrupted"):
                enumerate_potential_walls(30)
            assert states == [False]  # it raised while the collector was paused
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if caller else gc.disable()


class TestReferenceSystems:
    def test_hilb8_data(self):
        refs = abch_reference_walls(8)
        assert refs.label == "hilb8"
        assert len(refs.walls) == 7
        assert refs.walls[0].center == Fraction(-17, 2)
        for w in refs.walls:
            assert w.radius_sq == w.center * w.center - 16
        radii = [w.radius_sq for w in refs.walls]
        assert radii == sorted(radii, reverse=True)

    def test_hilb4_data(self):
        refs = abch_reference_walls(4)
        assert len(refs.walls) == 3
        for w in refs.walls:
            assert w.radius_sq == w.center * w.center - 8

    def test_unsupported_size(self):
        with pytest.raises(DomainError):
            abch_reference_walls(5)


#: the centers x of Arcara, Bertram, Coskun and Huizenga's tables, outermost
#: first, typed from the paper: the package derives them from the destabilizers
ABCH_CENTERS = {
    4: [Fraction(-9, 2), Fraction(-7, 2), Fraction(-3)],
    8: [Fraction(-17, 2), Fraction(-15, 2), Fraction(-13, 2), Fraction(-11, 2),
        Fraction(-5), Fraction(-9, 2), Fraction(-25, 6)],
}


@pytest.mark.parametrize("n", sorted(ABCH_CENTERS))
def test_derived_walls_match_the_tabulated_centers(n):
    expected = tuple(Wall(x, x * x - 2 * n) for x in ABCH_CENTERS[n])
    assert abch_reference_walls(n).walls == expected


class TestTransformWalls:
    def test_twist_moves_centers(self):
        refs = transform_walls(abch_reference_walls(8), "twist", 3)
        assert refs.walls[-1] == Wall(Fraction(-25, 6) + 3, Fraction(49, 36))

    def test_dual_then_twist(self):
        refs = transform_walls(transform_walls(abch_reference_walls(4), "dual"),
                               "twist", -5)
        assert refs.walls[0] == Wall(Fraction(-1, 2), Fraction(49, 4))

    def test_twist_zero_is_identity(self):
        refs = abch_reference_walls(8)
        assert transform_walls(refs, "twist", 0).walls == refs.walls

    def test_unknown_transform(self):
        with pytest.raises(DomainError):
            transform_walls(abch_reference_walls(8), "reflect")


class TestLocateModel:
    def test_final_model_of_hilb8(self):
        refs = transform_walls(abch_reference_walls(8), "twist", 3)
        assert locate_model(Wall(Fraction(-4, 3), Fraction(25, 9)), refs) == 6

    def test_first_model_of_hilb4(self):
        refs = transform_walls(transform_walls(abch_reference_walls(4), "dual"),
                               "twist", -5)
        assert locate_model(Wall(Fraction(-4, 3), Fraction(49, 9)), refs) == 1

    def test_huge_wall_is_enclosed_by_nothing(self):
        refs = abch_reference_walls(8)
        assert locate_model(Wall(0, 10 ** 6), refs) == 0

    def test_top_point_on_reference_is_ambiguous(self):
        refs = abch_reference_walls(8)
        on_wall = Wall(refs.walls[0].center, refs.walls[0].radius_sq)
        with pytest.raises(AmbiguousChamberError):
            locate_model(on_wall, refs)


class TestEquivariance:
    def test_twist_shifts_center(self):
        rng = random.Random(61)
        for _ in range(120):
            v, w, wall = rand_wall_pair(rng)
            n = rng.randint(-5, 5)
            moved = wall_between(twist(v, n), twist(w, n))
            assert moved.center == wall.center + n
            assert moved.radius_sq == wall.radius_sq

    def test_dual_negates_center(self):
        rng = random.Random(62)
        for _ in range(120):
            v, w, wall = rand_wall_pair(rng)
            flipped = wall_between(dual(v), dual(w))
            assert flipped.center == -wall.center
            assert flipped.radius_sq == wall.radius_sq

    def test_shift_preserves_wall(self):
        rng = random.Random(63)
        for _ in range(120):
            v, w, wall = rand_wall_pair(rng)
            assert wall_between(shift(v), shift(w)) == wall
