import math
from fractions import Fraction

import pytest

from planemoduli import betti, exactmath
from planemoduli.betti import (Bundle, Grassmannian, Hilb, HilbModel,
                               KroneckerModuli, Projective, SpaceDescriptor,
                               WallRecord, assemble_m6,
                               brute_force_kronecker_count, ext_dims_at_wall,
                               hilb_model_poincare, hilb_poincare,
                               kronecker_poincare, m6_wall_records,
                               n6_poincare, q6_poincare, space_poincare,
                               wall_contribution)
from planemoduli.errors import ConventionError, DomainError
from planemoduli.exactmath import (QPoly, grassmannian_poincare,
                                   is_palindromic, projective_poincare)
from planemoduli.ktheory import ChernP2, point
from planemoduli.walls import enumerate_potential_walls
from oracles import (M6_EXT_DIMS, M6_FACTOR_COEFFICIENTS, M6_TABLE,
                     N6_COEFFICIENTS, gopakumar_vafa, hilb_fixed_point_poincare,
                     hn_factorization_stack_count, kronecker_poincare_by_factorization,
                     partition_triple_count)


#: (degree, Euler characteristic) of N(3; e, f) for every shape that
#: kronecker_poincare accepts with 3 arrows: coprime, e + f <= 17,
#: dimension 0..100
THREE_ARROW_SHAPES = {
    (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (2, 3), (1, 2): (2, 3),
    (2, 1): (2, 3), (1, 3): (0, 1), (3, 1): (0, 1), (2, 3): (6, 13),
    (3, 2): (6, 13), (2, 5): (2, 3), (3, 4): (12, 68), (4, 3): (12, 68),
    (5, 2): (2, 3), (3, 5): (12, 68), (5, 3): (12, 68), (4, 5): (20, 399),
    (5, 4): (20, 399), (3, 7): (6, 13), (7, 3): (6, 13), (3, 8): (0, 1),
    (4, 7): (20, 399), (5, 6): (30, 2530), (6, 5): (30, 2530),
    (7, 4): (20, 399), (8, 3): (0, 1), (5, 7): (32, 4242), (7, 5): (32, 4242),
    (4, 9): (12, 68), (5, 8): (32, 4242), (6, 7): (42, 16965),
    (7, 6): (42, 16965), (8, 5): (32, 4242), (9, 4): (12, 68),
    (5, 9): (30, 2530), (9, 5): (30, 2530), (7, 8): (56, 118668),
    (8, 7): (56, 118668), (5, 11): (20, 399), (7, 9): (60, 270662),
    (9, 7): (60, 270662), (11, 5): (20, 399), (5, 12): (12, 68),
    (6, 11): (42, 16965), (7, 10): (62, 379032), (8, 9): (72, 857956),
    (9, 8): (72, 857956), (10, 7): (62, 379032), (11, 6): (42, 16965),
    (12, 5): (12, 68),
}


class TestHilbPoincare:
    def test_small_cases(self):
        assert hilb_poincare(0) == QPoly([1])
        assert hilb_poincare(1) == QPoly([1, 1, 1])
        assert hilb_poincare(2) == QPoly([1, 2, 3, 2, 1])

    def test_matches_fixed_point_oracle(self):
        # every size the guard accepts
        for n in range(betti.MAX_HILB_POINTS + 1):
            assert hilb_poincare(n) == hilb_fixed_point_poincare(n)

    def test_euler_characteristic_counts_partition_triples(self):
        for n in range(9):
            assert hilb_poincare(n)(1) == partition_triple_count(n)

    def test_range(self):
        with pytest.raises(DomainError):
            hilb_poincare(-1)
        with pytest.raises(DomainError):
            hilb_poincare(13)
        for n in (True, 2.0):
            with pytest.raises(DomainError, match="expected an integer"):
                hilb_poincare(n)


class TestHilbModelPoincare:
    def test_model_zero_is_the_hilbert_scheme(self):
        for n in range(6):
            assert hilb_model_poincare(n, 0) == hilb_poincare(n)

    def test_first_model_of_three_points(self):
        p = projective_poincare
        expected = hilb_poincare(3) + (p(0) - p(3)) * p(2)
        assert hilb_model_poincare(3, 1) == expected

    def test_models_of_four_points(self):
        p = projective_poincare
        first = hilb_poincare(4) + (p(1) - p(4)) * p(2)
        assert hilb_model_poincare(4, 1) == first
        assert hilb_model_poincare(4, 2) == first + (p(0) - p(3)) * p(2) * p(2)

    def test_second_model_of_five_points(self):
        p = projective_poincare
        expected = (hilb_poincare(5) + (p(2) - p(5)) * p(2)
                    + (p(1) - p(4)) * p(2) * p(2))
        assert hilb_model_poincare(5, 2) == expected

    def test_final_model_of_eight_points(self):
        expected = grassmannian_poincare(2, 9) * projective_poincare(2)
        assert hilb_model_poincare(8, 6) == expected

    def test_models_stay_palindromic(self):
        for n, k in ((3, 1), (4, 1), (4, 2), (5, 2), (8, 6)):
            poly = hilb_model_poincare(n, k)
            assert is_palindromic(poly)
            assert all(c >= 0 for c in poly.coefficients)

    def test_unsupported_model(self):
        with pytest.raises(DomainError):
            hilb_model_poincare(5, 1)


class TestKroneckerPoincare:
    def test_single_point(self):
        assert kronecker_poincare(3, (1, 0)) == QPoly([1])

    def test_projective_plane_cases(self):
        assert kronecker_poincare(3, (1, 1)) == QPoly([1, 1, 1])
        assert kronecker_poincare(3, (2, 1)) == QPoly([1, 1, 1])
        assert kronecker_poincare(3, (1, 2)) == QPoly([1, 1, 1])

    def test_printed_polynomial(self):
        assert kronecker_poincare(3, (5, 4)) == QPoly(N6_COEFFICIENTS)

    def test_shape_invariants(self):
        for m, e, f in ((3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 3, 2),
                        (3, 4, 3), (3, 5, 4), (2, 2, 1)):
            poly = kronecker_poincare(m, (e, f))
            assert poly.coefficients[0] == 1
            assert poly.degree == m * e * f - e * e - f * f + 1
            assert is_palindromic(poly)
            assert all(c >= 0 for c in poly.coefficients)

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError):
            kronecker_poincare(3, (2, 2))

    def test_count_drift_fails_the_palindrome_check(self, monkeypatch):
        # one more point in every moduli count keeps the counts integral and
        # the digit count right: only the palindrome test can catch it
        from planemoduli import betti as betti_module
        original = betti_module._hn_stack_count
        monkeypatch.setattr(betti_module, "_hn_stack_count",
                            lambda m, e, f, q: original(m, e, f, q) + Fraction(1, q - 1))
        with pytest.raises(ConventionError, match=r"base-9 digits \[2, 1, 1\] "):
            betti_module.kronecker_poincare(3, (2, 1))

    @pytest.mark.parametrize("dv, q, drift, message", [
        # one more point at q = 3 only: the value at q = 2 and the base-8
        # digits stay right, so only the comparison at q = 3 can catch it
        ((2, 1), 3, 1, "disagrees with the recursion at q = 3"),
        # N(3; 1, 1) = P^2 loses its 7 points at q = 2: an empty space
        ((1, 1), 2, -7, r"fails its shape checks: 0 \(expected degree 2\)"),
    ], ids=["q3-disagreement", "empty-at-q2"])
    def test_count_drift_at_one_q_fails_its_check(self, monkeypatch, dv, q, drift, message):
        # only the top-level call at that q drifts, by `drift` moduli points
        from planemoduli import betti as betti_module
        original = betti_module._hn_stack_count
        monkeypatch.setattr(betti_module, "_hn_stack_count",
                            lambda m, e, f, at: original(m, e, f, at)
                            + (Fraction(drift, at - 1) if ((e, f), at) == (dv, q) else 0))
        with pytest.raises(ConventionError, match=message):
            betti_module.kronecker_poincare(3, dv)

    def test_a_failed_call_leaves_no_state(self, monkeypatch):
        # a doubled group order halves the stack count, so (q - 1) times it
        # is no integer; once the patch is undone, nothing of it may remain
        original = betti._gl_order
        monkeypatch.setattr(betti, "_gl_order", lambda n, q: 2 * original(n, q))
        with pytest.raises(ConventionError):
            kronecker_poincare(3, (2, 1))
        monkeypatch.undo()
        assert kronecker_poincare(3, (2, 1)) == QPoly([1, 1, 1])

    def test_reflection_and_duality(self):
        # transposing the arrows swaps (e, f); reflecting at the sink and
        # then transposing maps (e, f) to (3e - f, e); both give isomorphic
        # moduli spaces
        for e, f in ((2, 1), (3, 2), (4, 3), (5, 4)):
            poly = kronecker_poincare(3, (e, f))
            assert kronecker_poincare(3, (f, e)) == poly
            assert kronecker_poincare(3, (3 * e - f, e)) == poly

    def test_shapes_beyond_the_oracle(self):
        for dv, degree, euler in (((6, 5), 30, 2530), ((7, 6), 42, 16965)):
            poly = kronecker_poincare(3, dv)
            assert poly.degree == degree
            assert poly(1) == euler
            assert is_palindromic(poly)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            kronecker_poincare(0, (1, 1))
        with pytest.raises(DomainError):
            kronecker_poincare(3, (0, 0))
        with pytest.raises(DomainError):
            kronecker_poincare(3, (-1, 2))
        # (3, (True, 1)) would pass as N(3; 1, 1), P^2's polynomial
        for m, dv in ((3, (5.0, 4)), (3, (True, 1)), (3.0, (1, 1))):
            with pytest.raises(DomainError, match="expected an integer"):
                kronecker_poincare(m, dv)

    def test_size_limit(self):
        with pytest.raises(DomainError):
            kronecker_poincare(3, (10, 9))

    def test_negative_dimension_rejected(self):
        # 3 * 4 * 1 - 16 - 1 + 1 = -4: empty, rejected before any counting
        with pytest.raises(DomainError, match="negative"):
            kronecker_poincare(3, (4, 1))

    def test_every_accepted_three_arrow_shape(self):
        accepted = {(e, s - e) for s in range(1, 18) for e in range(s + 1)
                    if math.gcd(e, s - e) == 1
                    and 0 <= 3 * e * (s - e) - e * e - (s - e) ** 2 + 1 <= 100}
        assert set(THREE_ARROW_SHAPES) == accepted
        for dv, (degree, euler) in THREE_ARROW_SHAPES.items():
            poly = kronecker_poincare(3, dv)
            assert (poly.degree, poly(1)) == (degree, euler)
            assert is_palindromic(poly)
            assert all(c >= 0 for c in poly.coefficients)

    def test_one_by_f_shapes_are_grassmannians(self):
        # a stable representation of (1, f) is m vectors spanning C^f, that
        # is an f x m matrix of rank f up to GL_f, so N(m; 1, f) = Gr(f, m),
        # and N(m; f, 1) is its transpose; the chain sum builds its own
        # integer q-binomials at each q and never calls grassmannian_poincare
        # (test_builds_no_grassmannian_polynomial pins that), so the two
        # sides are independent routes.  The guards accept (1, f) for
        # 1 <= f <= 16 and dimension f (m - f) in 0..100 ((1, 0) is a point
        # for every m)
        shapes = [(m, f) for f in range(1, 17) for m in range(f, f + 100 // f + 1)]
        assert len(shapes) == 350
        for m, f in shapes:
            grassmannian = grassmannian_poincare(f, m)
            assert kronecker_poincare(m, (1, f)) == grassmannian
            assert kronecker_poincare(m, (f, 1)) == grassmannian
        for m, dv in [(f + 100 // f + 1, (1, f)) for f in range(1, 17)] + [(17, (1, 17))]:
            with pytest.raises(DomainError, match="above the limit|too large"):
                kronecker_poincare(m, dv)

    def test_degree_limit(self):
        # dimension 100 is the largest accepted: 101 arrows on (1, 1)
        assert kronecker_poincare(101, (1, 1)) == QPoly((1,) * 101)
        for m, dv in ((102, (1, 1)), (50, (5, 4)), (1000, (2, 1))):
            with pytest.raises(DomainError, match="above the limit"):
                kronecker_poincare(m, dv)


class TestChainSum:
    #: shapes with 1, 2, 4, 5 and 6 arrows, the empty (1, 3, 2) among them
    OTHER_SHAPES = [(1, 1, 1), (1, 3, 2), (2, 2, 1), (2, 5, 4), (4, 3, 2),
                    (4, 1, 3), (5, 2, 1), (5, 4, 3), (6, 3, 2), (6, 1, 1)]

    def test_three_arrow_shapes_match_the_factorization_route(self):
        # all 47 shapes take about 30 s, so tier-1 runs those with
        # e + f <= 9, N(3; 5, 4) among them
        shapes = [(e, f) for e, f in THREE_ARROW_SHAPES if e and f and e + f <= 9]
        assert len(shapes) == 15
        for e, f in shapes:
            route = kronecker_poincare_by_factorization(3, e, f)
            assert route == kronecker_poincare(3, (e, f))
            if (e, f) == (5, 4):
                assert route.coefficients == N6_COEFFICIENTS

    def test_other_arrow_counts_match_the_factorization_route(self):
        for m, e, f in self.OTHER_SHAPES:
            route = kronecker_poincare_by_factorization(m, e, f)
            if m * e * f - e * e - f * f + 1 < 0:
                assert route == QPoly()
                with pytest.raises(DomainError, match="empty"):
                    kronecker_poincare(m, (e, f))
            else:
                assert route == kronecker_poincare(m, (e, f))

    def test_factorization_route_counts_points_over_finite_fields(self):
        # the route's conventions, the twist's sign and the side each ray
        # is peeled from, are fixed by the point counts, not by the engine
        for m, e, f, p in ((3, 1, 1, 2), (3, 1, 1, 3), (3, 2, 1, 2), (3, 2, 1, 3),
                           (3, 1, 2, 3), (4, 2, 1, 2), (1, 3, 2, 2), (3, 3, 2, 2)):
            assert (p - 1) * hn_factorization_stack_count(m, e, f, p) == \
                brute_force_kronecker_count(m, (e, f), p)

    def test_builds_no_grassmannian_polynomial(self, monkeypatch):
        calls = []

        def recorded(k, n):
            calls.append((k, n))
            return grassmannian_poincare(k, n)

        monkeypatch.setattr(exactmath, "grassmannian_poincare", recorded)
        monkeypatch.setattr(betti, "grassmannian_poincare", recorded)
        kronecker_poincare(3, (5, 4))
        assert calls == []


class TestBruteForce:
    def test_plane_counts(self):
        assert brute_force_kronecker_count(3, (1, 1), 2) == 7
        assert brute_force_kronecker_count(3, (1, 1), 3) == 13

    def test_matches_recursion_on_small_vectors(self):
        for dv in ((1, 1), (2, 1), (1, 2)):
            poly = kronecker_poincare(3, dv)
            for p in (2, 3):
                assert brute_force_kronecker_count(3, dv, p) == poly(p)

    def test_three_two_at_two(self):
        assert brute_force_kronecker_count(3, (3, 2), 2) == \
            kronecker_poincare(3, (3, 2))(2)

    def test_count_drift_fails_the_group_order_check(self, monkeypatch):
        # one stable tuple too many is not a union of free orbits
        from planemoduli import _fieldcount
        original = _fieldcount.stable_tuples
        monkeypatch.setattr(_fieldcount, "stable_tuples",
                            lambda m, e, f, p: original(m, e, f, p) + 1)
        with pytest.raises(ConventionError, match="not divisible by the group order"):
            brute_force_kronecker_count(3, (2, 1), 2)

    @pytest.mark.parametrize("m, dv, message", [
        (0, (1, 1), "at least one arrow"), (3, (0, 0), "invalid"),
        (3, (-1, 2), "invalid"), (3, (2, 2), "not coprime"),
    ])
    def test_shape_guards_shared_with_the_recursion(self, m, dv, message):
        with pytest.raises(DomainError, match=message) as by_recursion:
            kronecker_poincare(m, dv)
        with pytest.raises(DomainError) as by_oracle:
            brute_force_kronecker_count(m, dv, 2)
        assert str(by_oracle.value) == str(by_recursion.value)

    def test_guards(self):
        with pytest.raises(DomainError):
            brute_force_kronecker_count(3, (4, 3), 2)  # 36 > 20
        with pytest.raises(DomainError):
            brute_force_kronecker_count(3, (2, 2), 2)
        with pytest.raises(DomainError):
            brute_force_kronecker_count(3, (1, 1), 4)
        # a prime too large for trial division: the size guards reject it
        for m, dv in ((3, (1, 1)), (1, (1, 0))):
            with pytest.raises(DomainError):
                brute_force_kronecker_count(m, dv, 2 ** 61 - 1)
        for m, dv, p in ((3, (1, 1), 2.0), (3, (1, 1), True), (3, (True, 1), 2)):
            with pytest.raises(DomainError, match="expected an integer"):
                brute_force_kronecker_count(m, dv, p)

    @pytest.mark.parametrize("m, dv, p, message", [
        (3, (7, 1), 2, r"p\^21 tuples"),         # m e f = 21, one above the limit
        (2, (2, 1), 149, r"149\^4 tuples"),      # 149^4 > 4 * 10^8 >= 139^4
        (1, (4, 5), 2, r"min\(e, f\) <= 3"),   # m e f = 20 and masks of 2^5 bits
    ])
    def test_guards_refuse_the_first_shape_beyond_each_limit(self, m, dv, p, message):
        # each shape passes every other guard, so only its own limit refuses it
        with pytest.raises(DomainError, match=message):
            brute_force_kronecker_count(m, dv, p)


class TestExtDims:
    def test_table_values(self):
        for (chern, _, _), dims in zip(M6_TABLE, M6_EXT_DIMS):
            destab = ChernP2(*chern)
            assert ext_dims_at_wall(6, destab) == dims

    def test_difference_is_constant(self):
        for (chern, _, _), _ in zip(M6_TABLE[:-1], M6_EXT_DIMS):
            a, b = ext_dims_at_wall(6, ChernP2(*chern))
            assert a - b == 18

    def test_convention_violation_raises(self):
        with pytest.raises(ConventionError):
            ext_dims_at_wall(6, point())

    def test_fractional_pairings_fail_the_integrality_check(self, monkeypatch):
        # negative, so the sign check passes: only integrality can catch it
        monkeypatch.setattr(betti, "euler_hom", lambda v, w: Fraction(-1, 2))
        with pytest.raises(ConventionError, match="must be integers"):
            ext_dims_at_wall(6, ChernP2(1, 3, Fraction(-7, 2)))


class TestSpacePoincare:
    def test_leaves(self):
        assert space_poincare(Projective(2)) == projective_poincare(2)
        assert space_poincare(Grassmannian(2, 9)) == grassmannian_poincare(2, 9)
        assert space_poincare(Hilb(2)) == hilb_poincare(2)
        assert space_poincare(HilbModel(8, 6)) == hilb_model_poincare(8, 6)
        assert space_poincare(KroneckerModuli(3, 1, 1)) == QPoly([1, 1, 1])

    def test_product_and_bundle(self):
        sq = Bundle(Projective(2), Projective(2))
        assert space_poincare(sq) == projective_poincare(2) ** 2
        tower = Bundle(Projective(17), KroneckerModuli(3, 5, 4))
        assert space_poincare(tower) == \
            projective_poincare(17) * QPoly(N6_COEFFICIENTS)

    def test_unsupported_descriptor(self):
        with pytest.raises(DomainError):
            space_poincare(SpaceDescriptor())


class TestWallContribution:
    def test_innermost_wall(self):
        rec = WallRecord("W1", ChernP2(1, 3, Fraction(-7, 2)), HilbModel(8, 6))
        expected = ((projective_poincare(19) - projective_poincare(1))
                    * hilb_model_poincare(8, 6))
        assert wall_contribution(6, rec) == expected

    def test_outermost_wall(self):
        rec = WallRecord("W5", ChernP2(1, 2, 0), Hilb(2))
        expected = ((projective_poincare(25) - projective_poincare(7))
                    * hilb_poincare(2))
        assert wall_contribution(6, rec) == expected

    def test_product_base_wall(self):
        rec = WallRecord("W2", ChernP2(1, 1, Fraction(-1, 2)),
                         Bundle(HilbModel(5, 2), Projective(2)))
        expected = ((projective_poincare(21) - projective_poincare(3))
                    * hilb_model_poincare(5, 2) * projective_poincare(2))
        assert wall_contribution(6, rec) == expected


class TestAssembly:
    def test_record_table(self):
        records = m6_wall_records()
        assert [rec.label for rec in records] == \
            ["W1", "W1'", "W2", "W3", "W4", "W5"]
        destabs = {rec.destabilizer for rec in records}
        assert destabs == {ChernP2(*chern) for chern, _, _ in M6_TABLE[:-1]}

    def test_q6_is_a_projective_bundle(self):
        assert q6_poincare() == projective_poincare(17) * n6_poincare()

    def test_model_indices_match_chamber_location(self):
        # the two wall records whose bases are derived (not just asserted)
        # carry exactly the model index found by chamber location
        from planemoduli.ktheory import moduli
        from planemoduli.walls import (abch_reference_walls, locate_model,
                                       transform_walls, wall_between)
        by_label = {rec.label: rec for rec in m6_wall_records()}
        hilb8 = transform_walls(abch_reference_walls(8), "twist", 3)
        w1 = wall_between(moduli(6), by_label["W1"].destabilizer)
        assert by_label["W1"].base == HilbModel(8, locate_model(w1, hilb8))
        hilb4 = transform_walls(transform_walls(abch_reference_walls(4), "dual"),
                                "twist", -5)
        w4 = wall_between(moduli(6), by_label["W4"].destabilizer)
        assert by_label["W4"].base == HilbModel(4, locate_model(w4, hilb4))
        # W1' sits over model 2 of Hilb^4 on the sub side, twisted by c = 2
        w1p = wall_between(moduli(6), by_label["W1'"].destabilizer)
        hilb4_sub = transform_walls(abch_reference_walls(4), "twist", 2)
        assert by_label["W1'"].base.fiber == HilbModel(4, locate_model(w1p, hilb4_sub))

    def test_n6_matches_printed_polynomial(self):
        assert n6_poincare() == QPoly(N6_COEFFICIENTS)

    def test_full_assembly(self):
        total = assemble_m6()
        expected = QPoly(M6_FACTOR_COEFFICIENTS) * projective_poincare(17)
        assert total == expected
        assert total.degree == 37
        assert total(1) == 17064
        assert is_palindromic(total)

    def test_flips_are_curated_consistently(self):
        # a flip trades a P^(a-1)-bundle over the base for a P^(b-1)-bundle,
        # so dim base + a + b - 1 = dim M6 = 37; each destabilizer is a
        # potential wall, and the walls are recorded innermost first
        records = m6_wall_records()
        for rec in records:
            a, b = ext_dims_at_wall(6, rec.destabilizer)
            assert space_poincare(rec.base).degree + a + b - 1 == 37
        candidates = dict(enumerate_potential_walls(6))
        radii = [candidates[rec.destabilizer].radius_sq for rec in records]
        assert radii == [Fraction(n, 9) for n in (25, 28, 31, 46, 49, 64)]
        contributions = [wall_contribution(6, rec)(1) for rec in records]
        assert contributions == [1944, 2430, 3888, 702, 756, 162]
        assert q6_poincare()(1) + sum(contributions) == 17064


class TestGopakumarVafa:
    """A second route to chi(M_d): |n_d| by local mirror symmetry, which
    shares no wall, quiver or Hilbert scheme with the assembly."""

    def test_first_invariants(self):
        assert gopakumar_vafa(7) == [3, -6, 27, -192, 1695, -17064, 188454]

    def test_m6_euler_characteristic(self):
        assert abs(gopakumar_vafa(6)[5]) == assemble_m6()(1) == 17064

    def test_small_degrees(self):
        # M_1 is the dual plane, M_2 the P^5 of conics, and M_3 a
        # P^8-bundle over the plane
        n1, n2, n3 = gopakumar_vafa(3)
        assert abs(n1) == projective_poincare(2)(1)
        assert abs(n2) == projective_poincare(5)(1)
        assert abs(n3) == space_poincare(Bundle(Projective(8), Projective(2)))(1) == 27

    @pytest.mark.parametrize("slip", [{"z_sign": 1}, {"yukawa": 1}, {"yukawa": -1}],
                             ids=["z-sign-flipped", "yukawa-minus-third-dropped",
                                  "yukawa-third-dropped"])
    def test_a_slipped_convention_changes_n6(self, slip):
        assert gopakumar_vafa(6, **slip)[5] != -17064
