import random
from fractions import Fraction

import pytest

from planemoduli import divisors, ktheory
from planemoduli.chow import ChowCurveP2
from planemoduli.divisors import (A_DIVISOR, L_DIVISOR, DivisorAL, FamilyClass,
                                  d_class, d_in_AL,
                                  effective_generators, family_class,
                                  first_wall_destabilizer, genus,
                                  intersection_degree, lambda_decompose,
                                  nef_generators, orthogonal_wall_class,
                                  wall_divisor)
from planemoduli.errors import ConventionError, DomainError
from planemoduli.ktheory import (ChernP2, euler_product, ideal_twisted,
                                 line_bundle, moduli, point)
from oracles import (family_class_by_fractions,
                     intersection_degree_by_full_product,
                     orthogonal_wall_class_by_fractions, p_part,
                     wall_divisor_by_fractions)


def nef_a_coefficient(d: int) -> Fraction:
    if d % 2 == 0:
        return Fraction((d - 2) ** 2 * (d + 2), 8)
    return Fraction((d - 1) * (d + 4) * (d - 3), 8)


def wall_family_drop(d: int) -> Fraction:
    if d % 2 == 0:
        return Fraction(d * (d * d - 2 * d + 4), 8)
    return Fraction((d - 1) * (d * d + d - 4), 8)


class TestGenus:
    def test_values(self):
        assert genus(6) == 10
        assert genus(3) == 1
        assert genus(4) == 3
        with pytest.raises(DomainError):
            genus(0)


class TestFirstWallDestabilizer:
    def test_even(self):
        assert first_wall_destabilizer(6) == ChernP2(1, 2, 0)
        assert first_wall_destabilizer(4) == ideal_twisted(1, 1)

    def test_odd(self):
        assert first_wall_destabilizer(5) == ChernP2(1, 1, Fraction(1, 2))
        assert first_wall_destabilizer(3) == line_bundle(0)

    def test_too_small(self):
        with pytest.raises(DomainError):
            first_wall_destabilizer(2)


class TestOrthogonalWallClass:
    def test_degree_six_first_wall(self):
        w = orthogonal_wall_class(moduli(6), ChernP2(1, 2, 0))
        assert w == ChernP2(-6, 1, Fraction(41, 2))

    def test_collapsing_class(self):
        for d in range(3, 11):
            w = orthogonal_wall_class(moduli(d), line_bundle(0))
            assert w == ChernP2(-d, 1, d - Fraction(3, 2))

    def test_odd_first_wall_class(self):
        # matches the closed form -d + h + d(d^2-5)/8 h^2 at d = 5
        w = orthogonal_wall_class(moduli(5), line_bundle(1))
        assert w == ChernP2(-5, 1, Fraction(25, 2))
        assert Fraction(5 * (25 - 5), 8) == Fraction(25, 2)

    def test_orthogonality_of_output(self):
        for d in (3, 4, 5, 6, 7, 8):
            vprime = first_wall_destabilizer(d)
            w = orthogonal_wall_class(moduli(d), vprime)
            assert euler_product(w, moduli(d)) == 0
            assert euler_product(w, vprime) == 0

    def test_proportional_inputs_rejected(self):
        v = moduli(6)
        with pytest.raises(DomainError):
            orthogonal_wall_class(v, 2 * v)


class TestLambdaDecompose:
    def test_first_wall_divisor(self):
        assert lambda_decompose(ChernP2(-6, 1, Fraction(41, 2)), 6) == \
            DivisorAL(16, 1)

    def test_point_class_gives_A(self):
        for d in (3, 5, 8):
            assert lambda_decompose(point(), d) == A_DIVISOR

    def test_collapsing_class_gives_L(self):
        assert lambda_decompose(ChernP2(-6, 1, Fraction(9, 2)), 6) == L_DIVISOR

    def test_non_orthogonal_rejected(self):
        with pytest.raises(DomainError):
            lambda_decompose(line_bundle(0), 6)

    def test_orthogonal_exactly_on_the_rank_relation(self):
        # orthogonality to moduli(d) is r = -d c, so no class passes the
        # orthogonality test and then breaks the rank relation
        rng = random.Random(2013)
        for _ in range(2000):
            d, c = rng.randint(1, 60), rng.randint(-20, 20)
            r = -d * c + rng.choice((0, 0, rng.randint(-3, 3)))
            w = ChernP2(r, c, Fraction(c * c + 2 * rng.randint(-50, 50), 2))
            if r == -d * c:
                assert lambda_decompose(w, d).l == c
            else:
                with pytest.raises(DomainError, match="not orthogonal"):
                    lambda_decompose(w, d)

    def test_linearity(self):
        rng = random.Random(71)
        for _ in range(120):
            d = rng.randint(3, 9)
            def rand_orthogonal():
                alpha = rng.randint(-6, 6)
                beta = rng.randint(-6, 6)
                return alpha * point() + beta * d_class(d)
            w1, w2 = rand_orthogonal(), rand_orthogonal()
            assert lambda_decompose(w1 + w2, d) == \
                lambda_decompose(w1, d) + lambda_decompose(w2, d)


class TestWallDivisor:
    def test_degree_six_table(self):
        table = {
            ChernP2(1, 2, 0): 16,
            ChernP2(1, 1, Fraction(1, 2)): 11,
            ChernP2(1, 2, -1): 10,
            ChernP2(1, 1, Fraction(-1, 2)): 5,
            ChernP2(1, 2, -2): 4,
            ChernP2(1, 3, Fraction(-7, 2)): 3,
            ChernP2(1, 0, 0): 0,
        }
        for destab, a_coeff in table.items():
            assert wall_divisor(6, destab) == DivisorAL(a_coeff, 1)


def wall_class_off_by_a_point(real):
    # the point class is orthogonal to the moduli class: only A moves
    return lambda v, w: real(v, w) + point()


def todd_class_without_its_h2_term(real):
    def drifted(v):
        t0, t1, t2 = real(v)
        return t0, t1, t2 - 2 * v.r
    return drifted


class TestCones:
    def test_nef_examples(self):
        assert nef_generators(6) == (A_DIVISOR, DivisorAL(16, 1))
        assert nef_generators(5) == (A_DIVISOR, DivisorAL(9, 1))
        assert nef_generators(4) == (A_DIVISOR, DivisorAL(3, 1))

    def test_nef_closed_forms(self):
        for d in range(3, 13):
            a, b = nef_generators(d)
            assert a == A_DIVISOR
            assert b == DivisorAL(nef_a_coefficient(d), 1)

    def test_effective_generators(self):
        for d in range(3, 13):
            assert effective_generators(d) == (A_DIVISOR, L_DIVISOR)
            assert wall_divisor(d, line_bundle(0)) == L_DIVISOR

    @pytest.mark.parametrize("module, name, drift", [
        (divisors, "orthogonal_wall_class", wall_class_off_by_a_point),
        (ktheory, "_td_ch2", todd_class_without_its_h2_term),
    ], ids=["wall-class", "td-ch2"])
    def test_effective_generators_catch_drift(self, monkeypatch, module, name, drift):
        monkeypatch.setattr(module, name, drift(getattr(module, name)))
        for d in (3, 6, 7):
            with pytest.raises(ConventionError, match="collapsing-wall divisor"):
                effective_generators(d)

    def test_nef_generators_catch_drift(self, monkeypatch):
        # the first wall's destabilizer drifts to O, whose divisor is L; at
        # d = 3 O is the first wall's destabilizer, so that degree is left out
        monkeypatch.setattr(divisors, "first_wall_destabilizer", lambda d: line_bundle(0))
        for d in (4, 6, 7):
            with pytest.raises(ConventionError, match="disagrees with the closed form"):
                nef_generators(d)

    def test_degree_bounds(self):
        with pytest.raises(DomainError):
            nef_generators(2)
        with pytest.raises(DomainError):
            effective_generators(2)


class TestFamilyClasses:
    def test_pencil_p_part(self):
        fam = family_class("pencil", 6)
        assert p_part(fam.chern).c0 == 1
        assert p_part(fam.chern).c1 == 0
        assert p_part(fam.chern).c2 == 0
        # rank zero, supported on degree-d curves
        assert fam.chern.a1 == 0
        assert fam.chern.ah == 6

    def test_even_wall_p_part(self):
        fam = family_class("even_wall", 6)
        p = p_part(fam.chern)
        assert (p.c0, p.c1, p.c2) == (1, -4, 8)

    def test_odd_wall_p_part(self):
        fam = family_class("odd_wall", 5)
        p = p_part(fam.chern)
        assert (p.c0, p.c1, p.c2) == (1, 1, Fraction(1, 2))

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            family_class("even_wall", 5)
        with pytest.raises(DomainError):
            family_class("odd_wall", 6)
        with pytest.raises(DomainError):
            family_class("conic", 6)


class TestIntersectionDegrees:
    def test_pencil_against_theta_class(self):
        for d in range(3, 11):
            fam = family_class("pencil", d)
            assert intersection_degree(fam, d_class(d)) == 1 - d

    def test_jacobian_against_theta_class(self):
        for d in range(3, 11):
            fam = family_class("jacobian", d)
            assert intersection_degree(fam, d_class(d)) == d * genus(d)

    def test_point_constraints(self):
        for d in (3, 5, 6, 9):
            assert intersection_degree(family_class("pencil", d), point()) == 1
            assert intersection_degree(family_class("jacobian", d), point()) == 0

    def test_wall_family_drops(self):
        for d in range(4, 13, 2):
            fam = family_class("even_wall", d)
            assert intersection_degree(fam, d_class(d)) == -wall_family_drop(d)
        for d in range(3, 12, 2):
            fam = family_class("odd_wall", d)
            assert intersection_degree(fam, d_class(d)) == -wall_family_drop(d)

    def test_p_free_terms_never_contribute(self):
        rng = random.Random(73)
        fam = family_class("pencil", 6)
        for _ in range(120):
            noise = ChowCurveP2(rng.randint(-9, 9), rng.randint(-9, 9),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                                0, 0, 0)
            bumped = FamilyClass(fam.chern + noise, fam.label, fam.degree_d)
            c = rng.randint(-3, 3)
            w = ChernP2(rng.randint(-3, 3), c,
                        Fraction(c * c, 2) + rng.randint(-4, 4))
            assert intersection_degree(bumped, w) == intersection_degree(fam, w)

    def test_matches_full_product(self):
        # every family of d = 3..80 against d_class(d), then 50 seeded
        # classes, each against every family of five seeded degrees
        rng = random.Random(80)
        cases = [(d, d_class(d)) for d in range(3, 81)]
        for _ in range(50):
            c = rng.randint(-6, 6)
            w = ChernP2(rng.randint(-6, 6), c, Fraction(c * c, 2) + rng.randint(-9, 9))
            cases += [(d, w) for d in rng.sample(range(3, 81), 5)]
        for d, w in cases:
            for kind in ("pencil", "jacobian", "odd_wall" if d % 2 else "even_wall"):
                fam = family_class(kind, d)
                value = intersection_degree(fam, w)
                assert type(value) is Fraction
                assert value == intersection_degree_by_full_product(fam, w)


class TestBasisConversion:
    def test_d_in_AL(self):
        for d in range(3, 11):
            assert d_in_AL(d) == DivisorAL(1 - d, 1)

    def test_examples(self):
        assert d_in_AL(6) == DivisorAL(-5, 1)
        assert d_in_AL(4) == DivisorAL(-3, 1)
        assert d_in_AL(3) == DivisorAL(-2, 1)

    def test_degree_below_three(self):
        with pytest.raises(DomainError, match="needs degree >= 3"):
            d_in_AL(2)


class TestTwoRouteAgreement:
    def test_nef_generator_via_wall_family(self):
        # independent route: B = D + drop * A with the drop computed by
        # Riemann-Roch on the parity wall family
        for d in range(3, 13):
            kind = "even_wall" if d % 2 == 0 else "odd_wall"
            drop = -intersection_degree(family_class(kind, d), d_class(d))
            route2 = d_in_AL(d) + drop * A_DIVISOR
            assert route2 == nef_generators(d)[1]


class TestDivisorFormatting:
    def test_str(self):
        assert str(DivisorAL(16, 1)) == "16A + L"
        assert str(DivisorAL(1, 0)) == "A"
        assert str(DivisorAL(0, 1)) == "L"
        assert str(DivisorAL(-5, 1)) == "-5A + L"
        assert str(DivisorAL(0, 0)) == "0"
        assert str(DivisorAL(Fraction(3, 2), -1)) == "3/2A - L"

    def test_json(self):
        assert DivisorAL(16, 1).to_json() == {"a": "16", "l": "1"}


class TestArithmetic:
    def test_negation(self):
        d = DivisorAL(Fraction(-5, 2), 1)
        assert -d == d * -1 == DivisorAL(Fraction(5, 2), -1)
        assert d - d == d + -d == DivisorAL(0, 0)


class TestForeignOperands:
    @pytest.mark.parametrize("compute", [
        lambda: DivisorAL(1, 0) + 1,
        lambda: DivisorAL(1, 0) - ChernP2(1, 0, 0),
        lambda: DivisorAL(1, 0) * "x",
    ], ids=["plus-int", "minus-chern", "times-str"])
    def test_type_error(self, compute):
        with pytest.raises(TypeError):
            compute()


#: every degree 3..400 and 40 seeded ones up to 10^5
DEGREES = list(range(3, 401)) + random.Random(1903).sample(range(401, 10 ** 5 + 1), 40)


def outcome(compute, *args) -> str:
    """repr of the result, whose fields show their types, or the error raised."""
    try:
        return repr(compute(*args))
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestAgainstFractionForms:
    """The integer-numerator forms against the Fraction oracles, value and type."""

    def test_orthogonal_wall_class_and_errors(self):
        # proportional pairs; two pairs whose first class has nonzero rank,
        # with the non-integer ranks -1/2 and -2/3; and random classes against
        # moduli(d): its doubled row (2, 0, -2d) makes every such rank -d, so
        # only the rank-deficient error fires there
        rng = random.Random(1904)
        cases = [(moduli(6), 2 * moduli(6)), (line_bundle(1), -line_bundle(1)),
                 (ChernP2(-2, -2, 1), ChernP2(-2, -1, Fraction(3, 2))),
                 (ChernP2(-2, -2, 1), ChernP2(-2, 0, 1))]
        for _ in range(400):
            d = rng.choice(DEGREES)
            c = rng.randint(-d, d)
            cases.append((moduli(d), ChernP2(rng.randint(-3, 3), c,
                                             Fraction(c * c, 2) - rng.randint(-d, d * d))))
        errors = []
        for v, vprime in cases:
            expected = outcome(orthogonal_wall_class_by_fractions, v, vprime)
            assert outcome(orthogonal_wall_class, v, vprime) == expected
            errors += [expected] if expected.startswith("DomainError") else []
        assert 2 < len(errors) < len(cases) // 2
        assert sum("non-integer rank" in error for error in errors) == 2

    def test_wall_divisor_and_nef_generators(self):
        for d in DEGREES:
            vprime = first_wall_destabilizer(d)
            expected = repr(wall_divisor_by_fractions(d, vprime))
            assert repr(wall_divisor(d, vprime)) == expected
            assert repr(nef_generators(d)[1]) == expected
            assert repr(wall_divisor(d, line_bundle(0))) == \
                repr(wall_divisor_by_fractions(d, line_bundle(0)))

    def test_family_classes_and_degrees(self):
        for d in [1, 2] + DEGREES:
            w = d_class(d)
            for kind in ("pencil", "jacobian", "odd_wall" if d % 2 else "even_wall"):
                fam, slow = family_class(kind, d), family_class_by_fractions(kind, d)
                assert repr(fam) == repr(slow)
                for u in (w, point()):
                    value = intersection_degree(fam, u)
                    expected = intersection_degree_by_full_product(slow, u)
                    assert type(value) is type(expected) and value == expected

    def test_d_in_AL(self):
        for d in DEGREES:
            w = d_class(d)
            expected = DivisorAL(
                intersection_degree_by_full_product(family_class_by_fractions("pencil", d), w),
                intersection_degree_by_full_product(family_class_by_fractions("jacobian", d), w)
                / (d * genus(d)))
            assert repr(d_in_AL(d)) == repr(expected)
