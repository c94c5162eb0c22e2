import copy
import pickle
import random
from fractions import Fraction

import pytest

from planemoduli.betti import (Bundle, DimVector, Grassmannian, Hilb,
                               HilbModel, KroneckerModuli, Projective,
                               WallRecord, brute_force_kronecker_count,
                               ext_dims_at_wall, hilb_model_poincare, hilb_poincare,
                               kronecker_poincare, wall_contribution)
from planemoduli.chow import ChowCurveP2, ChowP2, coeff, exp_class
from planemoduli import divisors, ktheory
from planemoduli.divisors import DivisorAL, FamilyClass
from planemoduli.errors import DomainError, ExactDivisionError
from planemoduli.exactmath import (QPoly, grassmannian_poincare,
                                   is_palindromic, parse_int, parse_rational,
                                   projective_poincare)
from planemoduli.ktheory import ChernP2, HilbertPolynomial
from planemoduli.walls import (ReferenceWallSystem, Wall, abch_reference_walls,
                               enumerate_potential_walls, locate_model, transform_walls,
                               wall_between)
from oracles import (N6_COEFFICIENTS, gaussian_binomial_pascal,
                     gaussian_binomial_product)


class TestRational:
    def test_field_axioms_hold_exactly(self):
        rng = random.Random(101)
        for _ in range(200):
            a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_wire_format(self):
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("5") == 5
        assert parse_rational("0.5") == Fraction(1, 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(DomainError):
            parse_rational("one half")
        with pytest.raises(DomainError):
            parse_rational("1/0")
        for text in ("1e400", "2.5E-3", "1e3000000"):
            with pytest.raises(DomainError, match="exponent notation"):
                parse_rational(text)

    def test_parse_rejects_non_ascii(self):
        for text in ("\u0661/\u0662", "\uff17", "1/\u0662"):
            with pytest.raises(DomainError, match="ASCII"):
                parse_rational(text)

    def test_parse_int_accepts_only_ascii_digits(self):
        assert parse_int("0") == 0
        assert parse_int("-12") == -12
        for text in ("", "-", "+5", " 7", "7 ", "1_000", "\uff11\uff12",
                     "\u0663", "-\u0663", "1.0", "0x10", "--1", "007", "-0"):
            with pytest.raises(ValueError):
                parse_int(text)


class TestQPoly:
    def test_trailing_zeros_trimmed(self):
        assert QPoly([1, 2, 0, 0]).coefficients == (1, 2)
        assert QPoly([0, 0]).coefficients == ()

    def test_zero_degree_sentinel(self):
        assert QPoly().degree is None
        assert QPoly([5]).degree == 0
        assert not QPoly()
        assert QPoly([0, 1])

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(DomainError):
            QPoly([Fraction(1, 2)])

    def test_arithmetic(self):
        p = QPoly([1, 1])
        assert p * p == QPoly([1, 2, 1])
        assert p + 1 == QPoly([2, 1])
        assert p - p == QPoly()
        assert -p == QPoly([-1, -1])
        assert 3 * p == QPoly([3, 3])
        assert p ** 3 == QPoly([1, 3, 3, 1])
        assert p.shifted(2) == QPoly([0, 0, 1, 1])

    def test_evaluation_is_exact(self):
        p = QPoly([1, -2, 3])
        assert p(2) == 9
        assert p(Fraction(1, 2)) == Fraction(3, 4)

    def test_rational_evaluation_matches_horner_in_fractions(self):
        # the integer Horner pass against Horner's rule over Fractions, the
        # evaluation it replaced: a Fraction point gives a Fraction, an int
        # point an int, and the zero polynomial the int 0
        rng = random.Random(7)
        for _ in range(400):
            p = QPoly(rng.randint(-30, 30) for _ in range(rng.randrange(8)))
            for x in (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)),
                      rng.randint(-10 ** 6, 10 ** 6)):
                expected = 0
                for c in reversed(p.coefficients):
                    expected = expected * x + c
                got = p(x)
                assert (got, type(got)) == (expected, type(expected))

    @pytest.mark.parametrize("point", ["2", None, QPoly([0, 1]), 2j],
                             ids=["str", "None", "QPoly", "complex"])
    def test_a_point_that_is_not_a_rational_is_refused(self, point):
        with pytest.raises(TypeError, match="cannot evaluate a QPoly"):
            QPoly([1, 2])(point)
        with pytest.raises(TypeError, match="cannot evaluate a QPoly"):
            QPoly()(point)

    def test_exact_division(self):
        p = QPoly([-1, 0, 0, 1])  # q^3 - 1
        assert p.exact_div(QPoly([-1, 1])) == QPoly([1, 1, 1])
        with pytest.raises(ExactDivisionError):
            QPoly([1, 1, 1]).exact_div(QPoly([-1, 1]))
        with pytest.raises(ExactDivisionError):
            QPoly([1, 2]).exact_div(QPoly([0, 2]))  # 1/2 is not integral
        with pytest.raises(DomainError):
            p.exact_div(QPoly())

    def test_random_products_divide_back(self):
        rng = random.Random(7)
        for _ in range(100):
            a = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1])
            b = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1])
            assert (a * b).exact_div(b) == a

    def test_serialization_round_trip(self):
        p = QPoly([1, 0, -7, 2])
        strings = p.to_coefficient_strings()
        assert strings == ["1", "0", "-7", "2"]
        assert QPoly(map(int, strings)) == p

    def test_str(self):
        assert str(QPoly()) == "0"
        assert str(QPoly([1, 1, 3])) == "1 + q + 3*q^2"
        assert str(QPoly([-1, 0, 1])) == "-1 + q^2"


class TestProjectivePoincare:
    def test_examples(self):
        assert projective_poincare(0) == QPoly([1])
        assert projective_poincare(1) == QPoly([1, 1])
        assert projective_poincare(19) == QPoly([1] * 20)

    def test_euler_characteristic(self):
        for n in range(31):
            assert projective_poincare(n)(1) == n + 1

    def test_negative_dimension_rejected(self):
        with pytest.raises(DomainError):
            projective_poincare(-1)
        for n in (2.0, True):
            with pytest.raises(DomainError, match="expected an integer"):
                projective_poincare(n)

    def test_dimension_limit_is_the_grassmannians(self):
        # P^n is Gr(1, n + 1): a wall of a large degree asks for a fiber
        # P^4999995, refused up front instead of built
        assert projective_poincare(10_000) == grassmannian_poincare(1, 10_001)
        with pytest.raises(DomainError, match=r"must be in 0\.\.10000"):
            projective_poincare(10_001)
        with pytest.raises(DomainError, match=r"must be in 0\.\.10000"):
            wall_contribution(10 ** 6, WallRecord("W5", ChernP2(1, 2, 0), Hilb(2)))


class TestGrassmannianPoincare:
    def test_projective_special_case(self):
        for n in range(1, 9):
            assert grassmannian_poincare(1, n) == projective_poincare(n - 1)

    def test_binomial_specialization(self):
        assert grassmannian_poincare(2, 9)(1) == 36

    def test_gr_2_9_matches_product_formula(self):
        p = grassmannian_poincare(2, 9)
        assert p == gaussian_binomial_product(2, 9)
        assert p.degree == 14
        assert is_palindromic(p)

    def test_matches_product_formula_generally(self):
        for n in range(9):
            for k in range(n + 1):
                assert grassmannian_poincare(k, n) == gaussian_binomial_product(k, n)

    def test_matches_both_oracles(self):
        # every shape with n <= 30, then longer and wider ones; the
        # product oracle takes the smaller side, which keeps it quick
        shapes = [(k, n) for n in range(31) for k in range(n + 1)]
        for k, n in shapes + [(2, 3000), (10, 60), (25, 60), (7, 200)]:
            p = grassmannian_poincare(k, n)
            assert p == gaussian_binomial_pascal(k, n)
            assert p == gaussian_binomial_product(min(k, n - k), n)

    def test_symmetry_and_palindromicity(self):
        for n in range(13):
            for k in range(n + 1):
                p = grassmannian_poincare(k, n)
                assert p == grassmannian_poincare(n - k, n)
                assert is_palindromic(p)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            grassmannian_poincare(3, 2)
        with pytest.raises(DomainError):
            grassmannian_poincare(-1, 2)
        # (True, 3) would pass as (1, 3), P^2's polynomial
        for k, n in ((2.0, 5), (2, 5.0), (True, 3), (0, True)):
            with pytest.raises(DomainError, match="expected an integer"):
                grassmannian_poincare(k, n)

    def test_dimension_limit(self):
        assert grassmannian_poincare(1, 10_001).degree == 10_000
        with pytest.raises(DomainError):
            grassmannian_poincare(1, 10_002)
        with pytest.raises(DomainError):
            grassmannian_poincare(200, 400)


class TestIsPalindromic:
    def test_examples(self):
        assert is_palindromic(QPoly([1, 2, 1]))
        assert not is_palindromic(QPoly([1, 2]))

    def test_printed_kronecker_polynomial(self):
        assert is_palindromic(QPoly(N6_COEFFICIENTS))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_palindromic(QPoly())


# A float carries a rounding error no exact result can undo, so the library
# refuses one where it takes a rational.
FLOAT_CALLS = [
    ("Wall", lambda: Wall(0.1, 2)),
    ("ChernP2", lambda: ChernP2(1, 1, 0.5)),
    ("DivisorAL", lambda: DivisorAL(0.5, 1)),
    ("ChowP2", lambda: ChowP2(0.5)),
    ("ChowCurveP2", lambda: ChowCurveP2(0.5)),
    ("exp_class", lambda: exp_class(0.5, 0)),
    ("QPoly.__call__", lambda: QPoly([1, 2])(0.5)),
]


@pytest.mark.parametrize("call", [call for _, call in FLOAT_CALLS],
                         ids=[name for name, _ in FLOAT_CALLS])
def test_float_is_refused(call):
    with pytest.raises(DomainError, match="not the float 0."):
        call()


# A degree, a count or a twist is an int: 6.0 would reach Fraction as a bare
# TypeError or come back as a float, and True would pass as 1.
NON_INT_CALLS = [
    ("nef_generators", lambda: divisors.nef_generators(6.0)),
    ("effective_generators", lambda: divisors.effective_generators(6.0)),
    ("enumerate_potential_walls", lambda: enumerate_potential_walls(6.0)),
    ("wall_divisor", lambda: divisors.wall_divisor(6.0, ktheory.line_bundle(0))),
    ("first_wall_destabilizer", lambda: divisors.first_wall_destabilizer(6.0)),
    ("family_class", lambda: divisors.family_class("pencil", 6.0)),
    ("genus", lambda: divisors.genus(6.0)),
    ("genus(True)", lambda: divisors.genus(True)),
    ("line_bundle", lambda: ktheory.line_bundle(True)),
    ("ideal_twisted", lambda: ktheory.ideal_twisted(2.0, 2)),
    ("line_support", lambda: ktheory.line_support(True)),
    ("moduli", lambda: ktheory.moduli(True)),
    ("twist", lambda: ktheory.twist(ChernP2(1, 0, 0), 1.0)),
    ("HilbertPolynomial", lambda: HilbertPolynomial(0.5, 1, 1)),
    ("hilb_model_poincare", lambda: hilb_model_poincare(3.0, 1)),
    ("hilb_model_poincare(True)", lambda: hilb_model_poincare(4, True)),
    ("hilb_model_poincare-final", lambda: hilb_model_poincare(8.0, 6.0)),
    ("abch_reference_walls", lambda: abch_reference_walls(8.0)),
    ("transform_walls", lambda: transform_walls(abch_reference_walls(8), "twist", True)),
    ("KroneckerModuli", lambda: KroneckerModuli(3, 2.0, 1)),
    ("Hilb(True)", lambda: Hilb(True)),
    ("FamilyClass(True)", lambda: FamilyClass(ChowCurveP2(), "pencil", True)),
]


@pytest.mark.parametrize("call", [call for _, call in NON_INT_CALLS],
                         ids=[name for name, _ in NON_INT_CALLS])
def test_non_integer_is_refused(call):
    with pytest.raises(DomainError):
        call()


# A class is a ChernP2: an int in its place would fail on a field read as a
# bare AttributeError, where _Vector arithmetic raises TypeError.
FOREIGN_OPERAND_CALLS = [
    ("euler_hom", lambda: ktheory.euler_hom(ChernP2(1, 0, 0), 3)),
    ("euler_product", lambda: ktheory.euler_product(ChernP2(1, 0, 0), 3)),
    ("euler_product-left", lambda: ktheory.euler_product(3, ChernP2(1, 0, 0))),
    ("dual", lambda: ktheory.dual(3)),
    ("twist", lambda: ktheory.twist(3, 1)),
    ("shift", lambda: ktheory.shift(3)),
    ("shift-float", lambda: ktheory.shift(2.5)),
    ("wall_between", lambda: wall_between(ktheory.moduli(6), 3)),
    ("wall_divisor", lambda: divisors.wall_divisor(6, 3)),
    ("hilbert_polynomial", lambda: ktheory.hilbert_polynomial(3)),
    ("intersection_degree",
     lambda: divisors.intersection_degree(divisors.family_class("pencil", 5), 3)),
]


@pytest.mark.parametrize("call", [call for _, call in FOREIGN_OPERAND_CALLS],
                         ids=[name for name, _ in FOREIGN_OPERAND_CALLS])
def test_foreign_operand_is_refused(call):
    with pytest.raises(TypeError, match="ChernP2"):
        call()


# The same for a wall, a reference system or a wall record: each error names
# the class that was due.
FOREIGN_RECORD_CALLS = [
    ("locate_model", "Wall", lambda: locate_model(5, abch_reference_walls(4))),
    ("locate_model-refs", "ReferenceWallSystem", lambda: locate_model(Wall(0, 1), 5)),
    ("transform_walls", "ReferenceWallSystem", lambda: transform_walls(5, "twist", 1)),
    ("wall_contribution", "WallRecord", lambda: wall_contribution(6, 5)),
    ("locate_model-ref-wall", "Wall",
     lambda: locate_model(Wall(0, 1), ReferenceWallSystem("x", (5,)))),
    ("transform_walls-ref-wall", "Wall",
     lambda: transform_walls(ReferenceWallSystem("x", (5,)), "twist", 1)),
    ("ReferenceWallSystem-label", "str", lambda: ReferenceWallSystem(5, ())),
    ("wall_contribution-destabilizer", "ChernP2",
     lambda: wall_contribution(6, WallRecord("x", 5, Hilb(2)))),
]


@pytest.mark.parametrize("cls, call", [case[1:] for case in FOREIGN_RECORD_CALLS],
                         ids=[name for name, *_ in FOREIGN_RECORD_CALLS])
def test_foreign_record_is_refused(cls, call):
    with pytest.raises(TypeError, match=f"expected a {cls}, got 5"):
        call()


# A value of the wrong kind: each of these was stored, or reached arithmetic or
# a field read as a bare Python error whose text did not name the kind that
# was due.  Strings are refused too: a rational field takes an int or a
# Fraction, and text goes through parse_rational first.
WRONG_KIND_CALLS = [
    ("ReferenceWallSystem-list", TypeError, r"expected a tuple, got \[",
     lambda: ReferenceWallSystem("x", [Wall(0, 1)])),
    ("ReferenceWallSystem-int", TypeError, "expected a tuple, got 5",
     lambda: ReferenceWallSystem("x", 5)),
    ("QPoly-bool", DomainError, "must be integers, got True", lambda: QPoly([True, 1])),
    ("hilb_poincare", TypeError, "expected an int, got None", lambda: hilb_poincare(None)),
    ("enumerate_potential_walls", TypeError, "expected an int, got 'x'",
     lambda: enumerate_potential_walls("x")),
    ("effective_generators", TypeError, r"expected an int, got \[1\]",
     lambda: divisors.effective_generators([1])),
    ("d_in_AL", TypeError, r"expected an int, got \(1,\)", lambda: divisors.d_in_AL((1,))),
    ("ext_dims_at_wall", TypeError, "expected an int, got None",
     lambda: ext_dims_at_wall(None, ktheory.line_bundle(0))),
    ("brute_force_kronecker_count", TypeError, "expected an int, got None",
     lambda: brute_force_kronecker_count(None, (2, 1), 3)),
    ("twist", TypeError, "expected an int, got None",
     lambda: ktheory.twist(ktheory.moduli(6), None)),
    ("Wall-str", TypeError, "expected an int or a Fraction, got '-4/3'",
     lambda: Wall("-4/3", "25/9")),
    ("ChernP2-str", TypeError, "expected an int or a Fraction, got '0'",
     lambda: ChernP2(1, 2, "0")),
    ("is_palindromic", TypeError, "expected a QPoly, got 5", lambda: is_palindromic(5)),
    ("ext_dims_at_wall-destabilizer", TypeError, "expected a ChernP2, got 5",
     lambda: ext_dims_at_wall(6, 5)),
    ("nef_generators", TypeError, "expected an int, got None",
     lambda: divisors.nef_generators(None)),
    ("kronecker_poincare", TypeError, "expected a tuple, got 5",
     lambda: kronecker_poincare(3, 5)),
    ("brute_force_kronecker_count-dv", TypeError, "expected a tuple, got 5",
     lambda: brute_force_kronecker_count(3, 5, 2)),
    ("kronecker_poincare-length", DomainError, r"invalid dimension vector \(1,\)",
     lambda: kronecker_poincare(3, (1,))),
    ("Projective", TypeError, "expected an int, got 'x'", lambda: Projective("x")),
    ("Bundle", TypeError, "expected a SpaceDescriptor, got 2",
     lambda: Bundle(Projective(2), 2)),
    ("WallRecord-label", TypeError, "expected a str, got 5",
     lambda: WallRecord(5, ChernP2(1, 2, 0), Hilb(2))),
    ("FamilyClass-chern", TypeError, "expected a ChowCurveP2, got 5",
     lambda: divisors.intersection_degree(FamilyClass(5, "pencil", 6),
                                          ktheory.line_bundle(0))),
    ("FamilyClass-degree", TypeError, "expected an int, got '6'",
     lambda: FamilyClass(ChowCurveP2(), "pencil", "6")),
    ("QPoly-int", TypeError, "expected an iterable of ints, got 5", lambda: QPoly(5)),
    ("QPoly.__pow__", TypeError, "expected an int, got None", lambda: QPoly([1, 1]) ** None),
    ("QPoly.shifted", TypeError, "expected an int, got 'x'", lambda: QPoly([1, 1]).shifted("x")),
    ("coeff", TypeError, "expected a ChowCurveP2, got 3", lambda: coeff(3, "p")),
    ("coeff-unhashable-tag", DomainError, r"unknown Chow monomial tag \[1\]",
     lambda: coeff(ChowCurveP2(), [1])),
    ("abch_reference_walls", TypeError, r"expected an int, got \[1\]",
     lambda: abch_reference_walls([1])),
    # the methods of the records check their arguments as the functions do;
    # a wall twists by an int, as transform_walls and ktheory.twist do
    ("Wall.twisted", TypeError, "expected an int, got None", lambda: Wall(0, 1).twisted(None)),
    ("Wall.twisted-Fraction", TypeError, r"expected an int, got Fraction\(1, 2\)",
     lambda: Wall(0, 1).twisted(Fraction(1, 2))),
    ("ReferenceWallSystem.twisted", TypeError, "expected an int, got None",
     lambda: abch_reference_walls(4).twisted(None)),
    ("Wall.encloses", TypeError, "expected a Wall, got 5", lambda: Wall(0, 1).encloses(5)),
    ("QPoly.exact_div", TypeError, "expected a QPoly, got None",
     lambda: QPoly([1, 1]).exact_div(None)),
    ("HilbertPolynomial.__call__-float", DomainError, "not the float 2.5",
     lambda: ktheory.hilbert_polynomial(ktheory.point())(2.5)),
    ("HilbertPolynomial.__call__", TypeError, "expected an int or a Fraction, got None",
     lambda: ktheory.hilbert_polynomial(ktheory.point())(None)),
    ("DimVector", TypeError, "expected an int, got None", lambda: DimVector(None, 2.5)),
    ("DimVector-bool", DomainError, "expected an integer, got True",
     lambda: DimVector(True, 1)),
]


def test_record_methods_keep_int_and_fraction_values():
    chi = ktheory.hilbert_polynomial(ktheory.point())
    assert chi(2) == 1 and chi(Fraction(1, 2)) == 1
    assert Wall(0, 1).twisted(-2) == Wall(-2, 1)
    assert DimVector(e=1, f=2) == (1, 2) and DimVector(*DimVector(1, 2)) == DimVector(1, 2)


@pytest.mark.parametrize("error, text, call", [case[1:] for case in WRONG_KIND_CALLS],
                         ids=[name for name, *_ in WRONG_KIND_CALLS])
def test_wrong_kind_is_refused(error, text, call):
    with pytest.raises(error, match=text):
        call()


# One value of every record class and its repr, captured when the classes
# were frozen dataclasses (DimVector a typing.NamedTuple).  Five pairs share
# their field values across two classes: ChernP2 and KroneckerModuli, Wall
# and DivisorAL, HilbertPolynomial and ChowP2, Projective and Hilb,
# Grassmannian and HilbModel.
VALUES = [
    (ChernP2(1, 2, 0), "ChernP2(r=1, c=2, e=Fraction(0, 1))"),
    (HilbertPolynomial(Fraction(1, 2), Fraction(3, 2), Fraction(1)),
     "HilbertPolynomial(quadratic=Fraction(1, 2), linear=Fraction(3, 2), "
     "constant=Fraction(1, 1))"),
    (Wall(16, 1), "Wall(center=Fraction(16, 1), radius_sq=Fraction(1, 1))"),
    (ReferenceWallSystem("hilb4", (Wall(-3, 1),)),
     "ReferenceWallSystem(label='hilb4', walls=(Wall(center=Fraction(-3, 1), "
     "radius_sq=Fraction(1, 1)),))"),
    (DivisorAL(16, 1), "DivisorAL(a=Fraction(16, 1), l=Fraction(1, 1))"),
    (FamilyClass(ChowCurveP2(0, 1), "pencil", 6),
     "FamilyClass(chern=ChowCurveP2(a1=Fraction(0, 1), ah=Fraction(1, 1), "
     "ah2=Fraction(0, 1), ap=Fraction(0, 1), aph=Fraction(0, 1), "
     "aph2=Fraction(0, 1)), label='pencil', degree_d=6)"),
    (ChowP2(Fraction(1, 2), Fraction(3, 2), 1),
     "ChowP2(c0=Fraction(1, 2), c1=Fraction(3, 2), c2=Fraction(1, 1))"),
    (ChowCurveP2(1, 0, 0, 0, 0, Fraction(-1, 2)),
     "ChowCurveP2(a1=Fraction(1, 1), ah=Fraction(0, 1), ah2=Fraction(0, 1), "
     "ap=Fraction(0, 1), aph=Fraction(0, 1), aph2=Fraction(-1, 2))"),
    (Projective(2), "Projective(n=2)"),
    (Grassmannian(2, 9), "Grassmannian(k=2, n=9)"),
    (Hilb(2), "Hilb(n=2)"),
    (HilbModel(2, 9), "HilbModel(n=2, k=9)"),
    (KroneckerModuli(1, 2, 0), "KroneckerModuli(m=1, e=2, f=0)"),
    (Bundle(Projective(17), KroneckerModuli(3, 5, 4)),
     "Bundle(fiber=Projective(n=17), base=KroneckerModuli(m=3, e=5, f=4))"),
    (WallRecord("W5", ChernP2(1, 2, 0), Hilb(2)),
     "WallRecord(label='W5', destabilizer=ChernP2(r=1, c=2, "
     "e=Fraction(0, 1)), base=Hilb(n=2))"),
    (DimVector(1, 2), "DimVector(e=1, f=2)"),
]


class TestValueRecords:
    @pytest.mark.parametrize("value, text", VALUES,
                             ids=[type(value).__name__ for value, _ in VALUES])
    def test_value_semantics(self, value, text):
        fields = value.__match_args__
        items = tuple(getattr(value, name) for name in fields)
        assert repr(value) == text
        assert all(value != other for other, _ in VALUES if other is not value)
        # only the named tuple equals the plain tuple of its fields
        assert (value == items) is isinstance(value, tuple)
        rebuilt = type(value)(*items)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(value, fields[0], items[0])
        with pytest.raises(AttributeError):
            delattr(value, fields[0])

    def test_unchecked_make_matches_the_constructor(self):
        for value, text in VALUES:
            if isinstance(value, tuple):  # a named tuple's _make takes one iterable
                continue
            items = tuple(getattr(value, name) for name in value.__match_args__)
            made = type(value)._make(*items)
            assert type(made) is type(value) and made == value
            assert repr(made) == text
        # no check runs: the caller vouches for the fields
        assert Wall._make(Fraction(0), Fraction(-1)).radius_sq == -1

    def test_vector_arithmetic_matches_the_constructor(self):
        # the _Vector operations and the Chow ring products build their
        # results unchecked; each must be what the public constructor
        # stores for the same fields, of the same types
        rng = random.Random(16)

        def rational():
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

        def chern():
            c = rng.randint(-9, 9)
            return ChernP2(rng.randint(-9, 9), c, Fraction(c * c, 2) + rng.randint(-9, 9))

        draws = {ChernP2: chern,
                 DivisorAL: lambda: DivisorAL(rational(), rng.randint(-9, 9)),
                 ChowP2: lambda: ChowP2(*(rational() for _ in range(3))),
                 ChowCurveP2: lambda: ChowCurveP2(*(rational() for _ in range(6)))}
        integers = [0, 1, -3, 7, True, 2 ** 70]
        for cls, draw in draws.items():
            scalars = integers if cls is ChernP2 else integers + [Fraction(1, 2),
                                                                  Fraction(-5, 3)]
            for _ in range(40):
                x, y = draw(), draw()
                results = [x + y, x - y, -x] + [x * s for s in scalars] + \
                    [s * x for s in scalars]
                if cls in (ChowP2, ChowCurveP2):
                    results.append(x * y)
                for result in results:
                    items = tuple(getattr(result, name) for name in cls.__match_args__)
                    rebuilt = cls(*items)
                    assert type(result) is cls and result == rebuilt
                    assert repr(result) == repr(rebuilt)
                    assert [type(v) for v in items] == \
                        [type(getattr(rebuilt, name)) for name in cls.__match_args__]

    def test_keyword_construction(self):
        chern, wall = ChowCurveP2(0, 1), Wall(-3, 1)
        assert (FamilyClass(chern=chern, label="pencil", degree_d=6)
                == FamilyClass(chern, "pencil", 6))
        assert (ReferenceWallSystem(label="hilb4", walls=(wall,))
                == ReferenceWallSystem("hilb4", (wall,)))
        assert (HilbertPolynomial(quadratic=Fraction(1, 2), linear=Fraction(3, 2),
                                  constant=Fraction(1))
                == HilbertPolynomial(Fraction(1, 2), Fraction(3, 2), Fraction(1)))
        assert (WallRecord("W5", base=Hilb(2), destabilizer=ChernP2(1, 2, 0))
                == WallRecord("W5", ChernP2(1, 2, 0), Hilb(2)))
        for bad in ({"label": "W5"}, {"base": Hilb(2), "depth": 1}):
            with pytest.raises(TypeError):
                WallRecord("W5", ChernP2(1, 2, 0), **bad)
