import random
from fractions import Fraction

import pytest

from planemoduli.chow import (MONOMIALS, ChowCurveP2, ChowP2, coeff, exp_class,
                              todd_relative)
from planemoduli.errors import DomainError
from oracles import (chow_product_by_parts, exp_class_by_fractions, from_parts, p_part,
                     plane_part)


def rand_class(rng, p_free=False):
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
    if p_free:
        vals[3] = vals[4] = vals[5] = 0
    return ChowCurveP2(*vals)


class TestMul:
    def test_square_of_one_plus_h(self):
        x = ChowCurveP2(1, 1, 0, 0, 0, 0)
        assert x * x == ChowCurveP2(1, 2, 1, 0, 0, 0)

    def test_todd_times_twisted_line_class(self):
        # (1 + 3/2 h + h^2) (-6 + h - h^2/2) = -6 - 8h - 5h^2
        lhs = todd_relative()
        rhs = ChowCurveP2(-6, 1, Fraction(-1, 2), 0, 0, 0)
        assert lhs * rhs == ChowCurveP2(-6, -8, -5, 0, 0, 0)

    def test_p_squared_vanishes(self):
        p = ChowCurveP2(0, 0, 0, 1, 0, 0)
        p_plus_h = ChowCurveP2(0, 1, 0, 1, 0, 0)
        assert p * p_plus_h == ChowCurveP2(0, 0, 0, 0, 1, 0)

    def test_commutative_and_associative(self):
        rng = random.Random(11)
        for _ in range(120):
            x, y, z = (rand_class(rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


class TestAgainstPartsProduct:
    def test_random_pairs_and_scalars(self):
        rng = random.Random(2026)
        for _ in range(200):
            x, y = rand_class(rng), rand_class(rng)
            cases = [(x * y, chow_product_by_parts(x, y))]
            for s in (rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
                cases += [(x * s, chow_product_by_parts(x, s)),
                          (s * x, chow_product_by_parts(x, s))]
            for got, parts in ((x + y, (plane_part(x) + plane_part(y),
                                        p_part(x) + p_part(y))),
                               (x - y, (plane_part(x) - plane_part(y),
                                        p_part(x) - p_part(y))),
                               (-x, (-plane_part(x), -p_part(x)))):
                cases.append((got, from_parts(*parts)))
            # equal reprs: every coefficient is a Fraction, as the constructor stores
            for got, expected in cases:
                assert got == expected and repr(got) == repr(expected)


class TestIntegerNumerators:
    """Products on integer numerators, and exp_class, against Fraction forms."""

    def test_products_with_wide_denominators_and_zero_fields(self):
        rng = random.Random(1905)

        def wide_class():
            return ChowCurveP2(*(0 if rng.random() < 0.3 else
                                 Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                          rng.randint(1, 10 ** 4)) for _ in range(6)))

        for _ in range(500):
            x, y = wide_class(), wide_class()
            for got, expected in ((x * y, chow_product_by_parts(x, y)),
                                  (x * x, chow_product_by_parts(x, x)),
                                  (x * ChowCurveP2(), ChowCurveP2())):
                assert repr(got) == repr(expected)

    def test_exp_class_matches_fraction_form(self):
        rng = random.Random(1906)
        for _ in range(500):
            alpha, beta = (rng.choice((0, rng.randint(-9, 9),
                                       Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                rng.randint(1, 10 ** 4))))
                           for _ in range(2))
            assert repr(exp_class(alpha, beta)) == repr(exp_class_by_fractions(alpha, beta))


class TestExpClass:
    def test_plane_exponential(self):
        assert exp_class(0, -6) == ChowCurveP2(1, -6, 18, 0, 0, 0)

    def test_base_exponential(self):
        assert exp_class(1, 0) == ChowCurveP2(1, 0, 0, 1, 0, 0)

    def test_mixed_exponential(self):
        expected = ChowCurveP2(1, Fraction(3, 2), Fraction(9, 8),
                               1, Fraction(3, 2), Fraction(9, 8))
        assert exp_class(1, Fraction(3, 2)) == expected

    def test_additivity(self):
        rng = random.Random(13)
        for _ in range(120):
            a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            bp = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            # exponent addition along the plane direction
            assert exp_class(a, b) * exp_class(0, bp) == exp_class(a, b + bp)
            # and in general, since p^2 = 0 truncates the cross terms
            ap = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert exp_class(a, b) * exp_class(ap, bp) == exp_class(a + ap, b + bp)


class TestToddRelative:
    def test_value(self):
        assert todd_relative() == ChowCurveP2(1, Fraction(3, 2), 1, 0, 0, 0)

    def test_unit_multiplication(self):
        one = ChowCurveP2(1, 0, 0, 0, 0, 0)
        assert todd_relative() * one == todd_relative()

    def test_top_coefficient(self):
        assert coeff(todd_relative(), "h2") == 1


class TestCoeff:
    def test_degree_extraction(self):
        total = exp_class(1, 0) * ChowCurveP2(-6, -8, -5, 0, 0, 0)
        assert coeff(total, "ph2") == -5

    def test_simple_lookups(self):
        assert coeff(ChowCurveP2(1, 0, 0, 0, 2, 0), "ph") == 2
        assert coeff(ChowCurveP2(0, 0, 1, 0, 0, 0), "p") == 0

    def test_all_tags_resolve(self):
        x = ChowCurveP2(1, 2, 3, 4, 5, 6)
        assert [coeff(x, t) for t in MONOMIALS] == [1, 2, 3, 4, 5, 6]

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            coeff(todd_relative(), "h3")


class TestPFreeInvariant:
    def test_p_free_products_have_no_degree(self):
        rng = random.Random(17)
        for _ in range(120):
            x = rand_class(rng, p_free=True)
            w = ChowCurveP2(rng.randint(-5, 5), rng.randint(-5, 5),
                            Fraction(rng.randint(-5, 5), 2))  # no p part
            assert coeff(x * w * todd_relative(), "ph2") == 0


class TestRendering:
    def test_debug_format(self):
        x = ChowCurveP2(-6, -8, -5, 0, 0, 0)
        assert str(x) == "-6 + -8 h + -5 h^2 + 0 p + 0 p h + 0 p h^2"


class TestForeignOperands:
    # a foreign operand makes the operator return NotImplemented, so Python
    # raises TypeError instead of an AttributeError from inside the operator
    @pytest.mark.parametrize("compute", [
        lambda: ChowCurveP2(1) * ChowP2(1),
        lambda: ChowP2(1) * ChowCurveP2(1),
        lambda: ChowCurveP2(1) + 1,
        lambda: ChowP2(1) + 1,
        lambda: ChowP2(1) * "x",
        lambda: ChowCurveP2(1) - ChowP2(1),
        lambda: ChowP2(1) - 1,
    ], ids=["curve-times-plane", "plane-times-curve", "curve-plus-int",
            "plane-plus-int", "plane-times-str", "curve-minus-plane", "plane-minus-int"])
    def test_type_error(self, compute):
        with pytest.raises(TypeError):
            compute()
