import random
from fractions import Fraction

import pytest

from planemoduli.errors import ConventionError, DomainError
from planemoduli.ktheory import (ChernP2, _td_ch, _td_ch2, dual, euler_hom,
                                 euler_product, hilbert_polynomial,
                                 ideal_twisted, line_bundle, line_support,
                                 moduli, parse_chern, point, shift, twist)
from oracles import (euler_hom_by_fractions, euler_product_by_fractions,
                     td_ch_by_fractions)


def rand_chern(rng) -> ChernP2:
    r = rng.randint(-3, 3)
    c = rng.randint(-5, 5)
    e = Fraction(c * c, 2) + rng.randint(-6, 6)
    return ChernP2(r, c, e)


class TestConstructors:
    def test_moduli(self):
        assert moduli(6) == ChernP2(0, 6, -8)
        assert moduli(4) == ChernP2(0, 4, -5)
        with pytest.raises(DomainError):
            moduli(0)

    def test_ideal_twisted(self):
        assert ideal_twisted(2, 2) == ChernP2(1, 2, 0)
        assert ideal_twisted(0, 3) == line_bundle(3)
        with pytest.raises(DomainError):
            ideal_twisted(-1, 0)

    def test_line_bundle_and_point(self):
        assert line_bundle(0) == ChernP2(1, 0, 0)
        assert line_bundle(-3) == ChernP2(1, -3, Fraction(9, 2))
        assert point() == ChernP2(0, 0, 1)
        assert line_support(0) == ChernP2(0, 1, Fraction(-1, 2))

    def test_integrality_enforced(self):
        with pytest.raises(DomainError):
            ChernP2(0, 1, 1)  # e - c^2/2 = 1/2
        with pytest.raises(DomainError):
            ChernP2(1, 0, Fraction(1, 3))
        with pytest.raises(DomainError):
            ChernP2(1, Fraction(1, 2), 0)  # type: ignore[arg-type]

    def test_bool_fields_are_stored_as_int(self):
        v = ChernP2(True, False, 0)
        assert v == ChernP2(1, 0, 0) and hash(v) == hash(ChernP2(1, 0, 0))
        assert type(v.r) is int and type(v.c) is int
        assert repr(v) == repr(ChernP2(1, 0, 0))
        assert str(v) == "1,0,0" and str(dual(v)) == "1,0,0"

    def test_parse_and_format(self):
        v = parse_chern("1,3,-7/2")
        assert v == ChernP2(1, 3, Fraction(-7, 2))
        assert str(v) == "1,3,-7/2"
        with pytest.raises(DomainError):
            parse_chern("1,3")
        with pytest.raises(DomainError):
            parse_chern("1,x,0")
        with pytest.raises(DomainError):
            parse_chern("1,0,1e3000000")

    def test_parse_ascii_fields(self):
        assert parse_chern(" -1 , 3 , -7/2 ") == ChernP2(-1, 3, Fraction(-7, 2))
        for text in ("\u0661,3,-7/2", "1,\u0663,-7/2", "1,3,-\u0667/2",
                     "+1,3,-7/2", "1,+3,-7/2"):
            with pytest.raises(DomainError):
                parse_chern(text)


class TestTransforms:
    def test_shift_of_line_bundle(self):
        assert shift(line_bundle(-3)) == ChernP2(-1, 3, Fraction(-9, 2))

    def test_twist_of_ideal(self):
        assert twist(ideal_twisted(4, 0), 2) == ChernP2(1, 2, -2)

    def test_dual_is_involution(self):
        rng = random.Random(41)
        for _ in range(100):
            v = rand_chern(rng)
            assert dual(dual(v)) == v

    def test_twist_composition_and_dual_twist(self):
        rng = random.Random(42)
        for _ in range(100):
            v = rand_chern(rng)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            assert twist(twist(v, a), b) == twist(v, a + b)
            assert dual(twist(v, a)) == twist(dual(v), -a)


class TestEulerPairings:
    def test_wall_classes_are_orthogonal(self):
        assert euler_product(ChernP2(0, 6, -8), ChernP2(-6, 1, Fraction(9, 2))) == 0
        assert euler_product(ChernP2(0, 6, -8), ChernP2(-6, 1, Fraction(41, 2))) == 0

    def test_structure_sheaf_self_pairing(self):
        assert euler_product(line_bundle(0), line_bundle(0)) == 1

    def test_hom_pairing_reproduces_ext_dimensions(self):
        destab = ChernP2(1, 3, Fraction(-7, 2))
        assert euler_hom(line_bundle(-3), destab) == 20
        assert euler_hom(destab, line_bundle(-3)) == 2

    def test_hom_pairing_on_line_bundles(self):
        assert euler_hom(line_bundle(0), line_bundle(1)) == 3
        rng = random.Random(43)
        for _ in range(100):
            a = rng.randint(-6, 6)
            b = rng.randint(-6, 6)
            k = b - a
            assert euler_hom(line_bundle(a), line_bundle(b)) == \
                Fraction((k + 1) * (k + 2), 2)

    def test_product_symmetry(self):
        rng = random.Random(44)
        for _ in range(100):
            v, w = rand_chern(rng), rand_chern(rng)
            assert euler_product(v, w) == euler_product(w, v)

    def test_hom_is_dualized_product(self):
        rng = random.Random(45)
        for _ in range(100):
            v, w = rand_chern(rng), rand_chern(rng)
            assert euler_hom(v, w) == euler_product(dual(v), w)

    def test_bilinearity(self):
        rng = random.Random(46)
        for _ in range(100):
            u, v, w = (rand_chern(rng) for _ in range(3))
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            for pairing in (euler_product, euler_hom):
                assert pairing(a * u + b * v, w) == \
                    a * pairing(u, w) + b * pairing(v, w)
                assert pairing(w, a * u + b * v) == \
                    a * pairing(w, u) + b * pairing(w, v)

    def test_moduli_dimension(self):
        for d in range(1, 13):
            assert 1 - euler_hom(moduli(d), moduli(d)) == d * d + 1

    def test_product_pairing_matches_chow_route(self):
        # independent route: expand ch(v) ch(w) Td in the truncated Chow
        # ring of the plane and read off the top coefficient
        from planemoduli.chow import ChowP2
        todd = ChowP2(1, Fraction(3, 2), 1)
        rng = random.Random(48)
        for _ in range(100):
            v, w = rand_chern(rng), rand_chern(rng)
            product = ChowP2(v.r, v.c, v.e) * ChowP2(w.r, w.c, w.e) * todd
            assert euler_product(v, w) == product.c2

    def test_td_ch_matches_chow_route(self):
        # independent route: the plane part of the relative Todd class times
        # ch(w) in the truncated Chow ring
        from planemoduli.chow import ChowP2, todd_relative
        from planemoduli.ktheory import _td_ch
        rng = random.Random(48)
        for _ in range(100):
            w = rand_chern(rng)
            product = (todd_relative() * ChowP2(w.r, w.c, w.e).lift()).plane_part()
            assert _td_ch(w) == (product.c0, product.c1, product.c2)

    def test_hilbert_polynomial_matches_pairing_route(self):
        # chi(v(m)) is also the pairing of the structure sheaf against the
        # twisted class
        rng = random.Random(49)
        for _ in range(100):
            v = rand_chern(rng)
            m = rng.randint(-6, 6)
            assert hilbert_polynomial(v)(m) == \
                euler_hom(line_bundle(0), twist(v, m))


class TestHilbertPolynomial:
    def test_moduli_is_linear(self):
        h = hilbert_polynomial(moduli(6))
        assert (h.quadratic, h.linear, h.constant) == (0, 6, 1)
        assert str(h) == "6*m + 1"
        h4 = hilbert_polynomial(moduli(4))
        assert (h4.quadratic, h4.linear, h4.constant) == (0, 4, 1)

    def test_structure_sheaf(self):
        h = hilbert_polynomial(line_bundle(0))
        assert (h.quadratic, h.linear, h.constant) == \
            (Fraction(1, 2), Fraction(3, 2), 1)
        assert h(3) == 10  # h^0 of O(3)
        assert str(h) == "1/2*m^2 + 3/2*m + 1"

    def test_str_signs_and_zero(self):
        assert str(hilbert_polynomial(ChernP2(-2, 1, Fraction(-1, 2)))) == \
            "-m^2 - 2*m - 1"
        assert str(hilbert_polynomial(ChernP2(0, 0, 0))) == "0"

    def test_twist_shifts_argument(self):
        rng = random.Random(47)
        for _ in range(50):
            v = rand_chern(rng)
            k = rng.randint(-4, 4)
            m = rng.randint(-4, 4)
            assert hilbert_polynomial(twist(v, k))(m) == hilbert_polynomial(v)(m + k)


class TestAlgebra:
    def test_add_sub_scale(self):
        v = moduli(6)
        w = ChernP2(1, 3, Fraction(-7, 2))
        assert v - w == ChernP2(-1, 3, Fraction(-9, 2))
        assert (v - w) + w == v
        assert 2 * w == ChernP2(2, 6, -7)
        assert -w == shift(w)

    @pytest.mark.parametrize("compute", [
        lambda: ChernP2(1, 0, 0) + 1,
        lambda: ChernP2(1, 0, 0) - 1,
        lambda: ChernP2(1, 0, 0) * Fraction(1, 2),
    ], ids=["plus-int", "minus-int", "times-fraction"])
    def test_foreign_operand_raises_type_error(self, compute):
        with pytest.raises(TypeError):
            compute()


def wide_chern(rng, bound: int) -> ChernP2:
    r = rng.randint(-bound, bound)
    c = rng.randint(-bound, bound)
    return ChernP2(r, c, Fraction(c * c, 2) + rng.randint(-bound * bound, bound * bound))


def typed(values) -> list:
    return [(type(x), x) for x in values]


class TestIntegerKernels:
    """The integer-numerator forms against the Fraction oracles, value and type."""

    BOUNDS = (5, 10 ** 3, 10 ** 6)

    def test_pairings_match_fraction_forms(self):
        rng = random.Random(1901)
        for bound in self.BOUNDS:
            for _ in range(300):
                v, w = wide_chern(rng, bound), wide_chern(rng, bound)
                for fast, slow in ((euler_product, euler_product_by_fractions),
                                   (euler_hom, euler_hom_by_fractions)):
                    assert typed([fast(v, w)]) == typed([slow(v, w)])

    def test_td_ch_and_hilbert_polynomial_match_fraction_forms(self):
        rng = random.Random(1902)
        for bound in self.BOUNDS:
            for _ in range(300):
                v = wide_chern(rng, bound)
                expected = td_ch_by_fractions(v)
                assert typed(_td_ch(v)) == typed(expected)
                assert _td_ch2(v) == tuple(2 * x for x in expected)
                assert all(type(x) is int for x in _td_ch2(v))
                h = hilbert_polynomial(v)
                assert typed([h.quadratic, h.linear, h.constant]) == \
                    typed([Fraction(v.r, 2), *expected[1:]])

    def test_kernel_refuses_a_non_integral_twice_ch2(self):
        # only an unchecked record can carry it; the kernel raises instead
        # of flooring 2/3 to 0
        bad = ChernP2._make(0, 1, Fraction(1, 3))
        with pytest.raises(ConventionError, match="2\\*ch_2 must be an integer"):
            _td_ch2(bad)
        for pairing in (euler_product, euler_hom):
            with pytest.raises(ConventionError):
                pairing(bad, line_bundle(0))
            with pytest.raises(ConventionError):
                pairing(line_bundle(0), bad)
        with pytest.raises(ConventionError):
            hilbert_polynomial(bad)
