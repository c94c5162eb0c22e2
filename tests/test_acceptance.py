"""Acceptance suite: one test per criterion, every assertion exact.

Each test prints a PASS line on success (visible with pytest -s); a
failing criterion shows up as an ordinary pytest failure.
"""

import random
from fractions import Fraction

from planemoduli.betti import (Bundle, Grassmannian, Hilb, HilbModel,
                               KroneckerModuli, Projective, assemble_m6, brute_force_kronecker_count,
                               ext_dims_at_wall, hilb_poincare,
                               kronecker_poincare, m6_wall_records,
                               space_poincare)
from planemoduli.chow import ChowCurveP2
from planemoduli.divisors import (A_DIVISOR, DivisorAL, FamilyClass, d_class,
                                  d_in_AL, family_class,
                                  first_wall_destabilizer, genus,
                                  intersection_degree, lambda_decompose,
                                  nef_generators, wall_divisor)
from planemoduli.exactmath import QPoly, is_palindromic, projective_poincare
from planemoduli.errors import EmptyWallError, NoWallError
from planemoduli.ktheory import (ChernP2, dual, euler_hom, euler_product,
                                 line_bundle, moduli, point, shift, twist)
from planemoduli.walls import (Wall, abch_reference_walls, locate_model,
                               transform_walls, wall_between)
from oracles import (M6_EXT_DIMS, M6_FACTOR_COEFFICIENTS, M6_TABLE,
                     N6_COEFFICIENTS, hilb_fixed_point_poincare, rand_chern)

RUNS = 120


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_table_reproduction():
    expected_radii = {Fraction(64, 9), Fraction(49, 9), Fraction(46, 9),
                      Fraction(31, 9), Fraction(28, 9), Fraction(25, 9),
                      Fraction(16, 9)}
    curated = [rec.destabilizer for rec in m6_wall_records()] + [line_bundle(0)]
    radii = set()
    for (chern, radius_sq, a_coeff) in M6_TABLE:
        destab = ChernP2(*chern)
        assert destab in curated
        wall = wall_between(moduli(6), destab)
        assert wall.center == Fraction(-4, 3)
        assert wall.radius_sq == radius_sq
        radii.add(wall.radius_sq)
        assert wall_divisor(6, destab) == DivisorAL(a_coeff, 1)
    assert radii == expected_radii
    assert len(curated) == len(M6_TABLE) == 7
    _report(1, "degree-6 wall table: radii, destabilizers, divisors exact")


def test_criterion_02_nef_generators_two_routes():
    for d in range(3, 13):
        if d % 2 == 0:
            coefficient = Fraction((d - 2) ** 2 * (d + 2), 8)
            kind = "even_wall"
        else:
            coefficient = Fraction((d - 1) * (d + 4) * (d - 3), 8)
            kind = "odd_wall"
        expected = DivisorAL(coefficient, 1)
        # route 1: orthogonal class at the first-wall destabilizer
        assert nef_generators(d) == (A_DIVISOR, expected)
        assert wall_divisor(d, first_wall_destabilizer(d)) == expected
        # route 2: Riemann-Roch degree of the parity wall family
        drop = -intersection_degree(family_class(kind, d), d_class(d))
        assert d_in_AL(d) + drop * A_DIVISOR == expected
    _report(2, "nef generator closed forms for degrees 3..12 by both routes")


def test_criterion_03_theta_divisor_in_geometric_basis():
    for d in range(3, 11):
        w = d_class(d)
        assert intersection_degree(family_class("pencil", d), w) == 1 - d
        assert intersection_degree(family_class("jacobian", d), w) == d * genus(d)
        assert d_in_AL(d) == DivisorAL(1 - d, 1)
    _report(3, "theta-like divisor equals (1-d)A + L for degrees 3..10")


def test_criterion_04_wall_family_degrees():
    for d in range(4, 13, 2):
        got = intersection_degree(family_class("even_wall", d), d_class(d))
        assert got == Fraction(-d * (d * d - 2 * d + 4), 8)
    for d in range(3, 12, 2):
        got = intersection_degree(family_class("odd_wall", d), d_class(d))
        assert got == Fraction(-(d - 1) * (d * d + d - 4), 8)
    _report(4, "first-wall family degrees match closed forms up to degree 12")


def test_criterion_05_ext_dimensions():
    got = [ext_dims_at_wall(6, ChernP2(*chern))
           for (chern, _, _) in M6_TABLE[:-1]]
    assert got == list(M6_EXT_DIMS)
    assert sorted(got) == sorted([(20, 2), (22, 4), (22, 4),
                                  (24, 6), (24, 6), (26, 8)])
    _report(5, "exceptional bundle dimensions across the degree-6 walls")


def test_criterion_06_chamber_location():
    hilb8 = transform_walls(abch_reference_walls(8), "twist", 3)
    assert locate_model(Wall(Fraction(-4, 3), Fraction(25, 9)), hilb8) == 6
    hilb4 = transform_walls(transform_walls(abch_reference_walls(4), "dual"),
                            "twist", -5)
    assert locate_model(Wall(Fraction(-4, 3), Fraction(49, 9)), hilb4) == 1
    moved = wall_between(ChernP2(-1, 5, Fraction(-17, 2)), ChernP2(-1, 4, -8))
    assert moved == Wall(Fraction(-1, 2), Fraction(49, 4))
    assert moved == hilb4.walls[0]
    assert moved.radius_sq == Fraction(-9, 2) ** 2 - 8
    _report(6, "chamber indices 6 and 1; transformed wall at center -1/2")


def test_criterion_07_kronecker_polynomial():
    assert kronecker_poincare(3, (5, 4)) == QPoly(N6_COEFFICIENTS)
    _report(7, "Kronecker moduli polynomial matches its 21 printed coefficients")


def test_criterion_08_brute_force_oracle():
    for dv in ((1, 1), (2, 1), (1, 2), (3, 2)):
        poly = kronecker_poincare(3, dv)
        for p in (2, 3):
            assert brute_force_kronecker_count(3, dv, p) == poly(p)
    _report(8, "finite-field counts equal the recursion at p = 2, 3")


def test_criterion_09_hilbert_scheme_oracle():
    assert hilb_poincare(1) == QPoly([1, 1, 1])
    for n in range(6):
        assert hilb_poincare(n) == hilb_fixed_point_poincare(n)
    _report(9, "generating function matches fixed-point cell counts for n <= 5")


def test_criterion_10_final_assembly():
    total = assemble_m6()
    printed = QPoly(M6_FACTOR_COEFFICIENTS) * projective_poincare(17)
    assert total == printed
    assert total(1) == 17064
    assert total.degree == 37
    assert is_palindromic(total)
    _report(10, "wall-crossing assembly equals the printed degree-37 product")


def test_criterion_11_property_suites():
    rng = random.Random(0xACCE55)

    # pairing symmetry and bilinearity
    for _ in range(RUNS):
        u, v, w = (rand_chern(rng) for _ in range(3))
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert euler_product(v, w) == euler_product(w, v)
        assert euler_hom(v, w) == euler_product(dual(v), w)
        for pairing in (euler_product, euler_hom):
            assert pairing(a * u + b * v, w) == \
                a * pairing(u, w) + b * pairing(v, w)
            assert pairing(w, a * u + b * v) == \
                a * pairing(w, u) + b * pairing(w, v)

    # twist, dual, and shift equivariance of walls
    done = 0
    while done < RUNS:
        v, w = rand_chern(rng), rand_chern(rng)
        try:
            wall = wall_between(v, w)
        except (NoWallError, EmptyWallError):
            continue
        n = rng.randint(-5, 5)
        moved = wall_between(twist(v, n), twist(w, n))
        assert (moved.center, moved.radius_sq) == \
            (wall.center + n, wall.radius_sq)
        flipped = wall_between(dual(v), dual(w))
        assert (flipped.center, flipped.radius_sq) == \
            (-wall.center, wall.radius_sq)
        assert wall_between(shift(v), shift(w)) == wall
        done += 1

    # p-free terms never change an intersection degree
    for _ in range(RUNS):
        d = rng.choice((4, 5, 6, 7, 8))
        kind = rng.choice(("pencil", "jacobian",
                           "even_wall" if d % 2 == 0 else "odd_wall"))
        fam = family_class(kind, d)
        noise = ChowCurveP2(rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                            rng.randint(-9, 9), 0, 0, 0)
        bumped = FamilyClass(fam.chern + noise, fam.label, fam.degree_d)
        w = rand_chern(rng)
        assert intersection_degree(bumped, w) == intersection_degree(fam, w)

    # linearity of the determinant-divisor decomposition
    for _ in range(RUNS):
        d = rng.randint(3, 9)
        w1 = rng.randint(-6, 6) * point() + rng.randint(-6, 6) * d_class(d)
        w2 = rng.randint(-6, 6) * point() + rng.randint(-6, 6) * d_class(d)
        assert lambda_decompose(w1 + w2, d) == \
            lambda_decompose(w1, d) + lambda_decompose(w2, d)

    # palindromicity of smooth projective spaces of every supported kind
    leaves = [Projective(rng.randint(0, 20)) for _ in range(30)]
    leaves += [Grassmannian(rng.randint(0, 6), rng.randint(6, 10))
               for _ in range(20)]
    leaves += [Hilb(rng.randint(0, 8)) for _ in range(20)]
    leaves += [HilbModel(*rng.choice(((3, 1), (4, 1), (4, 2), (5, 2), (8, 6))))
               for _ in range(20)]
    leaves += [KroneckerModuli(3, 2, 1), KroneckerModuli(3, 3, 2),
               KroneckerModuli(3, 5, 4)]
    spaces = list(leaves)
    for _ in range(40):
        spaces.append(Bundle(rng.choice(leaves), rng.choice(leaves)))
        spaces.append(Bundle(rng.choice(leaves), rng.choice(leaves)))
    assert len(spaces) >= RUNS
    for sd in spaces:
        poly = space_poincare(sd)
        assert poly.coefficients[0] == 1
        assert all(c >= 0 for c in poly.coefficients)
        assert is_palindromic(poly)

    _report(11, "randomized property suites, exact assertions throughout")
