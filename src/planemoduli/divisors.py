"""Determinant-line-bundle calculus on the moduli space of plane sheaves.

The Picard group of the degree-d moduli space is written in the geometric
basis {A, L}: A is the divisor of sheaves whose support meets a fixed
point, L the divisor of relative point configurations meeting a fixed
line.  The K-theoretic generators are the point class (mapping to A) and
the theta-like class (-d, 1, -1/2) (mapping to D = (1-d) A + L); a class
orthogonal to the moduli class decomposes over them.  A wall divisor is
the decomposition of the class orthogonal to the moduli class and the
destabilizer, over the rationals: that class need not be integral.

Intersection numbers of divisors with the four test families of sheaves
(a pencil, a Jacobian family, and one family on the first wall for each
parity) are computed by pushing the family's Chern character times the
relative Todd class times the pulled-back K-class to the coefficient of
p h^2, which is the Riemann-Roch degree of the determinant line bundle
on the parameter curve.

Wall classes, divisors and degrees are evaluated on integers, from
twice Td * ch as the integer triple of ktheory._td_ch2:
_orthogonal_solution solves the 2x2 system on the doubled rows for
orthogonal_wall_class, whose rank is an exact integer division, and for
wall_divisor; lambda_decompose tests orthogonality with the integer
pairing; family_class builds each family from its expanded coefficients;
and intersection_degree puts the family's p part over one common
denominator.  Each builds a Fraction only for a field it returns.
"""

from __future__ import annotations

from fractions import Fraction

from . import ktheory
from .errors import ConventionError, DomainError
from .exactmath import _frac, _int, _of, _require_class, _signed_sum, _Value, _Vector
from .ktheory import ChernP2


class DivisorAL(_Vector):
    """A divisor class a*A + l*L on the moduli space."""

    __slots__ = ("a", "l")
    _kinds = (_frac, _frac)

    def __str__(self) -> str:
        return _signed_sum(((self.a, "A"), (self.l, "L")), times="")

    def to_json(self) -> dict[str, str]:
        return {"a": str(self.a), "l": str(self.l)}


A_DIVISOR = DivisorAL(1, 0)
L_DIVISOR = DivisorAL(0, 1)

#: family kinds accepted by family_class()
FAMILY_KINDS = ("pencil", "jacobian", "even_wall", "odd_wall")


class FamilyClass(_Value):
    """The Chern character (a ChowCurveP2) of a one-parameter family of sheaves."""

    __slots__ = ("chern", "label", "degree_d")
    _kinds = (_of(object), _of(str), _int)  # chern is checked where read, not to load chow


def genus(d: int) -> int:
    """Arithmetic genus (d-1)(d-2)/2 of a smooth plane curve of degree d."""
    if _int(d) < 1:
        raise DomainError("degree must be at least 1")
    return (d - 1) * (d - 2) // 2


def d_class(d: int) -> ChernP2:
    """The K-class mapping to the theta-like divisor D: (-d, 1, -1/2)."""
    return ChernP2(-d, 1, Fraction(-1, 2))


def first_wall_destabilizer(d: int) -> ChernP2:
    """Chern character of the destabilizing object at the outermost wall.

    Ideal sheaf of (d-2)/2 points twisted by (d-2)/2 for even d, the line
    bundle O((d-3)/2) for odd d.
    """
    if _int(d) < 3:
        raise DomainError("first wall is defined for degree >= 3")
    if d % 2 == 0:
        n = (d - 2) // 2
        return ktheory.ideal_twisted(n, n)
    return ktheory.line_bundle((d - 3) // 2)


def _orthogonal_solution(v: ChernP2, vprime: ChernP2) -> tuple[int, int, int]:
    """The rank and ch_2 of the class (r, 1, e) orthogonal to v and vprime,
    as the numerators and the common denominator (r_num, e_num, det).

    For Td * ch(u) = (t0, t1, t2) each orthogonality condition is linear in
    (r, e): r*t2 + e*t0 = -t1, solved by Cramer's rule.
    """
    _require_class(ChernP2, v, vprime)
    # the rows doubled, so every entry is an integer; doubling both sides
    # of Cramer's rule leaves the solution as it is
    (m00, m01, b0), (m10, m11, b1) = [
        (t2, t0, -t1) for t0, t1, t2 in map(ktheory._td_ch2, (v, vprime))]
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise DomainError("orthogonality system is rank deficient "
                          "(proportional input classes)")
    return b0 * m11 - b1 * m01, m00 * b1 - m10 * b0, det


def orthogonal_wall_class(v: ChernP2, vprime: ChernP2) -> ChernP2:
    """The class w with euler_product(w, v) = euler_product(w, vprime) = 0, c-part 1.

    Normalizing c = 1 makes the L-coefficient of the resulting divisor
    equal to 1.
    """
    r_num, e_num, det = _orthogonal_solution(v, vprime)
    r_w, rest = divmod(r_num, det)
    if rest:
        raise DomainError(f"orthogonal class has non-integer rank {Fraction(r_num, det)}")
    return ChernP2(r_w, 1, Fraction(e_num, det))


def lambda_decompose(w: ChernP2, d: int) -> DivisorAL:
    """Write the determinant divisor of w in the {A, L} basis.

    Requires w orthogonal to the moduli class.  Twice Td * ch of the moduli
    class is (0, 2d, 2), so twice the pairing is 2 (r + d c) and
    orthogonality is exactly the rank relation r = -d c.  Then
    w = alpha*(point) + beta*(theta class), with beta = c, and the divisor
    is (alpha + beta (1-d)) A + beta L.
    """
    _require_class(ChernP2, w)
    if ktheory._euler_product2(w, ktheory.moduli(d)):
        raise DomainError("class is not orthogonal to the moduli class; "
                          "its determinant divisor is not defined")
    # beta = c and alpha = e + c/2 give alpha + beta (1 - d) = (2e + (3 - 2d) c) / 2
    return DivisorAL(Fraction(ktheory._twice_ch2(w) + (3 - 2 * d) * w.c, 2), w.c)


def wall_divisor(d: int, vprime: ChernP2) -> DivisorAL:
    """Divisor attached to the wall where vprime destabilizes the moduli class.

    The class orthogonal to both is (-d, 1, e), which need not be integral,
    so its divisor is lambda_decompose's taken over the rationals:
    (e + (3 - 2d)/2) A + L.
    """
    _, e_num, det = _orthogonal_solution(ktheory.moduli(d), vprime)
    return DivisorAL(Fraction(2 * e_num + (3 - 2 * d) * det, 2 * det), 1)


def nef_generators(d: int) -> tuple[DivisorAL, DivisorAL]:
    """Generators (A, B) of the two extremal rays of the nef cone.

    B is computed from the first wall and must agree with the closed form
    (d-2)^2 (d+2)/8 A + L for even d and (d-1)(d+4)(d-3)/8 A + L for odd.
    """
    if _int(d) < 3:
        raise DomainError("nef cone generators need degree >= 3")
    b = wall_divisor(d, first_wall_destabilizer(d))
    if d % 2 == 0:
        expected = Fraction((d - 2) ** 2 * (d + 2), 8)
    else:
        expected = Fraction((d - 1) * (d + 4) * (d - 3), 8)
    if b != DivisorAL(expected, 1):
        raise ConventionError(
            f"first-wall divisor {b} disagrees with the closed form "
            f"{DivisorAL(expected, 1)} at degree {d}")
    return A_DIVISOR, b


def effective_generators(d: int) -> tuple[DivisorAL, DivisorAL]:
    """Generators (A, L) of the extremal rays of the effective cone.

    L is computed from the collapsing wall, where O destabilizes the
    moduli class, and must agree with the constant L_DIVISOR.
    """
    if _int(d) < 3:
        raise DomainError("effective cone generators need degree >= 3")
    l = wall_divisor(d, ktheory.line_bundle(0))
    if l != L_DIVISOR:
        raise ConventionError(
            f"collapsing-wall divisor {l} disagrees with L at degree {d}")
    return A_DIVISOR, L_DIVISOR


def family_class(kind: str, d: int) -> FamilyClass:
    """Chern character of one of the four test families of degree-d sheaves.

    pencil    -- sheaves along a pencil of degree-d curves with fixed base
                 points: exp(p) - exp(-d h) + g h^2.
    jacobian  -- line bundles along a fixed smooth curve, one moving point:
                 d h + d p h + (g - d^2/2) h^2 + (1 - g - 3d/2) p h^2.
    even_wall -- the universal first-wall family (d even):
                 exp((d-2)/2 h) - exp(-p - (d+2)/2 h) - (d-2)/2 h^2.
    odd_wall  -- the universal first-wall family (d odd):
                 exp(p + (d-3)/2 h) - exp(-(d+3)/2 h) + h^2.

    The subscheme and skyscraper corrections in the wall families carry no
    p component, so they never contribute to an intersection degree.

    Expanded, every family restricts to the moduli class d h + (2-3d)/2 h^2
    on each fiber, and its p part is 1 (pencil), d h + (1 - g - 3d/2) h^2
    (jacobian), 1 - (d+2)/2 h + (d+2)^2/8 h^2 (even_wall) or
    1 + (d-3)/2 h + (d-3)^2/8 h^2 (odd_wall).  These expanded coefficients
    are what is returned.
    """
    from .chow import ChowCurveP2  # here: only this and intersection_degree need chow

    g = genus(d)  # refuses a degree that is not an int or is below 1
    if kind == "pencil":
        p_part = (1, 0, 0)
    elif kind == "jacobian":
        p_part = (0, d, Fraction(2 - 2 * g - 3 * d, 2))
    elif kind == "even_wall":
        if d % 2 != 0:
            raise DomainError("even_wall family needs an even degree")
        p_part = (1, Fraction(-d - 2, 2), Fraction((d + 2) ** 2, 8))
    elif kind == "odd_wall":
        if d % 2 != 1:
            raise DomainError("odd_wall family needs an odd degree")
        p_part = (1, Fraction(d - 3, 2), Fraction((d - 3) ** 2, 8))
    else:
        raise DomainError(f"unknown family kind {kind!r}; "
                          f"expected one of {', '.join(FAMILY_KINDS)}")
    return FamilyClass(chern=ChowCurveP2(0, d, Fraction(2 - 3 * d, 2), *p_part),
                       label=kind, degree_d=d)


def intersection_degree(fam: FamilyClass, w: ChernP2) -> Fraction:
    """Degree of the determinant line bundle of w on the family's base curve.

    Riemann-Roch: the coefficient of p h^2 in ch(family) * Td * ch(w).
    Td * ch(w) = r + (c + 3r/2) h + (e + 3c/2 + r) h^2 has no p part, so
    only the p part B of ch(family) = A + p B reaches p h^2.
    """
    from .chow import ChowCurveP2, _numerators

    _require_class(FamilyClass, fam)
    _require_class(ChowCurveP2, fam.chern)
    _require_class(ChernP2, w)
    ch = fam.chern
    (b0, b1, b2), den = _numerators((ch.ap, ch.aph, ch.aph2))
    r, c, e = ktheory._td_ch2(w)  # twice Td * ch(w)
    return Fraction(b0 * e + b1 * c + b2 * r, 2 * den)


def d_in_AL(d: int) -> DivisorAL:
    """Express the theta-like divisor D in the {A, L} basis via test curves.

    Solves a (A.P) + l (L.P) = D.P and a (A.T) + l (L.T) = D.T with the
    pencil constants A.P = 1, L.P = 0, the Jacobian constants A.T = 0,
    L.T = d*g, and both right-hand sides computed by Riemann-Roch.
    """
    if _int(d) < 3:
        raise DomainError("basis conversion needs degree >= 3")
    w = d_class(d)
    d_dot_p = intersection_degree(family_class("pencil", d), w)
    d_dot_t = intersection_degree(family_class("jacobian", d), w)
    l_dot_t = Fraction(d * genus(d))
    # the coefficient matrix ((1, 0), (0, d*g)) is diagonal
    return DivisorAL(d_dot_p, d_dot_t / l_dot_t)
