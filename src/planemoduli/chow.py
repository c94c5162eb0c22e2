"""Truncated Chow rings for the plane and for (parameter curve) x plane.

Classes on the plane live on the basis {1, h, h^2} with h the line class
and h^3 = 0.  Classes on the product of a parameter curve with the plane
live on the basis {1, h, h^2, p, p h, p h^2} where p is the point class of
the curve, so p^2 = 0.  Writing a product class as A + p*B with A, B plane
classes makes the multiplication rule one line.

All coefficients are exact rationals.  The degree extraction used by every
Riemann-Roch computation downstream is simply the coefficient of p h^2.

A product of two curve classes multiplies integer numerators, each
operand over the least common multiple of its six denominators, and
builds one Fraction per coefficient.  Products on the plane alone, and
with a scalar, keep the Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .exactmath import Scalar, _frac, _require_class, _Vector


class ChowP2(_Vector):
    """A class c0 + c1*h + c2*h^2 on the plane, truncated at h^3 = 0."""

    __slots__ = ("c0", "c1", "c2")
    _kinds = (_frac,) * 3

    def __init__(self, c0: Scalar = 0, c1: Scalar = 0, c2: Scalar = 0):
        super().__init__(c0, c1, c2)

    def __mul__(self, other: "ChowP2 | int | Fraction") -> "ChowP2":
        if other.__class__ is not ChowP2:
            return super().__mul__(other)
        return ChowP2._make(
            self.c0 * other.c0,
            self.c0 * other.c1 + self.c1 * other.c0,
            self.c0 * other.c2 + self.c1 * other.c1 + self.c2 * other.c0,
        )


class ChowCurveP2(_Vector):
    """A class on (parameter curve) x plane on the basis {1, h, h^2, p, ph, ph^2}."""

    __slots__ = ("a1", "ah", "ah2", "ap", "aph", "aph2")
    _kinds = (_frac,) * 6

    def __init__(self, a1: Scalar = 0, ah: Scalar = 0, ah2: Scalar = 0,
                 ap: Scalar = 0, aph: Scalar = 0, aph2: Scalar = 0):
        super().__init__(a1, ah, ah2, ap, aph, aph2)

    def __mul__(self, other: "ChowCurveP2 | int | Fraction") -> "ChowCurveP2":
        if other.__class__ is not ChowCurveP2:
            return super().__mul__(other)
        # (A + pB)(X + pY) = AX + p(AY + BX) since p^2 = 0, with
        # A = a0 + a1 h + a2 h^2 and likewise B, X, Y, on integer numerators
        # over one common denominator per operand
        (a0, a1, a2, b0, b1, b2), den_a = _numerators(ChowCurveP2._astuple(self))
        (x0, x1, x2, y0, y1, y2), den_x = _numerators(ChowCurveP2._astuple(other))
        den = den_a * den_x
        return ChowCurveP2._make(
            Fraction(a0 * x0, den), Fraction(a0 * x1 + a1 * x0, den),
            Fraction(a0 * x2 + a1 * x1 + a2 * x0, den),
            Fraction(a0 * y0 + b0 * x0, den),
            Fraction(a0 * y1 + a1 * y0 + b0 * x1 + b1 * x0, den),
            Fraction(a0 * y2 + a1 * y1 + a2 * y0 + b0 * x2 + b1 * x1 + b2 * x0, den))

    def __str__(self) -> str:
        return (f"{self.a1} + {self.ah} h + {self.ah2} h^2 + "
                f"{self.ap} p + {self.aph} p h + {self.aph2} p h^2")


def _numerators(values: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    den = math.lcm(*[f.denominator for f in values])
    return [f.numerator * (den // f.denominator) for f in values], den


_FIELD_BY_TAG = {"1": "a1", "h": "ah", "h2": "ah2",
                 "p": "ap", "ph": "aph", "ph2": "aph2"}

#: basis-element tags accepted by coeff()
MONOMIALS = tuple(_FIELD_BY_TAG)


def exp_class(alpha: Scalar, beta: Scalar) -> ChowCurveP2:
    """exp(alpha*p + beta*h), truncated.

    Equals (1 + alpha p) (1 + beta h + beta^2/2 h^2) because p squares to
    zero and h^3 vanishes.
    """
    a, b = _frac(alpha), _frac(beta)
    return ChowCurveP2._make(Fraction(1), b, b * b / 2, a, a * b, a * b * b / 2)


def todd_relative() -> ChowCurveP2:
    """Todd class of the plane direction: 1 + 3/2 h + h^2."""
    return ChowCurveP2(1, Fraction(3, 2), 1, 0, 0, 0)


def coeff(x: ChowCurveP2, monomial: str) -> Fraction:
    """The coefficient of the given basis element of {1, h, h2, p, ph, ph2}."""
    _require_class(ChowCurveP2, x)
    try:
        field = _FIELD_BY_TAG[monomial]
    except (KeyError, TypeError):  # a TypeError: an unhashable tag
        raise DomainError(f"unknown Chow monomial tag {monomial!r}; "
                          f"expected one of {', '.join(MONOMIALS)}") from None
    return getattr(x, field)
