"""K-theory classes on the plane as Chern character triples.

A class is the triple (r, c, e): the rank, the degree of the first Chern
class, and the second Chern character ch_2.  Integrality of the actual
second Chern class forces e - c^2/2 to be an integer (so 2e is always an
integer); the constructor enforces this.

Two Euler pairings coexist on purpose.  euler_product integrates
ch(v) ch(w) Td against the plane with no dualization; it is the pairing
whose radical cuts out wall divisors.  euler_hom first dualizes its left
argument and computes the alternating sum of Ext dimensions chi(v, w).
Call sites must choose explicitly; nothing in this module guesses.

Td * ch and both pairings are evaluated on integers.  2 ch_2 is an
integer for every class, so twice Td * ch(v) is the integer triple
(2r, 2c + 3r, 2e + 3c + 2r) of the private kernel _td_ch2, and each
pairing is one integer over 2: only the returned value is a Fraction.
The benchmark's per-layer probes (2,000 pairs, median of 5 in-process
repeats) read 0.034-0.054 s for either pairing when every step built a
Fraction and 0.004-0.007 s on integers: 4 runs per side of
`perfbench/run.py --workload library_session --trace 1`, alternating,
on a 2-vCPU x86-64 VM with Python 3.11.7 and sys.flags.dont_write_bytecode
set to 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConventionError, DomainError
from .exactmath import Scalar, _frac, _signed_sum, _Value, _Vector, parse_int, parse_rational


class ChernP2(_Vector):
    """Chern character (rank, degree, ch_2) of a class on the plane."""

    __slots__ = ("r", "c", "e")
    _scalars = int  # a rational multiple can break integrality

    def __init__(self, r: int, c: int, e: Scalar):
        if not isinstance(r, int) or not isinstance(c, int):
            raise DomainError("rank and degree must be integers")
        ee = _frac(e)
        if ee.denominator not in (1, 2):
            raise DomainError(f"2*ch_2 must be an integer, got ch_2 = {ee}")
        if ee.denominator != 1 + c % 2:  # ee - c^2/2 is not an integer
            raise DomainError(
                f"ch_2 - c^2/2 must be an integer (integral second Chern class); "
                f"got (r, c, e) = ({r}, {c}, {ee})")
        # plain ints: a bool field would print as True or False
        super().__init__(int(r), int(c), ee)

    def __str__(self) -> str:
        return f"{self.r},{self.c},{self.e}"


def parse_chern(text: str) -> ChernP2:
    """Parse "r,c,e" with e a rational such as -7/2 (no exponent notation)."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise DomainError(f"expected a Chern character as r,c,e, got {text!r}")
    try:
        r, c = parse_int(parts[0]), parse_int(parts[1])
        e = parse_rational(parts[2])
    except ValueError as exc:
        raise DomainError(f"cannot parse Chern character {text!r}") from exc
    return ChernP2(r, c, e)


def line_bundle(k: int) -> ChernP2:
    """ch of O(k): (1, k, k^2/2)."""
    return ChernP2(1, k, Fraction(k * k, 2))


def ideal_twisted(n: int, k: int) -> ChernP2:
    """ch of the ideal sheaf of n plane points twisted by k: (1, k, k^2/2 - n)."""
    if n < 0:
        raise DomainError("number of points must be nonnegative")
    return ChernP2(1, k, Fraction(k * k - 2 * n, 2))


def point() -> ChernP2:
    """ch of a point sheaf: (0, 0, 1)."""
    return ChernP2(0, 0, Fraction(1))


def line_support(k: int) -> ChernP2:
    """ch of O_l(k) for a line l: (0, 1, k - 1/2)."""
    return ChernP2(0, 1, k - Fraction(1, 2))


def moduli(d: int) -> ChernP2:
    """ch of the sheaves parameterized by the degree-d moduli space: (0, d, (2-3d)/2)."""
    if d < 1:
        raise DomainError("moduli degree must be at least 1")
    return ChernP2(0, d, Fraction(2 - 3 * d, 2))


def dual(v: ChernP2) -> ChernP2:
    """The derived dual: (r, -c, e)."""
    return ChernP2(v.r, -v.c, v.e)


def twist(v: ChernP2, k: int) -> ChernP2:
    """Tensor with O(k): (r, c + k r, e + k c + k^2 r / 2)."""
    return ChernP2(v.r, v.c + k * v.r, v.e + k * v.c + Fraction(k * k * v.r, 2))


def shift(v: ChernP2) -> ChernP2:
    """Homological shift by one: negates the class."""
    return -v


def _twice_ch2(v: ChernP2) -> int:
    """2 ch_2(v), an integer for every class the constructor accepts.

    Only a record built unchecked (ChernP2._make) can break that, and then
    this raises rather than floor the value.
    """
    e = v.e
    if e.denominator > 2:
        raise ConventionError(f"2*ch_2 must be an integer, got ch_2 = {e}")
    return 2 * e.numerator // e.denominator


def _td_ch2(v: ChernP2) -> tuple[int, int, int]:
    """Twice Td * ch(v) as integers: (2r, 2c + 3r, 2e + 3c + 2r)."""
    r, c = v.r, v.c
    return 2 * r, 2 * c + 3 * r, _twice_ch2(v) + 3 * c + 2 * r


def _td_ch(v: ChernP2) -> tuple[int, Fraction, Fraction]:
    """Coefficients of 1, h, h^2 in Td * ch(v) = (r, c + 3r/2, e + 3c/2 + r)."""
    _, c, e = _td_ch2(v)
    return v.r, Fraction(c, 2), Fraction(e, 2)


def _euler_product2(v: ChernP2, w: ChernP2) -> int:
    """Twice euler_product(v, w), an integer."""
    _, c, e = _td_ch2(w)
    return v.r * e + v.c * c + _twice_ch2(v) * w.r


def euler_product(v: ChernP2, w: ChernP2) -> Fraction:
    """Euler pairing with no dualization: integral of ch(v) ch(w) Td.

    Symmetric in its arguments.  Classes orthogonal to a moduli class
    under this pairing correspond to divisors on the moduli space.
    """
    return Fraction(_euler_product2(v, w), 2)


def euler_hom(v: ChernP2, w: ChernP2) -> Fraction:
    """chi(v, w) = sum (-1)^i ext^i(v, w); equals euler_product(dual(v), w)."""
    _, c, e = _td_ch2(w)
    return Fraction(v.r * e - v.c * c + _twice_ch2(v) * w.r, 2)


class HilbertPolynomial(_Value):
    """Coefficients of chi(v(m)) as a polynomial in the twist m."""

    __slots__ = ("quadratic", "linear", "constant")

    def __call__(self, m: int) -> Fraction:
        return self.quadratic * m * m + self.linear * m + self.constant

    def __str__(self) -> str:
        return _signed_sum(((self.quadratic, "m^2"), (self.linear, "m"),
                            (self.constant, "")))


def hilbert_polynomial(v: ChernP2) -> HilbertPolynomial:
    """chi(v(m)) = (r/2) m^2 + (c + 3r/2) m + (e + 3c/2 + r)."""
    r, linear, constant = _td_ch(v)
    return HilbertPolynomial(quadratic=Fraction(r, 2), linear=linear,
                             constant=constant)
