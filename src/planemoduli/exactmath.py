"""Exact scalar and polynomial arithmetic in one variable q.

Two layers, both immutable and exact:

  Rational   -- arbitrary-precision rational numbers.  This is an alias for
                fractions.Fraction, which already stores values reduced with
                a positive denominator and prints as "num/den" (the "/den"
                part omitted when the denominator is 1), exactly the wire
                format used by the command line.
  QPoly      -- polynomials in q with integer coefficients, stored as a
                tuple of coefficients in ascending powers with trailing
                zeros trimmed.  The zero polynomial has degree None.

Division of polynomials is only ever exact division: exact_div raises
ExactDivisionError when a remainder (or a fractional quotient coefficient)
appears.  No module of the package divides polynomials; the test oracles
do, and rely on that error as a correctness check.

The immutable records of the other modules (Chern characters, walls,
divisors, Chow classes, space descriptors) derive from the value base _Value;
the linear ones (Chern characters, {A, L} divisors, Chow classes) from its
subclass _Vector, which adds, subtracts, negates and scales them field by
field.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from operator import add, attrgetter, neg, sub

from .errors import DomainError, ExactDivisionError

Rational = Fraction

Scalar = int | Fraction


class _Value:
    """An immutable record whose fields are its class's __slots__.

    Equality (only within one class), hashing, repr, match patterns, copy
    and pickle read the fields in slot order, and every constructor takes
    them positionally in that order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__match_args__ = cls.__slots__
        # the slot descriptors' own setters: __setattr__ below refuses
        cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)
        # attrgetter of one name returns the bare value, of none raises
        cls._astuple = (attrgetter(*fields) if len(fields) > 1 else
                        staticmethod(lambda v: tuple(getattr(v, f) for f in fields)))

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _make(cls, *values):
        """A value from fields already in canonical form, with no check or coercion.

        For arithmetic whose results are valid by construction: the
        _Vector operations, the Chow ring products and exp_class.  The
        caller passes what the public constructor would store (a Fraction
        where it stores one), or equality, hashing and repr drift from it.
        """
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        pairs = zip(self.__slots__, self._astuple(self))
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"

    def __reduce__(self):
        return type(self), self._astuple(self)


class _Vector(_Value):
    """A _Value that adds, subtracts, negates and scales field by field.

    Only a record of the same class, or a scalar of the class's _scalars,
    is an operand; any other gets NotImplemented, so Python raises
    TypeError.
    """

    # The results skip the constructor's checks because they are valid by
    # construction.  Sums, differences, negatives and integer multiples keep
    # a Chern character's e - c^2/2 integral (a sum's is the summands' total
    # minus c c', and n e - (n c)^2/2 = n (e - c^2/2) - n (n - 1) c^2/2 with
    # n (n - 1) even), and they keep int fields int and Fraction fields
    # Fraction.  Rational multiples of the records whose fields are all
    # Fractions stay Fractions, and so do the Chow ring products.
    __slots__ = ()
    _scalars = (int, Fraction)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._make(*map(add, self._astuple(self), other._astuple(other)))

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._make(*map(sub, self._astuple(self), other._astuple(other)))

    def __neg__(self):
        return self._make(*map(neg, self._astuple(self)))

    def __mul__(self, s):
        if not isinstance(s, self._scalars):
            return NotImplemented
        return self._make(*[x * s for x in self._astuple(self)])

    __rmul__ = __mul__


def parse_int(text: str) -> int:
    """An integer spelled as str() spells it: ASCII, no "+", "_", space or leading 0."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not an integer: {text!r}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", "num" or a decimal such as "0.5" into an exact rational.

    Non-ASCII text (Fraction reads other digits) and exponent notation are
    rejected: "1e3000000" would build a million-digit integer unchecked.
    """
    if not text.isascii() or "e" in text.lower():
        raise DomainError(f"non-ASCII or exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def _frac(x: Scalar) -> Fraction:
    """x as a Fraction, without rebuilding one that already is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _signed_sum(terms: Iterable[tuple[Scalar, str]], times: str = "*") -> str:
    """Render (coefficient, monomial) terms as "3*q^2 - q + 1"; "0" if all vanish.

    Zero terms are skipped, a unit coefficient is dropped before a
    monomial, and `times` joins any other coefficient to its monomial
    ("" gives "16A").  An empty monomial is the constant term.
    """
    parts: list[str] = []
    for coef, mono in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        body = mono if (mag == 1 and mono) else (f"{mag}{times}{mono}" if mono else str(mag))
        if parts:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        else:
            parts.append(body if coef > 0 else f"-{body}")
    return " ".join(parts) if parts else "0"


class QPoly:
    """An integer-coefficient polynomial in the variable q."""

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int):
                raise DomainError(f"QPoly coefficients must be integers, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._c = tuple(coeffs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "QPoly":
        """The polynomial coefficient * q**power."""
        if power < 0:
            raise DomainError("monomial power must be nonnegative")
        return cls((0,) * power + (coefficient,))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self._c) - 1 if self._c else None

    def coefficient(self, power: int) -> int:
        return self._c[power] if 0 <= power < len(self._c) else 0

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self._c))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        other = _as_qpoly(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-_as_qpoly(other))

    def __rsub__(self, other: "QPoly | int") -> "QPoly":
        return _as_qpoly(other) + (-self)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly(tuple(other * c for c in self._c))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise DomainError("negative polynomial powers are not defined")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate at a rational or integer point, exactly.

        At a Fraction a/b of a nonzero polynomial of degree n, Horner's rule
        runs in integers over sum c_i a**i b**(n - i), and the one gcd is
        taken when that is divided by b**n: a Fraction at every step would
        take a gcd per coefficient.
        """
        if not isinstance(x, Fraction) or not self._c:
            acc: Scalar = 0
            for c in reversed(self._c):
                acc = acc * x + c
            return acc
        a, b = x.numerator, x.denominator
        coefficients = reversed(self._c)
        acc, den = next(coefficients), 1
        for c in coefficients:
            den *= b
            acc = acc * a + c * den
        return Fraction(acc, den)

    def shifted(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if k < 0:
            raise DomainError("shift exponent must be nonnegative")
        return QPoly((0,) * k + self._c) if self._c else QPoly()

    def exact_div(self, divisor: "QPoly") -> "QPoly":
        """Exact polynomial quotient self / divisor.

        Raises ExactDivisionError if the division leaves a remainder or
        forces a non-integer coefficient; callers rely on this to detect
        convention drift.
        """
        b = divisor._c
        if not b:
            raise DomainError("division by the zero polynomial")
        rem = list(self._c)
        out = [0] * max(len(rem) - len(b) + 1, 0)
        for i in reversed(range(len(out))):
            t, r = divmod(rem[i + len(b) - 1], b[-1])
            if r:
                break  # that coefficient stays nonzero in rem
            out[i] = t
            if t:
                for j, y in enumerate(b):
                    rem[i + j] -= t * y
        if any(rem):
            raise ExactDivisionError("polynomial division is not exact")
        return QPoly(out)

    def to_coefficient_strings(self) -> list[str]:
        """Serialize as the JSON wire format: coefficient strings, ascending."""
        return [str(c) for c in self._c]

    @classmethod
    def from_coefficient_strings(cls, items: Iterable[str]) -> "QPoly":
        return cls(tuple(int(s) for s in items))

    def __str__(self) -> str:
        return _signed_sum((c, "" if i == 0 else "q" if i == 1 else f"q^{i}")
                           for i, c in enumerate(self._c))

    def __repr__(self) -> str:
        return f"QPoly({list(self._c)!r})"


def _as_qpoly(value: "QPoly | int") -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly((value,))
    raise TypeError(f"cannot interpret {value!r} as a QPoly")


def projective_poincare(n: int) -> QPoly:
    """Poincare polynomial of n-dimensional complex projective space.

    1 + q + ... + q**n, with q marking cohomological degree 2.
    """
    if n < 0:
        raise DomainError("projective space dimension must be nonnegative")
    return QPoly((1,) * (n + 1))


#: largest Grassmannian dimension k (n - k) accepted; the q-Pascal rows
#: cost grows roughly with its square, and gr:100:200 already takes seconds
MAX_GRASSMANNIAN_DIMENSION = 10_000


@cache
def _gaussian(k: int, n: int) -> QPoly:
    # q-Pascal, one row at a time over the columns j <= k:
    # [r j] = [r-1 j-1] + q^j [r-1 j].  The coefficients of [r j] are
    # nonnegative and sum to C(r, j), which is at most C(n, k) when
    # k <= n/2, so each polynomial is carried as its value at
    # q = 256^width and its coefficients are read back as base-q digits.
    if k == 0:  # [n 0] = 1, with no row to run through
        return QPoly.one()
    width = (math.comb(n, k).bit_length() + 7) // 8
    row = [1] + [0] * k
    for r in range(1, n + 1):
        for j in range(min(k, r), 0, -1):
            row[j] = row[j - 1] + (row[j] << (8 * width * j))
    data = row[k].to_bytes(width * (k * (n - k) + 1), "little")
    return QPoly([int.from_bytes(data[i:i + width], "little")
                  for i in range(0, len(data), width)])


def grassmannian_poincare(k: int, n: int) -> QPoly:
    """The Gaussian binomial coefficient [n choose k]_q.

    Equals the Poincare polynomial of the Grassmannian Gr(k, n); at q = 1
    it specializes to the ordinary binomial coefficient.
    """
    if not 0 <= k <= n:
        raise DomainError(f"Gaussian binomial needs 0 <= k <= n, got k={k}, n={n}")
    if k * (n - k) > MAX_GRASSMANNIAN_DIMENSION:
        raise DomainError(f"Gr({k}, {n}) has dimension {k * (n - k)}, above the "
                          f"limit {MAX_GRASSMANNIAN_DIMENSION}")
    return _gaussian(min(k, n - k), n)


def is_palindromic(p: QPoly) -> bool:
    """Whether the coefficient list reads the same in both directions."""
    if not p:
        raise DomainError("palindromicity of the zero polynomial is undefined")
    return p.coefficients == p.coefficients[::-1]
