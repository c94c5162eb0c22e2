"""Poincare polynomial engine.

Conventions: the coefficient of q^i is the 2i-th Betti number, so smooth
projective spaces give palindromic polynomials with nonnegative integer
coefficients and the value at q = 1 is the Euler characteristic.

Three independent point-count engines feed the final assembly:

  * Hilbert schemes of plane points, by the infinite-product generating
    function truncated at the needed order;
  * Kronecker quiver moduli, by Reineke's one-pass resolution of the
    Harder-Narasimhan recursion (a signed sum over chains of dimension
    vectors) evaluated at integer q in integer arithmetic, each partial
    sum scaled by group orders, the polynomial's coefficients read off
    as the base-B digits of its value at q = B;
  * a finite-field brute force that literally counts semistable tuples of
    matrices over F_p, used as an oracle for the recursion's conventions;
    each tuple's stability is read off precomputed preimage bitmasks, one
    AND and one popcount per subspace of the target.

The wall-crossing assembly then adds, for each wall, the difference of two
projective-bundle polynomials times the polynomial of the wall's center,
with exceptional-bundle ranks given by Euler pairings.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import ktheory
from .errors import ConventionError, DomainError
from .exactmath import (QPoly, _require_class, _require_ints, _Value, grassmannian_poincare,
                        projective_poincare)
from .ktheory import ChernP2, euler_hom

MAX_HILB_POINTS = 12


# ---------------------------------------------------------------------------
# Hilbert schemes of points

def hilb_poincare(n: int) -> QPoly:
    """Poincare polynomial of the Hilbert scheme of n plane points.

    Coefficient of z^n in prod_{k>=1} of the three geometric series in
    q^{k-1} z^k, q^k z^k, q^{k+1} z^k, truncated at order n.
    """
    _require_ints(n)
    if not 0 <= n <= MAX_HILB_POINTS:
        raise DomainError(f"Hilbert scheme size must be in 0..{MAX_HILB_POINTS}")
    series: list[QPoly] = [QPoly.zero()] * (n + 1)
    series[0] = QPoly.one()
    for k in range(1, n + 1):
        for j in (k - 1, k, k + 1):
            # multiply by the geometric series of q^j z^k, in place
            for t in range(k, n + 1):
                series[t] = series[t] + series[t - k].shifted(j)
    return series[n]


def _flip(gained: int, lost: int, center: QPoly) -> QPoly:
    """(P(P^gained) - P(P^lost)) times center: the change of the Poincare
    polynomial when a flip replaces a P^lost-bundle over the center by a
    P^gained-bundle."""
    return (projective_poincare(gained) - projective_poincare(lost)) * center


def hilb_model_poincare(n: int, k: int) -> QPoly:
    """Poincare polynomial of the k-th birational model of Hilb^n.

    Model 0 is the Hilbert scheme.  (3,1), (4,1), (4,2) and (5,2) cross the
    walls of O(-j) (x) I_W for (j, w) = (1, 0), then (1, 1), after Arcara,
    Bertram, Coskun and Huizenga (2013): each flips a P^(a-1)-bundle over
    P^(j(j+3)/2) x Hilb^w into a P^(b-1)-bundle, (a, b) from Euler pairings.
    The final model (8,6) is a Grassmannian Gr(2,9)-bundle over the plane.
    """
    _require_ints(n, k)
    if k == 0:
        return hilb_poincare(n)
    if (n, k) == (8, 6):
        return grassmannian_poincare(2, 9) * projective_poincare(2)
    if (n, k) not in ((3, 1), (4, 1), (4, 2), (5, 2)):
        raise DomainError(f"no tabulated birational model (Hilb^{n})_{k}")
    total = hilb_poincare(n)
    for j, w in ((1, 0), (1, 1))[:k]:
        a, b = _ext_dims(ktheory.ideal_twisted(n, 0), ktheory.ideal_twisted(w, -j))
        total += _flip(b - 1, a - 1, projective_poincare(j * (j + 3) // 2) * hilb_poincare(w))
    return total


# ---------------------------------------------------------------------------
# Kronecker quiver moduli

#: largest e + f accepted; the chain sum visits every pair of points of
#: the (e + 1)(f + 1) grid, and the dimension bound below leaves e + f
#: open (2 arrows on (n + 1, n) give dimension 0): (9, 8) takes 0.003 s
#: with 2 arrows and 0.03 s with 3, in-process on a 2-vCPU x86-64 VM
MAX_KRONECKER_SIZE = 17

#: largest moduli dimension m e f - e^2 - f^2 + 1 accepted; the integers
#: of the chain sum and the digit string of P(B) grow with it; no accepted
#: shape takes over 0.04 s (N(7; 14, 3), of dimension 90, takes 0.033 s)
MAX_KRONECKER_DEGREE = 100


DimVector = namedtuple("DimVector", ("e", "f"))
DimVector.__doc__ = """Dimension vector (e, f) of a quiver representation."""


def _coprime_shape(m: int, dv: "DimVector | tuple[int, int]") -> DimVector:
    """Checks both Kronecker engines share: m >= 1, dv valid and coprime."""
    if m < 1:
        raise DomainError("the quiver needs at least one arrow")
    dv = DimVector(*dv)
    _require_ints(m, *dv)
    if dv.e < 0 or dv.f < 0 or dv == (0, 0):
        raise DomainError(f"invalid dimension vector {dv}")
    if math.gcd(dv.e, dv.f) != 1:
        raise DomainError(f"dimension vector {tuple(dv)} is not coprime; "
                          "the moduli point count needs gcd(e, f) = 1")
    return dv


def _gl_order(n: int, q: int) -> int:
    """prod_{i<n} (q^n - q^i): the order of GL_n over the field with q elements."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _hn_stack_count(m: int, e: int, f: int, q: int) -> Fraction:
    """Count of the semistable stack with dimension vector (e, f), at q.

    Reineke's resolution of the Harder-Narasimhan recursion: the sum over
    chains 0 = y_0 < ... < y_s = (e, f) with every inner point of slope
    above (e, f)'s of (-1)^(s-1) times the product over the steps y -> x
    of A(x - y) q^-<x - y, y>, where A(a, b) = q^{m a b} / (ord(a) ord(b))
    counts all representations.  One pass in order of a + b sums the
    chains ending at each point x, times ord(x_a) ord(x_b): as
    ord(n) / (ord(k) ord(n - k)) = q^{k (n - k)} [n k]_q, a step s = x - y
    weighs q^{m s_a s_b - <s, y> + y_a s_a + y_b s_b} [x_a y_a]_q [x_b y_b]_q.
    The Euler form <s, y> = s_a y_a + s_b y_b - m s_a y_b makes the exponent
    m s_a x_b >= 0; only the tests' Fraction chain sum computes <s, y>.

    The rows binomials[n][k] = [n k]_q come from one q-Pascal pass at this
    integer q, [n k] = [n-1 k-1] + q^k [n-1 k]; no Grassmannian polynomial
    is built, so the polynomials of exactmath stay a separate route.
    """
    powers = [q ** k for k in range(max(e, f) + 1)]
    binomials = [[1]]
    for n in range(1, max(e, f) + 1):
        row = binomials[-1]
        binomials.append([1] + [row[k - 1] + powers[k] * row[k] for k in range(1, n)] + [1])
    # slope a / (a + b) above e / (e + f) means a f > b e
    points = sorted(((a, b) for a in range(e + 1) for b in range(f + 1)
                     if a * f > b * e), key=sum)
    chains = {(0, 0): -1}
    for a, b in points + [(e, f)]:
        total = 0
        for (ya, yb), value in chains.items():
            if ya <= a and yb <= b:
                total += value * q ** (m * (a - ya) * b) * binomials[a][ya] * binomials[b][yb]
        chains[(a, b)] = -total
    return Fraction(chains[(e, f)], _gl_order(e, q) * _gl_order(f, q))


def kronecker_poincare(m: int, dv: "DimVector | tuple[int, int]") -> QPoly:
    """Poincare polynomial of the m-arrow Kronecker quiver moduli space.

    Needs a coprime dimension vector, so that semistable = stable and the
    moduli count P(q) is (q - 1) times the stack count.  P has nonnegative
    integer coefficients, so each is at most P(2); the recursion is
    evaluated at q = 2 and at the base B = P(2) + 1, and the coefficients
    are the base-B digits of P(B).  A non-integer value, P(2) < 1, a digit
    count other than m e f - e^2 - f^2 + 1 plus one, a non-palindromic
    digit list, or disagreement with the recursion at q = 3 signals a
    convention error and is reported instead of repaired.
    """
    dv = _coprime_shape(m, dv)
    if dv.e + dv.f > MAX_KRONECKER_SIZE:
        raise DomainError(f"dimension vector {tuple(dv)} is too large for the "
                          f"recursion (limit e + f <= {MAX_KRONECKER_SIZE})")
    degree = m * dv.e * dv.f - dv.e ** 2 - dv.f ** 2 + 1
    if degree > MAX_KRONECKER_DEGREE:
        raise DomainError(f"moduli space of {tuple(dv)} with {m} arrows has "
                          f"dimension {degree}, above the limit "
                          f"{MAX_KRONECKER_DEGREE}")
    if degree < 0:
        # a stable representation would give a smooth moduli space of
        # dimension m e f - e^2 - f^2 + 1, so there is none
        raise DomainError(f"moduli space of {tuple(dv)} with {m} arrows is "
                          f"empty: its dimension {degree} is negative")

    def moduli_count(q: int) -> int:
        value = (q - 1) * _hn_stack_count(m, dv.e, dv.f, q)
        if value.denominator != 1:
            raise ConventionError(
                f"(q-1) * stack count for {tuple(dv)} is not an integer at "
                f"q = {q}; the recursion's sign convention has drifted")
        return value.numerator

    def shape_error(shown: object) -> ConventionError:
        return ConventionError(
            f"moduli polynomial for {tuple(dv)} fails its shape checks: "
            f"{shown} (expected degree {degree})")

    at_two = moduli_count(2)
    if at_two < 1:
        # a zero value is the zero polynomial: the moduli space is empty
        raise shape_error(at_two if at_two == 0 else f"{at_two} at q = 2")
    base = at_two + 1
    digits = []
    rest = moduli_count(base)
    while rest > 0 and len(digits) <= degree:
        rest, digit = divmod(rest, base)
        digits.append(digit)
    if rest or len(digits) != degree + 1 or digits != digits[::-1]:
        raise shape_error(f"base-{base} digits {digits}")
    poly = QPoly(digits)
    if poly(3) != moduli_count(3):
        raise ConventionError(
            f"moduli polynomial for {tuple(dv)} disagrees with the "
            "recursion at q = 3")
    return poly


# ---------------------------------------------------------------------------
# Finite-field brute force

#: largest m e f enumerated; the slowest shape the guards accept, N(2; 9, 1)
#: at p = 3 and its transpose, takes about 0.25 s and 42.5 MB in one process
#: (2-vCPU VM, Python 3.11.7; BENCH_39.json, oracle_peak).  Its moduli
#: space has dimension -63 and it counts 0: it stays accepted, so the
#: oracle confirms an emptiness that kronecker_poincare refuses up front
MAX_BRUTE_FORCE_EXPONENT = 20

#: widest preimage bitmask, one bit per vector of the larger space; with
#: two or more arrows the other guards keep masks below 2 * 10^4 bits
MAX_PREIMAGE_MASK_BITS = 1 << 16


def brute_force_kronecker_count(m: int, dv: "DimVector | tuple[int, int]",
                                p: int) -> int:
    """Point count of the Kronecker moduli space over F_p by enumeration.

    Counts m-tuples of f x e matrices with no destabilizing subspace pair
    and takes the quotient by the free (GL_e x GL_f)/scalars action.  The
    enumeration fixes the first matrix to one rank normal form per rank
    and weights each by the number of matrices of that rank, which leaves
    the count unchanged and removes a factor p^{e f} from the search
    space.  Each tuple gets its own verdict from precomputed preimage
    masks, as one bit of a Python-int bitset, in _fieldcount, which is
    loaded only here, after the guards.  Completely independent of the
    recursion: only linear algebra over F_p enters, the rank weights come
    from their closed product, and _fieldcount imports nothing from the
    package.
    """
    e, f = _coprime_shape(m, dv)
    _require_ints(p)
    if m * e * f > MAX_BRUTE_FORCE_EXPONENT:
        raise DomainError(
            f"enumeration of p^{m * e * f} tuples is infeasible "
            f"(limit p^{MAX_BRUTE_FORCE_EXPONENT})")
    if p ** (m * e * f) > 400_000_000:
        raise DomainError(
            f"enumeration of {p}^{m * e * f} tuples is infeasible")
    if min(e, f) > 3:
        raise DomainError("brute force supports min(e, f) <= 3")
    if p ** max(e, f) > MAX_PREIMAGE_MASK_BITS:
        raise DomainError(
            f"preimage bitmasks over {p}^{max(e, f)} vectors are infeasible "
            f"(limit {MAX_PREIMAGE_MASK_BITS} bits)")
    # last: the guards above leave p <= 2^16, so the trial division is short
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"{p} is not a prime")
    from ._fieldcount import stable_tuples
    stable = stable_tuples(m, e, f, p)
    group_order = _gl_order(e, p) * _gl_order(f, p)
    numerator = stable * (p - 1)
    if numerator % group_order != 0:
        raise ConventionError(
            "stable tuple count is not divisible by the group order; "
            "the stability test is inconsistent")
    return numerator // group_order


# ---------------------------------------------------------------------------
# Wall-crossing assembly

class SpaceDescriptor(_Value):
    """Marker base class for the space algebra below."""

    __slots__ = ()


class Projective(SpaceDescriptor):
    __slots__ = ("n",)


class Grassmannian(SpaceDescriptor):
    __slots__ = ("k", "n")


class Hilb(SpaceDescriptor):
    __slots__ = ("n",)


class HilbModel(SpaceDescriptor):
    __slots__ = ("n", "k")


class KroneckerModuli(SpaceDescriptor):
    __slots__ = ("m", "e", "f")


class Bundle(SpaceDescriptor):
    """A product, or a fiber bundle with rational fiber: polynomials multiply."""

    __slots__ = ("fiber", "base")


def space_poincare(sd: SpaceDescriptor) -> QPoly:
    """Poincare polynomial of a described space."""
    match sd:
        case Projective(n):
            return projective_poincare(n)
        case Grassmannian(k, n):
            return grassmannian_poincare(k, n)
        case Hilb(n):
            return hilb_poincare(n)
        case HilbModel(n, k):
            return hilb_model_poincare(n, k)
        case KroneckerModuli(m, e, f):
            return kronecker_poincare(m, (e, f))
        case Bundle(fiber, base):
            return space_poincare(fiber) * space_poincare(base)
        case _:
            raise DomainError(f"unsupported space descriptor {sd!r}")


class WallRecord(_Value):
    """An actual wall: its destabilizer and the base of the flipped locus."""

    __slots__ = ("label", "destabilizer", "base")


def ext_dims_at_wall(d: int, destab: ChernP2) -> tuple[int, int]:
    """Fiber dimensions (a, b) of the two exceptional projective bundles.

    With Q the quotient class moduli - destabilizer, a = -chi(Q, destab)
    and b = -chi(destab, Q).  Exactly one Ext group is assumed to survive,
    so both pairings must come out negative; a nonnegative value raises
    ConventionError instead of being silently flipped.
    """
    return _ext_dims(ktheory.moduli(d), destab)


def _ext_dims(whole: ChernP2, destab: ChernP2) -> tuple[int, int]:
    """ext_dims_at_wall for any class `whole`: Q = whole - destab."""
    quotient = whole - destab
    chi_in = euler_hom(quotient, destab)
    chi_out = euler_hom(destab, quotient)
    if chi_in >= 0 or chi_out >= 0:
        raise ConventionError(
            f"expected negative Euler pairings at the wall, got "
            f"chi(Q, destab) = {chi_in}, chi(destab, Q) = {chi_out}")
    if chi_in.denominator != 1 or chi_out.denominator != 1:
        raise ConventionError("Euler pairings at a wall must be integers")
    return int(-chi_in), int(-chi_out)


def wall_contribution(d: int, rec: WallRecord) -> QPoly:
    """Change of the Poincare polynomial when flipping one wall's locus.

    (P(P^{a-1}) - P(P^{b-1})) times the polynomial of the flipped locus's
    base, where a and b are the exceptional fiber dimensions.
    """
    _require_class(WallRecord, rec)
    a, b = ext_dims_at_wall(d, rec.destabilizer)
    return _flip(a - 1, b - 1, space_poincare(rec.base))


def m6_wall_records() -> tuple[WallRecord, ...]:
    """The six flipping walls of the degree-6 moduli space, innermost first."""
    return (
        WallRecord("W1", ChernP2(1, 3, Fraction(-7, 2)), HilbModel(8, 6)),
        WallRecord("W1'", ChernP2(1, 2, -2), Bundle(HilbModel(4, 2), Hilb(2))),
        WallRecord("W2", ChernP2(1, 1, Fraction(-1, 2)),
                   Bundle(HilbModel(5, 2), Projective(2))),
        WallRecord("W3", ChernP2(1, 2, -1),
                   Bundle(HilbModel(3, 1), Projective(2))),
        WallRecord("W4", ChernP2(1, 1, Fraction(1, 2)), HilbModel(4, 1)),
        WallRecord("W5", ChernP2(1, 2, 0), Hilb(2)),
    )


def n6_poincare() -> QPoly:
    """Poincare polynomial of the 3-Kronecker moduli with dimension vector (5, 4)."""
    return kronecker_poincare(3, (5, 4))


def q6_poincare() -> QPoly:
    """Poincare polynomial of the P^17-bundle model over the Kronecker space."""
    return space_poincare(Bundle(Projective(17), KroneckerModuli(3, 5, 4)))


def assemble_m6() -> QPoly:
    """Poincare polynomial of the degree-6 moduli space by wall crossing.

    Starts from the outermost birational model (the projective bundle over
    the Kronecker moduli space) and adds the contribution of each of the
    six flipping walls.
    """
    total = q6_poincare()
    for rec in m6_wall_records():
        total = total + wall_contribution(6, rec)
    return total
