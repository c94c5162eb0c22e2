"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a route disjoint from the library
implementation it checks: the Gaussian binomial by its product formula
instead of the Pascal recurrence, Hilbert-scheme Betti numbers by counting
torus-fixed-point cells instead of expanding the generating function.
"""

from fractions import Fraction
from functools import cache

from planemoduli.exactmath import QPoly


def gaussian_binomial_product(k: int, n: int) -> QPoly:
    """[n choose k]_q by expanding prod (q^{n-k+i} - 1) / (q^i - 1)."""
    num = QPoly.one()
    den = QPoly.one()
    for i in range(1, k + 1):
        num = num * (QPoly.monomial(n - k + i) - QPoly.one())
        den = den * (QPoly.monomial(i) - QPoly.one())
    return num.exact_div(den)


@cache
def partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def hilb_fixed_point_poincare(n: int) -> QPoly:
    """Betti numbers of the Hilbert scheme of n plane points by cell counting.

    Torus-fixed points are triples of partitions, one per fixed point of
    the plane, with total size n; the cell of (a, b, c) has dimension
    |a| - len(a) + |b| + |c| + len(c).
    """
    coeffs = [0] * (2 * n + 1)
    for na in range(n + 1):
        for nb in range(n - na + 1):
            nc = n - na - nb
            for a in partitions(na):
                for b in partitions(nb):
                    for c in partitions(nc):
                        dim = (na - len(a)) + nb + (nc + len(c))
                        coeffs[dim] += 1
    return QPoly(coeffs)


def partition_triple_count(n: int) -> int:
    """Number of triples of partitions with total size n (an Euler characteristic)."""
    total = 0
    for na in range(n + 1):
        for nb in range(n - na + 1):
            total += (len(partitions(na)) * len(partitions(nb))
                      * len(partitions(n - na - nb)))
    return total


# Printed 21-coefficient polynomial of the 3-Kronecker moduli N(3; 5, 4).
N6_COEFFICIENTS = (1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30,
                   23, 14, 10, 5, 3, 1, 1)

# Printed degree-20 palindromic factor of the degree-6 moduli space; the
# full polynomial is this factor times 1 + q + ... + q^17.
M6_FACTOR_COEFFICIENTS = (1, 1, 4, 7, 16, 25, 47, 68, 104, 128, 146, 128,
                          104, 68, 47, 25, 16, 7, 4, 1, 1)

# The seven tabulated actual walls at degree 6, outermost first:
# (destabilizer (r, c, e), squared radius, divisor coefficient of A).
# The divisor is a*A + L except for the collapsing wall, which gives L.
M6_TABLE = (
    ((1, 2, Fraction(0)), Fraction(64, 9), 16),
    ((1, 1, Fraction(1, 2)), Fraction(49, 9), 11),
    ((1, 2, Fraction(-1)), Fraction(46, 9), 10),
    ((1, 1, Fraction(-1, 2)), Fraction(31, 9), 5),
    ((1, 2, Fraction(-2)), Fraction(28, 9), 4),
    ((1, 3, Fraction(-7, 2)), Fraction(25, 9), 3),
    ((1, 0, Fraction(0)), Fraction(16, 9), 0),
)

# Exceptional projective-bundle fiber dimensions (a, b) at the six
# flipping walls, in the same outermost-first order as M6_TABLE.
M6_EXT_DIMS = ((26, 8), (24, 6), (24, 6), (22, 4), (22, 4), (20, 2))
