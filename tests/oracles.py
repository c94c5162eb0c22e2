"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a route disjoint from the library
implementation it checks: the Gaussian binomial by the q-Pascal rows and
by its product formula expanded in polynomials instead of the product
taken as running sums over one coefficient list, Hilbert-scheme Betti
numbers by counting torus-fixed-point cells instead of expanding the
generating function, Kronecker moduli point counts by plain enumeration
with row reduction instead of normal forms and preimage bitmasks, the
number of matrices of one rank through the Gaussian binomial instead of
its closed product, potential walls by stepping through candidates one
wall_between call at a time instead of the closed-form ranges of the
concentric rank-zero walls, the Harder-Narasimhan stack count by its
chain sum in Fractions, through the quiver's Euler form and group orders
counted by flags, instead of integers scaled by the group orders,
products on (curve) x plane through their plane and p parts instead of
the six coefficients at once, and intersection degrees through the full
product ch(family) * Td * ch(w) instead of its one p h^2 coefficient.
The Euler characteristics of the moduli spaces M_d come a second way,
as the Gopakumar-Vafa invariants of local P^2 from its mirror's periods.
Td * ch, the two Euler pairings, the orthogonal wall class, its divisor,
the truncated exponential and the four test families are also kept in
Fractions, step by step, against the library's integer numerators.
rand_chern draws the random Chern characters that several test modules
share.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product

from planemoduli import ktheory
from planemoduli.chow import ChowCurveP2, ChowP2, coeff, todd_relative
from planemoduli.divisors import (DivisorAL, FamilyClass, first_wall_destabilizer,
                                  genus)
from planemoduli.errors import DomainError, EmptyWallError
from planemoduli.exactmath import QPoly, grassmannian_poincare
from planemoduli.ktheory import ChernP2
from planemoduli.walls import Wall, wall_between


def gaussian_binomial_product(k: int, n: int) -> QPoly:
    """[n choose k]_q by expanding prod (q^{n-k+i} - 1) / (q^i - 1)."""
    num = QPoly.one()
    den = QPoly.one()
    for i in range(1, k + 1):
        num = num * (QPoly.one().shifted(n - k + i) - QPoly.one())
        den = den * (QPoly.one().shifted(i) - QPoly.one())
    return num.exact_div(den)


def gaussian_binomial_pascal(k: int, n: int) -> QPoly:
    """[n choose k]_q by the q-Pascal rows [r j] = [r-1 j-1] + q^j [r-1 j].

    One row at a time over the columns j <= min(k, n - k).  The
    coefficients of [r j] are nonnegative and sum to C(r, j) <= C(n, k), so
    each polynomial is carried as its value at q = 256^width and its
    coefficients are read back as base-q digits.
    """
    k = min(k, n - k)
    width = (math.comb(n, k).bit_length() + 7) // 8
    row = [1] + [0] * k
    for r in range(1, n + 1):
        for j in range(min(k, r), 0, -1):
            row[j] = row[j - 1] + (row[j] << (8 * width * j))
    data = row[k].to_bytes(width * (k * (n - k) + 1), "little")
    return QPoly([int.from_bytes(data[i:i + width], "little")
                  for i in range(0, len(data), width)])


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


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of a list of vectors, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inverse % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _subspace_bases(n: int, p: int) -> list[list[tuple[int, ...]]]:
    """A basis of every nonzero subspace of F_p^n, each subspace once.

    Spans of all nonempty vector sets of size <= n, deduplicated by their
    full sets of elements.
    """
    vectors = list(product(range(p), repeat=n))
    seen: dict[frozenset, list[tuple[int, ...]]] = {}
    frontier = [[]]
    for _ in range(n):
        grown = []
        for basis in frontier:
            for v in vectors:
                if _rank_mod_p(basis + [v], p) == len(basis) + 1:
                    span = frozenset(
                        tuple(sum(c * b[i] for c, b in zip(coeffs, basis + [v])) % p
                              for i in range(n))
                        for coeffs in product(range(p), repeat=len(basis) + 1))
                    if span not in seen:
                        seen[span] = basis + [v]
                        grown.append(basis + [v])
        frontier = grown
    return list(seen.values())


def _gl_order_by_flags(n: int, q: int) -> int:
    """Order of GL_n over the field with q elements, as the number of
    complete flags times that of their stabilizer, the invertible upper
    triangular matrices: q^(n (n - 1) / 2) prod_{1 <= i <= n} (q^i - 1)."""
    return q ** (n * (n - 1) // 2) * math.prod(q ** i - 1 for i in range(1, n + 1))


def rank_count_by_grassmannian(f: int, e: int, r: int, p: int) -> int:
    """Number of f x e matrices over F_p of rank r, as [e r]_p choices of a
    row space times prod_{i<r} (p^f - p^i) injective maps onto it."""
    out = grassmannian_poincare(r, e)(p)
    for i in range(r):
        out *= p ** f - p ** i
    return out


def kronecker_count_by_enumeration(m: int, e: int, f: int, p: int) -> int:
    """Point count of the m-Kronecker moduli space over F_p, tuple by tuple.

    Runs over all p^{m e f} tuples of f x e matrices.  A tuple is unstable
    when some nonzero subspace E' of F_p^e, of dimension k, has images
    spanning a subspace of dimension s with s e < k f; the count of stable
    tuples times p - 1 is divided by |GL_e| |GL_f|.
    """
    subspaces = _subspace_bases(e, p)
    entries = list(product(range(p), repeat=f * e))
    matrices = [[row[i * e:(i + 1) * e] for i in range(f)] for row in entries]

    def image(a, v):
        return [sum(x * y for x, y in zip(row, v)) % p for row in a]

    stable = 0
    for tup in product(matrices, repeat=m):
        if all(_rank_mod_p([image(a, v) for a in tup for v in basis], p) * e
               >= len(basis) * f for basis in subspaces):
            stable += 1
    order = _gl_order_by_flags(e, p) * _gl_order_by_flags(f, p)
    numerator = stable * (p - 1)
    assert numerator % order == 0
    return numerator // order


def _quiver_euler(m: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Euler form of the m-Kronecker quiver: <(e, f), (e', f')> = e e' + f f' - m e f'."""
    return a[0] * b[0] + a[1] * b[1] - m * a[0] * b[1]


def hn_stack_count_by_fractions(m: int, e: int, f: int, q: int) -> Fraction:
    """Count of the semistable stack with dimension vector (e, f), at q.

    Reineke's chain sum with every chain value a Fraction: each step
    y -> x multiplies by A(x - y) q^-<x - y, y>, where
    A(a, b) = q^{m a b} / (ord(a) ord(b)) counts all representations.
    """
    count = {(a, b): Fraction(q ** (m * a * b),
                              _gl_order_by_flags(a, q) * _gl_order_by_flags(b, q))
             for a in range(e + 1) for b in range(f + 1)}
    # slope a / (a + b) above e / (e + f) means a f > b e
    points = sorted((x for x in count if x[0] * f > x[1] * e), key=sum)
    chains = {(0, 0): Fraction(-1)}
    for a, b in points + [(e, f)]:
        total = Fraction(0)
        for y, value in chains.items():
            if y[0] <= a and y[1] <= b:
                step = (a - y[0], b - y[1])
                total += value * count[step] / Fraction(q) ** _quiver_euler(m, step, y)
        chains[(a, b)] = -total
    return chains[(e, f)]


def potential_walls_by_search(d: int) -> list[tuple[ChernP2, Wall]]:
    """Rank-one candidates between the collapsing and first walls, by search.

    For each c it steps e down from c^2/2, builds every candidate and its
    wall, and stops at an empty wall or one inside the collapsing wall.
    """
    v = ktheory.moduli(d)
    lo = wall_between(v, ktheory.line_bundle(0)).radius_sq
    hi = wall_between(v, first_wall_destabilizer(d)).radius_sq
    found: list[tuple[ChernP2, Wall]] = []
    for c in range(d // 2 + 1):
        e = Fraction(c * c, 2)
        while True:
            cand = ChernP2(1, c, e)
            try:
                wall = wall_between(v, cand)
            except EmptyWallError:
                break
            if wall.radius_sq < lo:
                break
            if wall.radius_sq <= hi:
                found.append((cand, wall))
            e -= 1
    found.sort(key=lambda cw: (-cw[1].radius_sq, cw[0].c, -cw[0].e))
    return found


def plane_part(x: ChowCurveP2) -> ChowP2:
    """A of the class x = A + pB, with A and B plane classes."""
    return ChowP2(x.a1, x.ah, x.ah2)


def p_part(x: ChowCurveP2) -> ChowP2:
    """B of the class x = A + pB, with A and B plane classes."""
    return ChowP2(x.ap, x.aph, x.aph2)


def from_parts(plane: ChowP2, p: ChowP2) -> ChowCurveP2:
    """The class A + pB from its plane classes A and B."""
    return ChowCurveP2(plane.c0, plane.c1, plane.c2, p.c0, p.c1, p.c2)


def chow_product_by_parts(x: ChowCurveP2, y: ChowCurveP2 | int | Fraction) -> ChowCurveP2:
    """x * y as (A + pB)(A' + pB') = AA' + p(AB' + BA'), with plane classes A, B."""
    a, b = plane_part(x), p_part(x)
    if isinstance(y, (int, Fraction)):
        return from_parts(a * y, b * y)
    a2, b2 = plane_part(y), p_part(y)
    return from_parts(a * a2, a * b2 + b * a2)


def intersection_degree_by_full_product(fam: FamilyClass, w: ChernP2) -> Fraction:
    """The coefficient of p h^2 in the whole product ch(family) * Td * ch(w)."""
    pullback = ChowCurveP2(w.r, w.c, w.e, 0, 0, 0)  # r + c h + e h^2, no p part
    total = chow_product_by_parts(chow_product_by_parts(fam.chern, todd_relative()),
                                  pullback)
    return coeff(total, "ph2")


def rand_chern(rng) -> ChernP2:
    """A random Chern character with |r| <= 3 and |c| <= 5, integral 2 ch_2."""
    r = rng.randint(-3, 3)
    c = rng.randint(-5, 5)
    return ChernP2(r, c, Fraction(c * c, 2) + rng.randint(-6, 6))


def td_ch_by_fractions(v: ChernP2) -> tuple[int, Fraction, Fraction]:
    """Coefficients of 1, h, h^2 in Td * ch(v) = (r, c + 3r/2, e + 3c/2 + r)."""
    return v.r, v.c + Fraction(3 * v.r, 2), v.e + Fraction(3 * v.c, 2) + v.r


def euler_product_by_fractions(v: ChernP2, w: ChernP2) -> Fraction:
    """The integral of ch(v) ch(w) Td, in Fractions."""
    r, c, e = td_ch_by_fractions(w)
    return v.r * e + v.c * c + v.e * r


def euler_hom_by_fractions(v: ChernP2, w: ChernP2) -> Fraction:
    """chi(v, w) = the integral of ch(dual v) ch(w) Td, in Fractions."""
    r, c, e = td_ch_by_fractions(w)
    return v.r * e - v.c * c + v.e * r


def orthogonal_wall_class_by_fractions(v: ChernP2, vprime: ChernP2) -> ChernP2:
    """w = (r, 1, e) orthogonal to v and vprime, by Cramer's rule in Fractions."""
    (m00, m01, b0), (m10, m11, b1) = [
        (t2, t0, -t1) for t0, t1, t2 in map(td_ch_by_fractions, (v, vprime))]
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise DomainError("orthogonality system is rank deficient "
                          "(proportional input classes)")
    r_w = (b0 * m11 - b1 * m01) / det
    e_w = (m00 * b1 - m10 * b0) / det
    if r_w.denominator != 1:
        raise DomainError(f"orthogonal class has non-integer rank {r_w}")
    return ChernP2(int(r_w), 1, e_w)


def wall_divisor_by_fractions(d: int, vprime: ChernP2) -> DivisorAL:
    """The wall divisor as alpha*A-part + beta*L-part of w = alpha*point + beta*theta."""
    v = ktheory.moduli(d)
    w = orthogonal_wall_class_by_fractions(v, vprime)
    assert euler_product_by_fractions(w, v) == 0
    beta = Fraction(w.c)
    alpha = w.e + beta / 2
    assert w.r == -d * beta
    return DivisorAL(alpha + beta * (1 - d), beta)


def exp_class_by_fractions(alpha: int | Fraction, beta: int | Fraction) -> ChowCurveP2:
    """(1 + alpha p) (1 + beta h + beta^2/2 h^2), each coefficient a Fraction product."""
    a, b = Fraction(alpha), Fraction(beta)
    half_b2 = b * b / 2
    return ChowCurveP2(1, b, half_b2, a, a * b, a * half_b2)


def family_class_by_fractions(kind: str, d: int) -> FamilyClass:
    """The four test families, from the closed forms of the family_class docstring."""
    g = genus(d)
    exp = exp_class_by_fractions

    def h2(x):
        return ChowCurveP2(0, 0, x, 0, 0, 0)

    if kind == "pencil":
        cls = exp(1, 0) - exp(0, -d) + h2(g)
    elif kind == "jacobian":
        cls = ChowCurveP2(0, d, g - Fraction(d * d, 2), 0, d, 1 - g - Fraction(3 * d, 2))
    elif kind == "even_wall":
        cls = exp(0, Fraction(d - 2, 2)) - exp(-1, Fraction(-d - 2, 2)) - h2(Fraction(d - 2, 2))
    else:
        cls = exp(1, Fraction(d - 3, 2)) - exp(0, Fraction(-d - 3, 2)) + h2(1)
    return FamilyClass(chern=cls, label=kind, degree_d=d)


def _series_mul(a: list, b: list) -> list:
    """The product of two power series given to the same order, at that order."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _series_inverse(a: list) -> list:
    """1 / a, for a power series with a nonzero constant term."""
    out = [1 / Fraction(a[0])]
    for n in range(1, len(a)):
        out.append(-sum(a[i] * out[n - i] for i in range(1, n + 1)) / a[0])
    return out


def _series_exp(a: list) -> list:
    """exp(a) for a[0] = 0, from n e_n = sum k a_k e_(n-k), the coefficients of e' = a' e."""
    out = [Fraction(1)]
    for n in range(1, len(a)):
        out.append(sum(k * a[k] * out[n - k] for k in range(1, n + 1)) / n)
    return out


def _series_compose(f: list, g: list) -> list:
    """f(g) for g[0] = 0, by Horner's rule in series."""
    out = [Fraction(0)] * len(g)
    for c in reversed(f):
        out = _series_mul(out, g)
        out[0] += c
    return out


def gopakumar_vafa(order: int, z_sign: int = -1,
                   yukawa: Fraction = Fraction(-1, 3)) -> list[Fraction]:
    """Genus-0 Gopakumar-Vafa invariants n_1..n_order of local P^2 by local
    mirror symmetry (Chiang, Klemm, Yau and Zaslow, 1999), in exact series.

    With x = z_sign z (z_sign = -1 is the true mirror), the period is
    theta T = 1 + sum (3n)!/(n!)^3 x^n, theta = z d/dz, and the mirror map
    is Q = z exp(3 sum (3n - 1)!/(n!)^3 x^n), inverted as a series.  The
    Yukawa coupling yukawa / ((1 - 27 x) (theta T)^3), re-expanded in Q, is
    yukawa + sum d^3 N_d Q^d, and N_d = sum over k | d of n_(d/k) / k^3.
    |n_d| is the Euler characteristic of the degree-d moduli space M_d; no
    wall, quiver or Hilbert scheme enters.  The values stay Fractions, so
    a slipped convention shows as a wrong or a non-integer n_d.
    """
    def period(n: int, k: int) -> Fraction:
        return Fraction(math.factorial(3 * n - k), math.factorial(n) ** 3) * z_sign ** n

    theta_t = [Fraction(1)] + [period(n, 0) for n in range(1, order + 1)]
    z_over_q = _series_inverse(_series_exp([0] + [3 * period(n, 1)
                                                  for n in range(1, order + 1)]))
    z_of_q = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for _ in range(order):  # z = Q (z / Q)(z), one more order per pass
        z_of_q = [Fraction(0)] + _series_compose(z_over_q, z_of_q)[:order]
    discriminant = [Fraction(1), Fraction(-27 * z_sign)] + [Fraction(0)] * (order - 1)
    cubed = _series_mul(theta_t, _series_mul(theta_t, theta_t))
    coupling = [yukawa * c for c in _series_inverse(_series_mul(discriminant, cubed))]
    in_q = _series_compose(coupling, z_of_q)
    n: dict[int, Fraction] = {}
    for d in range(1, order + 1):
        covers = sum(k ** 3 * n[k] for k in range(1, d) if d % k == 0)
        n[d] = (in_q[d] - covers) / d ** 3
    return [n[d] for d in range(1, order + 1)]


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
