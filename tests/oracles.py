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
concentric rank-zero walls, the Kronecker polynomials by the
Harder-Narasimhan factorization of the series of all representations in
the quantum torus, peeled one slope ray at a time and interpolated
through Newton's divided differences, instead of Reineke's chain sum
read off as base-B digits, products on (curve) x plane through their
plane and p parts instead of the six coefficients at once, and
intersection degrees through the full product ch(family) * Td * ch(w)
instead of its one p h^2 coefficient.
The Euler characteristics of the moduli spaces M_d come a second way,
as the Gopakumar-Vafa invariants of local P^2 from its mirror's periods.
The two Euler pairings and the Hilbert polynomial come by Riemann-Roch
on the line bundles O, O(1), O(2) that span K(P^2), instead of from
Td * ch, and wall divisors come from the central charge at a point of
the wall by the positivity lemma, instead of from the destabilizer's
orthogonal class.  The truncated exponential and the four test families
are also kept in Fractions, step by step, against the library's integer
numerators.
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
from planemoduli.errors import EmptyWallError
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


def hn_factorization_stack_count(m: int, e: int, f: int, q: int) -> Fraction:
    """Count of the semistable stack with dimension vector (e, f), at q, by
    the Harder-Narasimhan factorization in the quantum torus (Reineke, 2003;
    Kontsevich and Soibelman, 2008).

    x^d o x^d' = q^-<d, d'> x^(d + d'), with the Euler form
    <d, d'> = d_1 d'_1 + d_2 d'_2 - m d_1 d'_2.  The series of all
    representations, E(1, 0) o E(0, 1) with E(1, 0) = sum x^(a, 0) / |GL_a|
    and E(0, 1) likewise, is the product of the semistable series over the
    slope rays a / (a + b), ascending from the left.  So the rays below
    (e, f)'s are peeled off, lowest first, each by its inverse on the left,
    and the stack count is then the coefficient at (e, f).  Every series is
    truncated to the box [0, e] x [0, f].
    """
    box = [(a, b) for a in range(e + 1) for b in range(f + 1)]

    def twist(d, d2):
        return Fraction(q) ** (m * d[0] * d2[1] - d[0] * d2[0] - d[1] * d2[1])

    def product(x: dict, y: dict) -> dict:
        out = dict.fromkeys(box, Fraction(0))
        for d, u in x.items():
            for d2, v in y.items():
                whole = (d[0] + d2[0], d[1] + d2[1])
                if whole in out:
                    out[whole] += u * v * twist(d, d2)
        return out

    def ray_inverse(ray: dict) -> dict:
        # t o r = 1, solved point by point along the ray by growing size
        out = {(0, 0): Fraction(1)}
        for d in sorted(ray, key=sum)[1:]:
            total = Fraction(0)
            for d1, t in out.items():
                rest = (d[0] - d1[0], d[1] - d1[1])
                total += t * ray[rest] * twist(d1, rest)
            out[d] = -total
        return out

    series = product({(a, 0): Fraction(1, _gl_order_by_flags(a, q)) for a in range(e + 1)},
                     {(0, b): Fraction(1, _gl_order_by_flags(b, q)) for b in range(f + 1)})
    for slope in sorted({Fraction(a, a + b) for a, b in box if a + b}):
        ray = {d: c for d, c in series.items()
               if d == (0, 0) or (sum(d) and Fraction(d[0], sum(d)) == slope)}
        if slope == Fraction(e, e + f):
            return ray[e, f]
        series = product(ray_inverse(ray), series)
    raise AssertionError("(e, f) is on no ray of its box")


def _newton_coefficients(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients, lowest first, of the polynomial through the points
    (xs[i], ys[i]): divided differences, then the Newton form by Horner."""
    table = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [table[-1]]
    for i in range(len(xs) - 2, -1, -1):  # coeffs * (x - xs[i]) + table[i]
        coeffs = [table[i] - xs[i] * coeffs[0]] + [
            c - xs[i] * n for c, n in zip(coeffs, coeffs[1:] + [0])]
    return coeffs


def kronecker_poincare_by_factorization(m: int, e: int, f: int) -> QPoly:
    """Poincare polynomial of N(m; e, f) for coprime (e, f), from the moduli
    count (q - 1) hn_factorization_stack_count at q = 2 ... D + 3, with
    D = m e f - e^2 - f^2 + 1, by exact Newton interpolation.

    The one point beyond the D + 1 that the degree needs checks that
    bound; every coefficient must be an integer.  A negative D must give
    the zero polynomial, from its one point q = 2.
    """
    degree = m * e * f - e * e - f * f + 1
    xs = list(range(2, max(degree, -1) + 4))
    coeffs = _newton_coefficients(
        xs, [(q - 1) * hn_factorization_stack_count(m, e, f, q) for q in xs])
    assert all(c.denominator == 1 for c in coeffs), coeffs
    poly = QPoly(int(c) for c in coeffs)
    assert poly.degree is None or poly.degree <= degree, (poly, degree)
    return poly


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


def line_bundle_coordinates(v: ChernP2) -> tuple[int, int, int]:
    """The integers (n0, n1, n2) with v = n0 O + n1 O(1) + n2 O(2) in K(P^2).

    ch O(k) = (1, k, k^2/2), so n2 = e - c/2, n1 = c - 2 n2 and
    n0 = r - n1 - n2; e - c/2 is an integer for every integral class.
    """
    n2 = v.e - Fraction(v.c, 2)
    assert n2.denominator == 1
    n1 = v.c - 2 * n2.numerator
    return v.r - n1 - n2.numerator, n1, n2.numerator


def _chi_by_line_bundles(v: ChernP2, w: ChernP2, sign: int) -> int:
    """sum n_j n'_k chi(O(sign j), O(k)) over the line-bundle coordinates
    of v and w, by Riemann-Roch: chi(O(i), O(k)) = C(k - i + 2, 2)."""
    return sum(a * b * math.comb(k - sign * j + 2, 2)
               for j, a in enumerate(line_bundle_coordinates(v))
               for k, b in enumerate(line_bundle_coordinates(w)))


def euler_hom_by_line_bundles(v: ChernP2, w: ChernP2) -> int:
    """chi(v, w), bilinear in the line bundles O(j) of v and O(k) of w."""
    return _chi_by_line_bundles(v, w, 1)


def euler_product_by_line_bundles(v: ChernP2, w: ChernP2) -> int:
    """The integral of ch(v) ch(w) Td: chi(v dual, w), so O(j) enters as O(-j)."""
    return _chi_by_line_bundles(v, w, -1)


def hilbert_value_by_line_bundles(v: ChernP2, m: int) -> int:
    """chi(v(m)) = sum n_k chi(O(k + m)) = sum n_k C(k + m + 2, 2), for m >= 0."""
    return sum(n * math.comb(k + m + 2, 2) for k, n in enumerate(line_bundle_coordinates(v)))


def bayer_macri_divisor(d: int, center: Fraction, radius_sq: Fraction,
                        offset: Fraction = Fraction(0)) -> DivisorAL:
    """The divisor l_sigma of the positivity lemma (Bayer and Macri, 2014)
    for a wall of the degree-d moduli class v, in the {A, L} basis scaled to
    L coefficient 1; sigma is the wall's point s = center + offset,
    t^2 = radius_sq - offset^2.

    Z(E) = -ch_2^s + (t^2/2) r + i t ch_1^s with ch^s = ch e^(-s h), and
    l_sigma . C = Im(-Z(Phi(O_C)) / Z(v)) for a curve C of sheaves.
    ch Phi(O_C) is the family's p part plus a multiple of v, which adds
    only a real number to the ratio.  The degrees on the pencil P and the
    Jacobian T, each without their common positive factor, give the
    divisor through A.P = 1, L.P = 0, A.T = 0 and L.T = d g.  Only the
    wall is read: no destabilizer, Todd class or Euler pairing.
    """
    s, tt = center + offset, radius_sq - offset * offset
    if tt <= 0:
        raise ValueError(f"offset {offset} leaves the wall")
    a, b, n, m = s.numerator, s.denominator, tt.numerator, tt.denominator

    def charge(r, c, e2):
        """Z(r, c, e) = (t^2 - s^2) r / 2 + s c - e + i t (c - s r), for
        e2 = 2e: its real part times 2 b^2 m and its imaginary part over t
        times b, both integers."""
        return (r * (n * b * b - a * a * m) + 2 * a * b * m * c - b * b * m * e2,
                b * c - a * r)

    x_v, y_v = charge(0, d, 2 - 3 * d)  # v = moduli(d)
    pencil, jacobian = [x * y_v - y * x_v  # 2 b^3 m / t times Im(-Z(b) conj Z(v))
                        for x, y in (charge(*part) for part in _test_curve_p_parts(d))]
    if jacobian <= 0:
        raise ValueError(f"the Jacobian family has degree {jacobian} <= 0 at s = {s}")
    return DivisorAL(Fraction(pencil * d * genus(d), jacobian), 1)


@cache
def _test_curve_p_parts(d: int) -> tuple[tuple[int, int, int], ...]:
    """The p parts (r, c, 2e) of the pencil's and the Jacobian's Chern characters."""
    parts = (p_part(family_class_by_fractions(kind, d).chern) for kind in ("pencil", "jacobian"))
    return tuple((int(b.c0), int(b.c1), int(2 * b.c2)) for b in parts)


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
