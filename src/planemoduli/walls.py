"""Bridgeland potential walls as semicircles in the stability half-plane.

A wall is stored by its center x-coordinate and its *squared* radius, both
exact rationals: printed radii like sqrt(46)/3 are irrational, their
squares are not, and every comparison this module makes is a comparison of
squares.  Chamber location works by taking the top point (center, radius)
of a wall and counting the reference walls that strictly enclose it, an
exact squared-distance test.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterator
from fractions import Fraction

from . import ktheory
from .divisors import first_wall_destabilizer
from .errors import AmbiguousChamberError, DomainError, EmptyWallError, NoWallError
from .exactmath import Scalar, _frac, _require_class, _require_ints, _Value
from .ktheory import ChernP2


#: largest degree enumerated: d = 200 has 176,452 candidates (they grow like d^3),
#: 0.24-0.46 s in-process; a cold `walls --degree 200` takes 0.45-0.90 s, 0.31-0.56 s
#: with --json, at 15.7 MB peak RSS (9 runs, 2-vCPU VM, Python 3.11.7; BENCH_30.json)
MAX_WALL_DEGREE = 200

#: Fraction and its slot setters, bound at import, out of reach of a patched walls.Fraction
_FRACTION_SLOTS = (Fraction, Fraction._numerator.__set__, Fraction._denominator.__set__)


class Wall(_Value):
    """A semicircular wall: center (x, 0), squared radius radius_sq > 0."""

    __slots__ = ("center", "radius_sq")

    def __init__(self, center: Scalar, radius_sq: Scalar):
        rsq = _frac(radius_sq)
        if rsq <= 0:
            raise EmptyWallError(f"squared radius must be positive, got {rsq}")
        super().__init__(_frac(center), rsq)

    def twisted(self, n: int) -> "Wall":
        return Wall(self.center + n, self.radius_sq)

    def dualized(self) -> "Wall":
        return Wall(-self.center, self.radius_sq)

    def encloses(self, other: "Wall") -> bool:
        """Whether the top point of `other` lies strictly inside this semicircle."""
        gap = (other.center - self.center) ** 2 + other.radius_sq
        if gap == self.radius_sq:
            raise AmbiguousChamberError(f"top point of {other} lies exactly on {self}")
        return gap < self.radius_sq

    def __str__(self) -> str:
        return f"wall(center={self.center}, radius_sq={self.radius_sq})"


class ReferenceWallSystem(_Value):
    """The reference walls (a tuple of Wall) of one Hilbert scheme, outermost first."""

    __slots__ = ("label", "walls")

    def twisted(self, n: int) -> "ReferenceWallSystem":
        return ReferenceWallSystem(
            f"{self.label}+{n}" if n >= 0 else f"{self.label}{n}",
            tuple(w.twisted(n) for w in self.walls))

    def dualized(self) -> "ReferenceWallSystem":
        return ReferenceWallSystem(f"{self.label}^",
                                   tuple(w.dualized() for w in self.walls))


def wall_between(v: ChernP2, w: ChernP2) -> Wall:
    """The potential wall where the classes v and w have equal phase.

    With (r, c, e) the components, the semicircle has
    center x = (r e' - r' e) / (r c' - r' c) and squared radius
    x^2 - 2 (c e' - c' e) / (r c' - r' c).
    """
    _require_class(ChernP2, v, w)
    denom = Fraction(v.r * w.c - w.r * v.c)
    if denom == 0:
        raise NoWallError(f"classes {v} and {w} span no semicircular wall")
    x = (v.r * w.e - w.r * v.e) / denom
    radius_sq = x * x - 2 * (v.c * w.e - w.c * v.e) / denom
    if radius_sq <= 0:
        raise EmptyWallError(
            f"classes {v} and {w} give an empty wall (radius_sq = {radius_sq})")
    return Wall(x, radius_sq)


def _wall_runs(d: int) -> tuple[Fraction, list[tuple[int, ...]]]:
    """x0 and the runs (c, n_min, n_max, num, step, den, q, r), by r.

    Candidate I_Z(c) = (1, c, c^2/2 - n) has the key 2 s n - t^2 = -s r^2, for
    s = 4 d^2 and t = 2 d (x0 - c), so r^2 = (num - step n)/den in lowest terms:
    g = gcd(t^2, s) is gcd(key, s), num = t^2/g, step = 2s/g, den = s/g.  The
    code key * w + c, w = d // 2 + 1, ascends as r^2 descends; it steps by
    S = 2 s w along one c, so it is (n + q) S + r, (q, r) = divmod(c - t^2 w, S)."""
    if not 3 <= d <= MAX_WALL_DEGREE:
        raise DomainError("potential wall enumeration " + (
            "needs degree >= 3" if d < 3 else f"is limited to degree <= {MAX_WALL_DEGREE}"))
    v = ktheory.moduli(d)  # rank 0: one center for every candidate
    collapsing = wall_between(v, ktheory.line_bundle(0))
    x0, s, w = collapsing.center, 4 * d * d, d // 2 + 1
    s_lo, s_hi = (s * collapsing.radius_sq,
                  s * wall_between(v, first_wall_destabilizer(d)).radius_sq)
    runs = []
    for c in range(w):
        tt = int(2 * d * (x0 - c)) ** 2
        n_min = max(0, math.ceil((tt - s_hi) / (2 * s)))
        n_max = math.floor((tt - s_lo) / (2 * s))
        if n_min <= n_max:
            g = math.gcd(tt, s)
            runs.append((c, n_min, n_max, tt // g, 2 * s // g, s // g,
                         *divmod(c - tt * w, 2 * s * w)))
    runs.sort(key=lambda run: run[7])
    return x0, runs


def _candidates(runs: list[tuple[int, ...]]) -> Iterator[tuple[int, int, int, int]]:
    """Rows (num, den, c, c^2 - 2n = 2 ch_2) by ascending code: by band n + q, then r."""
    edges = sorted({e for _, lo, hi, _, _, _, q, _ in runs for e in (lo + q, hi + q + 1)})
    for b0, b1 in zip(edges, edges[1:]):  # a run holds all or none of b0..b1 - 1
        band = [(c, q, *row) for c, lo, hi, *row, q, _ in runs if lo + q <= b0 <= hi + q]
        for b in range(b0, b1):
            for c, q, num, step, den in band:
                n = b - q
                yield num - step * n, den, c, c * c - 2 * n


def enumerate_potential_walls(d: int) -> list[tuple[ChernP2, Wall]]:
    """All rank-one destabilizer candidates between the collapsing and first walls.

    The candidates are I_Z(c) = (1, c, c^2/2 - n) with 0 <= c <= d/2 and
    n >= 0.  The moduli class has rank 0, so their walls share the center
    x0 = ch_2/d and have r^2 = (x0 - c)^2 - 2n.  Kept if r^2 lies between
    the collapsing wall (against O) and the first wall, inclusive; sorted
    by descending r^2, so candidates sharing a wall are adjacent.  Potential
    walls only: whether one is actual is curated data, not a numeric test.
    """
    x0, runs = _wall_runs(d)
    # built unchecked, valid by construction: n >= 0, ch_2 = (c^2 - 2n)/2 makes
    # c_2 integral, every key is negative, so radius_sq > 0; the few distinct
    # ch_2 are shared.  Fields are stored as _Value._make would, without its frame.
    new = object.__new__
    set_r, set_c, set_e = ChernP2._setters
    set_center, set_radius_sq = Wall._setters
    fraction, set_numerator, set_denominator = _FRACTION_SLOTS
    ch2: dict[int, Fraction] = {}
    found = [None] * sum(hi - lo + 1 for _, lo, hi, *_ in runs)
    # The collector is paused while the list fills: the loop makes no cycles and
    # keeps every object it makes, so a collection would only rescan the list.
    paused = gc.isenabled()
    gc.disable()
    try:
        for i, (num, den, c, m) in enumerate(_candidates(runs)):
            e = ch2.get(m)
            if e is None:
                e = ch2[m] = Fraction(m, 2)
            cand = new(ChernP2)
            set_r(cand, 1)
            set_c(cand, c)
            set_e(cand, e)
            rsq = new(fraction)
            set_numerator(rsq, num)
            set_denominator(rsq, den)
            wall = new(Wall)
            set_center(wall, x0)
            set_radius_sq(wall, rsq)
            found[i] = cand, wall
    finally:
        if paused:
            gc.enable()
    return found


def transform_walls(ws: ReferenceWallSystem, op: str, n: int = 0) -> ReferenceWallSystem:
    """Apply "twist" (centers shift by n) or "dual" (centers negate) to a system."""
    _require_class(ReferenceWallSystem, ws)
    _require_ints(n)
    if op == "twist":
        return ws.twisted(n)
    if op == "dual":
        return ws.dualized()
    raise DomainError(f"unknown wall transform {op!r}; expected 'twist' or 'dual'")


def locate_model(wall: Wall, refs: ReferenceWallSystem) -> int:
    """Index of the birational model whose chamber contains the wall's top point.

    Counts the reference walls strictly enclosing (center, radius); raises
    AmbiguousChamberError if the top point lies exactly on a reference wall.
    """
    _require_class(Wall, wall)
    _require_class(ReferenceWallSystem, refs)
    return sum(1 for ref in refs.walls if ref.encloses(wall))


#: (k, w) of each actual wall's destabilizer O(-k) (x) I_W of Hilb^n, outermost first
_ABCH_DESTABILIZERS = {4: ((1, 0), (1, 1), (2, 0)),
                       8: ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0))}


def abch_reference_walls(n: int) -> ReferenceWallSystem:
    """The actual walls of Hilb^n, outermost first, as Arcara, Bertram, Coskun and
    Huizenga (2013) tabulate them for n = 4 and 8: the walls of I_Z = (1, 0, -n)
    against O(-k) (x) I_W, W of w points, so a center x has radius_sq x^2 - 2n.
    Their n = 8 table lists the wall of (1, 0) twice; it is stored once."""
    if n not in _ABCH_DESTABILIZERS:
        raise DomainError(f"no tabulated reference walls for Hilb^{n}")
    return ReferenceWallSystem(f"hilb{n}", tuple(
        wall_between(ktheory.ideal_twisted(n, 0), ktheory.ideal_twisted(w, -k))
        for k, w in _ABCH_DESTABILIZERS[n]))
