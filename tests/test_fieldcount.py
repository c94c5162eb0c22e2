"""The finite-field oracle against plain enumeration and the recursion.

Its rank weights are checked against enumeration, against the Gaussian
binomial form and against their total, its verdict bitsets against their
padded byte layout, and its module against importing anything from the
package.

Also checks that json, which only --json output needs, and dataclasses,
inspect and numpy, which nothing needs, stay off the import path of the
package, of the text-mode command line and of a full oracle run (beyond
what a bare `pass` loads: Anaconda 3.13.13's site loads inspect), and
that the oracle's own module loads only when the oracle runs.
"""

from itertools import product

import pytest

from planemoduli import _fieldcount, betti
from planemoduli.betti import brute_force_kronecker_count
from planemoduli.errors import DomainError
from importpath import loaded_after, package_modules
from oracles import (_rank_mod_p, kronecker_count_by_enumeration,
                     rank_count_by_grassmannian)

#: (m, e, f, p) with m in {2, 4, 5} and p in {2, 3, 5}, plus three 3-arrow
#: shapes, four 1-arrow shapes (no free matrix) and two with large p; masks
#: over 5^3 or 3^4 source vectors are wider than one 64-bit word, and the
#: 101 free matrices of (2, 1, 1, 101) fall into two groups of equal masks.
#: (1, 16, 1, 2) has the widest accepted masks, 2^16 bits, and (1, 1, 1,
#: 65521) the largest accepted prime: with no free matrix, neither may
#: build a kernel mask per functional on the larger space
SHAPES = [
    (2, 1, 1, 2), (2, 1, 1, 3), (2, 1, 1, 5), (2, 2, 1, 2), (2, 2, 1, 3),
    (2, 1, 2, 5), (2, 3, 1, 3), (2, 2, 3, 2), (2, 3, 2, 3), (2, 1, 0, 5),
    (2, 3, 2, 5), (2, 2, 3, 5),
    (4, 1, 1, 5), (4, 2, 1, 3), (4, 1, 3, 2), (4, 3, 1, 3), (4, 4, 1, 2),
    (5, 1, 1, 3), (5, 2, 1, 2), (5, 2, 1, 5), (5, 1, 2, 3), (5, 3, 1, 2),
    (3, 3, 1, 5), (3, 1, 3, 5), (3, 4, 1, 3),
    (1, 1, 1, 5), (1, 3, 2, 2), (2, 1, 1, 101), (2, 2, 1, 13),
    (1, 16, 1, 2), (1, 1, 1, 65521),
]

#: the plain enumeration visits p^(m e f) tuples; beyond this it is slow
REFERENCE_TUPLES = 5000


@pytest.mark.parametrize("m, e, f, p", SHAPES)
def test_oracle_matches_enumeration_and_recursion(m, e, f, p):
    count = brute_force_kronecker_count(m, (e, f), p)
    if p ** (m * e * f) <= REFERENCE_TUPLES:
        assert count == kronecker_count_by_enumeration(m, e, f, p)
    recursion = (p - 1) * betti._hn_stack_count(m, e, f, p)
    assert count == recursion
    if recursion:
        assert count == betti.kronecker_poincare(m, (e, f))(p)


@pytest.mark.parametrize("e, p", [(1, 2), (3, 2), (2, 3), (4, 3), (3, 5), (1, 101)])
def test_kernel_masks_match_enumeration(e, p):
    # functional psi and vector x are numbers sum_i psi_i p^i and
    # sum_i x_i p^i, and the mask of psi has bit x set when psi . x = 0
    def digits(n):
        return [n // p ** i % p for i in range(e)]

    def kernel(psi, j):
        return sum(1 << x for x in range(p ** j)
                   if sum(a * b for a, b in zip(digits(psi), digits(x))) % p == 0)

    kernels = _fieldcount._kernels(p, set(range(e + 1)))
    for j, masks in kernels.items():
        # 0 and the functionals of j digits whose first nonzero digit is 1
        assert set(masks) == {psi for psi in range(p ** j)
                              if [d for d in digits(psi) if d][:1] in ([], [1])}
        assert all(mask == kernel(psi, j) for psi, mask in masks.items())
    norm = _fieldcount._lines(e, p)
    for psi in range(1, p ** e):
        mask = kernels[e][norm[psi]]
        assert mask == kernel(psi, e)
        for s in range(2, p):
            # every nonzero multiple shares one int, which bounds the memory
            multiple = sum(s * d % p * p ** i for i, d in enumerate(digits(psi)))
            assert kernels[e][norm[multiple]] is mask


@pytest.mark.parametrize("inner", [0, 1, 2, 3])
@pytest.mark.parametrize("m, e, f, p", [(4, 2, 1, 3), (5, 1, 2, 3), (3, 3, 2, 2),
                                        (5, 1, 1, 3), (5, 2, 1, 2)])
def test_enumerated_prefixes_match_the_bitsets(monkeypatch, m, e, f, p, inner):
    # verdict bitsets as wide as `inner` free matrices: the other free
    # matrices are enumerated one prefix at a time; with 3 or 4 matrices
    # per free slot, blocks of depth 2 and 3 join padded bytes
    count = brute_force_kronecker_count(m, (e, f), p)
    monkeypatch.setattr(_fieldcount, "TUPLE_BITS", p ** (e * f * inner))
    assert brute_force_kronecker_count(m, (e, f), p) == count


def recorded_bitsets(monkeypatch) -> list:
    """(preimages, state, depth, bitset) of every bitset the oracle builds."""
    built = []
    bitset = _fieldcount._Preimages.bitset

    def recorded(self, state, depth):
        bits = bitset(self, state, depth)
        built.append((self, state, depth, bits))
        return bits

    monkeypatch.setattr(_fieldcount._Preimages, "bitset", recorded)
    return built


@pytest.mark.parametrize("m, e, f, p", [(5, 1, 1, 3), (5, 2, 1, 2), (3, 2, 1, 5)])
def test_bitsets_follow_the_documented_layout(monkeypatch, m, e, f, p):
    # tuple (t_1, ..., t_k), t_1 the outermost, is bit
    # t_k + 8 ceil(nmat / 8) (t_(k-1) + nmat t_(k-2) + ...), set when the
    # tuple keeps the preimage stable; every other bit is 0
    built = recorded_bitsets(monkeypatch)
    brute_force_kronecker_count(m, (e, f), p)
    nmat = p ** (e * f)
    assert built
    for sub, state, depth, bits in built:
        expected = 0
        for tup in product(range(nmat), repeat=depth):
            preimage = state
            for t in tup:
                preimage &= sub.masks[t]
            if preimage.bit_count() < sub.need:
                place = 0
                for t in tup[:-1]:
                    place = place * nmat + t
                expected |= 1 << tup[-1] + 8 * ((nmat + 7) // 8) * place
        assert bits == expected


def test_bitsets_stay_within_the_padded_width(monkeypatch):
    # (3; 3, 2) at p = 3: bitsets of depth 2 over 729 free matrices, each
    # block of 729 verdicts padded to 92 bytes
    built = recorded_bitsets(monkeypatch)
    assert brute_force_kronecker_count(3, (3, 2), 3) == 1327
    nmat = 3 ** 6
    tuples = int.from_bytes(((1 << nmat) - 1).to_bytes(92, "big") * nmat, "big")
    assert built and {depth for _, _, depth, _ in built} == {2}
    for *_, bits in built:
        assert bits & ~tuples == 0
        assert bits.bit_length() <= 4 * _fieldcount.TUPLE_BITS


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_count_matches_the_grassmannian_form(p):
    for e in range(7):
        for f in range(7):
            for r in range(min(e, f) + 1):
                assert _fieldcount._rank_count(f, e, r, p) == \
                    rank_count_by_grassmannian(f, e, r, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_count_matches_enumeration(p):
    shapes = [(f, e) for e in range(1, 13) for f in range(1, 13)
              if p ** (f * e) <= REFERENCE_TUPLES]
    for f, e in shapes:
        ranks = [0] * (min(e, f) + 1)
        for entries in product(range(p), repeat=f * e):
            ranks[_rank_mod_p([entries[i * e:(i + 1) * e] for i in range(f)], p)] += 1
        assert ranks == [_fieldcount._rank_count(f, e, r, p) for r in range(len(ranks))]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_rank_counts_sum_to_every_matrix(p):
    for e in range(7):
        for f in range(7):
            assert sum(_fieldcount._rank_count(f, e, r, p)
                       for r in range(min(e, f) + 1)) == p ** (f * e)


CLI_BETTI_M6 = """
import contextlib, io
from planemoduli import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["betti", "--space", "M6"]) == 0
"""


# typing is not listed: site can load it before any test code runs
@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect", "json"])
@pytest.mark.parametrize("code", [
    "import planemoduli",
    CLI_BETTI_M6,
    """
    from planemoduli import DomainError, brute_force_kronecker_count
    try:
        brute_force_kronecker_count(3, (4, 3), 2)
    except DomainError:
        pass
    else:
        raise AssertionError("the guard did not fire")
    """,
    """
    from planemoduli import brute_force_kronecker_count
    assert brute_force_kronecker_count(3, (3, 2), 2) == 183
    """,
], ids=["import", "cli-betti-M6", "oracle-guard", "oracle-run"])
def test_stays_off_the_import_path(code, module):
    assert module not in loaded_after(code) - loaded_after("pass")


def test_oracle_loads_lazily():
    # sys.modules only grows: this also covers the bare package import
    assert "planemoduli._fieldcount" not in loaded_after(CLI_BETTI_M6)


def test_oracle_imports_nothing_from_the_package():
    # so no code of the recursion it checks can enter its count
    assert package_modules(loaded_after("import planemoduli._fieldcount")) == {"_fieldcount"}


def test_mask_width_guard():
    # one arrow and a 2^17-vector source space: masks wider than 2^16 bits
    with pytest.raises(DomainError):
        brute_force_kronecker_count(1, (1, 17), 2)
