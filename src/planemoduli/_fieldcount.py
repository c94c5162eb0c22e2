"""Finite-field kernel of the brute-force Kronecker point count.

Counts the m-tuples of f x e matrices over F_p that have no destabilizing
subrepresentation.  A tuple (A_1, ..., A_m) is destabilized exactly when
some proper subspace W of F_p^f (the zero subspace included) has a
preimage P_W = A_1^{-1}(W) n ... n A_m^{-1}(W) of dimension d >= 1 with
dim(W) e < d f: the pair (P_W, W) is then a subrepresentation of larger
slope, and every destabilizing pair sits inside one of this form.

GL_e x GL_f acts on the tuples and preserves stability, so the first
matrix is fixed to its rank normal form (ones at (i, i) for i < r) and
its count is weighted by the number of matrices of rank r, a closed
product over F_p.  For this head, phi A_1 is the first r coordinates of
phi, so its preimage masks need no matrix at all.

The module imports nothing from the package: no Gaussian binomial, no
group order and no chain sum of the recursion it checks enters here.

Sets are Python ints, one bit per element.  A preimage A^{-1}(W) is the
intersection of the kernels of phi A over a basis phi of the annihilator
of W, stored as a mask over the p^e vectors of F_p^e; nonzero multiples
of a functional share one kernel int, and a head's kernels, which see
f digits only, are tiled.  A tuple's P_W is the AND of its matrices'
masks and has p^d elements.

What is shared: the masks of each W, one per matrix, and, for the
innermost free matrices, one block of verdict bytes per W and per mask
reached so far, built once from the groups of matrices with identical
masks, each free matrix's verdicts padded to whole bytes.  What is not:
there is no orbit weighting beyond the rank normal form of the first
matrix.  Every tuple still gets its own verdict, one bit of the AND over
W of these blocks, each read afresh as an int, and the count is a popcount.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import itemgetter

#: widest verdict bitset, in tuples of free matrices; free matrices beyond
#: it are enumerated one at a time, which bounds the memory.  Padding each
#: block of nmat >= 2 verdicts to whole bytes makes a bitset at most 4 times
#: as many bits wide (nmat = 2: one byte per two tuples)
TUPLE_BITS = 1 << 20


def _kernels(p: int, levels: set[int]) -> dict[int, dict[int, int]]:
    """kernels[j][psi]: the kernel bitset of psi on F_p^j, for j in levels.

    Vector x is bit sum_i x_i p^i and psi number sum_i psi_i p^i; psi is 0
    or a line representative, whose first nonzero digit is 1.
    classes[psi][s] holds the vectors with psi . x = s; each of level j's is
    dropped as it builds level j + 1's, and the last level keeps residue 0 alone.
    """
    last, kernels = max(levels), {}
    full, classes = 1, {}  # every vector of j digits; classes of psi != 0
    for j in range(last + 1):
        if j in levels:
            kernels[j] = {0: full} | {psi: below[0] for psi, below in classes.items()}
        if j == last:
            return kernels
        width, residues = p ** j, range(p if j + 1 < last else 1)
        step = {width: [full << s * width for s in residues]}  # p^j . x = x_j
        while classes:
            psi, below = classes.popitem()
            for a in range(p):  # psi + a p^j adds a x_j to psi . x
                step[psi + a * width] = [sum(below[(s - a * c) % p] << c * width
                                             for c in range(p)) for s in residues]
        full, classes = (1 << p * width) - 1, step


def _lines(e: int, p: int) -> list[int]:
    """The line representative of every functional on F_p^e, by number."""
    norm, scale = [0], [0]  # scale: the first nonzero digit
    # read from the second digit on only, where p^2 <= 2^16 keeps p small
    inverse = [0] + [pow(s, -1, p) for s in range(1, p)] if e > 1 else []
    for j in range(e):
        width = p ** j
        norm += [norm[i] + d * inverse[scale[i]] % p * width if i else width
                 for d in range(1, p) for i in range(width)]
        scale += [scale[i] or d for d in range(1, p) for i in range(width)]
    return norm


def _annihilator_bases(f: int, p: int):
    """Yield (dim W, basis of the annihilator of W) for every proper subspace
    W of F_p^f, the zero subspace included.

    The annihilators are the nonzero subspaces of the dual space, each
    given once by its reduced row echelon basis.
    """
    for c in range(1, f + 1):
        for pivots in combinations(range(f), c):
            free = [(t, col) for t, pivot in enumerate(pivots)
                    for col in range(pivot + 1, f) if col not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[int(col == pivot) for col in range(f)] for pivot in pivots]
                for (t, col), value in zip(free, values):
                    rows[t][col] = value
                yield f - c, [tuple(row) for row in rows]


class _Preimages:
    """Preimage masks of one proper subspace W under every free matrix.

    Free matrices are numbered by position in one fixed order shared by
    every W.  A verdict block of depth 1 holds bit t for free matrix t in
    (nmat + 7) // 8 big-endian bytes, padding bits 0, and one of depth k
    joins nmat blocks of depth k - 1, the last free matrix first.  Every W
    shares this layout, so the ints of a tuple's depth free matrices,
    each read afresh from its cached block, AND bit by bit.
    """

    def __init__(self, need: int, masks: list[int], nmat: int):
        self.need = need  # a preimage with this many vectors destabilizes
        self.masks = masks
        groups = {}
        which = [groups.setdefault(mask, len(groups)) for mask in reversed(masks)]
        self.distinct = list(groups)
        # picks from a list by group one entry per padding bit of a depth-1
        # block (entry len(groups)), then one per free matrix, the last first
        self.spread = itemgetter(*[len(groups)] * (-nmat % 8), *which) if masks else None
        self.blocks = {}

    def verdicts(self, state: int, depth: int) -> bytes:
        """Verdict block of the tuples of depth free matrices: a bit is set
        where the tuple keeps this W's preimage, from state on, stable.
        Depth 0 is asked only of a destabilizing state: its block is empty.
        """
        if depth == 0:
            return b""
        if state.bit_count() < self.need:
            state = 0  # every tuple stays stable: one full block per depth
        key = state, depth
        block = self.blocks.get(key)
        if block is None:
            if depth == 1:
                # one byte per bit, packed eight to a byte: every 8th byte
                # from the k-th gives bit 7 - k of every byte of the block
                flags = bytes(self.spread([(state & mask).bit_count() < self.need
                                           for mask in self.distinct] + [False]))
                bits = sum(int.from_bytes(flags[k::8], "big") << 7 - k for k in range(8))
                block = bits.to_bytes(len(flags) // 8, "big")
            else:
                parts = [self.verdicts(state & mask, depth - 1) for mask in self.distinct]
                block = b"".join(self.spread(parts + [b""]))
            self.blocks[key] = block
        return block

    def bitset(self, state: int, depth: int) -> int:
        return int.from_bytes(self.verdicts(state, depth), "big")


def _images(phi: tuple[int, ...], e: int, p: int) -> list[int]:
    """Index of the functional phi A for every free matrix A, by position.

    A runs over its e columns, each over F_p^f, the last column fastest.
    """
    columns = list(product(range(p), repeat=len(phi)))
    images = [0]
    for j in range(e):
        step = [sum(a * b for a, b in zip(phi, col)) % p * p ** j for col in columns]
        images = [x + y for x in images for y in step]
    return images


def _rank_count(f: int, e: int, r: int, p: int) -> int:
    """Number of f x e matrices over F_p of rank r:
    prod_{i<r} (p^f - p^i)(p^e - p^i) / (p^r - p^i)."""
    out = order = 1
    for i in range(r):
        out *= (p ** f - p ** i) * (p ** e - p ** i)
        order *= p ** r - p ** i
    return out // order


def stable_tuples(m: int, e: int, f: int, p: int) -> int:
    """Number of stable m-tuples of f x e matrices over F_p.

    The first matrix runs over the rank normal forms, each weighted by
    _rank_count.  The m - 1 free matrices range over all p^{f e} matrices
    each.  The innermost free matrices, as many as fit in TUPLE_BITS
    tuples, form the verdict blocks; the outer ones are enumerated one
    prefix at a time.
    """
    if e < f:
        # transposing every matrix is a stability-preserving bijection
        e, f = f, e
    free = m - 1
    nmat = p ** (f * e)
    kernels = _kernels(p, {f, e} if free else {f})

    # the preimage of W destabilizes once its dimension exceeds dim(W) e / f
    annihilators = list(_annihilator_bases(f, p))
    if free and annihilators:
        # one kernel mask per functional on F_p^e, shared along its line
        kernel = [kernels[e][psi] for psi in _lines(e, p)]
    subspaces = []
    for w, phis in annihilators:
        masks = []
        if free:
            images = [_images(phi, e, p) for phi in phis]
            masks = [kernel[i] for i in images[0]]
            for other in images[1:]:
                masks = [mask & kernel[i] for mask, i in zip(masks, other)]
        subspaces.append(_Preimages(p ** (w * e // f + 1), masks, nmat))
    inner = 0
    while inner < free and nmat ** (inner + 1) <= TUPLE_BITS:
        inner += 1

    def count(states: list[int], depth: int) -> int:
        if depth == inner:
            bits = -1
            for sub, state in zip(subspaces, states):
                if state.bit_count() >= sub.need:
                    bits &= sub.bitset(state, depth)
            return nmat ** depth if bits == -1 else bits.bit_count()
        return sum(count([state & sub.masks[pos] for sub, state in zip(subspaces, states)],
                         depth - 1) for pos in range(nmat))

    stable = 0
    tile = ((1 << p ** e) - 1) // ((1 << p ** f) - 1)  # bit k p^f for every k
    for r in range(f + 1):
        # phi A for the head of rank r is phi's first r of its f coordinates
        heads = []
        for _, phis in annihilators:
            mask = -1
            for phi in phis:
                mask &= kernels[f][sum(phi[j] * p ** j for j in range(r))]
            heads.append(mask * tile)
        stable += _rank_count(f, e, r, p) * count(heads, free)
    return stable
