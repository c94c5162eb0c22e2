"""Finite-field kernel of the brute-force Kronecker point count.

Counts the m-tuples of f x e matrices over F_p, with the first matrix
fixed, that have no destabilizing subrepresentation.  A tuple
(A_1, ..., A_m) is destabilized exactly when some proper subspace W of
F_p^f (the zero subspace included) has a preimage
P_W = A_1^{-1}(W) n ... n A_m^{-1}(W) of dimension d >= 1 with
dim(W) e < d f: the pair (P_W, W) is then a subrepresentation of larger
slope, and every destabilizing pair sits inside one of this form.

For every matrix and every W the preimage is stored as a bitmask over the
p^e vectors of F_p^e, split into 64-bit words.  A tuple's P_W is the AND
of its matrices' masks and has p^d elements, so the test is one AND and
one popcount per (tuple, W).  Every tuple is still tested on its own;
none are grouped by multiplicity.

This module imports numpy; the package imports it only when the oracle
runs (see betti.brute_force_kronecker_count).
"""

from __future__ import annotations

from itertools import product

import numpy as np

#: uint64 words per vectorized block; bounds the kernel's working memory
BLOCK_WORDS = 1 << 20


def _vectors(n: int, p: int) -> np.ndarray:
    """All p^n vectors of F_p^n; row i holds the base-p digits of i."""
    index = np.arange(p ** n, dtype=np.int64)
    return (index[:, None] // p ** np.arange(n, dtype=np.int64)) % p


def _proper_subspaces(f: int, p: int) -> list[tuple[int, np.ndarray]]:
    """Every proper subspace of F_p^f, zero included, as (dim, membership).

    The membership array is boolean over the vector indices of _vectors.
    Subspaces are grown one spanning vector at a time from the zero one.
    """
    vectors = _vectors(f, p)
    digits = p ** np.arange(f, dtype=np.int64)
    zero = np.zeros(p ** f, dtype=bool)
    zero[0] = True
    layer = {zero.tobytes(): zero}
    found = []
    for dim in range(f):
        found += [(dim, member) for member in layer.values()]
        grown = {}
        for member in layer.values():
            inside = vectors[member]
            for v in np.flatnonzero(~member):
                span = (inside[:, None, :] + np.arange(p)[None, :, None]
                        * vectors[v]) % p
                bigger = np.zeros(p ** f, dtype=bool)
                bigger[(span @ digits).ravel()] = True
                grown.setdefault(bigger.tobytes(), bigger)
        layer = grown
    return found


def _preimage_masks(ids: np.ndarray, e: int, f: int, p: int,
                    subspaces: list[np.ndarray]) -> np.ndarray:
    """masks[s, i] = bitmask over F_p^e of the preimage of subspace s under ids[i].

    Matrix id a has entry (i, j) equal to base-p digit i e + j of a, and
    each subspace is given by its membership array over F_p^f.  The result
    has shape (len(subspaces), len(ids), words) and dtype uint64; the
    padding bits of the last word are zero.
    """
    source = _vectors(e, p)
    nvec = p ** e
    words = -(-nvec // 64)
    digits = p ** np.arange(f, dtype=np.int64)
    out = np.empty((len(subspaces), len(ids), words), dtype=np.uint64)
    step = max(1, BLOCK_WORDS // nvec)
    for start in range(0, len(ids), step):
        block = ids[start:start + step]
        entries = (block[:, None] // p ** np.arange(f * e, dtype=np.int64)) % p
        matrices = entries.reshape(len(block), f, e)
        images = (matrices @ source.T) % p          # (block, f, p^e)
        image_ids = np.einsum("bin,i->bn", images, digits)
        for s, member in enumerate(subspaces):
            bits = np.zeros((len(block), words * 64), dtype=bool)
            bits[:, :nvec] = member[image_ids]
            packed = np.packbits(bits, axis=1, bitorder="little")
            out[s, start:start + len(block)] = packed.view(np.uint64)
    return out


def stable_completions(first_ids: list[int], m: int, e: int, f: int,
                       p: int) -> list[int]:
    """For each first matrix id, the number of stable completions to an m-tuple.

    The m - 1 free matrices range over all p^{f e} matrices each.  The
    innermost free matrices (at least one, more while the block stays
    under BLOCK_WORDS) form one vectorized block of AND-ed masks; the
    outer ones are enumerated one prefix at a time.
    """
    # the preimage of W destabilizes once its dimension exceeds dim(W) e / f
    least = [(w * e // f + 1, member) for w, member in _proper_subspaces(f, p)]
    subspaces = [member for d, member in least if d <= e]
    need = np.array([p ** d for d, _ in least if d <= e], dtype=np.int64)[:, None]
    heads = _preimage_masks(np.array(first_ids, dtype=np.int64), e, f, p, subspaces)
    nsub, _, words = heads.shape
    free = m - 1
    nmat = p ** (f * e)
    if free:
        table = _preimage_masks(np.arange(nmat, dtype=np.int64), e, f, p, subspaces)
    block = np.full((nsub, 1, words), np.iinfo(np.uint64).max, dtype=np.uint64)
    inner = 0
    while inner < free and (inner == 0 or block.size * nmat <= BLOCK_WORDS):
        block = (block[:, :, None, :] & table[:, None, :, :]).reshape(
            nsub, block.shape[1] * nmat, words)
        inner += 1
    result = []
    for i in range(len(first_ids)):
        stable = 0
        for prefix in product(range(nmat), repeat=free - inner):
            head = heads[:, i]
            for matrix in prefix:
                head = head & table[:, matrix]
            counts = np.bitwise_count(head[:, None, :] & block).sum(
                axis=2, dtype=np.int64)
            stable += int((counts < need).all(axis=0).sum())
        result.append(stable)
    return result
