"""Brute-force oracles: simultaneous-conjugacy orbits, double cosets,
self-inverse coset counts, Frame's pair count, and the symmetric-Gelfand
check.  These are deliberately independent of the character-theoretic
formulas in :mod:`kronkit.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groupcore import GroupError, GroupTable, SubgroupSpec, _coset_minima

DEFAULT_ORBIT_CAP = 10**7
# tuple-map entries per block in ``_least_tuples``: small enough to stay in
# cache, so S5 at d = 3 runs no slower than with all maps at once
_BLOCK = 2**16


@dataclass(frozen=True)
class OrbitPartition:
    d: int
    orbit_count: int
    real_orbit_count: int


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    K: SubgroupSpec
    cosets: tuple[tuple[int, int], ...]  # (representative, size)
    self_inverse_count: int

    @property
    def symmetric(self) -> bool:
        """True iff every double coset KgK equals Kg^-1 K."""
        return self.self_inverse_count == len(self.cosets)


def simultaneous_classes(G: GroupTable, d: int,
                         orbit_cap: int = DEFAULT_ORBIT_CAP) -> OrbitPartition:
    """Exact orbit partition of G^d under simultaneous conjugation.

    Counts the orbits and the real orbits, those that hold the inverse of
    their least tuple.  The partition is computed once per group and d, and
    kept on G.
    """
    n = G.order
    if n**d > orbit_cap:
        raise GroupError("orbit space exceeds cap")
    if d in G._orbit_partitions:
        return G._orbit_partitions[d]
    if d == 1:  # the roots that numbered the classes
        root = G.class_roots
        reps = np.flatnonzero(root == np.arange(n))
        real_flags = root[np.asarray(G.inv)[reps]] == reps
    else:
        reps, real_flags = _least_tuples(G, d)
    G._orbit_partitions[d] = OrbitPartition(
        d=d, orbit_count=len(reps), real_orbit_count=int(real_flags.sum()))
    return G._orbit_partitions[d]


def _least_tuples(G: GroupTable, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, real_flags) of the orbits of G^d (d >= 2): each orbit's least
    tuple index, ascending, and whether the orbit holds its inverse.

    Exactness.  Tuple index order is lexicographic, so the least tuple of an
    orbit starts with the least first coordinate in it: the class root c of
    its first coordinates.  The orbit's tuples that start with c are
    (c, h.s) for h in the centralizer C(c), where (c, s) is any one of them.
    So its least tuple is (c, r) with r = min over h in C(c) of h.s, and the
    representatives are exactly the (c, r) with r its own C(c)-minimum.  The
    orbit is real iff it holds (c^-1, r^-1).  That needs c^-1 conjugate to
    c, say g c^-1 g^-1 = c; then g.(c^-1, r^-1) = (c, g.r^-1) must lie in
    C(c).r, i.e. have the C(c)-minimum r.

    Memory.  One centralizer at a time, its minimum is folded over blocks
    of its maps h.r of about 2^16 entries (``_BLOCK``) of
    index_dtype(n^(d-1)); the rest is a few arrays of n^(d-1) and of its
    classes' share of the result.  So besides the result and the n x n
    conjugation table the peak is a few n^(d-1) entries plus a block, not
    the n^d of all maps at once (6.9 MB for S5 at d = 3).
    """
    n, t, inv = G.order, G.table, np.asarray(G.inv)
    size = n ** (d - 1)
    dtype = _kernels.index_dtype(size)
    conj = t[t, inv[:, None]]  # conj[h, x] = h x h^-1
    step = max(1, _BLOCK // size)
    roots = np.flatnonzero(G.class_roots == np.arange(n))
    commute = t[:, roots].T == t[roots]  # commute[i, h]: h c_i = c_i h
    transport = t[:, inv[roots]].T == t[roots]  # transport[i, g]: g c_i^-1 = c_i g
    self_inverse = transport.any(axis=1)  # c_i^-1 is conjugate to c_i
    flips = conj[transport.argmax(axis=1)[:, None], inv].astype(dtype)  # x -> g x^-1 g^-1, least g
    sharing = {}  # centralizer -> its classes; all classes of an abelian group share one
    for i, centralizer in enumerate(commute):
        sharing.setdefault(centralizer.tobytes(), []).append(i)
    reps, real = [None] * roots.size, [None] * roots.size
    for classes in sharing.values():
        rows = np.flatnonzero(commute[classes[0]])  # the centralizer
        least = np.full(size, size, dtype)
        for start in range(0, rows.size, step):
            # block[h, r] = h.r on G^(d-1), for a block of the centralizer
            block = _kernels.tuple_map(conj[rows[start:start + step]], n, d - 1, dtype)
            np.minimum(least, block.min(axis=0), out=least)
        r = np.flatnonzero(least == np.arange(size))
        flip, flipped = flips[classes], np.zeros((len(classes), r.size), dtype)
        for digit in np.unravel_index(r, (n,) * (d - 1)):
            flipped = flipped * n + flip[:, digit]
        real_rows = (least[flipped] == r) & self_inverse[classes, None]
        for i, row in zip(classes, real_rows):
            reps[i], real[i] = roots[i] * size + r, row
    return np.concatenate(reps), np.concatenate(real)


def double_cosets(G: GroupTable, K: SubgroupSpec) -> DoubleCosetDecomposition:
    """K\\G/K, each double coset represented by its least element.

    K x K is the union of the cosets (k x) K, so its least element is the
    least of their minima.  The rows of K and their minima hold n |K| int32
    entries each; for a proper subgroup, |K| <= n/2, that is one table.
    """
    least = _coset_minima(G, K)
    root = least[G.table[list(K.elements)]].min(axis=0)
    reps = np.flatnonzero(root == np.arange(G.order))
    sizes = np.bincount(root)[reps]
    self_inverse = int((root[np.asarray(G.inv)[reps]] == reps).sum())
    return DoubleCosetDecomposition(
        K=K, cosets=tuple(zip(reps.tolist(), sizes.tolist())),
        self_inverse_count=self_inverse,
    )


def left_coset_map(G: GroupTable, K: SubgroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """(coset_of, coset_reps) for left cosets xK, reps in ascending order."""
    root = _coset_minima(G, K)
    reps = np.flatnonzero(root == np.arange(G.order))
    return np.searchsorted(reps, root), reps


def frame_pair_count(G: GroupTable, K: SubgroupSpec) -> int:
    """(1/|G|) * #{(Kx, g) : x g^2 in Kx}; integral by Frame's lemma."""
    coset_of, reps = left_coset_map(G, K)
    squares = G.table.diagonal()
    count = sum(int((coset_of[G.table[x, squares]] == coset_of[x]).sum()) for x in reps)
    if count % G.order:
        raise ArithmeticError("frame pair count not integral")  # bug trap
    return count // G.order


def square_root_counts(G: GroupTable) -> list[int]:
    """r(g) = #{x : x^2 = g}, by direct enumeration (oracle for Eq. checks)."""
    return np.bincount(G.table.diagonal(), minlength=G.order).tolist()
