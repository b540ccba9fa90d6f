"""Brute-force oracles: simultaneous-conjugacy orbits, double cosets,
self-inverse coset counts, Frame's pair count, and the symmetric-Gelfand
check.  These are deliberately independent of the character-theoretic
formulas in :mod:`kronkit.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groupcore import GroupError, GroupTable, SubgroupSpec, greedy_generators, is_subgroup

DEFAULT_ORBIT_CAP = 10**7


@dataclass(frozen=True)
class OrbitPartition:
    d: int
    orbit_count: int
    real_orbit_count: int
    reps: tuple[tuple[int, ...], ...]
    real_flags: tuple[bool, ...]


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

    Representatives are the least tuples of their orbits, in lexicographic
    order; an orbit is real when it holds the inverse of its representative.
    The partition is computed once per group and d, and kept on G.
    """
    n = G.order
    if n**d > orbit_cap:
        raise GroupError("orbit space exceeds cap")
    if d in G._orbit_partitions:
        return G._orbit_partitions[d]
    # at d = 1, the roots that numbered the classes
    root = G.class_roots if d == 1 else _kernels.conjugation_orbit_roots(
        G.table, G.inv, list(G.generating_set()) or [0], n, d)
    reps = np.flatnonzero(root == np.arange(root.size, dtype=root.dtype))
    coords = np.unravel_index(reps, (n,) * d)
    inv = np.asarray(G.inv)
    inverses = np.ravel_multi_index(tuple(inv[c] for c in coords), (n,) * d)
    real_flags = root[inverses] == reps
    G._orbit_partitions[d] = OrbitPartition(
        d=d,
        orbit_count=len(reps),
        real_orbit_count=int(real_flags.sum()),
        reps=tuple(zip(*(c.tolist() for c in coords))),
        real_flags=tuple(real_flags.tolist()),
    )
    return G._orbit_partitions[d]


def _coset_roots(G: GroupTable, K: SubgroupSpec, left: bool) -> np.ndarray:
    """root[x] = least element of K x K (``left``) or of x K, from the orbit
    kernel on multiplication by K's generators and their inverses."""
    if not is_subgroup(G, K):
        raise GroupError("not a subgroup")
    t, inv = G.table, np.asarray(G.inv)
    perms = []
    for k in greedy_generators(G, K.elements):
        perms += [t[:, k], t[:, inv[k]]]  # x -> x k, x k^-1
        if left:
            perms += [t[k], t[inv[k]]]    # x -> k x, k^-1 x
    return _kernels.orbit_roots(perms, G.order)


def double_cosets(G: GroupTable, K: SubgroupSpec) -> DoubleCosetDecomposition:
    """K\\G/K, each double coset represented by its least element."""
    root = _coset_roots(G, K, left=True)
    reps = np.flatnonzero(root == np.arange(G.order))
    sizes = np.bincount(root)[reps]
    self_inverse = int((root[np.asarray(G.inv)[reps]] == reps).sum())
    return DoubleCosetDecomposition(
        K=K, cosets=tuple(zip(reps.tolist(), sizes.tolist())),
        self_inverse_count=self_inverse,
    )


def left_coset_map(G: GroupTable, K: SubgroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """(coset_of, coset_reps) for left cosets xK, reps in ascending order."""
    root = _coset_roots(G, K, left=False)
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
