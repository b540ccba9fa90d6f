"""Brute-force oracles: simultaneous-conjugacy orbits, double cosets,
self-inverse coset counts, Frame's pair count, and the symmetric-Gelfand
check.  These are deliberately independent of the character-theoretic
formulas in :mod:`kronkit.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groupcore import GroupError, GroupTable, SubgroupSpec, direct_product, is_subgroup

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


def simultaneous_classes(G: GroupTable, d: int,
                         orbit_cap: int = DEFAULT_ORBIT_CAP) -> OrbitPartition:
    """Exact orbit partition of G^d under simultaneous conjugation.

    Representatives are the least tuples of their orbits, in lexicographic
    order; an orbit is real when it holds the inverse of its representative.
    """
    n = G.order
    if n**d > orbit_cap:
        raise GroupError("orbit space exceeds cap")
    gens = list(G.generating_set()) or [0]
    root = _kernels.conjugation_orbit_roots(G.table, G.inv, gens, n, d)
    reps = np.flatnonzero(root == np.arange(root.size, dtype=root.dtype))
    coords = np.unravel_index(reps, (n,) * d)
    inv = np.asarray(G.inv)
    inverses = np.ravel_multi_index(tuple(inv[c] for c in coords), (n,) * d)
    real_flags = root[inverses] == reps
    return OrbitPartition(
        d=d,
        orbit_count=len(reps),
        real_orbit_count=int(real_flags.sum()),
        reps=tuple(zip(*(c.tolist() for c in coords))),
        real_flags=tuple(real_flags.tolist()),
    )


def diagonal_subgroup(G: GroupTable, d: int, order_cap: int = DEFAULT_ORBIT_CAP):
    """(G^(d+1), diagonal copy of G). Tiny instances only."""
    n = G.order
    if n ** (d + 1) > order_cap:
        raise GroupError("group too large")
    P = G
    for _ in range(d):
        P = direct_product(P, G, order_cap=order_cap)
    # element (g, ..., g) has index g * (n^d + n^(d-1) + ... + 1)
    weight = sum(n**i for i in range(d + 1))
    elements = tuple(sorted(g * weight for g in range(n)))
    return P, SubgroupSpec(elements=elements, order=n)


def _require_subgroup(G: GroupTable, K: SubgroupSpec):
    if not is_subgroup(G, K):
        raise GroupError("not a subgroup")


def double_cosets(G: GroupTable, K: SubgroupSpec) -> DoubleCosetDecomposition:
    """K\\G/K by expanding K*x*K from the least unvisited x."""
    _require_subgroup(G, K)
    n = G.order
    coset_of = [-1] * n
    cosets = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(cosets)
        coset_of[x] = c
        members = [x]
        head = 0
        while head < len(members):
            y = members[head]
            head += 1
            for k in K.elements:
                for z in (G.mul[k][y], G.mul[y][k]):
                    if coset_of[z] < 0:
                        coset_of[z] = c
                        members.append(z)
        cosets.append((x, len(members)))
    self_inverse = sum(1 for rep, _ in cosets if coset_of[G.inv[rep]] == coset_of[rep])
    return DoubleCosetDecomposition(
        K=K, cosets=tuple(cosets), self_inverse_count=self_inverse
    )


def left_coset_map(G: GroupTable, K: SubgroupSpec) -> tuple[list[int], list[int]]:
    """(coset_of, coset_reps) for left cosets xK, reps in ascending order."""
    _require_subgroup(G, K)
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for k in K.elements:
            coset_of[G.mul[x][k]] = c
    return coset_of, reps


def frame_pair_count(G: GroupTable, K: SubgroupSpec) -> int:
    """(1/|G|) * #{(Kx, g) : x g^2 in Kx}; integral by Frame's lemma."""
    coset_of, reps = left_coset_map(G, K)
    count = 0
    for x in reps:
        cx = coset_of[x]
        for g in range(G.order):
            g2 = G.mul[g][g]
            if coset_of[G.mul[x][g2]] == cx:
                count += 1
    if count % G.order:
        raise ArithmeticError("frame pair count not integral")  # bug trap
    return count // G.order


def gelfand_symmetric_check(G: GroupTable, K: SubgroupSpec) -> bool:
    """True iff every double coset KgK equals Kg^-1 K."""
    dc = double_cosets(G, K)
    return dc.self_inverse_count == len(dc.cosets)


def square_root_counts(G: GroupTable) -> list[int]:
    """r(g) = #{x : x^2 = g}, by direct enumeration (oracle for Eq. checks)."""
    r = [0] * G.order
    for x in range(G.order):
        r[G.mul[x][x]] += 1
    return r
