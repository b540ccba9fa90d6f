"""Orbit kernel: G acting on G^d by simultaneous conjugation, in numpy.

A d-tuple (x_1, ..., x_d) of elements of a group of order n has the tuple
index t = x_1 n^(d-1) + ... + x_d, so index order is lexicographic order on
tuples.  Each generator g of G acts on tuple indices as a permutation, built
from its action x -> g x g^-1 on single elements.  The orbits are the
connected components of the graph these permutations span, found by
min-label propagation with pointer jumping (Shiloach and Vishkin,
J. Algorithms 3 (1982) 57-67) as whole-array passes.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"

# np.take copies its index array to intp first; taking 2^16 indices at a time
# keeps that copy at 512 KiB instead of 8 bytes per tuple
_SLICE = 2**16


def index_dtype(size: int):
    """Narrowest integer dtype that holds every index of a ``size``-element array."""
    return np.int32 if size < 2**31 else np.int64


def tuple_map(perm, n: int, d: int, dtype) -> np.ndarray:
    """Tuple-index permutation of G^d induced by the element permutation ``perm``
    acting on every coordinate; ``dtype`` must hold n^d - 1."""
    perm = np.asarray(perm, dtype=dtype)
    out = perm
    for _ in range(d - 1):
        out = np.add.outer(out * n, perm).ravel()
    return out


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """out[t] = values[index[t]]; every index is in range, so ``clip`` never clips."""
    for s in range(0, index.size, _SLICE):
        np.take(values, index[s:s + _SLICE], out=out[s:s + _SLICE], mode="clip")


def conjugation_orbit_roots(mul, inv, gens, n: int, d: int) -> np.ndarray:
    """Orbit roots for G acting on G^d by simultaneous conjugation.

    ``mul`` is the multiplication table (n*n entries, row-major), ``inv`` the
    inverse map and ``gens`` a generating set of G.  Returns root[t] = least
    tuple index in the orbit of t.  Holds 2 * len(gens) + 2 arrays of n^d
    indices, 4 bytes each below 2^31 tuples and 8 bytes from there.
    """
    size = n**d
    dtype = index_dtype(size)
    mul = np.asarray(mul).reshape(n, n)
    inv = np.asarray(inv, dtype=np.int64)
    maps = []
    for g in gens:
        conj = mul[mul[g], inv[g]]  # x -> g x g^-1
        back = np.empty_like(conj)
        back[conj] = np.arange(n)
        maps += [tuple_map(conj, n, d, dtype), tuple_map(back, n, d, dtype)]

    # Invariants: label[t] <= t, and label[t] lies in the orbit of t.  A round
    # pulls the least label along every generator edge in both directions,
    # then jumps pointers until label[label] == label.  When no pull lowers a
    # label, label[t] <= label[g.t] and label[g.t] <= label[t] for every
    # generator g, so label is constant on each orbit; the orbit minimum o
    # has label[o] <= o within the orbit, so label[o] = o is that constant.
    label = np.arange(size, dtype=dtype)
    pulled = np.empty_like(label)
    changed = True
    while changed:
        changed = False
        for m in maps:
            _gather(label, m, pulled)
            if (pulled < label).any():
                np.minimum(label, pulled, out=label)
                changed = True
        while True:
            _gather(label, label, pulled)
            if np.array_equal(pulled, label):
                break
            label, pulled = pulled, label
    return label
