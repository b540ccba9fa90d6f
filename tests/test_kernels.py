import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronkit import _kernels

from conftest import build, rows

CASES = [
    ("symmetric", (4,), 2),
    ("generalized_quaternion", (4,), 3),
    ("cyclic", (7,), 2),
    ("alternating", (4,), 2),
    ("symmetric", (5,), 3),
]

# groups of order at most 27, so a d=3 reference BFS stays fast
SMALL = [
    ("cyclic", (1,)), ("cyclic", (6,)), ("abelian", (2, 2, 2)),
    ("symmetric", (3,)), ("symmetric", (4,)), ("alternating", (4,)),
    ("generalized_dihedral", (5,)), ("generalized_quaternion", (6,)),
    ("heisenberg", (1, 2)), ("extraspecial2", (0, 1)), ("frobenius", (7, 1, 3)),
    ("heisenberg_odd_p3", (3,)),
]


def bfs_orbit_roots(mul, inv, gens, n, d):
    """Reference oracle: BFS over tuple space in ascending index order, so
    each orbit's root is its least tuple index."""
    conj = [[mul[mul[g][x]][inv[g]] for x in range(n)] for g in gens]
    radices = [n**i for i in range(d)]
    root = [-1] * n**d
    stack = []
    for start in range(n**d):
        if root[start] >= 0:
            continue
        root[start] = start
        stack.append(start)
        while stack:
            t = stack.pop()
            digits = []
            for _ in range(d):
                digits.append(t % n)
                t //= n
            for cg in conj:
                u = 0
                for i in range(d):
                    u += cg[digits[i]] * radices[i]
                if root[u] < 0:
                    root[u] = start
                    stack.append(u)
    return root


def _args(G, d):
    return rows(G), G.inv, list(G.generating_set()) or [0], G.order, d


def _assert_matches_bfs(G, d):
    root = _kernels.conjugation_orbit_roots(*_args(G, d))
    assert root.dtype == np.int32
    assert root.tolist() == bfs_orbit_roots(*_args(G, d))


@pytest.mark.parametrize("fam,params,d", CASES)
def test_kernel_matches_bfs(fam, params, d):
    _assert_matches_bfs(build(fam, *params), d)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL), st.integers(1, 3))
def test_kernel_matches_bfs_on_small_groups(group, d):
    _assert_matches_bfs(build(group[0], *group[1]), d)


def test_roots_are_canonical():
    G = build("symmetric", 3)
    root = _kernels.conjugation_orbit_roots(*_args(G, 2))
    # every root is the minimum of its orbit
    for t, r in enumerate(root):
        assert root[r] == r and r <= t


def test_index_dtype_edge():
    # int32 holds every index below 2^31; nothing of that size is allocated
    assert _kernels.index_dtype(2**31 - 1) is np.int32
    assert _kernels.index_dtype(2**31) is np.int64


def test_tuple_map_is_coordinatewise():
    perm = [2, 0, 1]
    m = _kernels.tuple_map(perm, 3, 2, np.int64)
    for x in range(3):
        for y in range(3):
            assert m[3 * x + y] == 3 * perm[x] + perm[y]


def test_orbit_roots_of_permutations():
    # the cycles (0 3) and (1 4 2) on range(6), each with its inverse
    perms = [np.array([3, 1, 2, 0, 4, 5]), np.array([0, 4, 1, 3, 2, 5]),
             np.array([0, 2, 4, 3, 1, 5])]
    assert _kernels.orbit_roots(perms, 6).tolist() == [0, 1, 1, 0, 1, 5]
    assert _kernels.orbit_roots([], 4).tolist() == [0, 1, 2, 3]
