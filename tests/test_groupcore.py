import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronkit
from kronkit.cli import _battery_entries, main
from kronkit.groupcore import (
    DEFAULT_ORDER_CAP,
    TABLE_BUDGET_BYTES,
    TABLE_BYTES_PER_ENTRY,
    GroupError,
    GroupTable,
    conjugacy_data,
    direct_product,
    dump_group,
    group_from_generators,
    is_subgroup,
    load_group,
    quotient_group,
    semidirect_product,
    subgroup_closure,
    validate_cayley,
)
from kronkit.zoo import cyclic, symmetric

from conftest import build, rows


def test_cyclic_basics():
    G = cyclic(6)
    assert G.order == 6
    assert G.inv == (0, 5, 4, 3, 2, 1)
    assert G.orders[1] == 6
    assert G.orders[2] == 3
    assert G.exponent() == 6
    assert (G.table == G.table.T).all()
    G.validate()


def test_group_from_generators_s3():
    G = group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    assert not (G.table == G.table.T).all()
    assert G.exponent() == 6


def test_generator_rejects_non_permutation():
    with pytest.raises(GroupError):
        group_from_generators(3, [(0, 0, 1)])


def test_order_cap():
    with pytest.raises(GroupError):
        group_from_generators(8, [(1, 0) + tuple(range(2, 8)),
                                  tuple(range(1, 8)) + (0,)], order_cap=100)


def test_conjugacy_data_s3():
    cd = conjugacy_data(symmetric(3))
    assert sorted(cd.sizes) == [1, 2, 3]
    assert cd.num_classes == 3
    assert all(cd.inverse_class[c] == c for c in range(3))
    assert sum(cd.sizes) == 6
    # class sizes divide the group order
    assert all(6 % s == 0 for s in cd.sizes)


def test_conjugacy_data_s4():
    cd = conjugacy_data(symmetric(4))
    assert sorted(cd.sizes) == [1, 3, 6, 6, 8]


def test_power_map():
    cd = conjugacy_data(cyclic(4))
    # squaring sends the order-4 classes onto the order-2 class
    two = cd.class_of[2]
    for g in (1, 3):
        assert cd.powermap2[cd.class_of[g]] == two
    assert cd.powermap2[cd.class_of[2]] == cd.class_of[0]


def test_direct_product():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6
    assert (G.table == G.table.T).all()
    assert G.exponent() == 6


def test_semidirect_product_dihedral():
    C3 = cyclic(3)
    C2 = cyclic(2)
    action = [(0, 1, 2), (0, 2, 1)]
    D3 = semidirect_product(C3, C2, action)
    assert D3.order == 6
    assert not (D3.table == D3.table.T).all()
    with pytest.raises(GroupError):
        semidirect_product(C3, C2, [(0, 1, 2), (1, 2, 0)])  # not an automorphism
    with pytest.raises(GroupError, match="homomorphism"):
        semidirect_product(C3, C2, [(0, 2, 1), (0, 2, 1)])  # identity not fixed


def test_quotient_group():
    G = cyclic(12)
    N = subgroup_closure(G, [4])
    Q, proj = quotient_group(G, N)
    assert Q.order == 4
    mul, qmul = rows(G), rows(Q)
    assert all(proj[mul[a][b]] == qmul[proj[a]][proj[b]]
               for a in range(12) for b in range(12))
    S3 = symmetric(3)
    with pytest.raises(GroupError):
        quotient_group(S3, subgroup_closure(S3, [1]))  # not normal


def test_subgroup_closure_and_membership():
    G = symmetric(3)
    x = next(g for g in range(6) if G.orders[g] == 2)
    K = subgroup_closure(G, [x])
    assert K.order == 2 and is_subgroup(G, K)
    y = next(g for g in range(6) if G.orders[g] == 3)
    bad = type(K)(elements=tuple(sorted((0, y))), order=2)
    assert not is_subgroup(G, bad)


def test_validate_cayley_relocates_identity():
    # C3 written with the identity at index 2
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    G = validate_cayley(table)
    assert G.table[0, 1] == 1 and G.table[1, 0] == 1


# a non-associative loop: identity row and column, an inverse in each row
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_cayley_rejects_broken_tables():
    with pytest.raises(GroupError):
        validate_cayley([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(GroupError):
        validate_cayley([[1, 0], [1, 0]])  # no identity
    # associativity failure with a valid identity row/column
    with pytest.raises(GroupError):
        validate_cayley(LOOP5)


def test_dump_load_round_trip():
    G = build("generalized_quaternion", 4)
    H = load_group(dump_group(G))
    assert rows(H) == rows(G)
    S = symmetric(3)  # has labels
    H = load_group(dump_group(S))
    assert rows(H) == rows(S) and H.labels == S.labels


def test_load_group_peak_fits_the_table_budget():
    # rows go straight into the int32 table: no Python int per entry, no int64 copy
    n = 320
    C = cyclic(n)
    text = dump_group(C)
    tracemalloc.start()
    try:
        G = load_group(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.table.dtype == np.int32 and np.array_equal(G.table, C.table)
    assert peak <= n * n * TABLE_BYTES_PER_ENTRY


def test_load_rejects_garbage():
    with pytest.raises((GroupError, ValueError)):
        load_group("order 2\n0 1\n1 2\n")
    with pytest.raises((GroupError, ValueError)):
        load_group("nonsense\n")


_GROUP_TOKEN = re.compile(r"(\s+)")
_GROUP_REPLACEMENTS = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["", " ", "x", "\n", "order", "order 3", "# label x", "1.5",
                     "99999999999999999999", "0 0", "#"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([dump_group(symmetric(3)), dump_group(cyclic(4))]),
       st.lists(st.tuples(st.integers(0, 10**6), _GROUP_REPLACEMENTS), min_size=1, max_size=4))
def test_load_group_fuzz_raises_only_group_error(base, edits):
    tokens = _GROUP_TOKEN.split(base)
    for pos, new in edits:
        tokens[pos % len(tokens)] = new
    try:
        load_group("".join(tokens))
    except GroupError:
        pass


def test_generating_set_generates():
    for G in (cyclic(8), symmetric(4), build("generalized_quaternion", 6)):
        gens = G.generating_set()
        K = subgroup_closure(G, gens)
        assert K.order == G.order


def test_load_group_refuses_over_cap_before_parsing_rows():
    # the rows are garbage: only the order line is read
    with pytest.raises(GroupError, match="order cap"):
        load_group("order 100000\nnot a table\n", order_cap=99999)
    with pytest.raises(GroupError, match="format error"):
        load_group("order 3\nnot a table\n", order_cap=3)


def test_order_cap_follows_table_budget():
    cap = DEFAULT_ORDER_CAP
    assert cap**2 * TABLE_BYTES_PER_ENTRY <= TABLE_BUDGET_BYTES
    assert (cap + 1) ** 2 * TABLE_BYTES_PER_ENTRY > TABLE_BUDGET_BYTES
    assert 5040 <= cap < 2**13  # S7 is admitted, an order-8192 group is not


# -- test-only references: the element-by-element Python constructions --------

def _perm_mul(p, q):
    return tuple(p[i] for i in q)


def ref_group_from_generators(degree, gens):
    """Breadth-first closure, then one product per table entry."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    elems, index, head = [ident], {ident: 0}, 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = _perm_mul(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    mul = [[index[_perm_mul(a, b)] for b in elems] for a in elems]
    return tuple(map(tuple, mul)), tuple(str(p) for p in elems)


def ref_inverses(mul):
    return tuple(row.index(0) for row in mul)


def ref_generating_set(mul):
    """Greedy generators, each subgroup closed pairwise."""
    n, gens, known = len(mul), [], {0}
    while len(known) < n:
        g = min(x for x in range(n) if x not in known)
        gens.append(g)
        frontier = list(known | {g})
        known.add(g)
        queue = [g]
        while queue:
            x = queue.pop()
            for y in frontier:
                for z in (mul[x][y], mul[y][x]):
                    if z not in known:
                        known.add(z)
                        frontier.append(z)
                        queue.append(z)
    return tuple(gens)


def ref_direct_product(G, H):
    n, m = G.order, H.order
    gmul, hmul = rows(G), rows(H)
    return tuple(tuple(gmul[a][c] * m + hmul[b][d] for c in range(n) for d in range(m))
                 for a in range(n) for b in range(m))


def ref_semidirect_product(A, H, action):
    n, m = A.order, H.order
    amul, hmul = rows(A), rows(H)
    return tuple(tuple(amul[a][action[h][a2]] * m + hmul[h][h2]
                       for a2 in range(n) for h2 in range(m))
                 for a in range(n) for h in range(m))


def ref_quotient_group(G, N):
    gmul = rows(G)
    proj, reps = [-1] * G.order, []
    for g in range(G.order):
        if proj[g] < 0:
            for x in N.elements:
                proj[gmul[g][x]] = len(reps)
            reps.append(g)
    mul = tuple(tuple(proj[gmul[a][b]] for b in reps) for a in reps)
    return mul, tuple(proj)


def ref_subgroup_closure(G, seed):
    mul = rows(G)
    known, queue = {0, *seed}, list(seed)
    while queue:
        x = queue.pop()
        for y in list(known):
            for z in (mul[x][y], mul[y][x], G.inv[x]):
                if z not in known:
                    known.add(z)
                    queue.append(z)
    return tuple(sorted(known))


# every zoo group of order at most 720: the battery and a few larger ones
ZOO = sorted({(s.family, s.params) for _, s in _battery_entries(None)} | {
    ("symmetric", (6,)), ("alternating", (6,)), ("gl2", (4,)), ("gl2", (5,)),
    ("psl2", (4,)), ("heisenberg", (2, 3)), ("heisenberg", (1, 7)),
    ("extraspecial2", (2, 1)), ("generalized_quaternion", (3, 8)),
    ("generalized_dihedral", (3, 3)),
    ("frobenius", (2, 2, 3)), ("heisenberg_odd_p3", (5,)), ("abelian", (3, 5, 7)),
})


@pytest.mark.parametrize("fam,params", ZOO, ids=[f"{f}{p}" for f, p in ZOO])
def test_zoo_inverses_and_generating_sets_match_reference(fam, params):
    G = build(fam, *params)
    assert G.order <= 720
    assert isinstance(G.table, np.ndarray) and G.table.dtype == np.int32
    mul = rows(G)
    assert G.inv == ref_inverses(mul)
    assert G.generating_set() == ref_generating_set(mul)
    gens = G.generating_set()
    assert subgroup_closure(G, gens[:1]).elements == ref_subgroup_closure(G, gens[:1])


def _zoo_gens(fam, n):
    """Indices of the zoo's generators: the BFS numbers them 1, 2, ... in order."""
    return range(1, 3) if fam == "symmetric" else range(1, n - 1)


@pytest.mark.parametrize("fam,n", [
    (f, n) for f in ("symmetric", "alternating") for n in range(3, 7)])
def test_permutation_families_match_reference(fam, n):
    G = build(fam, n)
    mul, labels = ref_group_from_generators(n, [eval(G.labels[g]) for g in _zoo_gens(fam, n)])
    assert rows(G) == mul and G.labels == labels


_PERMS = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.permutations(range(d)), min_size=0, max_size=3).map(lambda gs: (d, gs)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_PERMS)
def test_group_from_generators_matches_reference(case):
    degree, gens = case
    G = group_from_generators(degree, gens)
    mul, labels = ref_group_from_generators(degree, gens)
    assert rows(G) == mul and G.labels == labels
    assert G.inv == ref_inverses(mul)
    assert G.generating_set() == ref_generating_set(mul)


def _symmetric_gens(n):
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


@pytest.mark.parametrize("degree,order", [(3, 6), (4, 24), (5, 120)])
def test_order_cap_edge(degree, order):
    assert group_from_generators(degree, _symmetric_gens(degree), order_cap=order).order == order
    with pytest.raises(GroupError, match="too large"):
        group_from_generators(degree, _symmetric_gens(degree), order_cap=order - 1)


@pytest.mark.parametrize("degree,gens", [
    (4, [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 2, 3)]),
    (4, [(1, 2, 3, 0), (1, 2, 3, 0)]),
    (4, [(0, 1, 2, 3)]),
    (4, []),
    (1, []),
    (0, [()]),
    (0, []),
], ids=["identity-and-repeats", "repeated", "identity-only", "none", "degree-1", "degree-0",
        "degree-0-none"])
def test_identity_repeated_and_missing_generators(degree, gens):
    G = group_from_generators(degree, gens)
    mul, labels = ref_group_from_generators(degree, gens)
    assert rows(G) == mul and G.labels == labels


@pytest.mark.parametrize("fam", ["symmetric", "alternating"])
def test_degree_7_tables_compose_their_labels(fam):
    # the reference test above stops at degree 6: sample entries of S7 and A7
    G = build(fam, 7)
    perms = [tuple(map(int, re.findall(r"\d+", lab))) for lab in G.labels]
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == G.order == (5040 if fam == "symmetric" else 2520)
    rng = np.random.default_rng(7)
    for a, b in rng.integers(G.order, size=(5000, 2)).tolist():
        assert G.table[a, b] == index[_perm_mul(perms[a], perms[b])]


@pytest.mark.parametrize("fam", ["symmetric", "alternating"])
def test_degree_7_build_dumps_match_the_recorded_bytes(tmp_path, fam):
    out = tmp_path / "g.grp"
    assert main(["build", "--family", fam, "--params", "7", "--out", str(out)]) == 0
    digests = {name: digest for digest, name in map(
        str.split, (Path(__file__).parent / "reports" / "build.sha256").read_text().splitlines())}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[f"build-{fam}-7.grp"]


def test_s7_build_peak_fits_the_table_budget():
    # the growth of ru_maxrss (KiB on Linux) over the build, in a fresh process
    script = ("import resource\n"
              "from kronkit.zoo import symmetric\n"
              "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "before = peak()\n"
              "G = symmetric(7)\n"
              "print(G.order, (peak() - before) * 1024)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(kronkit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    n, grown = map(int, run.stdout.split())
    assert n == 5040 and grown <= TABLE_BYTES_PER_ENTRY * n * n


@pytest.mark.parametrize("left,right", [
    (("cyclic", (4,)), ("symmetric", (3,))), (("symmetric", (3,)), ("cyclic", (4,))),
    (("generalized_quaternion", (4,)), ("alternating", (4,))),
    (("cyclic", (1,)), ("heisenberg", (1, 3))),
])
def test_direct_product_matches_reference(left, right):
    G, H = build(*left[:1], *left[1]), build(*right[:1], *right[1])
    assert rows(direct_product(G, H)) == ref_direct_product(G, H)


def test_semidirect_product_and_quotient_match_reference():
    A, C4 = cyclic(6), cyclic(4)
    action = [tuple(range(6)), A.inv, tuple(range(6)), A.inv]
    S = semidirect_product(A, C4, action)
    mul = rows(S)
    assert mul == ref_semidirect_product(A, C4, action)
    for seed in ([3 * 4 + 2], [4], [8, 1]):
        N = subgroup_closure(S, seed)
        if all(mul[mul[g][x]][S.inv[g]] in N.elements
               for g in range(S.order) for x in N.elements):
            Q, proj = quotient_group(S, N)
            assert (rows(Q), proj) == ref_quotient_group(S, N)
    A = cyclic(7)
    action = [tuple(range(7)), tuple(2 * x % 7 for x in range(7)),
              tuple(4 * x % 7 for x in range(7))]
    assert rows(semidirect_product(A, cyclic(3), action)) == ref_semidirect_product(
        A, cyclic(3), action)


# -- test-only references: conjugacy classes by orbit expansion ----------------

def ref_element_orders(G):
    t, orders = G.table, []
    for x in range(G.order):
        k, z = 1, x
        while z != 0:
            z = int(t[z, x])
            k += 1
        orders.append(k)
    return orders


def ref_conjugacy_data(G):
    """Breadth-first orbit expansion under conjugation by the generators,
    classes numbered in order of their least elements."""
    t, inv, n = G.table, G.inv, G.order
    class_of, reps, sizes = [-1] * n, [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        c = len(reps)
        orbit = [x]
        class_of[x] = c
        head = 0
        while head < len(orbit):
            y = orbit[head]
            head += 1
            for g in G.generating_set():
                z = int(t[t[g, y], inv[g]])
                if class_of[z] < 0:
                    class_of[z] = c
                    orbit.append(z)
        reps.append(x)
        sizes.append(len(orbit))
    inverse_class = tuple(class_of[inv[r]] for r in reps)
    powermap2 = tuple(class_of[int(t[r, r])] for r in reps)
    return tuple(class_of), tuple(reps), tuple(sizes), inverse_class, powermap2


_CONJ_GROUPS = sorted({(s.family, s.params) for _, s in _battery_entries(None)} | {
    ("symmetric", (6,)), ("symmetric", (7,)), ("gl2", (7,))})


@pytest.mark.parametrize("fam,params", _CONJ_GROUPS, ids=[f"{f}{p}" for f, p in _CONJ_GROUPS])
def test_conjugacy_data_matches_orbit_expansion(fam, params):
    G = build(fam, *params)
    cd = conjugacy_data(G)
    class_of, reps, sizes, inverse_class, powermap2 = ref_conjugacy_data(G)
    assert cd.class_of == class_of and cd.reps == reps and cd.sizes == sizes
    assert cd.inverse_class == inverse_class and cd.powermap2 == powermap2
    orders = ref_element_orders(G)
    assert G.orders.tolist() == orders
    assert G.exponent() == reduce(lcm, orders)


# -- Light's associativity test against the exhaustive check -------------------

def ref_associativity_violation(mul):
    """The least (a, b, c) with (ab)c != a(bc), or None: O(n^3)."""
    n = len(mul)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return a, b, c
    return None


def test_light_test_rejects_every_non_associative_table():
    # LOOP5 x C2: the first generator (1, c) is the middle of no violating
    # triple, so only a later generator shows the failure
    product = direct_product(GroupTable(LOOP5), cyclic(2))
    mul = rows(product)
    a = product.generating_set()[0]
    assert not any(mul[mul[x][a]][y] != mul[x][mul[a][y]]
                   for x in range(10) for y in range(10))
    cases = [product]
    # every one-entry change of S3 that keeps the identity row and column and
    # an inverse in each row; it breaks the Latin square, so no change is a
    # group, and none is associative
    base = [list(r) for r in rows(symmetric(3))]
    for x, y, v in itertools.product(range(1, 6), range(1, 6), range(6)):
        mul = [r[:] for r in base]
        mul[x][y] = v
        if v != base[x][y] and 0 in mul[x]:
            cases.append(GroupTable(mul))
    for G in cases:
        assert ref_associativity_violation(rows(G)) is not None
        with pytest.raises(GroupError, match="associativity"):
            G.validate()
    for fam, params in ZOO[:20]:
        G = build(fam, *params)
        if G.order <= 60:
            assert ref_associativity_violation(rows(G)) is None
            G.validate()


def test_light_test_checks_every_row_block():
    # order 1500: blocks of 699 rows; the only violations have x in the last
    n = 1500
    table = cyclic(n).table.copy()
    table[n - 1, 2] = 7  # was 1
    G = GroupTable(table)
    assert G.generating_set() == (1,)
    with pytest.raises(GroupError, match=rf"associativity violated at \({n - 2},1,2\)"):
        G.validate()
    cyclic(n).validate()
