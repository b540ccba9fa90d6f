import pytest

from kronkit.groupcore import GroupError, SubgroupSpec, conjugacy_data, subgroup_closure
from kronkit.cli import _battery_entries
from kronkit.orbits import (
    double_cosets,
    frame_pair_count,
    left_coset_map,
    simultaneous_classes,
    square_root_counts,
)
from kronkit.zoo import cyclic, symmetric

from conftest import build, diagonal_subgroup, rows

TINY = [
    ("cyclic", (1,)),
    ("cyclic", (4,)),
    ("abelian", (2, 2)),
    ("symmetric", (3,)),
    ("generalized_quaternion", (4,)),
    ("extraspecial2", (1, 0)),
]


@pytest.mark.parametrize("family,params", TINY)
def test_d1_matches_conjugacy_classes(family, params):
    G = build(family, *params)
    cd = conjugacy_data(G)
    op = simultaneous_classes(G, 1)
    assert op.orbit_count == cd.num_classes
    assert op.real_orbit_count == sum(
        1 for c in range(cd.num_classes) if cd.inverse_class[c] == c
    )


@pytest.mark.parametrize("family,params", TINY)
@pytest.mark.parametrize("d", [1, 2])
def test_diagonal_double_cosets_biject_with_orbits(family, params, d):
    # |ΔG \ G^(d+1) / ΔG| equals the number of simultaneous classes of G^d
    G = build(family, *params)
    P, Delta = diagonal_subgroup(G, d)
    dc = double_cosets(P, Delta)
    op = simultaneous_classes(G, d)
    assert len(dc.cosets) == op.orbit_count
    assert dc.self_inverse_count == op.real_orbit_count


def test_orbit_reps_are_canonical():
    G = symmetric(3)
    op = simultaneous_classes(G, 2)
    assert op.orbit_count == 11
    assert op.reps[0] == (0, 0)
    assert list(op.reps) == sorted(op.reps)
    assert len(op.real_flags) == 11 and all(op.real_flags)


def test_orbit_cap():
    with pytest.raises(GroupError):
        simultaneous_classes(symmetric(4), 3, orbit_cap=1000)


def test_double_cosets_whole_group_and_trivial():
    G = build("generalized_quaternion", 4)
    whole = SubgroupSpec(elements=tuple(range(8)), order=8)
    dc = double_cosets(G, whole)
    assert len(dc.cosets) == 1 and dc.self_inverse_count == 1
    triv = SubgroupSpec(elements=(0,), order=1)
    dc = double_cosets(G, triv)
    assert len(dc.cosets) == 8
    mul = rows(G)
    assert dc.self_inverse_count == sum(1 for g in range(8) if mul[g][g] == 0)


def test_double_cosets_requires_subgroup():
    G = cyclic(6)
    with pytest.raises(GroupError):
        double_cosets(G, SubgroupSpec(elements=(0, 1), order=2))


def test_frame_pair_count_trivial_cases():
    G = symmetric(3)
    whole = SubgroupSpec(elements=tuple(range(6)), order=6)
    assert frame_pair_count(G, whole) == 1
    triv = SubgroupSpec(elements=(0,), order=1)
    mul = rows(G)
    assert frame_pair_count(G, triv) == sum(1 for g in range(6) if mul[g][g] == 0)


def test_frame_equals_self_inverse_count():
    # S4 with an S3 point stabilizer
    G = symmetric(4)
    fix = [g for g in range(24) if eval(G.labels[g])[3] == 3]
    K = subgroup_closure(G, fix)
    assert K.order == 6
    dc = double_cosets(G, K)
    assert frame_pair_count(G, K) == dc.self_inverse_count
    # and the diagonal pair
    S3 = symmetric(3)
    P, Delta = diagonal_subgroup(S3, 1)
    assert frame_pair_count(P, Delta) == double_cosets(P, Delta).self_inverse_count


def test_left_coset_map_partitions():
    G = symmetric(3)
    K = subgroup_closure(G, [next(g for g in range(6) if G.element_order(g) == 3)])
    coset_of, reps = left_coset_map(G, K)
    assert len(reps) == 2
    assert sorted(coset_of) == [0, 0, 0, 1, 1, 1]


def test_gelfand_symmetric_check():
    S3 = symmetric(3)
    P, Delta = diagonal_subgroup(S3, 1)
    assert double_cosets(P, Delta).symmetric
    C4 = cyclic(4)
    triv = SubgroupSpec(elements=(0,), order=1)
    assert not double_cosets(C4, triv).symmetric
    whole = SubgroupSpec(elements=tuple(range(4)), order=4)
    assert double_cosets(C4, whole).symmetric


def test_square_root_counts():
    G = build("generalized_quaternion", 4)
    r = square_root_counts(G)
    assert sum(r) == 8
    assert r[0] == 2  # identity: itself and the central involution
    assert max(r) == 6


def test_real_iff_all_orbits_real():
    real = simultaneous_classes(build("symmetric", 4), 2)
    assert real.real_orbit_count == real.orbit_count
    complexish = simultaneous_classes(build("cyclic", 3), 1)
    assert complexish.real_orbit_count == 1


# -- test-only references: cosets by breadth-first expansion ------------------

def ref_double_cosets(G, K):
    """K\\G/K by expanding K*x*K from the least unvisited x."""
    mul = rows(G)
    coset_of = [-1] * G.order
    cosets = []
    for x in range(G.order):
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
                for z in (mul[k][y], mul[y][k]):
                    if coset_of[z] < 0:
                        coset_of[z] = c
                        members.append(z)
        cosets.append((x, len(members)))
    self_inverse = sum(1 for rep, _ in cosets if coset_of[G.inv[rep]] == coset_of[rep])
    return tuple(cosets), self_inverse


def ref_left_coset_map(G, K):
    mul = rows(G)
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] < 0:
            for k in K.elements:
                coset_of[mul[x][k]] = len(reps)
            reps.append(x)
    return coset_of, reps


def ref_frame_pair_count(G, K):
    mul = rows(G)
    coset_of, reps = ref_left_coset_map(G, K)
    count = sum(1 for x in reps for g in range(G.order)
                if coset_of[mul[x][mul[g][g]]] == coset_of[x])
    return count // G.order


def _subgroups(G):
    """Trivial, cyclic, two-generated and whole subgroups, by closure."""
    n, gens = G.order, G.generating_set()
    seeds = [[], [1 % n], [n - 1], [n // 2, n // 3], list(gens[:1]), list(gens)]
    return [subgroup_closure(G, s) for s in seeds]


_COSET_GROUPS = sorted({(f, p) for _, f, p in _battery_entries(None)})


@pytest.mark.parametrize("fam,params", _COSET_GROUPS, ids=[f"{f}{p}" for f, p in _COSET_GROUPS])
def test_cosets_match_expansion(fam, params):
    G = build(fam, *params)
    for K in _subgroups(G):
        dc = double_cosets(G, K)
        assert (dc.cosets, dc.self_inverse_count) == ref_double_cosets(G, K)
        coset_of, reps = left_coset_map(G, K)
        assert (coset_of.tolist(), reps.tolist()) == ref_left_coset_map(G, K)
        assert frame_pair_count(G, K) == ref_frame_pair_count(G, K)
    mul = rows(G)
    assert square_root_counts(G) == [sum(1 for x in range(G.order) if mul[x][x] == g)
                                     for g in range(G.order)]
