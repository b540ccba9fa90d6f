from math import isqrt

import numpy as np
import pytest

from kronkit import kron
from kronkit.chartab import VerificationError, dump_table, fs_indicators, load_table
from kronkit.groupcore import subgroup_closure
from kronkit.orbits import double_cosets, frame_pair_count, simultaneous_classes

from conftest import build, diagonal_subgroup, table


def test_kronecker_s3():
    T = table("symmetric", 3)
    std = T.degrees.index(2)
    assert kron.kronecker(T, (std, std, std)).value == 1
    assert kron.kronecker(T, (std, std, std, std)).value == 3
    triv = next(i for i in range(3) if all(
        T.value(i, c).to_rational() == 1 for c in range(3)))
    assert kron.kronecker(T, (triv, triv)).value == 1
    with pytest.raises(ValueError):
        kron.kronecker(T, (std,))


def test_kronecker_duality_pairs():
    T = table("cyclic", 5)
    for i in range(5):
        for j in range(5):
            expected = 1 if T.conjugate_irrep(i) == j else 0
            assert kron.kronecker(T, (i, j)).value == expected


def test_frobenius_3dim_cube():
    T = table("frobenius", 7, 1, 3)
    v = T.degrees.index(3)
    assert kron.kronecker(T, (v, v, v)).value == 2


def test_kappa_tensor_symmetry_and_cache():
    T = table("symmetric", 4)
    t3 = kron.kappa_tensor3(T)
    assert t3 is kron.kappa_tensor3(T)  # cached
    assert (t3 == t3.transpose(1, 0, 2)).all()
    assert (t3 == t3.transpose(2, 1, 0)).all()


def test_kappa4_consistency_with_direct_sum():
    T = table("symmetric", 3)
    t4 = kron.kappa_tensor4(T)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    assert t4[a, b, c, d] == kron.kronecker(T, (a, b, c, d)).value


def _fresh_table(fam, *params):
    """A table with empty caches, so crafted tensors can be planted."""
    return load_table(dump_table(table(fam, *params)))


@pytest.mark.parametrize("above", [False, True])
def test_kappa4_exact_at_float_bound(above):
    # C3 has two complex irreps, so the conjugation permutation is not trivial
    T = _fresh_table("cyclic", 3)
    k = T.num_classes
    top = isqrt((2**53 - 1) // k) + above  # k * top^2 < 2^53 exactly when not above
    rng = np.random.default_rng(0)
    t3 = top - rng.integers(0, 2, size=(k, k, k))
    t3[0, 0, 0] = top
    T._cache["kappa3"] = t3
    t4 = kron.kappa_tensor4(T)
    assert t4.dtype == (object if above else np.int64)
    perm = [T.conjugate_irrep(w) for w in range(k)]
    for a, b, c, d in np.ndindex(k, k, k, k):
        exact = sum(int(t3[a, b, w]) * int(t3[perm[w], c, d]) for w in range(k))
        assert t4[a, b, c, d] == exact


def test_conj_count_kappa_sq_exact_beyond_int64():
    T = _fresh_table("symmetric", 3)
    t4 = np.full((3, 3, 3, 3), 2**40, dtype=object)
    t4[0, 0, 0, 0] = 3**30
    T._cache["kappa4"] = t4
    assert kron.conj_count(T, 3).values["kappa_sq"] == 80 * 2**80 + 3**60


@pytest.mark.parametrize("fam,params,d,count", [
    ("symmetric", (3,), 2, 11),
    ("symmetric", (3,), 3, 49),
    ("generalized_quaternion", (4,), 2, 28),
    ("cyclic", (4,), 2, 16),
])
def test_conj_count_against_oracle(fam, params, d, count):
    G = build(fam, *params)
    T = table(fam, *params)
    rep = kron.conj_count(T, d)
    assert rep.agree
    assert rep.values["burnside"] == count
    assert simultaneous_classes(G, d).orbit_count == count


@pytest.mark.parametrize("fam,params,d", [
    ("symmetric", (3,), 2),
    ("symmetric", (4,), 2),
    ("generalized_quaternion", (4,), 2),
    ("generalized_quaternion", (6,), 2),
    ("alternating", (4,), 3),
    ("cyclic", (6,), 3),
])
def test_rconj_count_against_oracle(fam, params, d):
    G = build(fam, *params)
    T = table(fam, *params)
    rep = kron.rconj_count(T, d)
    assert rep.agree
    assert rep.values["r_moment"] == simultaneous_classes(G, d).real_orbit_count


def test_rconj_d1_counts_self_dual_irreps():
    T = table("cyclic", 5)
    rep = kron.rconj_count(T, 1)
    assert rep.values["sigma_weighted"] == 1  # only the trivial character is real


def test_mftp():
    ok, wit = kron.is_mftp(table("symmetric", 4), 2)
    assert ok and wit is None
    ok, wit = kron.is_mftp(table("alternating", 4), 2)
    assert not ok and wit.value == 2
    t3 = kron.kappa_tensor3(table("alternating", 4))
    assert t3[wit.irreps] == wit.value
    # the witness is the lexicographically least violating tuple
    viol = np.argwhere(t3 >= 2)
    assert tuple(viol[0]) == wit.irreps


def test_d_real():
    ok, _ = kron.is_d_real_char(table("symmetric", 3), 2)
    assert ok
    ok, _ = kron.is_d_real_char(table("generalized_quaternion", 6), 1)
    assert not ok  # Q(C6) is not even real
    ok, _ = kron.is_d_real_char(table("generalized_quaternion", 4), 2)
    assert ok


def test_frame_verify_and_hecke():
    G = build("symmetric", 4)
    T = table("symmetric", 4)
    fix = [g for g in range(24) if eval(G.labels[g])[3] == 3]
    K = subgroup_closure(G, fix)
    dc = double_cosets(G, K)
    assert kron.frame_verify(T, K).values["sigma_dim"] == dc.self_inverse_count
    assert kron.frame_verify(T, K).values["sigma_dim"] == frame_pair_count(G, K)
    assert kron.hecke_dimension(T, K).values["dim_sq"] == len(dc.cosets)
    assert kron.easy_gelfand_verify(T, K, dc.symmetric)


def test_gelfand_diagonal_pair():
    G = build("symmetric", 3)
    P, Delta = diagonal_subgroup(G, 1)
    from kronkit.chartab import character_table

    TP = character_table(P)
    sym = double_cosets(P, Delta).symmetric
    assert sym
    assert kron.easy_gelfand_verify(TP, Delta, sym)


def test_combinatorial_profile():
    prof = kron.combinatorial_profile(table("frobenius", 7, 1, 3))
    assert (prof.matched, prof.z, prof.a, prof.q) == (True, 1, 7, 3)
    prof = kron.combinatorial_profile(table("heisenberg", 1, 3))
    assert (prof.matched, prof.z, prof.a, prof.q) == (True, 3, 9, 3)
    prof = kron.combinatorial_profile(table("heisenberg_odd_p3", 3))
    assert (prof.matched, prof.z, prof.a, prof.q) == (True, 3, 9, 3)
    assert not kron.combinatorial_profile(table("symmetric", 4)).matched
    assert not kron.combinatorial_profile(table("cyclic", 6)).matched


def test_sign_law_holds():
    for fam, params in [("symmetric", (4,)), ("symmetric", (5,)),
                        ("alternating", (5,)), ("generalized_quaternion", (6,)),
                        ("gl2", (3,))]:
        assert kron.sign_law_violations(table(fam, *params)) == []


def test_classify_matrix():
    cls = kron.classify(table("symmetric", 3))
    assert cls.mftp_d == {2: True, 3: False}
    assert cls.real and cls.doubly_real
    cls = kron.classify(table("generalized_quaternion", 6))
    assert not cls.real and not cls.doubly_real
    cls = kron.classify(table("extraspecial2", 1, 1))
    assert cls.doubly_real and cls.mftp_d[2]
    cls = kron.classify(table("gl2", 3))
    assert not cls.mftp_d[2] and cls.witness is not None


def test_higher_power_conjugate_pairing():
    # kappa(V, V', V', V) >= 2 for a dim >= 2 irrep of a non-Abelian group
    for fam, params in [("symmetric", (4,)), ("psl2", (5,)), ("heisenberg", (1, 3))]:
        T = table(fam, *params)
        v = next(i for i, dgr in enumerate(T.degrees) if dgr >= 2)
        vc = T.conjugate_irrep(v)
        assert kron.kronecker(T, (v, vc, vc, v)).value >= 2


def test_sigma_values_are_indicators():
    for fam, params in [("symmetric", (5,)), ("cyclic", (7,)), ("psl2", (5,))]:
        fs = fs_indicators(table(fam, *params))
        assert set(fs.sigma) <= {-1, 0, 1}
