import tracemalloc

import numpy as np
import pytest

from kronkit import kron
from kronkit.chartab import (VerificationError, character_table, dump_table, fs_indicators,
                              load_table)
from kronkit.groupcore import direct_product, subgroup_closure
from kronkit.orbits import double_cosets, frame_pair_count, simultaneous_classes

from conftest import BATTERY, build, c2_power_table, classified, diagonal_subgroup, table


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
    # C4 has two complex irreps, so the conjugation permutation is not trivial
    for fam, params in [("symmetric", (3,)), ("cyclic", (4,))]:
        T = table(fam, *params)
        t4 = np.stack(list(kron.kappa_slabs(T, 3)))
        for irreps in np.ndindex(t4.shape):
            assert t4[irreps] == kron.kronecker(T, irreps).value, (fam, irreps)


def _fresh_table(fam, *params):
    """A table with empty caches, so crafted tensors can be planted."""
    return load_table(dump_table(table(fam, *params)))


def _plant(T, t3):
    """Plant ``t3`` as T's d=2 tensor; return it as nested Python ints."""
    T._cache["kappa3"] = t3
    return t3.tolist()


def _kappa4(T, t):
    """The d=3 tensor from the d=2 tensor ``t`` in Python ints:
    kappa(a, b, c, d) = sum_w kappa(a, b, w) kappa(w', c, d)."""
    k = T.num_classes
    perm = [T.conjugate_irrep(w) for w in range(k)]
    return {(a, b, c, d): sum(t[a][b][w] * t[perm[w]][c][d] for w in range(k))
            for a, b, c, d in np.ndindex(k, k, k, k)}


def _four_square_tensor(x, y, z, w):
    """A C4 table whose planted t3 is symmetric in its three slots, with
    x at (0, 0, 0) and y, z, w at the permutations of (1, 1, 0), (2, 2, 0)
    and (3, 3, 0): the largest diagonal entry of Phi(I), the largest sum of
    squares of a slab t3[:, :, c], is x^2 + y^2 + z^2 + w^2."""
    T = _fresh_table("cyclic", 4)
    t3 = np.zeros((4, 4, 4), dtype=np.int64)
    t3[0, 0, 0] = x
    for i, v in ((1, y), (2, z), (3, w)):
        t3[i, i, 0] = t3[i, 0, i] = t3[0, i, i] = v
    return T, t3


@pytest.mark.parametrize("above", [False, True])
def test_kappa4_exact_at_float_bound(above):
    # the float64 certificate's edge: Phi(I) (the d = 2 and d = 3 chains, and
    # the d=3 slabs) holds an entry of 2^53 - 1, or of exactly 2^53
    squares = (2**26, 2**26, 0, 0) if above else (94906265, 10885, 71, 50)
    assert sum(v * v for v in squares) == 2**53 - (not above)
    T, t3 = _four_square_tensor(*squares)
    k = T.num_classes
    # C4: two self-dual irreps and a conjugate pair
    assert sorted(T.conjugate_irrep(w) != w for w in range(k)) == [False, False, True, True]
    t = _plant(T, t3)
    if above:
        # the counts note the sums they leave out; d = 2 slabs are t3 itself
        for d in (2, 3):
            assert kron.conj_count(T, d).notes == {"kappa_sq": kron.PAST_2_53}
            assert kron.rconj_count(T, d).notes == {"sigma_weighted": kron.PAST_2_53}
        with pytest.raises(kron.InexactError, match="too large"):
            kron.kappa_slabs(T, 3)
        # the decisions come from class sums of the table, with no tensor
        assert kron.is_mftp(T, 2) == kron.is_mftp(T, 3) == (True, None)
        return
    t4 = _kappa4(T, t)
    s = fs_indicators(T).sigma
    assert max(t4.values()) == 94906265**2  # kappa(0, 0, 0, 0), exact in float64
    assert kron.conj_count(T, 2).values["kappa_sq"] == sum(
        v * v for plane in t for row in plane for v in row)
    assert kron.conj_count(T, 3).values["kappa_sq"] == sum(v * v for v in t4.values())
    assert kron.rconj_count(T, 2).values["sigma_weighted"] == sum(
        s[a] * s[b] * s[c] * t[a][b][c] for a, b, c in np.ndindex(k, k, k))
    assert kron.rconj_count(T, 3).values["sigma_weighted"] == sum(
        s[a] * s[b] * s[c] * s[d] * v for (a, b, c, d), v in t4.items())
    slabs = np.stack(list(kron.kappa_slabs(T, 3)))
    assert all(slabs[irreps] == v for irreps, v in t4.items())
    # Phi^2(I) is far past 2^53
    assert kron.conj_count(T, 4).notes == {"kappa_sq": kron.PAST_2_53}


def test_conj_count_kappa_sq_exact_beyond_int64():
    T = _fresh_table("symmetric", 3)
    t3 = np.full((3, 3, 3), 2**20, dtype=np.int64)
    t3[0, 0, 0] = 3**12
    t4 = _kappa4(T, _plant(T, t3))
    assert max(t4.values()) ** 2 > 2**63
    assert kron.conj_count(T, 3).values["kappa_sq"] == sum(v * v for v in t4.values())


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
    assert kron.gelfand_symmetric(T, K).values["char"] == int(dc.symmetric)


def test_gelfand_diagonal_pair():
    G = build("symmetric", 3)
    P, Delta = diagonal_subgroup(G, 1)
    from kronkit.chartab import character_table

    TP = character_table(P)
    sym = double_cosets(P, Delta).symmetric
    assert sym
    assert kron.gelfand_symmetric(TP, Delta).values["char"] == int(sym)


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


def _chars(T):
    return {name: r.values["char"] for name, r in classified(T).items() if "char" in r.values}


def test_classify_matrix():
    cls = _chars(table("symmetric", 3))
    assert (cls["mftp_2"], cls["mftp_3"]) == (1, 0)
    assert cls["real"] and cls["doubly_real"]
    cls = _chars(table("generalized_quaternion", 6))
    assert not cls["real"] and not cls["doubly_real"]
    cls = _chars(table("extraspecial2", 1, 1))
    assert cls["doubly_real"] and cls["mftp_2"]
    cls = classified(table("gl2", 3))
    assert not cls["mftp_2"].values["char"] and cls["mftp_2"].witness is not None


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


def test_conj_count_copies_no_tensor():
    T = load_table(c2_power_table(5))  # 32 classes: the d=3 tensor holds 2^20 entries
    k = T.num_classes
    kron.kappa_tensor3(T)
    tracemalloc.start()
    try:
        conj, rconj = kron.conj_count(T, 3), kron.rconj_count(T, 3)
        mftp, _ = kron.is_mftp(T, 3)
        top = max(int(slab.max()) for slab in kron.kappa_slabs(T, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conj.values == {"burnside": k**3, "kappa_sq": k**3}
    assert rconj.values == {"r_moment": k**3, "sigma_weighted": k**3}
    assert mftp and top == 1
    assert peak < k**4 * 8 // 8  # an eighth of the d=3 tensor


def _slabs(T, d):
    """kappa over all (d+1)-tuples, one first irrep a at a time: at d = 1
    kappa(a, b) = [b = a'], from d = 2 ``kron.kappa_slabs``."""
    if d > 1:
        return kron.kappa_slabs(T, d)
    return np.eye(T.num_classes, dtype=np.int64)[[T.conjugate_irrep(a)
                                                  for a in range(T.num_classes)]]


def _slab_sweep(T, d):
    """The full slab sweep, kept as the oracle of the class sums and the
    transfer-chain sums, and of the decisions taken from them: (sum kappa,
    sum kappa^2, sum (prod sigma) kappa, least tuple with kappa >= 2, least
    tuple that breaks d-reality), the tuples as (irreps, kappa) or None."""
    s = np.array(fs_indicators(T).sigma)
    rest = s
    for _ in range(d - 1):
        rest = np.multiply.outer(rest, s)
    total = kappa_sq = sigma_weighted = 0
    first_big = first_unreal = None
    for a, slab in enumerate(_slabs(T, d)):
        assert slab.max() < 2**16  # so each slab's int64 sums are exact
        total += int(slab.sum())
        kappa_sq += int((slab * slab).sum())
        sigma_weighted += int(s[a]) * int((slab * rest).sum())
        for irreps, value in np.ndenumerate(slab):
            if first_big is None and value >= 2:
                first_big = ((a, *irreps), int(value))
            if first_unreal is None and (value >= 2 or (value == 1 and s[a] * rest[irreps] != 1)):
                first_unreal = ((a, *irreps), int(value))
    return total, kappa_sq, sigma_weighted, first_big, first_unreal


def _as_pair(result):
    ok, wit = result
    assert ok == (wit is None)
    return None if ok else (wit.irreps, wit.value)


def test_kappa_sums_equal_the_slab_sums():
    # the class sums, the chain sums and the decisions, against the full sweep
    P = direct_product(direct_product(build("symmetric", 3), build("symmetric", 3)),
                       build("symmetric", 4))
    tables = [table(fam, *params) for _, fam, params in BATTERY]
    tables.append(load_table(dump_table(character_table(P))))  # an import: no group
    decided = 0
    for T in tables:
        for d in (1, 2, 3):
            if kron.over_kappa_cap(T, d, kron.DEFAULT_KAPPA_CAP):
                continue
            total, kappa_sq, sigma_weighted, first_big, first_unreal = _slab_sweep(T, d)
            assert kron._psi_moment(T, d) == total
            assert kron.conj_count(T, d).values["kappa_sq"] == kappa_sq
            assert kron.rconj_count(T, d).values["sigma_weighted"] == sigma_weighted
            if d > 1:
                assert _as_pair(kron.is_d_real_char(T, d)) == first_unreal
                assert _as_pair(kron.is_mftp(T, d)) == first_big
            else:  # reality: decided with no witness
                assert kron.is_d_real_char(T, 1) == (first_unreal is None, None)
            decided += 1
    assert decided == 3 * len(tables)


def test_d2_sums_price_t3_alone():
    # k = 112: t3 prices k^4 / 2 < 10^8, and the d = 3 sums add a chain step
    T = table("abelian", 2, 2, 2, 2, 7)
    assert T.num_classes == 112
    assert not kron.over_kappa_cap(T, 2, kron.DEFAULT_KAPPA_CAP)
    assert kron.over_kappa_cap(T, 3, kron.DEFAULT_KAPPA_CAP)
    assert kron.conj_count(T, 2).values == {"burnside": 12544, "kappa_sq": 12544}
    assert kron.rconj_count(T, 2).values == {"r_moment": 256, "sigma_weighted": 256}


def test_failing_sum_without_witness_is_a_bug_trap(monkeypatch):
    T = _fresh_table("symmetric", 3)  # MFTP and doubly real: no slab holds a witness
    assert (kron._burnside(T, 2), kron._psi_moment(T, 2), kron._r_moment(T, 2)) == (11, 11, 11)
    monkeypatch.setattr(kron, "_psi_moment", lambda T, d: 10)
    with pytest.raises(VerificationError, match="no kappa slab"):
        kron.is_mftp(T, 2)
    monkeypatch.setattr(kron, "_r_moment", lambda T, d: 10)
    with pytest.raises(VerificationError, match="no kappa slab"):
        kron.is_d_real_char(T, 2)
    # a witness search cut by the cap is a skipped witness, not a trap
    assert kron.is_mftp(T, 2, kappa_cap=0) == (False, None)
    monkeypatch.undo()
    T.coeffs[1, 1, 1] += 1  # psi, the sum of the irreducible characters, is now irrational
    with pytest.raises(VerificationError, match="not rational"):
        kron.is_mftp(T, 2)


def test_sign_law_violations_lists_each_triple():
    T = _fresh_table("generalized_quaternion", 6)  # a conjugate pair and a sigma = -1 irrep
    k = T.num_classes
    s = fs_indicators(T).sigma
    assert -1 in s and any(T.conjugate_irrep(i) != i for i in range(k))
    t3 = np.ones((k, k, k), dtype=np.int64)
    q = s.index(-1)
    t3[q, q, q] = 2  # sigma(q)^2 != sigma(q), but the multiplicity is not one
    t3[0, q, 0] = 0
    _plant(T, t3)
    expected = [(u, v, w) for u, v, w in np.ndindex(k, k, k)
                if all(T.conjugate_irrep(i) == i for i in (u, v, w))
                and t3[u, v, w] == 1 and s[u] * s[v] != s[w]]
    assert len(expected) > 1
    assert kron.sign_law_violations(T) == expected


def test_psl2_8_is_not_mftp():
    # PSL2(8) = SL2(8), of order 504: a non-abelian simple group past q = 7
    rec = classified(table("psl2", 8))["mftp_2"]
    assert rec.values["char"] == 0 and rec.witness.endswith("=2")


def test_reality_is_decided_without_a_slab(monkeypatch):
    asked, slabs = [], kron.kappa_slabs
    monkeypatch.setattr(kron, "kappa_slabs", lambda T, d: asked.append(d) or slabs(T, d))
    for fam, params, real in [("cyclic", (3,), 0), ("frobenius", (7, 1, 3), 0),
                              ("symmetric", (4,), 1)]:
        T = _fresh_table(fam, *params)
        assert kron.is_d_real_char(T, 1) == (bool(real), None)
        assert classified(T)["real"].values == {"char": real}
    assert 1 not in asked
    with pytest.raises(ValueError, match="d = 2 and 3"):
        slabs(T, 1)
