import itertools
import re
from importlib import resources
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronkit import chartab, modular
from kronkit.chartab import (
    CharacterTable,
    TableError,
    VerificationError,
    _dixon_prime,
    _eigenspace,
    _eigenvalues,
    character_table,
    dim_fixed_space,
    dump_table,
    fs_indicators,
    load_table,
)
from kronkit.cli import _battery_entries
from kronkit.cyclo import Cyclotomic, euler_phi
from kronkit.groupcore import subgroup_closure
from kronkit.zoo import cyclic

from conftest import build, non_dual_tables, table

GOLDEN = {
    "S3": ("symmetric", (3,)),
    "S4": ("symmetric", (4,)),
    "S5": ("symmetric", (5,)),
    "Q8": ("generalized_quaternion", (4,)),
    "D8": ("generalized_dihedral", (4,)),
    "A5": ("alternating", (5,)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_tables(name):
    family, params = GOLDEN[name]
    T = table(family, *params)
    golden = resources.files("kronkit").joinpath(f"data/golden/{name}.tbl").read_text()
    assert dump_table(T) == golden


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_tables_do_not_depend_on_the_root_of_unity(name, monkeypatch):
    # Irr(G) is Galois-stable and its rows are sorted, so every root of unity
    # z^a (a a unit mod e) in place of z gives the same table; the class-sum
    # engine takes z^a too, and stays exact
    family, params = GOLDEN[name]
    golden = resources.files("kronkit").joinpath(f"data/golden/{name}.tbl").read_text()
    root = modular._root_of_unity
    e = build(family, *params).exponent()
    for a in range(2, e):
        if gcd(a, e) == 1:
            monkeypatch.setattr(modular, "_root_of_unity",
                                lambda p, e, a=a: pow(root(p, e), a, p))
            assert dump_table(character_table(build(family, *params))) == golden, a


@st.composite
def _matrices_mod_p(draw):
    """A stack of one to three m x m matrices over F_p, and p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=count * m * m, max_size=count * m * m))
    return np.array(entries, dtype=np.int64).reshape(count, m, m), p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_matrices_mod_p(), st.sampled_from([1, 3, 2**22]))
@example((np.array([[[1, 1], [0, 1]]]), 5), 2**22)                  # a Jordan block
@example((np.array([[[2, 1, 0], [0, 2, 1], [0, 0, 2]]]), 3), 2**22)
@example((np.array([[[0, 1], [0, 0]]]), 2), 2**22)
@example((np.array([[[0, 12], [1, 0]]]), 13), 2**22)                # x^2 + 1 splits mod 13
@example((np.array([[[0, 2], [1, 0]]]), 3), 2**22)                  # x^2 + 1 has no root mod 3
@example((np.array([[[0, 12], [1, 0]], [[1, 1], [0, 1]], [[0, 1], [0, 0]]]), 13), 3)
def test_eigenvalues_match_brute_force(case, matrices_per_block):
    # lambda is an eigenvalue iff some nonzero v in F_p^m has (M - lambda I) v = 0;
    # the kernel vectors, counted by enumeration, number p^dim.  Small blocks
    # cut the stacked search inside one matrix's shifts and across matrices
    Ms, p = case
    m = Ms.shape[-1]
    with mock.patch.object(chartab, "_EIGEN_BLOCK", matrices_per_block * m * m):
        stacked = _eigenvalues(Ms, p)
    assert len(stacked) == len(Ms)
    vectors = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64).T
    for M, eigen in zip(Ms, stacked):
        found = {lam: _eigenspace(R, pivot, p)[0] for lam, R, pivot in eigen}
        assert [lam for lam, _, _ in eigen] == sorted(found)
        kernels = {}
        for lam in range(p):
            count = int(((M - lam * np.eye(m, dtype=np.int64)) @ vectors % p == 0).all(axis=0).sum())
            if count > 1:
                kernels[lam] = count
        assert sorted(found) == sorted(kernels)
        for lam, N in found.items():
            assert p ** len(N) == kernels[lam]
            assert not ((M - lam * np.eye(m, dtype=np.int64)) @ N.T % p).any()


def test_dixon_prime_int64_edge():
    # p = 786433 is the least prime = 1 (mod 2^17), so it is the Dixon prime
    # for every n < p^2 / 4; n (p - 1)^2 < 2^63 admits n up to 14913080
    e = 2**17
    p = next(q for q in range(e + 1, 10 * e, e) if modular._is_prime(q))
    n = (2**63 - 1) // (p - 1) ** 2
    assert (p, n) == (786433, 14913080) and 4 * (n + 1) < p * p
    assert _dixon_prime(e, n) == p
    with pytest.raises(ValueError, match="too large for int64"):
        _dixon_prime(e, n + 1)


def test_trivial_and_cyclic():
    T = character_table(cyclic(1))
    assert T.num_classes == 1 and T.degrees == (1,)
    T = character_table(cyclic(4))
    assert T.degrees == (1, 1, 1, 1)
    vals = [T.value(i, 1) for i in range(4)]
    i_unit = Cyclotomic.root(4)
    for want in (Cyclotomic.rational(1), Cyclotomic.rational(-1),
                 i_unit, i_unit.conjugate()):
        assert sum(1 for v in vals if v == want) == 1


def test_s3_table_values():
    T = table("symmetric", 3)
    assert T.degrees == (1, 1, 2)
    std = 2
    vals = sorted((T.value(std, c).to_rational(), T.sizes[c]) for c in range(3))
    assert vals == [(-1, 2), (0, 3), (2, 1)]


def test_degree_squares_sum():
    for fam, params in [("symmetric", (5,)), ("psl2", (7,)), ("gl2", (3,)),
                        ("heisenberg", (1, 5))]:
        T = table(fam, *params)
        assert sum(d * d for d in T.degrees) == T.order


def test_a5_table_known_degrees_and_golden_ratio_values():
    T = table("alternating", 5)
    assert T.degrees == (1, 3, 3, 4, 5)
    # the two 3-dim characters take the golden-ratio values on order-5 classes
    five_cls = [c for c in range(5) if T.order // T.sizes[c] == 5]
    values = [T.value(i, c) for i in (1, 2) for c in five_cls]
    # each is (1 + sqrt 5)/2 or (1 - sqrt 5)/2, an irrational root of x^2 = x + 1
    for x in values:
        assert x * x == x + 1 and not x.is_rational()
    assert any(x != values[0] for x in values)  # both roots occur


def test_q8_indicators():
    T = table("generalized_quaternion", 4)
    fs = fs_indicators(T)
    assert sorted(fs.sigma) == [-1, 1, 1, 1, 1]
    two_dim = T.degrees.index(2)
    assert fs.sigma[two_dim] == -1
    assert max(fs.r) == 6
    assert sorted(fs.r) == [0, 0, 0, 2, 6]
    assert sum(s * r for s, r in zip(T.sizes, fs.r)) == 8


def test_c3_indicators_vanish_on_complex_characters():
    fs = fs_indicators(table("cyclic", 3))
    assert sorted(fs.sigma) == [0, 0, 1]


def test_conjugate_irrep_involution():
    T = table("cyclic", 5)
    for i in range(5):
        j = T.conjugate_irrep(i)
        assert T.conjugate_irrep(j) == i
    T = table("symmetric", 4)
    assert all(T.conjugate_irrep(i) == i for i in range(5))  # all real


def test_conjugate_irrep_by_classes_matches_conjugated_values():
    # the d = 1 Kronecker matrix against Cyclotomic.conjugate, value by value,
    # on every battery table and on a copy of it without class data
    for _, spec in _battery_entries(None):
        T = table(spec.family, *spec.params)
        U = CharacterTable(order=T.order, exponent=T.exponent, sizes=T.sizes,
                           powermap2=T.powermap2, coeffs=T.coeffs)
        rows = [list(ch.values) for ch in T.irreps]
        for i, row in enumerate(rows):
            assert rows[T.conjugate_irrep(i)] == [v.conjugate() for v in row]
            assert U.conjugate_irrep(i) == T.conjugate_irrep(i)


@pytest.mark.parametrize("c", [(2**63 - 1) // 1223, (2**63 - 1) // 1223 + 1])
def test_conjugate_irrep_int64_edge(c):
    # the row c zeta of this one-row table at e = 1155 has no conjugate row:
    # it is not Galois-stable (zeta -> zeta^a moves its one value), so no class
    # sum is exact for it, and its d = 1 Kronecker sum 1155 c^2 zeta^2 is not
    # rational.  The refusal holds on either side of 1223 c = 2^63, with the
    # certificate's coefficients reduced mod p before any product
    coeffs = np.zeros((1, 1, 480), dtype=np.int64)
    coeffs[0, 0, 1] = c
    T = CharacterTable(order=1155, exponent=1155, sizes=(1155,), powermap2=(0,),
                       coeffs=coeffs)
    with pytest.raises(VerificationError, match="contragredient character missing"):
        T.conjugate_irrep(0)


def test_conjugate_irrep_refuses_a_rational_non_permutation():
    # the one row 2 of a one-class table: Q = [[4]] is rational, but not
    # n = 1 times a permutation matrix
    T = CharacterTable(order=1, exponent=1, sizes=(1,), powermap2=(0,),
                       coeffs=np.array([[[2]]], dtype=np.int64))
    with pytest.raises(VerificationError, match="contragredient character missing"):
        T.conjugate_irrep(0)


def test_dim_fixed_space():
    G = build("symmetric", 4)
    T = table("symmetric", 4)
    fix = [g for g in range(24) if eval(G.labels[g])[3] == 3]
    K = subgroup_closure(G, fix)
    dims = sorted(dim_fixed_space(T, K))
    # permutation character of S4 on 4 points = trivial + standard
    assert dims == [0, 0, 0, 1, 1]
    whole = subgroup_closure(G, list(range(24)))
    assert sum(dim_fixed_space(T, whole)) == 1


@pytest.mark.parametrize("planted", [2**63 - 1, 2**63])
def test_dim_fixed_space_int64_edge(monkeypatch, planted):
    # the int64 row sums are certified by the L1 bound max_i sum_c counts_c
    # L1(chi_i(c)); planted on the identity class (count 1), it is the bound
    G = build("symmetric", 4)
    K = subgroup_closure(G, [g for g in range(24) if eval(G.labels[g])[3] == 3])
    want = dim_fixed_space(table("symmetric", 4), K)
    T = character_table(G)
    l1 = [[0] * T.num_classes for _ in range(T.num_classes)]
    l1[0][0] = planted
    monkeypatch.setattr(modular.images(T), "l1", l1)
    if planted < 2**63:
        assert dim_fixed_space(T, K) == want
    else:
        with pytest.raises(VerificationError, match="not below 2\\^63"):
            dim_fixed_space(T, K)


def test_an_irrational_square_root_count_is_trapped(monkeypatch):
    # A5's two 3-dim characters take (1 +- sqrt 5)/2 on the 5-classes; with the
    # first one's n sigma planted as -n, sigma is still nonzero exactly on the
    # self-dual irreps, but r = sum sigma chi holds sqrt 5
    kronecker_matrix = chartab._kronecker_matrix

    def plant(T):
        S = kronecker_matrix(T)
        S[T.degrees.index(3), -1] *= -1
        return S

    monkeypatch.setattr(chartab, "_kronecker_matrix", plant)
    T = character_table(build("alternating", 5))
    with pytest.raises(VerificationError, match="square-root count not rational"):
        fs_indicators(T)


@pytest.mark.parametrize("planted", [2**52 - 1, 2**52])
def test_lifted_coefficients_are_checked_below_2_52(monkeypatch, planted):
    # the int64 row sums and the L1 norms of ``modular`` need every coefficient
    # below 2^52 in size; at the bound the lift is refused, and just below it
    # the planted value passes that check and fails the table check
    lift = chartab._lift

    def plant(*args):
        coeffs = lift(*args)
        coeffs[1, 1, 0] = planted
        return coeffs

    monkeypatch.setattr(chartab, "_lift", plant)
    message = "orthogonality" if planted < 2**52 else "not below 2\\^52"
    with pytest.raises(VerificationError, match=message):
        character_table(build("symmetric", 3))


def test_dump_load_round_trip():
    for fam, params in [("symmetric", (4,)), ("cyclic", (8,)),
                        ("generalized_quaternion", 6)]:
        T = table(fam, *params) if isinstance(params, tuple) else table(fam, params)
        U = load_table(dump_table(T))
        assert U.order == T.order and U.exponent == T.exponent
        assert U.sizes == T.sizes and U.powermap2 == T.powermap2
        assert all(U.value(i, c) == T.value(i, c)
                   for i in range(T.num_classes) for c in range(T.num_classes))
        assert dump_table(U) == dump_table(T)


def test_load_rejects_corruption():
    text = dump_table(table("symmetric", 3))
    # flip one character value: orthogonality must fail
    bad = text.replace("6:[0=2/1]", "6:[0=3/1]")
    assert bad != text
    with pytest.raises(TableError):
        load_table(bad)
    with pytest.raises((TableError, ValueError)):
        load_table("order x\n")


def test_imported_table_supports_indicator_counts():
    U = load_table(dump_table(table("generalized_quaternion", 4)))
    assert U.group is None
    fs = fs_indicators(U)
    assert sorted(fs.sigma) == [-1, 1, 1, 1, 1]


S3_TEXT = resources.files("kronkit").joinpath("data/golden/S3.tbl").read_text()


@pytest.mark.parametrize("old,new,message", [
    ("powermap2 0 0 2", "powermap2 0 0 0", "Frobenius-Schur"),
    ("6:[0=2/1]", "6:[0=2/1,1=1/2]", "algebraic integer"),
    ("6:[0=-1/1] | 6:[0=1/1]", "5:[0=-1/1] | 6:[0=1/1]", "conductor"),
    ("sizes 1 3 2", "sizes 4 0 2", "positive"),
    ("6:[]", "6:[0=1/0]", "format error"),
    # the last term would win and read as 2: a repeated index is refused
    ("6:[0=2/1]", "6:[0=1/1,0=2/1]", "format error: coefficient index 0 written twice"),
    ("chi: 6:[0=2/1]", "chi: 6:[1=1/1]", "degree"),
    ("exponent 6", "exponent 600006", "exponent does not divide the order"),
    # int64 bound of imported coefficients: 2^52 - 1 passes it (and fails
    # orthogonality), 2^52 does not
    ("6:[0=2/1]", f"6:[0={2**52 - 1}/1]", "orthogonality"),
    ("6:[0=2/1]", f"6:[0={2**52}/1]", r"2\^52"),
    ("6:[0=2/1]", f"6:[0={-2**52}/1]", r"2\^52"),
])
def test_load_table_input_contract(old, new, message):
    assert old in S3_TEXT
    load_table(S3_TEXT)
    with pytest.raises(TableError, match=message):
        load_table(S3_TEXT.replace(old, new, 1))


@pytest.mark.parametrize("name,message", [
    # the unitary mixes of C8-mixed are not Galois-stable either, and that is
    # checked first
    ("C8-mixed", "Galois-stable"),
    ("C2xC2-pm4", "indicator contradicts duality"),
])
def test_load_table_refuses_tables_not_closed_under_duality(name, message):
    with pytest.raises(TableError, match=message):
        load_table(non_dual_tables()[name])


@pytest.mark.parametrize("order", [2**62, 2**70])
def test_load_table_refuses_non_orthogonal_rows_at_any_order(order):
    # the rows (1, 1) and (1, -1) with class sizes 1 and n - 1: Q[0, 1] = 2 - n;
    # past int64 the comparison with n must still refuse, not overflow
    text = (f"order {order}\nexponent 1\nclasses 2\nsizes 1 {order - 1}\npowermap2 0 1\n"
            "chi: 1:[0=1/1] | 1:[0=1/1]\nchi: 1:[0=1/1] | 1:[0=-1/1]\n")
    with pytest.raises(TableError, match="orthogonality failed on import"):
        load_table(text)


def test_load_table_writes_values_at_the_exponent():
    # zeta_3 = zeta_6^2 = zeta_6 - 1: written at conductor 3, dumped at 6
    text = dump_table(table("cyclic", 6))
    zeta3 = "6:[0=-1/1,1=1/1]"
    assert zeta3 in text
    U = load_table(text.replace(zeta3, "3:[1=1/1]"))
    assert dump_table(U) == text


def _one_class_table(e, value="1:[0=1/1]"):
    return f"order {e}\nexponent {e}\nclasses 1\nsizes {e}\npowermap2 0\nchi: {value}\n"


def test_load_table_phi_bound_edges(monkeypatch):
    # phi(4096) = 2048 = MAX_TERMS passes the bound (and fails later, at the
    # degree); phi(4097) = 3840 does not
    assert modular.MAX_TERMS == 2048
    with pytest.raises(TableError, match="bad character degree"):
        load_table(_one_class_table(4096, "1:[0=0/1]"))
    with pytest.raises(TableError, match=r"phi\(exponent\)"):
        load_table(_one_class_table(4097))
    # phi(e) >= sqrt(e / 2): above 2 MAX_TERMS^2 = 2^23 e is refused unfactored
    factored = []
    monkeypatch.setattr(chartab, "euler_phi", lambda e: factored.append(e) or euler_phi(e))
    for e in (2**23, 2**23 + 1):
        with pytest.raises(TableError, match=r"phi\(exponent\)"):
            load_table(_one_class_table(e))
    assert factored == [2**23]


_TOKEN = re.compile(r"(\s+|[|:\[\],=/])")
_REPLACEMENTS = st.one_of(
    st.integers(-13, 13).map(str),
    st.sampled_from(["", " ", "x", "|", ":", "[", "]", ",", "=", "/", "\n", "chi:",
                     "0/0", "1/2", "4:[1=1/1]", "5:[0=1/1]", "12:[2=-1/1]", "order 6"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([S3_TEXT, dump_table(table("cyclic", 4))]),
       st.lists(st.tuples(st.integers(0, 10**6), _REPLACEMENTS), min_size=1, max_size=4))
def test_load_table_fuzz_raises_only_table_error(base, edits):
    tokens = _TOKEN.split(base)
    for pos, new in edits:
        tokens[pos % len(tokens)] = new
    try:
        load_table("".join(tokens))
    except TableError:
        pass

