import re
from importlib import resources
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronkit import modular
from kronkit.chartab import (
    CharacterTable,
    TableError,
    character_table,
    dim_fixed_space,
    dump_table,
    fs_indicators,
    load_table,
)
from kronkit.cli import _battery_entries
from kronkit.cyclo import Cyclotomic
from kronkit.groupcore import subgroup_closure
from kronkit.zoo import cyclic

from conftest import build, table

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
    got = set()
    for i in (1, 2):
        for c in five_cls:
            v = T.value(i, c)
            x = v.approx().real
            got.add(round(x, 6))
    assert got == {round((1 + 5**0.5) / 2, 6), round((1 - 5**0.5) / 2, 6)}


def test_q8_indicators():
    T = table("generalized_quaternion", 4)
    fs = fs_indicators(T)
    assert sorted(fs.sigma) == [-1, 1, 1, 1, 1]
    two_dim = T.degrees.index(2)
    assert fs.sigma[two_dim] == -1
    assert fs.r_max == 6
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
    # a computed table reads rows at the inverse classes; the same table
    # without class data conjugates every value
    for _, fam, params in _battery_entries(None):
        T = table(fam, *params)
        U = CharacterTable(order=T.order, exponent=T.exponent, sizes=T.sizes,
                           powermap2=T.powermap2, irreps=T.irreps)
        k = T.num_classes
        assert [T.conjugate_irrep(i) for i in range(k)] == [
            U.conjugate_irrep(i) for i in range(k)]


def test_dim_fixed_space():
    G = build("symmetric", 4)
    T = table("symmetric", 4)
    fix = [g for g in range(24) if eval(G.labels[g])[3] == 3]
    K = subgroup_closure(G, fix)
    dims = sorted(dim_fixed_space(T, i, K) for i in range(5))
    # permutation character of S4 on 4 points = trivial + standard
    assert dims == [0, 0, 0, 1, 1]
    whole = subgroup_closure(G, list(range(24)))
    assert sum(dim_fixed_space(T, i, whole) for i in range(5)) == 1


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
    ("chi: 6:[0=2/1]", "chi: 6:[1=1/1]", "degree"),
    ("exponent 6", "exponent 600006", "exponent does not divide the order"),
])
def test_load_table_input_contract(old, new, message):
    assert old in S3_TEXT
    load_table(S3_TEXT)
    with pytest.raises(TableError, match=message):
        load_table(S3_TEXT.replace(old, new, 1))


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

