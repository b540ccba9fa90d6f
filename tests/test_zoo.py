import itertools

import pytest

from kronkit.groupcore import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    conjugacy_data,
    quotient_group,
    subgroup_closure,
)
from kronkit.cli import _battery_entries
from kronkit.zoo import FAMILIES, FamilySpec, make_field, zoo_build

from conftest import build, rows


def order_census(G):
    census = {}
    for g in range(G.order):
        o = int(G.orders[g])
        census[o] = census.get(o, 0) + 1
    return census


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49])
def test_finite_field_axioms(q):
    F = make_field(q)
    els = range(q)
    assert all(F.add[0][a] == a and F.mul[1][a] == a for a in els)
    assert all(F.add[a][F.neg[a]] == 0 for a in els)
    for a in els:
        for b in els:
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
    # distributivity on a grid
    for a in els:
        for b in els:
            for c in els:
                assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
    # the primitive element has multiplicative order q-1
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = F.mul[x][F.primitive]
        seen.add(x)
    assert len(seen) == q - 1


def test_make_field_rejects_non_prime_power():
    with pytest.raises(GroupError):
        make_field(6)
    for q in (0, 1, 50, 64):  # not a prime power, or one above 49
        with pytest.raises(GroupError, match="prime power|too large"):
            make_field(q)


# (modulus, primitive) of every field: the low coefficients (c_0, ..., c_{k-1})
# of the monic modulus, and the least element of order q - 1
FIELDS = {
    2: ((0,), 1), 3: ((0,), 2), 4: ((1, 1), 2), 5: ((0,), 2), 7: ((0,), 3),
    8: ((1, 1, 0), 2), 9: ((1, 0), 4), 11: ((0,), 2), 13: ((0,), 2),
    16: ((1, 1, 0, 0), 2), 17: ((0,), 3), 19: ((0,), 2), 23: ((0,), 5),
    25: ((2, 0), 6), 27: ((1, 2, 0), 3), 29: ((0,), 2), 31: ((0,), 3),
    32: ((1, 0, 1, 0, 0), 2), 37: ((0,), 2), 41: ((0,), 6), 43: ((0,), 3),
    47: ((0,), 5), 49: ((1, 0), 9),
}


def test_fields_cover_every_prime_power_up_to_49():
    def prime_divisors(q):
        return {p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))}
    assert sorted(FIELDS) == [q for q in range(2, 50) if len(prime_divisors(q)) == 1]


# -- test-only reference: polynomial arithmetic over F_p, coefficients low first --

def _digits(i, p, k):
    return [i // p**j % p for j in range(k)]


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def ref_modulus(p, k):
    """The first candidate, in the order of t = 0, 1, ..., that is not a
    product of two monic polynomials of positive degree."""
    def monic(deg):
        return [_digits(t, p, deg) + [1] for t in range(p**deg)]
    products = {tuple(_polymul(g, h, p)[:k])
                for deg in range(1, k) for g in monic(deg) for h in monic(k - deg)}
    return next(c for c in (tuple(_digits(t, p, k)) for t in range(p**k)) if c not in products)


def ref_mul(a, b, p, k, modulus):
    prod = _polymul(_digits(a, p, k), _digits(b, p, k), p)
    for m in range(len(prod) - 1, k - 1, -1):  # x^m = x^(m-k) (x^k - f)
        c, prod[m] = prod[m], 0
        for j in range(k):
            prod[m - k + j] = (prod[m - k + j] - c * modulus[j]) % p
    return sum(c * p**j for j, c in enumerate(prod[:k]))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_field_matches_brute_force(q):
    F = make_field(q)
    p, k = F.p, F.k
    assert (F.modulus, F.primitive) == FIELDS[q]
    assert F.modulus == ref_modulus(p, k)
    digits = [_digits(a, p, k) for a in range(q)]
    assert F.add.tolist() == [[sum((x + y) % p * p**j for j, (x, y) in enumerate(zip(da, db)))
                               for db in digits] for da in digits]
    mul = [[ref_mul(a, b, p, k, F.modulus) for b in range(q)] for a in range(q)]
    assert F.mul.tolist() == mul
    powers = [[1] for _ in range(q)]  # powers[a] = [a^0, a^1, ...] up to the first 1
    for a in range(1, q):
        while len(powers[a]) == 1 or powers[a][-1] != 1:
            powers[a].append(mul[powers[a][-1]][a])
    assert F.primitive == next(a for a in range(1, q) if len(powers[a]) == q)
    assert F.exp.tolist() == powers[F.primitive][:-1]


@pytest.mark.parametrize("family,params,order,classes", [
    ("cyclic", (12,), 12, 12),
    ("abelian", (2, 2, 3), 12, 12),
    ("symmetric", (4,), 24, 5),
    ("alternating", (5,), 60, 5),
    ("generalized_dihedral", (5,), 10, 4),
    ("generalized_dihedral", (6,), 12, 6),
    ("generalized_quaternion", (4,), 8, 5),
    ("generalized_quaternion", (6,), 12, 6),
    ("heisenberg", (1, 2), 8, 5),
    ("heisenberg", (1, 3), 27, 11),
    ("heisenberg", (2, 2), 32, 17),
    ("extraspecial2", (1, 0), 8, 5),
    ("extraspecial2", (0, 1), 8, 5),
    ("extraspecial2", (2, 0), 32, 17),
    ("extraspecial2", (1, 1), 32, 17),
    ("gl2", (2,), 6, 3),
    ("gl2", (3,), 48, 8),
    ("psl2", (5,), 60, 5),
    ("psl2", (7,), 168, 6),
    ("frobenius", (7, 1, 3), 21, 5),
    ("frobenius", (13, 1, 3), 39, 7),
    ("heisenberg_odd_p3", (3,), 27, 11),
    # past the q <= 7 that gl2 once accepted: only the order cap bounds q
    ("psl2", (9,), 360, 7),
    ("gl2", (8,), 3528, 63),
])
def test_family_orders_and_classes(family, params, order, classes):
    G = build(family, *params)
    assert G.order == order == FamilySpec(family, params).order
    assert conjugacy_data(G).num_classes == classes


def test_family_order_matches_battery():
    for _, spec in _battery_entries(None):
        assert spec.order == build(spec.family, *spec.params).order


def test_order_cap_applies_before_building():
    spec = FamilySpec("symmetric", (5,))
    assert zoo_build(spec, order_cap=120).order == 120
    with pytest.raises(GroupError, match="order cap"):
        zoo_build(spec, order_cap=119)


def test_q8_structure():
    Q8 = build("generalized_quaternion", 4)
    assert order_census(Q8) == {1: 1, 2: 1, 4: 6}


def test_d8_vs_q8_not_isomorphic_by_order_census():
    D8 = build("extraspecial2", 1, 0)
    assert order_census(D8) == {1: 1, 2: 5, 4: 2}


def test_extraspecial_32_types_differ():
    plus = order_census(build("extraspecial2", 2, 0))
    minus = order_census(build("extraspecial2", 1, 1))
    assert plus == {1: 1, 2: 19, 4: 12}
    assert minus == {1: 1, 2: 11, 4: 20}


def test_generalized_quaternion_has_unique_involution():
    for n in (4, 6, 8, 10):
        Q = build("generalized_quaternion", n)
        assert order_census(Q)[2] == 1


def test_generalized_quaternion_rejects_odd():
    with pytest.raises(GroupError):
        build("generalized_quaternion", 5)  # no element of order 2


def test_heisenberg_exponent():
    assert build("heisenberg", 1, 3).exponent() == 3
    assert build("heisenberg_odd_p3", 3).exponent() == 9
    assert build("heisenberg", 1, 2).exponent() == 4  # H1(F2) = D8


def test_frobenius_class_sizes():
    cd = conjugacy_data(build("frobenius", 7, 1, 3))
    assert sorted(cd.sizes) == [1, 3, 3, 7, 7]


def test_psl2_7_element_orders():
    G = build("psl2", 7)
    assert set(order_census(G)) == {1, 2, 3, 4, 7}


def test_gl2_labels_are_matrices():
    G = build("gl2", 3)
    assert G.labels is not None
    assert G.labels[0] == "(1, 0, 0, 1)"


def test_zoo_build_rejects_unknown_family():
    with pytest.raises(GroupError):
        zoo_build(FamilySpec("nonsense", ()))


@pytest.mark.parametrize("family,params,names", [
    ("symmetric", (3, 4), "n"),
    ("heisenberg", (2,), "n q"),
    ("frobenius", (), "p b q"),
    ("abelian", (), "n..."),
])
def test_wrong_parameter_count_names_the_parameters(family, params, names):
    with pytest.raises(GroupError, match=f"^{family} takes the parameters {names}$"):
        FamilySpec(family, params)


def test_intermediate_tables_are_capped():
    # ES32+ is D8 o D8 = (D8 x D8) / C2: the 64-element product is capped
    assert zoo_build(FamilySpec("extraspecial2", (2, 0)), order_cap=64).order == 32
    with pytest.raises(GroupError, match="order cap"):
        zoo_build(FamilySpec("extraspecial2", (2, 0)), order_cap=63)
    # Q(C4) = (C4 x| C4) / C2: the 16-element semidirect product is capped
    assert zoo_build(FamilySpec("generalized_quaternion", (4,)), order_cap=16).order == 8
    with pytest.raises(GroupError, match="order cap"):
        zoo_build(FamilySpec("generalized_quaternion", (4,)), order_cap=15)


# (family, params, order of the largest table the construction holds)
LARGEST_TABLES = [
    ("cyclic", (12,), 12),
    ("abelian", (2, 2, 3), 12),
    ("symmetric", (4,), 24),
    ("alternating", (5,), 60),
    ("generalized_dihedral", (6,), 12),
    ("generalized_quaternion", (6,), 24),  # C6 x| C4
    ("heisenberg", (1, 3), 27),
    ("extraspecial2", (0, 1), 16),  # Q8 through C4 x| C4
    ("extraspecial2", (1, 1), 64),  # D8 x Q8
    ("gl2", (3,), 48),
    ("psl2", (5,), 120),  # SL2(5)
    ("psl2", (4,), 60),  # SL2(4) = PSL2(4)
    ("frobenius", (7, 1, 3), 21),
    ("heisenberg_odd_p3", (3,), 27),
]


def test_every_family_has_a_largest_table_case():
    assert {family for family, _, _ in LARGEST_TABLES} == set(FAMILIES)


@pytest.mark.parametrize("family,params,largest", LARGEST_TABLES)
def test_order_cap_is_the_largest_table(monkeypatch, family, params, largest):
    built = []
    init = GroupTable.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.order)

    monkeypatch.setattr(GroupTable, "__init__", recording_init)
    spec = FamilySpec(family, params)
    assert spec.largest_table == largest
    assert zoo_build(spec, order_cap=largest).order == spec.order
    assert max(built) == largest
    built.clear()
    with pytest.raises(GroupError, match="^group exceeds order cap$"):
        zoo_build(spec, order_cap=largest - 1)
    assert built == []  # refused before any table was built


def test_default_cap_admits_every_tested_order():
    for _, spec in _battery_entries(None):
        assert spec.largest_table <= DEFAULT_ORDER_CAP
    for spec in (("gl2", (9,)), ("symmetric", (7,)), ("heisenberg", (1, 17)),
                 ("psl2", (17,))):
        assert FamilySpec(*spec).largest_table <= DEFAULT_ORDER_CAP
    with pytest.raises(GroupError, match="order cap"):
        zoo_build(FamilySpec("extraspecial2", (3, 3)))


# -- test-only references: the element-by-element Python constructions --------

def ref_gl2(q, det_one=False):
    F = make_field(q)

    def det(m):
        a, b, c, d = m
        return F.add[F.mul[a][d]][F.neg[F.mul[b][c]]]

    mats = [m for m in itertools.product(range(q), repeat=4)
            if (det(m) == 1 if det_one else det(m) != 0)]
    mats.remove((1, 0, 0, 1))
    mats.insert(0, (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}

    def matmul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return (F.add[F.mul[a][e]][F.mul[b][g]], F.add[F.mul[a][f]][F.mul[b][h]],
                F.add[F.mul[c][e]][F.mul[d][g]], F.add[F.mul[c][f]][F.mul[d][h]])

    mul = tuple(tuple(index[matmul(m1, m2)] for m2 in mats) for m1 in mats)
    return mul, tuple(str(m) for m in mats)


def ref_heisenberg(n, q):
    F = make_field(q)
    total = q ** (2 * n + 1)
    elems = [[i // q**j % q for j in range(2 * n + 1)] for i in range(total)]
    mul = []
    for ea in elems:
        row = []
        for eb in elems:
            dot = 0
            for i in range(n):
                dot = F.add[dot][F.mul[ea[i]][eb[n + i]]]
            coords = [F.add[ea[i]][eb[i]] for i in range(2 * n)]
            coords.append(F.add[F.add[ea[2 * n]][eb[2 * n]]][dot])
            row.append(sum(c * q**j for j, c in enumerate(coords)))
        mul.append(tuple(row))
    return tuple(mul)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gl2_matches_reference(q):
    G = build("gl2", q)
    assert (rows(G), G.labels) == ref_gl2(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_psl2_matches_reference(q):
    mul, _ = ref_gl2(q, det_one=True)
    S = GroupTable(mul)
    if q % 2:  # PSL2 = SL2 / {I, -I}; -I is the unique central involution
        z = next(x for x in range(1, S.order) if mul[x][x] == 0
                 and all(mul[x][y] == mul[y][x] for y in range(S.order)))
        mul = rows(quotient_group(S, subgroup_closure(S, [z]))[0])
    assert rows(build("psl2", q)) == mul


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_heisenberg_matches_reference(n, q):
    assert rows(build("heisenberg", n, q)) == ref_heisenberg(n, q)
