"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them as they happen).  All
comparisons are exact integer equality.
"""

import ast
import os
from importlib import resources

import pytest

from kronkit import kron
from kronkit.chartab import character_table, dump_table, fs_indicators, load_table
from kronkit.groupcore import SubgroupSpec, direct_product, subgroup_closure
from kronkit.orbits import (DEFAULT_ORBIT_CAP, double_cosets, frame_pair_count,
                            simultaneous_classes)
from kronkit.zoo import FamilySpec

from conftest import (BATTERY, build, c2_power_table, classified, diagonal_subgroup, rows,
                      table)


class report:
    def __init__(self, n, desc):
        self.line = f"criterion {n}: {desc}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(("FAIL " if exc_type else "PASS ") + self.line)
        return False


def _ds(order):
    return [1, 2] + ([3] if order <= 24 else [])


def test_criterion_1_identity_a():
    with report(1, "sum of squared Kronecker coefficients = Burnside = orbit oracle"):
        for label, fam, params in BATTERY:
            G = build(fam, *params)
            T = table(fam, *params)
            for d in _ds(G.order):
                rep = kron.conj_count(T, d)
                oracle = simultaneous_classes(G, d).orbit_count
                assert rep.values["burnside"] == oracle, (label, d)
                assert rep.values["kappa_sq"] == oracle, (label, d)


def test_criterion_2_identity_b_c():
    with report(2, "sigma-weighted Kronecker sum = square-root moment = real-orbit oracle"):
        for label, fam, params in BATTERY:
            G = build(fam, *params)
            T = table(fam, *params)
            for d in _ds(G.order):
                rep = kron.rconj_count(T, d)
                oracle = simultaneous_classes(G, d).real_orbit_count
                assert rep.values["r_moment"] == oracle, (label, d)
                assert rep.values["sigma_weighted"] == oracle, (label, d)


def test_identities_at_every_d_up_to_5():
    # criteria 1 and 2 through the transfer chain, for d = 1 .. 5 on every
    # battery group and an imported S3 x S3 x S4 table; the orbit oracle too
    # at d = 4 and 5 wherever |G|^d is within the orbit cap
    P = direct_product(direct_product(build("symmetric", 3), build("symmetric", 3)),
                       build("symmetric", 4))
    cases = [(label, build(fam, *params), table(fam, *params)) for label, fam, params in BATTERY]
    cases.append(("S3xS3xS4", None, load_table(dump_table(character_table(P)))))
    orbits_checked = 0
    for label, G, T in cases:
        for d in range(1, 6):
            conj, rconj = kron.conj_count(T, d).values, kron.rconj_count(T, d).values
            assert conj["kappa_sq"] == conj["burnside"], (label, d)
            assert rconj["sigma_weighted"] == rconj["r_moment"], (label, d)
            if d >= 4 and G is not None and G.order**d <= DEFAULT_ORBIT_CAP:
                op = simultaneous_classes(G, d)
                assert (op.orbit_count, op.real_orbit_count) == (
                    conj["burnside"], rconj["r_moment"]), (label, d)
                orbits_checked += 1
    assert orbits_checked >= 100  # 56 groups at d = 4, 46 at d = 5


@pytest.mark.parametrize("fam,q,count,real", [("psl2", 7, 28411, 1397),
                                               ("gl2", 4, 99225, 1093)])
def test_identities_at_d3_past_the_battery(fam, q, count, real):
    # criteria 1 and 2 at d = 3 on groups of order 168 and 180
    G, T = build(fam, q), table(fam, q)
    op = simultaneous_classes(G, 3)
    assert (op.orbit_count, op.real_orbit_count) == (count, real)
    conj, rconj = kron.conj_count(T, 3).values, kron.rconj_count(T, 3).values
    assert conj["burnside"] == conj["kappa_sq"] == count
    assert rconj["r_moment"] == rconj["sigma_weighted"] == real


@pytest.mark.parametrize("fam,q", [("gl2", 7), ("psl2", 17)])
def test_not_mftp_past_gl2_5(fam, q):
    # the paper's claim past the battery, under the default caps: each
    # decision from class sums, each witness from t3 or from one d=3 slab,
    # and the witness's kappa again as one classwise sum
    T = table(fam, q)
    cls = classified(T)
    for d in (2, 3):
        rec = cls[f"mftp_{d}"]
        assert rec.values == {"char": 0} and not rec.notes, d
        ok, wit = kron.is_mftp(T, d)
        assert not ok and len(wit.irreps) == d + 1
        assert rec.witness == f"kappa{wit.irreps}={wit.value}"
        assert kron.kronecker(T, wit.irreps).value == wit.value >= 2
    assert cls["mftp_2"].witness.endswith("=2")


def test_mftp_of_an_import_past_the_kappa_cap():
    T = load_table(c2_power_table(7))  # k = 128: the d = 3 sums are over the cap
    assert kron.over_kappa_cap(T, 3, kron.DEFAULT_KAPPA_CAP)
    rec = classified(T)["mftp_3"]
    assert rec.values == {"char": 1} and rec.witness is None and not rec.notes


def test_criterion_3_generalized_quaternion_series():
    with report(3, "Q(C_2n) structure, conj_2 formula, and double-reality law"):
        for n in range(2, 9):
            G = build("generalized_quaternion", 2 * n)
            T = table("generalized_quaternion", 2 * n)
            degs = [ch.degree for ch in T.irreps]
            assert degs.count(1) == 4 and degs.count(2) == n - 1, n
            assert len(degs) == n + 3
            assert kron.conj_count(T, 2).values["burnside"] == 2 * n * n + 6 * n + 8
            ok, _ = kron.is_mftp(T, 2)
            assert ok, n
            # z in A^2 for A = C_2n: the involution z = n is an even residue
            mul = rows(build("cyclic", 2 * n))
            z = next(x for x in range(1, 2 * n) if mul[x][x] == 0)
            z_is_square = z in {mul[x][x] for x in range(2 * n)}
            doubly, _ = kron.is_d_real_char(T, 2)
            assert doubly == z_is_square == (n % 2 == 0), n
        assert classified(table("generalized_quaternion", 4))["doubly_real"].values["char"]
        assert not classified(table("generalized_quaternion", 6))["real"].values["char"]


def _stabilizer(G, point):
    fix = [g for g in range(G.order) if ast.literal_eval(G.labels[g])[point] == point]
    return subgroup_closure(G, fix)


def _center_spec(G):
    mul = rows(G)
    els = [x for x in range(G.order)
           if all(mul[x][y] == mul[y][x] for y in range(G.order))]
    return SubgroupSpec(elements=tuple(els), order=len(els))


def _frame_pairs():
    s4 = build("symmetric", 4)
    s5 = build("symmetric", 5)
    q8 = build("generalized_quaternion", 4)
    gl = build("gl2", 3)
    upper = [g for g in range(48) if ast.literal_eval(G_label(gl, g))[2] == 0]
    pairs = [
        ("S4/S3", s4, character_table(s4), _stabilizer(s4, 3)),
        ("S5/S4", s5, character_table(s5), _stabilizer(s5, 4)),
        ("Q8/center", q8, character_table(q8), _center_spec(q8)),
        ("GL2(3)/upper", gl, character_table(gl), subgroup_closure(gl, upper)),
    ]
    s3 = build("symmetric", 3)
    P, Delta = diagonal_subgroup(s3, 1)
    pairs.append(("S3xS3/diag", P, character_table(P), Delta))
    return pairs


def G_label(G, g):
    return G.labels[g]


def test_criterion_4_frame_and_gelfand():
    with report(4, "Frame self-inverse count and symmetric-Gelfand biconditional"):
        for name, G, T, K in _frame_pairs():
            dc = double_cosets(G, K)
            sigma_dim = kron.frame_verify(T, K).values["sigma_dim"]
            assert sigma_dim == dc.self_inverse_count == frame_pair_count(G, K), name
            assert kron.gelfand_symmetric(T, K).values["char"] == int(dc.symmetric), name


NON_MFTP = ["S5", "A4", "A5", "GL2(3)", "PSL2(5)", "PSL2(7)", "F21", "F39",
            "C3^2:C3", "C9:C3", "H1(F3)", "H1(F4)", "H1(F5)"]
DOUBLY_REAL = (["D(C%d)" % n for n in range(2, 9)]
               + ["D8", "Q8", "ES32+", "ES32-", "H1(F2)", "H2(F2)"])


def test_criterion_5_classification_matrix():
    with report(5, "MFTP / doubly-real classification across the battery"):
        by_label = {label: (fam, params) for label, fam, params in BATTERY}
        cls = classified(table("symmetric", 3))
        assert cls["mftp_2"].values["char"] and cls["doubly_real"].values["char"]
        assert classified(table("symmetric", 4))["mftp_2"].values["char"]
        for label in NON_MFTP:
            fam, params = by_label[label]
            ok, wit = kron.is_mftp(table(fam, *params), 2)
            assert not ok and wit is not None and wit.value >= 2, label
        for label in DOUBLY_REAL:
            fam, params = by_label[label]
            assert classified(table(fam, *params))["doubly_real"].values["char"], label


def test_criterion_6_specific_values():
    with report(6, "pinned numeric values (Q8 indicators, S3 and F21 coefficients, profiles)"):
        T = table("generalized_quaternion", 4)
        fs = fs_indicators(T)
        two = T.degrees.index(2)
        assert fs.sigma[two] == -1
        assert max(fs.r) == 6
        inv_cls = next(c for c in range(5)
                       if T.sizes[c] == 1 and T.value(two, c).to_rational() == -2)
        assert fs.r[inv_cls] == 6  # r(-1) = 6
        T = table("symmetric", 3)
        std = T.degrees.index(2)
        assert kron.kronecker(T, (std, std, std)).value == 1
        assert kron.conj_count(T, 2).values["burnside"] == 11
        assert kron.rconj_count(T, 2).values["r_moment"] == 11
        T = table("frobenius", 7, 1, 3)
        v = T.degrees.index(3)
        assert kron.kronecker(T, (v, v, v)).value == 2
        p = kron.combinatorial_profile(T)
        assert (p.z, p.a, p.q) == (1, 7, 3)
        p = kron.combinatorial_profile(table("heisenberg", 1, 3))
        assert (p.z, p.a, p.q) == (3, 9, 3)


def test_criterion_7_conjugate_pairing_multiplicity():
    with report(7, "kappa(V, V', V', V) >= 2 for the least higher-dimensional irrep"):
        for label, fam, params in BATTERY:
            G = build(fam, *params)
            if (G.table == G.table.T).all():
                continue
            T = table(fam, *params)
            v = next(i for i, dgr in enumerate(T.degrees) if dgr >= 2)
            vc = T.conjugate_irrep(v)
            assert kron.kronecker(T, (v, vc, vc, v)).value >= 2, label


def test_criterion_8_sign_law():
    with report(8, "multiplicity-one sign law on self-dual triples"):
        for label, fam, params in BATTERY:
            assert kron.sign_law_violations(table(fam, *params)) == [], label


def test_criterion_9_golden_tables():
    with report(9, "golden character tables and exact orthogonality"):
        for name, fam, params in [("S3", "symmetric", (3,)), ("S4", "symmetric", (4,)),
                                  ("S5", "symmetric", (5,)),
                                  ("Q8", "generalized_quaternion", (4,)),
                                  ("D8", "generalized_dihedral", (4,)),
                                  ("A5", "alternating", (5,))]:
            # orthogonality is re-verified inside character_table; a mismatch
            # there raises before the golden comparison ever runs
            T = character_table(build(fam, *params))
            golden = resources.files("kronkit").joinpath(
                f"data/golden/{name}.tbl").read_text()
            assert dump_table(T) == golden, name


def test_criterion_10_monster_moment():
    path = os.environ.get("KRONKIT_MONSTER_TABLE")
    if not path:
        print("SKIP criterion 10: set KRONKIT_MONSTER_TABLE to run")
        pytest.skip("no monster table supplied")
    with report(10, "monster square-root second moment"):
        with open(path) as fh:
            T = load_table(fh.read())
        fs = fs_indicators(T)
        total = sum(s * r**3 for s, r in zip(T.sizes, fs.r))
        assert total % T.order == 0
        assert total // T.order == 240440865730496103575552476238
