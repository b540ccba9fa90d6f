"""The modular class-sum engine against exact Cyclotomic arithmetic."""

from math import gcd, isqrt

import numpy as np
import pytest

from kronkit import chartab, kron, modular
from kronkit.chartab import (
    CharacterTable,
    TableError,
    VerificationError,
    _kronecker_matrix,
    character_table,
    dump_table,
    fs_indicators,
    load_table,
)
from kronkit.cli import _battery_entries
from kronkit.cyclo import Cyclotomic

from conftest import build, table


def _integer(x: Cyclotomic) -> int:
    q = x.to_rational()
    assert q.denominator == 1
    return int(q)


def _reference(T):
    """The d = 1 Kronecker matrix, sigma, r and the kappa tensor by Cyclotomic
    sums, after both orthogonality relations are asserted on the values."""
    n, k, e = T.order, T.num_classes, T.exponent
    inv = T.classes.inverse_class
    X = [[T.value(i, c) for c in range(k)] for i in range(k)]

    def total(terms):
        acc = Cyclotomic.zero(e)
        for t in terms:
            acc = acc + t
        return acc

    def dot(x, y):  # sum_c x[c] y[c], skipping the many zero values
        return total(a * b for a, b in zip(x, y) if not (a.is_zero() or b.is_zero()))

    row = [[_integer(total(X[i][c] * X[j][inv[c]] * T.sizes[c] for c in range(k)))
            for j in range(k)] for i in range(k)]
    assert row == np.diag([n] * k).tolist()
    col = [[_integer(total(X[i][c] * X[i][inv[c2]] for i in range(k)))
            for c2 in range(k)] for c in range(k)]
    assert col == np.diag([n // s for s in T.sizes]).tolist()
    gram = [[_integer(total(X[i][c] * X[j][c] * T.sizes[c] for c in range(k)))
             for j in range(k)] for i in range(k)]
    sigma = [_integer(total(X[i][T.powermap2[c]] * T.sizes[c] for c in range(k))) // n
             for i in range(k)]
    r = [_integer(total(X[i][c] * sigma[i] for i in range(k))) for c in range(k)]
    t3 = np.zeros((k, k, k), dtype=np.int64)
    for u in range(k):
        for v in range(u, k):
            pair = [X[u][c] * X[v][c] * T.sizes[c] for c in range(k)]
            for w in range(v, k):
                kappa = _integer(dot(pair, X[w]))
                assert kappa % n == 0
                for idx in {(u, v, w), (u, w, v), (v, u, w), (v, w, u), (w, u, v), (w, v, u)}:
                    t3[idx] = kappa // n
    return gram, sigma, r, t3


def _modular(T):
    fs = fs_indicators(T)
    return (_kronecker_matrix(T).tolist(), list(fs.sigma), list(fs.r), kron.kappa_tensor3(T))


def _assert_same(got, want, label=""):
    gram, sigma, r, t3 = want
    assert got[:3] == (gram, sigma, r), label
    assert (got[3] == t3).all(), label


def test_modular_matches_cyclotomic_on_battery():
    for label, spec in _battery_entries(None):
        T = table(spec.family, *spec.params)
        _assert_same(_modular(T), _reference(T), label)


def test_exactness_edge_lowered_prime_ceiling(monkeypatch):
    ref = table("symmetric", 4)
    want = _modular(ref)
    v = ref.degrees.index(3)
    want_kron = kron.kronecker(ref, (v,) * 8).value
    # primes = 1 (mod 12) below 2^8: 241, 229, 193, ...
    monkeypatch.setattr(modular, "PRIME_CEILING", 2**8)
    T = character_table(build("symmetric", 4))
    got = _modular(T)
    primes = [p for p, _ in modular.images(T).primes]
    assert primes == [241, 229]  # the kappa bound 512 needs P > 1024
    _assert_same(got, want)
    assert got[3].dtype == np.int64
    # eight factors: bound 2^7 * 6576 needs three primes, combined in Python ints
    assert kron.kronecker(T, (v,) * 8).value == want_kron
    assert len(modular.images(T).primes) == 3


def test_kronecker_far_beyond_int64():
    # 48 factors: the bound 2^47 * (3^48 + ...) needs six primes near 2^21
    T = table("symmetric", 4)
    v = T.degrees.index(3)
    want = sum(s * T.value(v, c).to_rational() ** 48 for c, s in enumerate(T.sizes)) / T.order
    assert kron.kronecker(T, (v,) * 48).value == want > 2**63
    assert len(modular.images(T).primes) == 6


def test_running_out_of_primes_raises_before_a_prime_is_added(monkeypatch):
    monkeypatch.setattr(modular, "PRIME_CEILING", 2**8)
    T = character_table(build("symmetric", 4))
    img = modular.images(T)
    held = len(img.primes)
    v = T.degrees.index(3)
    with pytest.raises(ValueError, match=r"too few primes = 1 \(mod 12\) below 256"):
        kron.kronecker(T, (v,) * 40)
    assert len(img.primes) == held


def test_float64_products_exact_at_the_largest_prime():
    # MAX_TERMS products of (p - 1)^2 sum to just below 2^53, the largest sum
    # a contraction can make; float64 must still hold it exactly
    p = next(q for q in range(modular.PRIME_CEILING - 1, 2, -1) if modular._is_prime(q))
    n = modular.MAX_TERMS
    assert n * (p - 1) ** 2 < 2**53 <= n * modular.PRIME_CEILING**2
    a = np.full((2, n), p - 1, dtype=np.int64)
    got = modular.dot(a, a.T, p)
    assert got.dtype == np.int64
    assert got.tolist() == [[n * (p - 1) ** 2 % p] * 2] * 2


def test_unit_generators_generate_the_units():
    for e in range(1, 400):
        gens = modular._unit_generators(e)
        units = {a for a in range(e) if gcd(a, e) == 1}
        reached = {1 % e}
        while True:
            more = reached | {x * g % e for x in reached for g in gens}
            if more == reached:
                break
            reached = more
        assert reached == units, e
        assert gens[:1] == ([e - 1] if e > 2 else [])


def test_certificate_pins_the_power_classes():
    # for a computed table, pi_a is the class of g^a, and pi_(-1) the inverse class
    for family, params in [("symmetric", (4,)), ("cyclic", (8,)), ("gl2", (3,)),
                           ("frobenius", (7, 1, 3))]:
        T = table(family, *params)
        img, cd, mul = modular.images(T), T.classes, T.group.table
        for a, pi in zip(modular._unit_generators(T.exponent), img.perms):
            powers = []
            for g in cd.reps:
                x = 0
                for _ in range(a):
                    x = mul[x, g]
                powers.append(cd.class_of[x])
            assert pi.tolist() == powers
        assert img.conj.tolist() == list(cd.inverse_class)


def test_certificate_refuses_a_planted_galois_orbit():
    # C5's table with the values at the classes of g and g^2 swapped in one
    # nontrivial row: zeta -> zeta^2 sends a column where no column is
    T = table("cyclic", 5)
    coeffs = T.coeffs.copy()
    coeffs[0, [1, 2]] = coeffs[0, [2, 1]]
    U = CharacterTable(order=5, exponent=5, sizes=T.sizes, powermap2=T.powermap2,
                       coeffs=coeffs)
    img = modular.images(U)
    assert img.perms is None and not img.invariant([1] * 5)
    assert img.exact(1, lambda p, V: V[0, 0]) is None


def _trial_division(n):
    return n > 1 and all(n % t for t in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if modular._is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)]
    top = range(modular.PRIME_CEILING - 20_000, modular.PRIME_CEILING)
    assert [n for n in top if modular._is_prime(n)] == [n for n in top if _trial_division(n)]


def test_miller_rabin_exactness_edge():
    # the bound is the least strong pseudoprime to bases 2, 3, 5, 7: composite,
    # yet it passes every base, so the test is exact below it and no further
    n = modular.MR_EXACT_BELOW
    assert n == 151 * 751 * 28351
    assert modular._is_prime(n)
    assert modular.PRIME_CEILING < n
    # the least strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5 are caught
    for n in (2047, 1_373_653, 25_326_001):
        assert not modular._is_prime(n)


def _count_exact(monkeypatch):
    """A list that gains one entry per ``TableImages.exact`` call."""
    calls, exact = [], modular.TableImages.exact
    monkeypatch.setattr(modular.TableImages, "exact",
                        lambda self, *args, **kw: calls.append(1) or exact(self, *args, **kw))
    return calls


@pytest.mark.parametrize("family,params", [("symmetric", (4,)), ("gl2", (3,)), ("cyclic", (5,))])
def test_one_class_sum_checks_a_table(monkeypatch, family, params):
    # one class sum checks a built table and finds its duals; the indicators
    # take two more.  An import adds none for its duals
    calls = _count_exact(monkeypatch)
    T = character_table(build(family, *params))
    assert len(calls) == 1
    fs_indicators(T)
    [T.conjugate_irrep(i) for i in range(T.num_classes)]
    assert len(calls) == 3
    calls.clear()
    U = load_table(dump_table(T))
    assert len(calls) == 3
    [U.conjugate_irrep(i) for i in range(U.num_classes)]
    assert len(calls) == 3


def test_rows_not_closed_under_a_planted_inversion_map_are_refused(monkeypatch):
    # C3's inverse classes are 0, 2, 1; planted as the identity, the two
    # complex rows still give Q = 3 P, but no row equals its dual at c^-1
    G = build("cyclic", 3)
    assert chartab.conjugacy_data(G).inverse_class == (0, 2, 1)
    duals = chartab._duals
    monkeypatch.setattr(chartab, "_duals", lambda T, inverse_class: duals(T, [0, 1, 2]))
    with pytest.raises(VerificationError, match="orthogonality"):
        character_table(G)
    monkeypatch.undo()
    text = dump_table(character_table(G))
    load_table(text)
    init = modular.TableImages.__init__

    def plant(self, T):  # complex conjugation certified as the identity
        init(self, T)
        self.conj = np.arange(len(T.sizes))

    monkeypatch.setattr(modular.TableImages, "__init__", plant)
    with pytest.raises(TableError, match="orthogonality"):
        load_table(text)
