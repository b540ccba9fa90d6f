"""The modular class-sum engine against exact Cyclotomic arithmetic."""

from math import isqrt

import numpy as np

from kronkit import kron, modular
from kronkit.chartab import _column_gram, _row_gram, character_table, fs_indicators
from kronkit.cli import _battery_entries
from kronkit.cyclo import Cyclotomic

from conftest import build, table


def _integer(x: Cyclotomic) -> int:
    q = x.to_rational()
    assert q.denominator == 1
    return int(q)


def _reference(T):
    """Grams, sigma, r and the kappa tensor by Cyclotomic sums."""
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
    col = [[_integer(total(X[i][c] * X[i][inv[c2]] for i in range(k)))
            for c2 in range(k)] for c in range(k)]
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
    return row, col, sigma, r, t3


def _modular(T):
    inv = T.classes.inverse_class
    fs = fs_indicators(T)
    return (_row_gram(T, inv).tolist(), _column_gram(T, inv).tolist(),
            list(fs.sigma), list(fs.r), kron.kappa_tensor3(T))


def _assert_same(got, want, label=""):
    row, col, sigma, r, t3 = want
    assert got[:4] == (row, col, sigma, r), label
    assert (got[4] == t3).all(), label


def test_modular_matches_cyclotomic_on_battery():
    for label, family, params in _battery_entries(None):
        T = table(family, *params)
        _assert_same(_modular(T), _reference(T), label)
        # an imported table conjugates through the embedding -a instead
        assert _row_gram(T).tolist() == _row_gram(T, T.classes.inverse_class).tolist(), label


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
    assert got[4].dtype == np.int64
    # eight factors: bound 2^7 * 6576 needs three primes, combined in Python ints
    assert kron.kronecker(T, (v,) * 8).value == want_kron
    assert len(modular.images(T).primes) == 3


def test_kronecker_far_beyond_int64():
    # 48 factors: the bound 2^47 * (3^48 + ...) needs five primes near 2^26
    T = table("symmetric", 4)
    v = T.degrees.index(3)
    want = sum(s * T.value(v, c).to_rational() ** 48 for c, s in enumerate(T.sizes)) / T.order
    assert kron.kronecker(T, (v,) * 48).value == want > 2**63
    assert len(modular.images(T).primes) == 5


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
