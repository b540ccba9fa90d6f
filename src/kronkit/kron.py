"""Kronecker coefficients and the counting identities built on them.

kappa(V_1,...,V_{d+1}) is always computed classwise from exact character
values, as a class sum modulo primes at one embedding of Z[zeta_e] into
F_p per prime, recovered exactly (see ``modular``, which also holds the
Galois certificate that makes one embedding enough).  MFTP and d-reality
are decided from three moments, with no tensor; psi and r, linear in the
characters, are int64 sums of the coefficient rows.  The d=2 coefficient
tensor t3 is one exact float64 (k^2 x k) by (k x k) matrix product per
prime.  The second derivations of the counting records are read off it
through the transfer matrices K_V[W, U] = kappa(W, V, U'), U' dual to U:
kappa(V_1, ..., V_{d+1}) is entry [V_1, V_{d+1}'] of K_{V_2} ... K_{V_d}.
Their sums over all tuples are short matrix chains (``_kappa_sums``); no
k^4 tensor is held, and witnesses and maxima come from ``kappa_slabs``, a
slab at a time.

Every checked number is reported as a ``Record``: the values of its
independent derivations, which must agree, and a note for each derivation
that was left out.  This module builds the character-side records
(``conj_count``, ``rconj_count``, ``frame_verify``, ``hecke_dimension``,
``gelfand_symmetric`` and ``classify``), each value computed once; the
command line adds the group-side oracle values.  The kappa cap prices the
work that runs (``kappa_price``), before t3, a chain or a slab is built; it
never stops a decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from math import prod
from operator import mul
from typing import Optional

import numpy as np

from . import modular
from .chartab import (CharacterTable, SubgroupSpec, VerificationError, dim_fixed_space,
                      fs_indicators, rational_rows)

# Work bound for the kappa tensors, in multiply-adds (see ``kappa_price``).
# Under it the d = 2 sums and a d = 2 witness build t3 for k <= 118, the
# d = 3 sums and slab 0 of a d = 3 witness search run for k <= 90, and the
# d = 4 and d = 5 sums for k <= 79.  Only t3 and a few arrays of its size
# are held: ``verify --d 2 3`` and ``classify`` (a d = 2 witness) each
# peaked 13 MiB above the interpreter's ru_maxrss on an imported C3^4 table
# (k = 81, 531K d=2 entries).
DEFAULT_KAPPA_CAP = 10**8
SKIPPED = "skipped: cap"
PAST_2_53 = "skipped: 2^53"  # a kappa sum past the exact float64 products


@dataclass(frozen=True)
class KroneckerResult:
    irreps: tuple[int, ...]
    value: int


@dataclass
class Record:
    """One checked number: ``values`` maps each derivation to its result,
    ``notes`` says why a derivation is missing."""
    name: str
    values: dict[str, int] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    witness: Optional[str] = None

    @property
    def agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)


@dataclass(frozen=True)
class CombinatorialProfile:
    matched: bool
    z: int = 0
    a: int = 0
    q: int = 0


# -- exact kappa machinery ----------------------------------------------------

def kronecker(T: CharacterTable, irreps) -> KroneckerResult:
    """Multiplicity of the trivial representation in the tensor product
    of the given irreps (exact classwise sum)."""
    irreps = tuple(int(i) for i in irreps)
    if len(irreps) < 2:
        raise ValueError("need at least two irreps (d >= 1)")
    if any(not 0 <= i < T.num_classes for i in irreps):
        raise ValueError(f"irrep indices must lie in 0..{T.num_classes - 1}")
    img = modular.images(T)
    bound = img.r ** (len(irreps) - 1) * sum(
        s * prod(img.l1[i][c] for i in irreps) for c, s in enumerate(T.sizes))

    def sums_mod(p, V):
        terms = modular.residues(T.sizes, p)
        for i in irreps:
            terms = terms * V[i] % p
        return terms.sum() % p

    total = img.exact(bound, sums_mod)
    if total is None or total % T.order or total < 0:
        raise VerificationError("Kronecker coefficient not a non-negative integer")
    return KroneckerResult(irreps=irreps, value=int(total) // T.order)


def kappa_tensor3(T: CharacterTable) -> np.ndarray:
    """kappa(V_u, V_v, V_w) for all triples, shape (k, k, k).

    Modulo each prime, the matrix of products chi_u chi_v, one row per pair
    u <= v (t3 is symmetric in u and v), times the (k x k) matrix
    |C_c| chi_w(c).
    """
    t3 = T._cache.get("kappa3")
    if t3 is not None:
        return t3
    img = modular.images(T)
    k = T.num_classes
    bound = img.r**2 * sum(s * m**3 for s, m in zip(T.sizes, img.class_l1))
    u, v = np.triu_indices(k)

    def sums_mod(p, V):
        return modular.dot(V[u] * V[v] % p, (V * modular.residues(T.sizes, p) % p).T, p)

    S = img.exact(bound, sums_mod)
    if S is None:
        raise VerificationError("kappa sum not rational")
    t3 = S // T.order
    if (t3 * T.order != S).any() or (S < 0).any():
        raise VerificationError("kappa tensor entry invalid")
    pair = np.empty((k, k), dtype=np.intp)  # pair[u, v]: the row of {u, v}
    pair[u, v] = pair[v, u] = np.arange(u.size)
    t3 = T._cache["kappa3"] = t3.astype(np.int64)[pair]
    return t3


def _sigma_vector(T: CharacterTable) -> np.ndarray:
    return np.array(fs_indicators(T).sigma, dtype=np.int64)


def _conjugation(T: CharacterTable) -> list[int]:
    return [T.conjugate_irrep(w) for w in range(T.num_classes)]


class InexactError(ValueError):
    """A float64 product reached 2^53, past its exactness certificate."""

    def __init__(self):
        super().__init__("kappa sums too large for exact float64 products (an entry >= 2^53)")


# Exactness of the float64 products below.  Every product of two arrays of
# non-negative integers is, entry by entry, a sum of products of their
# entries, added in whatever order BLAS chooses.  Rounding to nearest is
# monotone and exact on the integers up to 2^53, so by induction over that
# order every computed partial sum is at least min(its true value, 2^53),
# and equals its true value when that is below 2^53 (a product with a zero
# factor is 0 however large the other, which stays finite).  A computed
# entry below 2^53 is therefore exact, and only each result needs checking
# (``_certified``), not the partial sums or intermediate products that went
# into it.
def _certified(x: np.ndarray) -> np.ndarray:
    if x.size and x.max() >= 2**53:
        raise InexactError
    return x


def _pair(x: np.ndarray, y: np.ndarray) -> int:  # sum x * y, in Python ints
    return sum(map(mul, x.astype(np.int64).ravel().tolist(), y.astype(np.int64).ravel().tolist()))


# The transfer chain.  With K_V[W, U] = kappa(W, V, U') (module docstring),
# S = sum_V sigma(V) K_V and Phi(X) = sum_V K_V^T X K_V, the sums over all
# (d+1)-tuples are (as sigma(U') = sigma(U))
#
#     sum kappa^2 = trace Phi^(d-1)(I),   sum (prod sigma) kappa = sigma^T S^(d-1) sigma.
#
# t3 is symmetric in its slots, so K_V = T_V P with T_V = t3[:, V, :]
# symmetric and P the conjugation permutation: S^T = P S P, and the adjoint
# of Phi is P Phi(P . P) P.  So each sum pairs the chain's step a = floor(d/2),
# permuted by P, with its step b = d - 1 - a: one chain of a steps in
# float64, and the pairing in Python ints, which may pass 2^63.  At d = 1
# the chain is empty and builds no tensor.  At d = 2 the pairing needs only
# trace Phi(I) = sum t3^2 and sigma^T S sigma, k^3 work each, so Phi(I), a
# k^4 product, is built only for d >= 3.
#
# Exactness.  Phi^j(I) is a sum of M^T M over the products M of j transfer
# matrices: positive semidefinite with non-negative entries, so its largest
# entry is a diagonal one, at most its trace |conj_(j+1)(G)|.  The Phi chain
# is ``_certified``; for a group's table that holds while |conj_(a+1)(G)| <
# 2^53.  The sigma chain is signed, so its bound comes from Phi.  With J =
# sum_V K_V, |S| <= J and |sigma| <= 1 entrywise, so every product and
# partial sum of (S^j sigma)[w] is at most (J^j 1)[w] in size.  J^T = P J P,
# so that is the column sum at w' of J^j = sum M, and as M <= M^2 entrywise
# (non-negative integers) it is at most Phi^j(I)[w', w'], which is certified.
#
# At d = 2, Phi(I)[w', w'] is the sum of squares of the slab t3[w] (t3 is
# symmetric in its slots), and the trace is their sum.  The k slab sums are
# ``_certified``, and as above they bound S sigma: every partial sum of
# (S sigma)[u] = sum_{v, w} t3[u, v, w] sigma(v) sigma(w), the inner sums over
# w included, is at most sum_{v, w} t3[u, v, w] <= sum_{v, w} t3[u, v, w]^2
# in size.
def _kappa_sums(T: CharacterTable, d: int) -> tuple[int, int]:
    """(sum kappa^2, sum (prod sigma) kappa) over all (d+1)-tuples of
    irreps, as exact Python ints, cached on the table."""
    sums = T._cache.get(("kappa_sums", d))
    if sums is not None:
        return sums
    k = T.num_classes
    if d == 2:
        t3, sigma = kappa_tensor3(T).astype(np.float64), _sigma_vector(T)
        squares = _certified(np.einsum("uvw,uvw->w", t3, t3))
        s_sigma = (t3.reshape(k * k, k) @ sigma).reshape(k, k) @ sigma
        sums = T._cache[("kappa_sums", d)] = (
            sum(squares.astype(np.int64).tolist()), _pair(sigma, s_sigma))
        return sums
    perm = _conjugation(T)
    # chain[j] = [Phi^j(I), S^j sigma], cached for every d
    chain = T._cache.setdefault("transfer", [[np.eye(k), _sigma_vector(T).astype(np.float64)]])
    if len(chain) <= d // 2:
        t3 = kappa_tensor3(T).astype(np.float64)
        rows, cols = t3.reshape(k * k, k), t3.reshape(k, k * k)
        S = (chain[0][1] @ cols).reshape(k, k)[:, perm]
        while len(chain) <= d // 2:
            X, y = chain[-1]
            # Phi(X) = P (sum_V T_V X T_V) P; XT[(w, V), b] = (X T_V)[w, b],
            # which at X = I is t3 itself
            XT = rows if len(chain) == 1 else (X @ cols).reshape(k * k, k)
            chain.append([_certified(rows.T @ XT)[perm][:, perm], S @ y])
    (phi_a, s_a), (phi_b, s_b) = chain[d // 2], chain[(d - 1) // 2]
    sums = T._cache[("kappa_sums", d)] = (_pair(phi_a[perm][:, perm], phi_b), _pair(s_a[perm], s_b))
    return sums


def kappa_slabs(T: CharacterTable, d: int):
    """kappa over all (d+1)-tuples of irreps, one first irrep a at a time,
    for d = 2 or 3: t3[a] at d = 2, and at d = 3 the slab kappa(a, b, c, d')
    = sum_w t3[a, b, w] t3[w', c, d']."""
    if d == 2:
        return iter(kappa_tensor3(T))
    if d != 3:
        raise ValueError("kappa slabs are built for d = 2 and 3")
    k, perm = T.num_classes, _conjugation(T)
    t3 = kappa_tensor3(T).astype(np.float64)
    # By Cauchy-Schwarz a slab entry is at most the largest sum of squares of
    # a t3 slab t3[x] (the largest diagonal entry of Phi(I)); its terms are
    # non-negative, so once that is below 2^53 the products are exact
    _certified(np.einsum("abw,abw->a", t3, t3))

    def slab(a):
        # t3 is symmetric in its slots, so t3[w', c, d'] = t3[c, d', w']:
        # permuting the columns of t3[a] pairs w with w'.  One c at a time
        # keeps the float64 temporaries at k^2 entries
        left = t3[a][:, perm]
        out = np.empty((k, k, k), dtype=np.int64)
        for c in range(k):
            out[:, c] = left @ t3[c].T
        return out

    return map(slab, range(k))


def kappa_price(T: CharacterTable, steps: int = 0, slabs: int = 0) -> int:
    """The multiply-adds, per prime, of t3, about k^4/2 (a (k^2/2 x k) by
    (k x k) product), then of ``steps`` transfer-chain steps and ``slabs``
    d=3 slabs, about k^4 each (a (k x k^2) by (k^2 x k) product, and k
    products of two k x k matrices)."""
    k = T.num_classes
    return k**4 // 2 + (steps + slabs) * k**4


def over_kappa_cap(T: CharacterTable, d: int, cap: int, slabs: int = 0) -> bool:
    """True when the d-tuple sums, t3 and the chain steps they run (none at
    d = 2, floor(d/2) from d = 3), and then ``slabs`` d=3 slabs would price
    above ``cap``.  d = 1 builds no tensor."""
    return d > 1 and kappa_price(T, d // 2 if d > 2 else 0, slabs) > cap


# -- counting records ----------------------------------------------------------

# Three class sums decide MFTP and d-reality.  As kappa(V_1, ..., V_{d+1})
# = (1/|G|) sum_c |C_c| prod_i chi_{V_i}(c), summing over all tuples gives,
# identically for any table,
#
#     sum kappa = (1/|G|) sum_c |C_c| psi(c)^(d+1),   psi = sum_V chi_V,
#     sum (prod sigma) kappa = (1/|G|) sum_c |C_c| r(c)^(d+1),
#
# r = sum_V sigma(V) chi_V, as ``fs_indicators`` computes it.  Galois
# permutes the classes of a certified table and keeps their sizes
# (``modular``), so it fixes each kappa: kappa is rational, sum kappa^2 = sum
# kappa conj(kappa), and by column orthogonality, sum_V chi_V(c)
# conj(chi_V(c')) = [c = c'] |G| / |C_c|,
#
#     sum kappa^2 = (1/|G|) sum_c |C_c| (|G| / |C_c|)^d,   Burnside's count.
#
# Column orthogonality follows from the row orthogonality of a square table
# (X D X* = |G| I with D = diag |C_c| gives X* X = |G| D^-1), which
# ``chartab._duals`` proves for every table.  For a group's table
# Galois also permutes the irreps, so psi(c) is a rational integer and an
# irrational psi can only come from a bug.  There kappa is a multiplicity,
# so term by term kappa^2 >= kappa >= (prod sigma) kappa, prod sigma being
# -1, 0 or 1.  The first is an equality exactly when kappa is 0 or 1, the
# second when moreover prod sigma = 1 wherever kappa = 1.  So each decision
# compares two sums, and searches slabs only for the witness.

def _moment(T: CharacterTable, values, power: int, what: str) -> int:
    """(1/|G|) sum_c |C_c| values[c]^power, exactly."""
    total = sum(s * v**power for s, v in zip(T.sizes, values))
    if total % T.order:
        raise VerificationError(f"{what} not integral")
    return total // T.order


def _burnside(T: CharacterTable, d: int) -> int:
    return _moment(T, [T.order // s for s in T.sizes], d, "Burnside sum")


def _r_moment(T: CharacterTable, d: int) -> int:
    return _moment(T, fs_indicators(T).r, d + 1, "square-root moment")


def _psi_moment(T: CharacterTable, d: int) -> int:
    psi = rational_rows(T.coeffs.sum(axis=0), "sum of the irreducible characters not rational")
    return _moment(T, psi, d + 1, "psi moment")


def _add_kappa_sum(rec: Record, formula: str, T: CharacterTable, d: int, which: int,
                   kappa_cap: int) -> Record:
    """Add ``_kappa_sums(T, d)[which]`` to ``rec`` as ``formula``, or a note
    when the cap or the 2^53 certificate stops it."""
    if over_kappa_cap(T, d, kappa_cap):
        rec.notes[formula] = SKIPPED
        return rec
    try:
        rec.values[formula] = _kappa_sums(T, d)[which]
    except InexactError:
        rec.notes[formula] = PAST_2_53
    return rec


def conj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|conj_d(G)| by Burnside's lemma, (1/|G|) sum_c |C_c| |C_G(c)|^d, and
    by the kappa-square sum."""
    return _add_kappa_sum(Record(f"conj_{d}", {"burnside": _burnside(T, d)}),
                          "kappa_sq", T, d, 0, kappa_cap)


def rconj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|rconj_d(G)| via the square-root moment and the sigma-weighted
    Kronecker sum."""
    return _add_kappa_sum(Record(f"rconj_{d}", {"r_moment": _r_moment(T, d)}),
                          "sigma_weighted", T, d, 1, kappa_cap)


def _least_witness(T: CharacterTable, d: int, bad, cap: int) -> Optional[KroneckerResult]:
    """The lexicographically least (d+1)-tuple of irreps where
    ``bad(a, slab)`` holds, with its kappa, once a sum has shown one exists;
    None when the cap stops the search first.  d = 2 pays for t3, and d = 3
    also for each slab it visits."""
    # irrep 0 of a group's table is linear (``character_table`` sorts by
    # degree), and kappa(lambda, b, c, d) = kappa(b, c, lambda d) for a linear
    # lambda, so d=3 slab 0 holds a copy of t3: where MFTP fails at d = 2, the
    # least d = 3 witness lies in slab 0
    k, spare = T.num_classes, cap - kappa_price(T)
    budget = 0 if spare < 0 else k if d == 2 else min(k, spare // k**4)
    for a, slab in zip(range(budget), kappa_slabs(T, d) if budget else ()):
        mask = bad(a, slab)
        first = int(mask.argmax())  # the first True in C (lexicographic) order
        if mask.flat[first]:
            index = np.unravel_index(first, mask.shape)
            return KroneckerResult(irreps=(a, *map(int, index)), value=int(slab[index]))
    if budget < k:
        return None
    raise VerificationError("a kappa sum fails but no kappa slab shows where")


def is_mftp(T: CharacterTable, d: int = 2, kappa_cap: int = DEFAULT_KAPPA_CAP):
    """(all kappa <= 1, least witness tuple with kappa >= 2 otherwise, or
    None when the witness is over ``kappa_cap``)."""
    if _psi_moment(T, d) == _burnside(T, d):
        return True, None
    return False, _least_witness(T, d, lambda a, slab: slab >= 2, kappa_cap)


def is_d_real_char(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP):
    """Character-side d-reality test: kappa <= 1 everywhere and the sigma
    product is 1 on every kappa = 1 tuple; the witness as for ``is_mftp``
    from d = 2 (at d = 1, reality, there is none)."""
    real = _r_moment(T, d) == _burnside(T, d)
    if real or d == 1:
        return real, None
    s = _sigma_vector(T)
    rest = reduce(np.multiply.outer, [s] * d)  # the sigma product of the last d irreps
    return False, _least_witness(
        T, d, lambda a, slab: (slab >= 2) | ((slab == 1) & (s[a] * rest != 1)), kappa_cap)


def frame_verify(T: CharacterTable, K: SubgroupSpec) -> Record:
    """sum over irreps of sigma(V) * dim V^K (Frame's self-inverse count)."""
    total = sum(s * d for s, d in zip(fs_indicators(T).sigma, dim_fixed_space(T, K)))
    return Record("frame", {"sigma_dim": total})


def hecke_dimension(T: CharacterTable, K: SubgroupSpec) -> Record:
    """sum of dim(V^K)^2 = number of K-double cosets."""
    return Record("hecke_dim", {"dim_sq": sum(d * d for d in dim_fixed_space(T, K))})


def gelfand_symmetric(T: CharacterTable, K: SubgroupSpec) -> Record:
    """Character side of the symmetric-Gelfand criterion: every dim V^K <= 1,
    with sigma(V) = 1 where it is 1.  It holds iff every K-double coset is
    self-inverse (a theorem)."""
    char_side = all(d == 0 or (d == 1 and s == 1)
                    for d, s in zip(dim_fixed_space(T, K), fs_indicators(T).sigma))
    return Record("gelfand_symmetric", {"char": int(char_side)})


def combinatorial_profile(T: CharacterTable) -> CombinatorialProfile:
    """Search for the (z, a, q) centralizer/degree profile; when it matches,
    the group cannot have multiplicity-free tensor products (``classify``
    checks this against the kappa tensor)."""
    n = T.order
    cent_census = Counter()  # Counters compare equal when they differ in zero counts only
    for size in T.sizes:  # a class of size s has centralizer order n / s
        cent_census[n // size] += size
    z = cent_census[n]  # number of central elements
    for q in range(3, n + 1):
        a = n // q
        if n % q or z >= a or (a - z) % q:
            continue
        expected = Counter()
        for cent, cnt in ((n, z), (a, a - z), (z * q, a * (q - 1))):
            expected[cent] += cnt
        if expected == cent_census and Counter(T.degrees) == Counter({1: z * q, q: (a - z) // q}):
            return CombinatorialProfile(matched=True, z=z, a=a, q=q)
    return CombinatorialProfile(matched=False)


def sign_law_violations(T: CharacterTable):
    """Triples of self-dual irreps U, V, W with multiplicity of W in U (x) V
    equal to 1 but sigma(U) sigma(V) != sigma(W), in lexicographic order.
    Must be empty (Lemma)."""
    s = _sigma_vector(T)
    self_dual = np.array(_conjugation(T)) == np.arange(T.num_classes)
    # multiplicity of W in U (x) V is kappa(U, V, W') = kappa(U, V, W)
    bad = (self_dual[:, None, None] & self_dual[:, None] & self_dual
           & (kappa_tensor3(T) == 1) & ((s[:, None] * s)[:, :, None] != s))
    return [tuple(map(int, triple)) for triple in np.argwhere(bad)]


def _witness(wit: Optional[KroneckerResult]) -> Optional[str]:
    return None if wit is None else "kappa" + str(wit.irreps) + "=" + str(wit.value)


def classify(T: CharacterTable, kappa_cap: int = DEFAULT_KAPPA_CAP) -> list[Record]:
    """The real, mftp_2, mftp_3 and doubly_real records from the character
    table alone, and the combinatorial profile when the group is known and
    matches it.  Traps a violation of doubly real <=> real and MFTP."""
    real_char = _r_moment(T, 1) == _burnside(T, 1)
    real = Record("real", {"char": int(real_char)})
    if T.classes is not None:
        # independent reality check through the class structure
        real.values["class_inverse"] = int(
            all(T.classes.inverse_class[c] == c for c in range(T.num_classes))
        )
    records = [real]
    for name, d, decide in (("mftp_2", 2, is_mftp), ("mftp_3", 3, is_mftp),
                            ("doubly_real", 2, is_d_real_char)):
        ok, wit = decide(T, d, kappa_cap)
        rec = Record(name, {"char": int(ok)}, witness=_witness(wit))
        if not ok and wit is None:
            rec.notes["witness"] = SKIPPED
        records.append(rec)
    mftp_2, doubly = records[1].values["char"], records[3].values["char"]
    if doubly != (real_char and mftp_2 == 1):
        raise VerificationError("doubly real <=> real and MFTP fails")
    if T.group is not None:
        prof = combinatorial_profile(T)
        if prof.matched:
            if mftp_2 == 1:
                raise VerificationError("combinatorial profile matched an MFTP group")
            records.append(Record("combinatorial_profile", {"matched": 1},
                                  witness=f"(z,a,q)=({prof.z},{prof.a},{prof.q})"))
    return records
