"""Kronecker coefficients and the counting identities built on them.

kappa(V_1,...,V_{d+1}) is always computed classwise from exact character
values, as a class sum modulo primes at one embedding of Z[zeta_e] into
F_p per prime, recovered exactly (see ``modular``, which also holds the
Galois certificate that makes one embedding enough).  The d=2 coefficient
tensor t3 is the workhorse: one exact float64 (k^2 x k) by (k x k) matrix
product per prime.  Everything else is read off t3 through the transfer
matrices K_V[W, U] = kappa(W, V, U'), U' dual to U: kappa(V_1, ..., V_{d+1})
is entry [V_1, V_{d+1}'] of K_{V_2} ... K_{V_d}.  The sums over all tuples,
at every d, are short matrix chains (``_kappa_sums``); no k^4 tensor is
held, and witnesses and maxima come from ``kappa_slabs``, a slab at a time.

Every checked number is reported as a ``Record``: the values of its
independent derivations, which must agree, and a note for each derivation
that was left out.  This module builds the character-side records
(``conj_count``, ``rconj_count``, ``frame_verify``, ``hecke_dimension``,
``gelfand_symmetric`` and ``classify``), each value computed once; the
command line adds the group-side oracle values.  The kappa cap is checked
here, by ``over_kappa_cap``, before any tensor is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from operator import mul
from typing import Optional

import numpy as np

from . import modular
from .chartab import CharacterTable, SubgroupSpec, VerificationError, dim_fixed_space, fs_indicators
from .cyclo import euler_phi

# Work bound for the kappa sums (see ``over_kappa_cap``).  Only the d=2
# tensor and a few arrays of its size are held.  ``classify`` peaked above
# the interpreter's ru_maxrss by 10.6 MiB on an imported C2^6 table (k = 64,
# 262K d=2 entries) and by 19.9 MiB on C3^4 (k = 81, 531K entries; the cap
# admits k <= 100 at d = 3).
DEFAULT_KAPPA_CAP = 10**8
SKIPPED = "skipped: cap"


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
        raise ValueError("kappa sums too large for exact float64 products (an entry >= 2^53)")
    return x


def _pair(x: np.ndarray, y: np.ndarray) -> int:  # sum x * y, in Python ints
    return sum(map(mul, x.astype(np.int64).ravel().tolist(), y.astype(np.int64).ravel().tolist()))


# The transfer chain.  With K_V[W, U] = kappa(W, V, U') (module docstring),
# J = sum_V K_V, S = sum_V sigma(V) K_V and Phi(X) = sum_V K_V^T X K_V, the
# sums over all (d+1)-tuples are (as sigma(U') = sigma(U))
#
#     sum kappa = 1^T J^(d-1) 1,   sum (prod sigma) kappa = sigma^T S^(d-1) sigma,
#     sum kappa^2 = trace Phi^(d-1)(I).
#
# t3 is symmetric in its slots, so K_V = T_V P with T_V = t3[:, V, :]
# symmetric and P the conjugation permutation: J^T = P J P, S^T = P S P, and
# the adjoint of Phi is P Phi(P . P) P.  So each sum pairs the chain's step
# a = floor(d/2), permuted by P, with its step b = d - 1 - a: one chain of a
# steps in float64, and the pairing in Python ints, which may pass 2^63.  At
# d = 1 the chain is empty and builds no tensor.
#
# Exactness.  J, the J chain and the Phi chain have non-negative entries and
# are ``_certified``.  |S| <= J and |sigma| <= 1 entrywise, so every partial
# sum of the sigma chain is at most the certified J chain entry in size.
# Phi^j(I) is a sum of M^T M over products M of j transfer matrices: positive
# semidefinite with non-negative entries, so its largest entry is a diagonal
# one, at most its trace |conj_(j+1)(G)|.  For a group's table the
# certificate therefore holds while |conj_(a+1)(G)| < 2^53.
def _kappa_sums(T: CharacterTable, d: int) -> tuple[int, int, int]:
    """(sum kappa, sum kappa^2, sum (prod sigma) kappa) over all (d+1)-tuples
    of irreps, as exact Python ints, cached on the table."""
    sums = T._cache.get(("kappa_sums", d))
    if sums is not None:
        return sums
    k, perm = T.num_classes, _conjugation(T)
    # chain[j] = [J^j 1, Phi^j(I), S^j sigma], cached for every d
    chain = T._cache.setdefault(
        "transfer", [[np.ones(k), np.eye(k), _sigma_vector(T).astype(np.float64)]])
    if len(chain) <= d // 2:
        t3 = kappa_tensor3(T).astype(np.float64)
        rows, cols = t3.reshape(k * k, k), t3.reshape(k, k * k)
        J = _certified(t3.sum(axis=0))[:, perm]
        S = (chain[0][2] @ cols).reshape(k, k)[:, perm]
        while len(chain) <= d // 2:
            x, X, y = chain[-1]
            # Phi(X) = P (sum_V T_V X T_V) P; XT[(w, V), b] = (X T_V)[w, b],
            # which at X = I is t3 itself
            XT = rows if len(chain) == 1 else (X @ cols).reshape(k * k, k)
            chain.append([_certified(J @ x), _certified(rows.T @ XT)[perm][:, perm], S @ y])
    (j_a, phi_a, s_a), (j_b, phi_b, s_b) = chain[d // 2], chain[(d - 1) // 2]
    sums = T._cache[("kappa_sums", d)] = (
        _pair(j_a[perm], j_b), _pair(phi_a[perm][:, perm], phi_b), _pair(s_a[perm], s_b))
    return sums


def kappa_slabs(T: CharacterTable, d: int):
    """kappa over all (d+1)-tuples of irreps, one first irrep a at a time:
    kappa(a, b) = [b = a'] at d = 1, t3[a] at d = 2, and at d = 3 the slab
    kappa(a, b, c, d') = sum_w t3[a, b, w] t3[w', c, d']."""
    k, perm = T.num_classes, _conjugation(T)
    if d == 1:
        return iter(np.eye(k, dtype=np.int64)[perm])
    if d == 2:
        return iter(kappa_tensor3(T))
    if d != 3:
        raise ValueError("tuple-sum formulas are capped at d = 3")
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


def over_kappa_cap(T: CharacterTable, d: int, cap: int) -> bool:
    """True when the d-tuple sums would do kappa work above ``cap``: the d=2
    tensor's k^3 entries phi(e)^2 times (the price of its modular sums at
    every embedding, kept so that the cap skips the same records), plus k^4
    at d = 3 and k^4 per chain step, floor(d/2) of them, at d >= 4.  d = 1
    builds no tensor."""
    if d == 1:
        return False
    k = T.num_classes
    steps = 0 if d == 2 else d // 2
    return k**3 * euler_phi(T.exponent) ** 2 + steps * k**4 > cap


# -- counting records ----------------------------------------------------------

def conj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|conj_d(G)| by Burnside's lemma, (1/|G|) sum_c |C_c| |C_G(c)|^d, and
    by the kappa-square sum."""
    total = sum(s * (T.order // s) ** d for s in T.sizes)
    if total % T.order:
        raise VerificationError("Burnside sum not integral")
    rec = Record(f"conj_{d}", {"burnside": total // T.order})
    if over_kappa_cap(T, d, kappa_cap):
        rec.notes["kappa_sq"] = SKIPPED
    else:
        rec.values["kappa_sq"] = _kappa_sums(T, d)[1]
    return rec


def rconj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|rconj_d(G)| via the square-root moment and the sigma-weighted
    Kronecker sum."""
    total = sum(s * rc ** (d + 1) for s, rc in zip(T.sizes, fs_indicators(T).r))
    if total % T.order:
        raise VerificationError("square-root moment not integral")
    rec = Record(f"rconj_{d}", {"r_moment": total // T.order})
    if over_kappa_cap(T, d, kappa_cap):
        rec.notes["sigma_weighted"] = SKIPPED
    else:
        rec.values["sigma_weighted"] = _kappa_sums(T, d)[2]
    return rec


def _least_witness(T: CharacterTable, d: int, bad) -> KroneckerResult:
    """The lexicographically least (d+1)-tuple of irreps where
    ``bad(a, slab)`` holds, with its kappa, once a sum has shown one exists."""
    for a, slab in enumerate(kappa_slabs(T, d)):
        mask = bad(a, slab)
        first = int(mask.argmax())  # the first True in C (lexicographic) order
        if mask.flat[first]:
            index = np.unravel_index(first, mask.shape)
            return KroneckerResult(irreps=(a, *map(int, index)), value=int(slab[index]))
    raise VerificationError("a kappa sum fails but no kappa slab shows where")


# Term by term kappa^2 >= kappa >= (prod sigma) kappa, as kappa >= 0 and
# prod sigma is -1, 0 or 1.  The first is an equality exactly when kappa is 0
# or 1, the second when moreover prod sigma = 1 wherever kappa = 1.  So each
# decision below compares two sums, and searches slabs only for the witness.

def is_mftp(T: CharacterTable, d: int = 2):
    """(all kappa <= 1, least witness tuple with kappa >= 2 otherwise)."""
    total, squares, _ = _kappa_sums(T, d)
    if total == squares:
        return True, None
    return False, _least_witness(T, d, lambda a, slab: slab >= 2)


def is_d_real_char(T: CharacterTable, d: int):
    """Character-side d-reality test: kappa <= 1 everywhere and the sigma
    product is 1 on every kappa = 1 tuple."""
    _, squares, signed = _kappa_sums(T, d)
    if signed == squares:
        return True, None
    s = _sigma_vector(T)
    rest = s  # the sigma product of the last d irreps of a tuple
    for _ in range(d - 1):
        rest = np.multiply.outer(rest, s)
    return False, _least_witness(
        T, d, lambda a, slab: (slab >= 2) | ((slab == 1) & (s[a] * rest != 1)))


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
    cent_census: dict[int, int] = {}
    for size in T.sizes:  # a class of size s has centralizer order n / s
        cent_census[n // size] = cent_census.get(n // size, 0) + size
    z = cent_census.get(n, 0)  # number of central elements
    deg_census: dict[int, int] = {}
    for dgr in T.degrees:
        deg_census[dgr] = deg_census.get(dgr, 0) + 1
    for q in range(3, n + 1):
        if n % q:
            continue
        a = n // q
        if not z < a:
            continue
        expected = {}
        for cent, cnt in ((n, z), (a, a - z), (z * q, a * (q - 1))):
            if cnt:
                expected[cent] = expected.get(cent, 0) + cnt
        if expected != cent_census:
            continue
        if (a - z) % q:
            continue
        if deg_census != ({1: z * q, q: (a - z) // q} if (a - z) // q else {1: z * q}):
            continue
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
    real_char, _ = is_d_real_char(T, 1)
    real = Record("real", {"char": int(real_char)})
    if T.classes is not None:
        # independent reality check through the class structure
        real.values["class_inverse"] = int(
            all(T.classes.inverse_class[c] == c for c in range(T.num_classes))
        )
    records = [real]
    for name, d, decide in (("mftp_2", 2, is_mftp), ("mftp_3", 3, is_mftp),
                            ("doubly_real", 2, is_d_real_char)):
        rec = Record(name)
        if over_kappa_cap(T, d, kappa_cap):
            rec.notes["char"] = SKIPPED
        else:
            ok, wit = decide(T, d)
            rec.values["char"], rec.witness = int(ok), _witness(wit)
        records.append(rec)
    mftp_2, doubly = records[1].values.get("char"), records[3].values.get("char")
    if doubly is not None and doubly != (real_char and mftp_2 == 1):
        raise VerificationError("doubly real <=> real and MFTP fails")
    if T.group is not None:
        prof = combinatorial_profile(T)
        if prof.matched:
            if mftp_2 == 1:
                raise VerificationError("combinatorial profile matched an MFTP group")
            records.append(Record("combinatorial_profile", {"matched": 1},
                                  witness=f"(z,a,q)=({prof.z},{prof.a},{prof.q})"))
    return records
