"""Kronecker coefficients and the counting identities built on them.

kappa(V_1,...,V_{d+1}) is always computed classwise from exact character
values, as a class sum modulo primes at one embedding of Z[zeta_e] into
F_p per prime, recovered exactly (see ``modular``, which also holds the
Galois certificate that makes one embedding enough).  The d=2 coefficient
tensor t3 is the workhorse: one exact float64 (k^2 x k) by (k x k) matrix
product per prime.  Every d=3 number is contracted from it in float64
under one magnitude bound (``_t3_matrix``) and no k^4 tensor is held: the
sums go through a k x k matrix or a k-vector, the maxima and witnesses
through ``kappa_slabs``, one k^3 slab at a time.

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
SKIPPED_D = "skipped: d > 3"


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


def _t3_matrix(T: CharacterTable) -> tuple[np.ndarray, list[int]]:
    """X = t3 as the (k^2 x k) float64 matrix X[(u, v), w], and the
    conjugation permutation of the irreps.  The d=3 numbers are products of X."""
    t3 = kappa_tensor3(T)
    k = T.num_classes
    # An entry of X^T X sums k^2 non-negative products of two kappas, one of a
    # d=3 slab k of them, and one of (sigma (x) sigma)^T X sums k^2 kappas of
    # either sign.  So while k^2 * top^2 < 2^53 (top the largest kappa), every
    # partial sum, in whatever order BLAS adds, is an integer float64 holds
    # exactly.  kappa(U, V, W) <= min(dim U, dim V, dim W), so group tables sit
    # far below the bound: the battery's largest k^2 * top^2 is 2^14.4.
    if k * k * int(t3.max()) ** 2 >= 2**53:
        raise ValueError("kappa values too large for exact float64 sums (k^2 max^2 >= 2^53)")
    return t3.reshape(k * k, k).astype(np.float64), [T.conjugate_irrep(w) for w in range(k)]


def kappa_slabs(T: CharacterTable, d: int):
    """kappa over all (d+1)-tuples of irreps, for d = 2, 3, one first irrep
    a at a time: t3[a], or at d = 3 the (k x k x k) slab
    kappa(a, b, c, d') = sum_w t3[a, b, w] t3[w', c, d'], w' conjugate to w."""
    if d == 2:
        return iter(kappa_tensor3(T))
    if d != 3:
        raise ValueError("tuple-sum formulas are capped at d = 3")
    X, perm = _t3_matrix(T)
    k = T.num_classes
    t3 = X.reshape(k, k, k)

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
    """True when the d-tuple sums would do kappa work above ``cap``.

    The work counts the d=2 tensor's k^3 entries phi(e)^2 times (the price
    of its modular sums when they ran at every embedding, kept so that the
    cap skips the same records), and for d=3 also the k^4 entries of the
    d=3 tensor, computed a slab of k^3 at a time.  d = 1 builds no tensor.
    """
    if d not in (2, 3):
        return False
    k = T.num_classes
    work = k**3 * euler_phi(T.exponent) ** 2 + (k**4 if d == 3 else 0)
    return work > cap


# -- counting records ----------------------------------------------------------

def conj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|conj_d(G)| by Burnside's lemma, (1/|G|) sum_c |C_c| |C_G(c)|^d, and
    (for d <= 3) the kappa-square sum."""
    total = sum(s * (T.order // s) ** d for s in T.sizes)
    if total % T.order:
        raise VerificationError("Burnside sum not integral")
    rec = Record(f"conj_{d}", {"burnside": total // T.order})
    if d == 1:
        rec.values["kappa_sq"] = T.num_classes
    elif d > 3:
        rec.notes["kappa_sq"] = SKIPPED_D
    elif over_kappa_cap(T, d, kappa_cap):
        rec.notes["kappa_sq"] = SKIPPED
    else:
        # with M = X^T X, the squares of t3 sum to trace(M); the d=3 tensor
        # pairs column w of X with column w' (``kappa_slabs``), so its
        # squares sum to sum_{w,v} M[w, v] M[w', v'].  Python ints: exact
        X, perm = _t3_matrix(T)
        M = (X.T @ X).astype(np.int64).tolist()
        k = len(M)
        rec.values["kappa_sq"] = (
            sum(M[w][w] for w in range(k)) if d == 2 else
            sum(M[w][v] * M[perm[w]][perm[v]] for w in range(k) for v in range(k)))
    return rec


def rconj_count(T: CharacterTable, d: int, kappa_cap: int = DEFAULT_KAPPA_CAP) -> Record:
    """|rconj_d(G)| via the square-root moment and (d <= 3) the sigma-weighted
    Kronecker sum."""
    total = sum(s * rc ** (d + 1) for s, rc in zip(T.sizes, fs_indicators(T).r))
    if total % T.order:
        raise VerificationError("square-root moment not integral")
    rec = Record(f"rconj_{d}", {"r_moment": total // T.order})
    s = _sigma_vector(T)
    if d == 1:
        rec.values["sigma_weighted"] = int((s * s).sum())
    elif d > 3:
        rec.notes["sigma_weighted"] = SKIPPED_D
    elif over_kappa_cap(T, d, kappa_cap):
        rec.notes["sigma_weighted"] = SKIPPED
    else:
        # u[w] = sum_{a,b} sigma(a) sigma(b) t3[a, b, w]; the sum is u . sigma
        # at d = 2 and sum_w u[w] u[w'] at d = 3.  Python ints: exact
        X, perm = _t3_matrix(T)
        u = (np.outer(s, s).ravel() @ X).astype(np.int64).tolist()
        second = s.tolist() if d == 2 else [u[w] for w in perm]
        rec.values["sigma_weighted"] = sum(x * y for x, y in zip(u, second))
    return rec


def _least_witness(T: CharacterTable, d: int, bad) -> Optional[KroneckerResult]:
    """The lexicographically least (d+1)-tuple of irreps where
    ``bad(a, slab)`` holds, with its kappa, or None; stops at the first
    slab that has one."""
    for a, slab in enumerate(kappa_slabs(T, d)):
        mask = bad(a, slab)
        first = int(mask.argmax())  # the first True in C (lexicographic) order
        if mask.flat[first]:
            index = np.unravel_index(first, mask.shape)
            return KroneckerResult(irreps=(a, *map(int, index)), value=int(slab[index]))
    return None


def is_mftp(T: CharacterTable, d: int = 2):
    """(all kappa <= 1, least witness tuple with kappa >= 2 otherwise)."""
    witness = _least_witness(T, d, lambda a, slab: slab >= 2)
    return witness is None, witness


def is_d_real_char(T: CharacterTable, d: int):
    """Character-side d-reality test: kappa <= 1 everywhere and the sigma
    product is 1 on every kappa = 1 tuple."""
    s = _sigma_vector(T)
    if d == 1:
        # kappa(U, V) = delta_{V, U'}; the sigma product on those pairs is sigma(U)^2
        for u in range(T.num_classes):
            if s[u] * s[T.conjugate_irrep(u)] != 1:
                return False, KroneckerResult(irreps=(u, T.conjugate_irrep(u)), value=1)
        return True, None
    rest = s  # the sigma product of the last d irreps of a tuple
    for _ in range(d - 1):
        rest = np.multiply.outer(rest, s)
    witness = _least_witness(
        T, d, lambda a, slab: (slab >= 2) | ((slab == 1) & (s[a] * rest != 1)))
    return witness is None, witness


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
    self_dual = np.array([T.conjugate_irrep(i) == i for i in range(T.num_classes)])
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
    for d in (2, 3):
        rec = Record(f"mftp_{d}")
        if over_kappa_cap(T, d, kappa_cap):
            rec.notes["char"] = SKIPPED
        else:
            ok, wit = is_mftp(T, d)
            rec.values["char"], rec.witness = int(ok), _witness(wit)
        records.append(rec)
    mftp_2 = records[1].values.get("char")
    doubly = Record("doubly_real")
    if over_kappa_cap(T, 2, kappa_cap):
        doubly.notes["char"] = SKIPPED
    else:
        ok, wit = is_d_real_char(T, 2)
        doubly.values["char"], doubly.witness = int(ok), _witness(wit)
        if ok != (real_char and mftp_2 == 1):
            raise VerificationError("doubly real <=> real and MFTP fails")
    records.append(doubly)
    if T.group is not None:
        prof = combinatorial_profile(T)
        if prof.matched:
            if mftp_2 == 1:
                raise VerificationError("combinatorial profile matched an MFTP group")
            records.append(Record("combinatorial_profile", {"matched": 1},
                                  witness=f"(z,a,q)=({prof.z},{prof.a},{prof.q})"))
    return records
