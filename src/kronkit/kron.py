"""Kronecker coefficients and the counting identities built on them.

kappa(V_1,...,V_{d+1}) is always computed classwise from exact character
values, as an int64 class sum modulo primes at every embedding of
Z[zeta_e] into F_p, recovered exactly (see ``modular``).  The d=2
coefficient tensor is the workhorse: one (k^2 x k) by (k x k) matrix
product per embedding; the d=3 tensor is contracted from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

import numpy as np

from . import modular
from .chartab import CharacterTable, SubgroupSpec, VerificationError, dim_fixed_space, fs_indicators


@dataclass(frozen=True)
class KroneckerResult:
    irreps: tuple[int, ...]
    value: int


@dataclass
class CountReport:
    quantity: str                 # conj_d | rconj_d | frame | hecke_dim
    param: object                 # d, or a subgroup descriptor
    values: dict[str, int] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)

    def add(self, name: str, value: int) -> "CountReport":
        self.values[name] = int(value)
        return self


@dataclass
class ClassificationResult:
    mftp_d: dict[int, bool]
    d_real_d: dict[int, bool]
    real: bool
    doubly_real: bool
    witness: Optional[KroneckerResult] = None


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
        terms = np.broadcast_to(modular.residues(T.sizes, p), (len(V), T.num_classes))
        for i in irreps:
            terms = terms * V[:, i] % p
        return terms.sum(axis=1) % p

    total = img.exact(bound, sums_mod)
    if total is None or total % T.order or total < 0:
        raise VerificationError("Kronecker coefficient not a non-negative integer")
    return KroneckerResult(irreps=irreps, value=int(total) // T.order)


def kappa_tensor3(T: CharacterTable) -> np.ndarray:
    """kappa(V_u, V_v, V_w) for all triples, shape (k, k, k).

    Per embedding, the (k^2 x k) matrix of products chi_u chi_v times the
    (k x k) matrix |C_c| chi_w(c), modulo each prime.
    """
    t3 = T._cache.get("kappa3")
    if t3 is not None:
        return t3
    img = modular.images(T)
    k = T.num_classes
    bound = img.r**2 * sum(s * m**3 for s, m in zip(T.sizes, img.class_l1))

    def sums_mod(p, V):
        sizes = modular.residues(T.sizes, p)
        for Va in V:
            pairs = (Va[:, None, :] * Va[None, :, :] % p).reshape(k * k, k)
            yield (pairs @ (Va * sizes % p).T % p).reshape(k, k, k)

    S = img.exact(bound, sums_mod)
    if S is None:
        raise VerificationError("kappa sum not rational")
    if (S % T.order).any() or (S < 0).any():
        raise VerificationError("kappa tensor entry invalid")
    t3 = (S // T.order).astype(np.int64)
    T._cache["kappa3"] = t3
    return t3


def kappa_tensor4(T: CharacterTable) -> np.ndarray:
    """kappa(V_a, V_b, V_c, V_d) for all 4-tuples, via the d=2 tensor."""
    t4 = T._cache.get("kappa4")
    if t4 is not None:
        return t4
    t3 = kappa_tensor3(T)
    k = T.num_classes
    perm = [T.conjugate_irrep(w) for w in range(k)]
    right = t3[perm].reshape(k, k * k)
    top = int(t3.max())
    if k * top * top < 2**53:
        # kappa3 >= 0, so every product and partial sum of the k-term dot
        # products is an integer in [0, k * top^2], which float64 holds exactly
        right = right.astype(np.float64)
        t4 = np.empty((k, k, k * k), dtype=np.int64)
        for a in range(k):  # one (k x k) @ (k x k^2) slice keeps temporaries at k^3
            t4[a] = t3[a].astype(np.float64) @ right
    else:
        t4 = t3.astype(object) @ right.astype(object)
    t4 = t4.reshape(k, k, k, k)
    T._cache["kappa4"] = t4
    return t4


def _sigma_vector(T: CharacterTable) -> np.ndarray:
    return np.array(fs_indicators(T).sigma, dtype=np.int64)


# -- counting reports ----------------------------------------------------------

def burnside_count(T: CharacterTable, d: int) -> int:
    """|conj_d(G)| by Burnside's lemma: (1/|G|) sum_c |C_c| |C_G(c)|^d."""
    total = sum(s * (T.order // s) ** d for s in T.sizes)
    if total % T.order:
        raise VerificationError("Burnside sum not integral")
    return total // T.order


def conj_count(T: CharacterTable, d: int) -> CountReport:
    """|conj_d(G)| by Burnside's lemma and (for d <= 3) the kappa-square sum."""
    rep = CountReport(quantity="conj_d", param=d)
    rep.add("burnside", burnside_count(T, d))
    if d == 1:
        rep.add("kappa_sq", T.num_classes)
    elif d in (2, 3):
        # squares of the distinct values in Python ints: exact at any size
        values, counts = np.unique(_kappa_d_tensor(T, d), return_counts=True)
        rep.add("kappa_sq", sum(int(v) ** 2 * int(c) for v, c in zip(values, counts)))
    return rep


def rconj_count(T: CharacterTable, d: int) -> CountReport:
    """|rconj_d(G)| via the square-root moment and (d <= 3) the sigma-weighted
    Kronecker sum."""
    fs = fs_indicators(T)
    rep = CountReport(quantity="rconj_d", param=d)
    total = sum(s * rc ** (d + 1) for s, rc in zip(T.sizes, fs.r))
    if total % T.order:
        raise VerificationError("square-root moment not integral")
    rep.add("r_moment", total // T.order)
    s = _sigma_vector(T)
    if d == 1:
        rep.add("sigma_weighted", int((s * s).sum()))
    elif d == 2:
        t3 = kappa_tensor3(T)
        rep.add("sigma_weighted", int(np.einsum("u,v,w,uvw->", s, s, s, t3)))
    elif d == 3:
        t4 = kappa_tensor4(T)
        rep.add("sigma_weighted", int(np.einsum("a,b,c,d,abcd->", s, s, s, s, t4)))
    return rep


def _first_lex(mask: np.ndarray):
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return None
    return tuple(int(v) for v in idx[0])  # argwhere scans in C (lex) order


def _kappa_d_tensor(T: CharacterTable, d: int) -> np.ndarray:
    if d == 2:
        return kappa_tensor3(T)
    if d == 3:
        return kappa_tensor4(T)
    raise ValueError("tuple-sum formulas are capped at d = 3")


def is_mftp(T: CharacterTable, d: int = 2):
    """(all kappa <= 1, least witness tuple with kappa >= 2 otherwise)."""
    t = _kappa_d_tensor(T, d)
    witness = _first_lex(t >= 2)
    if witness is None:
        return True, None
    return False, KroneckerResult(irreps=witness, value=int(t[witness]))


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
    t = _kappa_d_tensor(T, d)
    sp = s
    for _ in range(d):
        sp = np.multiply.outer(sp, s)
    bad = (t >= 2) | ((t == 1) & (sp != 1))
    witness = _first_lex(bad)
    if witness is None:
        return True, None
    return False, KroneckerResult(irreps=witness, value=int(t[witness]))


def frame_verify(T: CharacterTable, K: SubgroupSpec) -> CountReport:
    """sum over irreps of sigma(V) * dim V^K (Frame's self-inverse count)."""
    fs = fs_indicators(T)
    total = sum(
        fs.sigma[i] * dim_fixed_space(T, i, K) for i in range(T.num_classes)
    )
    rep = CountReport(quantity="frame", param=K.order)
    rep.add("sigma_dim", total)
    return rep


def hecke_dimension(T: CharacterTable, K: SubgroupSpec) -> CountReport:
    """sum of dim(V^K)^2 = number of K-double cosets."""
    total = sum(dim_fixed_space(T, i, K) ** 2 for i in range(T.num_classes))
    rep = CountReport(quantity="hecke_dim", param=K.order)
    rep.add("dim_sq", total)
    return rep


def easy_gelfand_verify(T: CharacterTable, K: SubgroupSpec, symmetric: bool) -> bool:
    """Biconditional of the symmetric-Gelfand criterion; True is a theorem."""
    fs = fs_indicators(T)
    char_side = True
    for i in range(T.num_classes):
        dim = dim_fixed_space(T, i, K)
        if dim > 1 or (dim == 1 and fs.sigma[i] != 1):
            char_side = False
            break
    return symmetric == char_side


def combinatorial_profile(T: CharacterTable) -> CombinatorialProfile:
    """Search for the (z, a, q) centralizer/degree profile; when it matches,
    the group cannot have multiplicity-free tensor products (cross-checked)."""
    if T.group is None or T.classes is None:
        raise ValueError("profile needs the underlying group")
    n = T.order
    cent_census: dict[int, int] = {}
    for size, cent in zip(T.sizes, T.classes.centralizer_orders):
        cent_census[cent] = cent_census.get(cent, 0) + size
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
        ok, _ = is_mftp(T, 2)
        if ok:
            raise VerificationError("combinatorial profile matched an MFTP group")
        return CombinatorialProfile(matched=True, z=z, a=a, q=q)
    return CombinatorialProfile(matched=False)


def sign_law_violations(T: CharacterTable):
    """Triples of self-dual irreps U, V, W with multiplicity of W in U (x) V
    equal to 1 but sigma(U) sigma(V) != sigma(W).  Must be empty (Lemma)."""
    fs = fs_indicators(T)
    t3 = kappa_tensor3(T)
    s = np.array(fs.sigma, dtype=np.int64)
    self_dual = np.array(
        [T.conjugate_irrep(i) == i for i in range(T.num_classes)], dtype=bool
    )
    bad = []
    k = T.num_classes
    for u in range(k):
        if not self_dual[u]:
            continue
        for v in range(k):
            if not self_dual[v]:
                continue
            for w in range(k):
                # multiplicity of W in U (x) V is kappa(U, V, W') = kappa(U, V, W)
                if self_dual[w] and t3[u, v, w] == 1 and s[u] * s[v] != s[w]:
                    bad.append((u, v, w))
    return bad


def classify(T: CharacterTable, ds=(2, 3)) -> ClassificationResult:
    """MFTP / d-real classification from the character table alone."""
    mftp = {}
    d_real = {}
    witness = None
    for d in ds:
        ok, wit = is_mftp(T, d)
        mftp[d] = ok
        if d == 2 and wit is not None:
            witness = wit
    for d in (1, 2):
        ok, wit = is_d_real_char(T, d)
        d_real[d] = ok
        if d == 2 and witness is None and wit is not None:
            witness = wit
    real = d_real[1]
    if T.classes is not None:
        # independent reality check through the class structure
        real_classes = all(
            T.classes.inverse_class[c] == c for c in range(T.num_classes)
        )
        if real_classes != real:
            raise VerificationError("reality checks disagree")
    doubly_real = d_real[2]
    if doubly_real and not mftp.get(2, True):
        raise VerificationError("doubly real group without MFTP")
    if real and mftp.get(2) and not doubly_real:
        raise VerificationError("real MFTP group not doubly real")
    return ClassificationResult(
        mftp_d=mftp, d_real_d=d_real, real=real, doubly_real=doubly_real,
        witness=witness,
    )
