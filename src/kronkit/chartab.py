"""Exact character tables via the Dixon-Schneider method.

Class-algebra structure matrices are diagonalized simultaneously over a
prime field F_p with p = 1 (mod exponent) and p > 2*sqrt(|G|); eigenvalue
multiplicities of rho(g) are then recovered by a discrete Fourier lift and
assembled into exact cyclotomic character values.  Both orthogonality
relations are verified exactly before a table is returned, as int64 matrix
products at every embedding of Z[zeta_e] into F_p (see ``modular``); the
same engine validates imported tables and computes the Frobenius-Schur
indicators, square-root counts and fixed-space dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import modular
from .cyclo import Cyclotomic, euler_phi, power_basis
from .groupcore import ConjugacyData, GroupTable, SubgroupSpec, conjugacy_data, is_subgroup


class TableError(ValueError):
    pass


class VerificationError(AssertionError):
    """Internal bug trap: a theorem-backed identity failed."""


@dataclass(frozen=True)
class Character:
    degree: int
    values: tuple[Cyclotomic, ...]

    def serialize_values(self) -> tuple[str, ...]:
        return tuple(v.serialize() for v in self.values)


@dataclass(frozen=True)
class IndicatorData:
    sigma: tuple[int, ...]      # per irrep, in {-1, 0, 1}
    r: tuple[int, ...]          # per class, square-root counts of the rep
    r_max: int


class CharacterTable:
    """Irreducible characters plus class metadata.

    ``group``/``classes`` are None for imported tables; everything the
    counting formulas need (order, sizes, powermap2, values) is present
    either way.
    """

    def __init__(self, *, order, exponent, sizes, powermap2, irreps,
                 group=None, classes=None):
        self.order = order
        self.exponent = exponent
        self.sizes = tuple(sizes)
        self.powermap2 = tuple(powermap2)
        self.irreps = tuple(irreps)
        self.group = group
        self.classes = classes
        self.fs: IndicatorData | None = None
        self._cache: dict = {}

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(ch.degree for ch in self.irreps)

    def value(self, irrep: int, cls: int) -> Cyclotomic:
        return self.irreps[irrep].values[cls]

    def conjugate_irrep(self, irrep: int) -> int:
        """Index of the contragredient irrep (entrywise complex conjugate).

        With class data, conj(chi)(g) = chi(g^-1): the conjugate row is the
        row read at the inverse classes, and no value is conjugated.  An
        imported table conjugates every value.
        """
        perm = self._cache.get("conj_irrep")
        if perm is None:
            rows = [ch.serialize_values() for ch in self.irreps]
            keys = {row: i for i, row in enumerate(rows)}
            if self.classes is not None:
                inverse = self.classes.inverse_class
                conj_rows = [tuple(row[c] for c in inverse) for row in rows]
            else:
                conj_rows = [tuple(v.conjugate().serialize() for v in ch.values)
                             for ch in self.irreps]
            perm = []
            for row in conj_rows:
                if row not in keys:
                    raise VerificationError("contragredient character missing")
                perm.append(keys[row])
            perm = self._cache["conj_irrep"] = tuple(perm)
        return perm[irrep]


# -- modular linear algebra helpers ------------------------------------------

def _dixon_prime(e: int, n: int) -> int:
    """Least prime p = 1 (mod e) with p > 2*sqrt(n)."""
    p = e + 1
    while not (p * p > 4 * n and p > 2 and modular._is_prime(p)):
        p += e
    return p


def _nullspace(mat, p: int):
    """Basis of the nullspace of a square matrix over F_p (reduced form)."""
    m = len(mat)
    a = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, m) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for c in free:
        v = [0] * m
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-a[i][c]) % p
        basis.append(v)
    return basis


def _column_reduce(vectors, p: int):
    """Reduced column-echelon basis of span(vectors); returns (basis, pivot rows)."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        v = v[:]
        for b, pr in zip(basis, pivots):
            f = v[pr] % p
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x % p), None)
        if piv is None:
            continue
        inv = pow(v[piv], p - 2, p)
        v = [(x * inv) % p for x in v]
        for b in basis:
            f = b[piv] % p
            if f:
                for i in range(len(b)):
                    b[i] = (b[i] - f * v[i]) % p
        basis.append(v)
        pivots.append(piv)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


# -- the Dixon-Schneider computation -----------------------------------------

def _class_matrices(G: GroupTable, cd: ConjugacyData):
    """A_j with (A_j)[i][k] = #{x in class_j : class(x^-1 * rep_k) = i}.

    These satisfy A_j w = omega_j w for the eigenvalue vectors
    w_i = |class_i| chi(g_i) / chi(1).
    """
    k = cd.num_classes
    class_of = np.array(cd.class_of)
    inv = np.asarray(G.inv)
    # column kk of the bincount index: entry (i, kk) is at i * k + kk
    cols = np.arange(k)
    mats = []
    for j in range(k):
        products = G.table[np.ix_(inv[class_of == j], cd.reps)]  # x^-1 rep_k
        counts = np.bincount((class_of[products] * k + cols).ravel(), minlength=k * k)
        mats.append(counts.reshape(k, k).tolist())
    return mats


def _split_eigenvectors(mats, p: int, k: int):
    """Deterministic sequential eigenspace splitting; returns 1-dim vectors."""
    subspaces = [[[1 if i == j else 0 for i in range(k)] for j in range(k)]]
    # a subspace is a list of column vectors (length-k lists), column-reduced
    for j in range(1, k):
        if all(len(s) == 1 for s in subspaces):
            break
        amod = [[v % p for v in row] for row in mats[j]]
        new_subspaces = []
        for basis in subspaces:
            if len(basis) == 1:
                new_subspaces.append(basis)
                continue
            basis, pivots = _column_reduce(basis, p)
            m = len(basis)
            # restriction M of A_j to the subspace: A B = B M
            imgs = []
            for b in basis:
                imgs.append([sum(amod[r][c] * b[c] for c in range(k)) % p
                             for r in range(k)])
            M = [[imgs[col][pr] for col in range(m)] for pr in pivots]
            found = 0
            for lam in range(p):
                shifted = [[(M[i][j2] - (lam if i == j2 else 0)) % p
                            for j2 in range(m)] for i in range(m)]
                null = _nullspace(shifted, p)
                if not null:
                    continue
                lifted = []
                for v in null:
                    lifted.append([sum(basis[t][r] * v[t] for t in range(m)) % p
                                   for r in range(k)])
                eig_basis, _ = _column_reduce(lifted, p)
                new_subspaces.append(eig_basis)
                found += len(eig_basis)
                if found == m:
                    break
            if found != m:
                raise VerificationError("class matrix did not split over F_p")
        subspaces = new_subspaces
    if any(len(s) != 1 for s in subspaces):
        raise VerificationError("eigenspace splitting incomplete")
    vectors = []
    for (v,) in subspaces:
        if v[0] % p == 0:
            raise VerificationError("eigenvector vanishes on the identity class")
        inv = pow(v[0], p - 2, p)
        vectors.append([x * inv % p for x in v])
    return vectors


def _power_classes(G: GroupTable, cd: ConjugacyData) -> list[list[int]]:
    """pcls[j][t] = class of rep_j^t, for 0 <= t < the order of rep_j."""
    reps = np.array(cd.reps)
    class_of = np.array(cd.class_of)
    orders = G.orders[reps]
    x = np.zeros_like(reps)
    columns = []
    for _ in range(int(orders.max())):
        columns.append(class_of[x])
        x = G.table[x, reps]
    powers = np.stack(columns, axis=1)
    return [row[:o] for row, o in zip(powers.tolist(), orders.tolist())]


def _lift_character(pcls, chi_mod, degree, p, z, e):
    """Exact cyclotomic values from mod-p values via eigenvalue multiplicities;
    ``pcls`` are the power classes of ``_power_classes``."""
    basis = power_basis(e)
    phi = euler_phi(e)
    values = []
    for pc in pcls:
        o = len(pc)
        zo = pow(z, e // o, p)
        zo_inv = pow(zo, p - 2, p)
        inv_o = pow(o, p - 2, p)
        coeffs = [0] * phi
        for m in range(o):
            acc = 0
            w = pow(zo_inv, m, p)
            t_pow = 1
            for t in range(o):
                acc = (acc + chi_mod[pc[t]] * t_pow) % p
                t_pow = t_pow * w % p
            c = acc * inv_o % p
            if c > degree:
                raise VerificationError("eigenvalue multiplicity out of range")
            if c:
                row = basis[(m * (e // o)) % e]
                for i in range(phi):
                    if row[i]:
                        coeffs[i] += c * row[i]
        values.append(Cyclotomic(e, coeffs))
    return values


def _row_gram(T: CharacterTable, inverse_class=None):
    """sum_c |C_c| chi_i(c) chi_j(c^-1) for all i, j, exactly (None if not rational).

    Without ``inverse_class`` (an imported table), chi_j(c^-1) is taken as the
    complex conjugate of chi_j(c), the embedding -a.
    """
    img = modular.images(T)
    m = img.class_l1
    if inverse_class is None:
        bound = img.r**2 * sum(s * mc * mc for s, mc in zip(T.sizes, m))
    else:
        bound = img.r * sum(s * m[c] * m[inverse_class[c]] for c, s in enumerate(T.sizes))

    def sums_mod(p, V):
        second = V[img.conj] if inverse_class is None else V[:, :, inverse_class]
        return np.matmul(V * modular.residues(T.sizes, p) % p, second.transpose(0, 2, 1)) % p

    return img.exact(bound, sums_mod)


def _column_gram(T: CharacterTable, inverse_class):
    """sum_i chi_i(c) chi_i(c2^-1) for all c, c2, exactly (None if not rational)."""
    img = modular.images(T)
    bound = img.r * sum(m * m for m in img.irrep_l1)
    return img.exact(bound, lambda p, V: np.matmul(
        V.transpose(0, 2, 1), V[:, :, inverse_class]) % p)


def _verify_orthogonality(T: CharacterTable, inverse_class):
    n = T.order
    row = _row_gram(T, inverse_class)
    if row is None or (row != np.diag([n] * T.num_classes)).any():
        raise VerificationError("verification failed: row orthogonality")
    col = _column_gram(T, inverse_class)
    if col is None or (col != np.diag([n // s for s in T.sizes])).any():
        raise VerificationError("verification failed: column orthogonality")


def character_table(G: GroupTable) -> CharacterTable:
    """Exact character table of G (deterministic run-to-run)."""
    cd = conjugacy_data(G)
    k = cd.num_classes
    e = G.exponent()
    n = G.order
    p = _dixon_prime(e, n)
    z = modular._root_of_unity(p, e)
    mats = _class_matrices(G, cd)
    vectors = _split_eigenvectors(mats, p, k)
    pcls = _power_classes(G, cd)

    inv_sizes = [pow(s, p - 2, p) for s in cd.sizes]
    chars = []
    for w in vectors:
        s = 0
        for j in range(k):
            s = (s + w[j] * w[cd.inverse_class[j]] * inv_sizes[j]) % p
        deg_sq = n * pow(s, p - 2, p) % p
        degree = next((d for d in range(1, isqrt(n) + 1) if d * d % p == deg_sq), None)
        if degree is None:
            raise VerificationError("degree recovery failed")
        chi_mod = [degree * w[j] % p * inv_sizes[j] % p for j in range(k)]
        values = _lift_character(pcls, chi_mod, degree, p, z, e)
        if values[0] != degree:
            raise VerificationError("lifted degree mismatch")
        chars.append(Character(degree=degree, values=tuple(values)))

    chars.sort(key=lambda ch: (ch.degree, ch.serialize_values()))
    if len(chars) != k:
        raise VerificationError("wrong number of irreducible characters")
    if sum(ch.degree**2 for ch in chars) != n:
        raise VerificationError("sum of squared degrees mismatch")
    for ch in chars:
        if n % ch.degree:
            raise VerificationError("degree does not divide group order")
        if any(not v.is_integral() for v in ch.values):
            raise VerificationError("character value not an algebraic integer")

    T = CharacterTable(
        order=n,
        exponent=e,
        sizes=cd.sizes,
        powermap2=cd.power_class[2],
        irreps=chars,
        group=G,
        classes=cd,
    )
    _verify_orthogonality(T, cd.inverse_class)
    return T


# -- Frobenius-Schur indicators and fixed spaces ------------------------------

def fs_indicators(T: CharacterTable) -> IndicatorData:
    """sigma per irrep and square-root counts r per class (cached on T)."""
    if T.fs is not None:
        return T.fs
    img = modular.images(T)
    n = T.order
    pm2 = list(T.powermap2)
    m = img.class_l1
    # n sigma_i = sum_c |C_c| chi_i(c^2)
    sums = img.exact(sum(s * m[c] for s, c in zip(T.sizes, pm2)),
                     lambda p, V: V[:, :, pm2] @ modular.residues(T.sizes, p) % p)
    if sums is None or any(x % n or x // n not in (-1, 0, 1) for x in sums):
        raise VerificationError("non-integral Frobenius-Schur indicator")
    sigma = [int(x) // n for x in sums]
    # r(c) = sum_i sigma_i chi_i(c), with |sigma_i| <= 1
    r = img.exact(sum(img.irrep_l1),
                  lambda p, V: modular.residues(sigma, p) @ V % p)
    if r is None or any(x < 0 for x in r):
        raise VerificationError("negative or fractional square-root count")
    r = [int(x) for x in r]
    if sum(s * rc for s, rc in zip(T.sizes, r)) != T.order:
        raise VerificationError("square-root counts do not sum to |G|")
    T.fs = IndicatorData(sigma=tuple(sigma), r=tuple(r), r_max=max(r))
    return T.fs


def dim_fixed_space(T: CharacterTable, irrep: int, K: SubgroupSpec) -> int:
    """dim V^K = (1/|K|) sum over K of chi_V."""
    if T.group is None or T.classes is None:
        raise TableError("fixed-space dimensions need the underlying group")
    if not is_subgroup(T.group, K):
        raise TableError("not a subgroup")
    counts = [0] * T.num_classes  # elements of K per class
    for x in K.elements:
        counts[T.classes.class_of[x]] += 1
    img = modular.images(T)
    total = img.exact(sum(m * l1 for m, l1 in zip(counts, img.l1[irrep])),
                      lambda p, V: V[:, irrep] @ modular.residues(counts, p) % p)
    if total is None or total % K.order or total < 0:
        raise VerificationError("fixed-space dimension not a non-negative integer")
    return int(total) // K.order


# -- exchange format -----------------------------------------------------------

def dump_table(T: CharacterTable) -> str:
    lines = [
        f"order {T.order}",
        f"exponent {T.exponent}",
        f"classes {T.num_classes}",
        "sizes " + " ".join(map(str, T.sizes)),
        "powermap2 " + " ".join(map(str, T.powermap2)),
    ]
    for ch in T.irreps:
        lines.append("chi: " + " | ".join(v.serialize() for v in ch.values))
    return "\n".join(lines) + "\n"


def load_table(text: str) -> CharacterTable:
    """Parse and validate a character table in the exchange format.

    Any malformed or inconsistent input raises ``TableError``.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = {}
    rows = []
    for ln in lines:
        if ln.startswith("chi:"):
            rows.append(ln[len("chi:"):])
        else:
            key, _, rest = ln.partition(" ")
            fields[key] = rest
    try:
        order = int(fields["order"])
        exponent = int(fields["exponent"])
        k = int(fields["classes"])
        sizes = tuple(int(v) for v in fields["sizes"].split())
        powermap2 = tuple(int(v) for v in fields["powermap2"].split())
    except (KeyError, ValueError) as exc:
        raise TableError(f"format error: {exc}") from exc
    if exponent < 1 or k < 1 or any(s < 1 for s in sizes):
        raise TableError("format error: exponent, class count and sizes must be positive")
    if len(sizes) != k or len(powermap2) != k or len(rows) != k:
        raise TableError("format error: inconsistent class count")
    if sum(sizes) != order:
        raise TableError("format error: class sizes do not sum to the order")
    if order % exponent:
        raise TableError("format error: the exponent does not divide the order")
    if any(not 0 <= c < k for c in powermap2):
        raise TableError("format error: powermap out of range")
    irreps = []
    for row in rows:
        try:
            vals = tuple(Cyclotomic.parse(v) for v in row.split("|"))
        except (ValueError, ZeroDivisionError) as exc:
            raise TableError(f"format error: {exc}") from exc
        if len(vals) != k:
            raise TableError("format error: wrong number of character values")
        if any(exponent % v.e for v in vals):
            raise TableError("format error: a value's conductor does not divide the exponent")
        # the power basis is an integral basis of Z[zeta_e]
        if not all(v.is_integral() for v in vals):
            raise TableError("format error: character value not an algebraic integer")
        deg = vals[0].coeffs[0]
        if not vals[0].is_rational() or deg <= 0:
            raise TableError("format error: bad character degree")
        irreps.append(Character(degree=int(deg), values=vals))
    T = CharacterTable(
        order=order, exponent=exponent, sizes=sizes, powermap2=powermap2,
        irreps=tuple(irreps),
    )
    _validate_imported(T)
    return T


def _validate_imported(T: CharacterTable):
    try:
        row = _row_gram(T)
    except ValueError as exc:  # beyond the int64 limits of the modular engine
        raise TableError(f"format error: {exc}") from exc
    if row is None or (row != np.diag([T.order] * T.num_classes)).any():
        raise TableError("orthogonality failed on import")
    try:
        fs_indicators(T)
    except VerificationError as exc:
        raise TableError(f"indicator check failed on import: {exc}") from exc
