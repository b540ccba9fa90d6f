"""Exact character tables via the Dixon-Schneider method.

The class matrices A_j of the class algebra are diagonalized simultaneously
over F_p, with p = 1 (mod exponent) and p > 2*sqrt(|G|), in int64 arithmetic
mod p (``_dixon_prime`` holds the range argument).  The split starts from the
whole space.  A_j is built only when the split reaches it, and is restricted
to each subspace at the subspace's pivot columns.  One Gaussian elimination
of every shifted restriction M - lambda I of every subspace of one dimension
at once (``_echelon`` on a stack, in blocks) finds the eigenvalues, and the
echelon forms at those lambda give the eigenspaces.  The common eigenvectors
give every character mod p; one DFT matrix product mod p per element order
turns these, for all irreps at once, into eigenvalue multiplicities of
rho(g) and so into the exact power-basis coefficients of every value at the
exponent e.  A table keeps them as one int64 array [irrep, class,
phi(e)], ``CharacterTable.coeffs``, from the lift to the output.  One exact
class sum, the d = 1 Kronecker matrix, checks both orthogonality relations
of every table and gives its duals and indicators (``_duals``), with the
inverse classes of the group or, for an import, the certified complex
conjugation.  Such sums run as float64 matrix products at one embedding of
Z[zeta_e] into F_p per prime (``modular``, which certifies the table
Galois-stable first); linear ones are int64 row sums (``rational_rows``).
The exchange format writes every value at the exponent e: ``load_table``
reads each distinct value string once, straight into its integer row at e
(``cyclo.parse_value``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from . import modular
from .cyclo import Cyclotomic, euler_phi, format_value, parse_value, power_basis
from .groupcore import ConjugacyData, GroupTable, SubgroupSpec, conjugacy_data, is_subgroup


class TableError(ValueError):
    pass


class VerificationError(AssertionError):
    """Internal bug trap: a theorem-backed identity failed."""


@dataclass(frozen=True)
class Character:
    degree: int
    values: tuple[Cyclotomic, ...]


@dataclass(frozen=True)
class IndicatorData:
    sigma: tuple[int, ...]      # per irrep, in {-1, 0, 1}
    r: tuple[int, ...]          # per class, square-root counts of the rep


class CharacterTable:
    """Irreducible characters plus class metadata.

    ``coeffs[i, c]`` holds the power-basis coefficients of chi_i(c) at the
    table exponent e, an int64 array of shape (irreps, classes, phi(e)); the
    degrees are ``coeffs[:, 0, 0]``.  ``group``/``classes`` are None for
    imported tables; everything the counting formulas need (order, sizes,
    powermap2, values) is present either way.
    """

    def __init__(self, *, order, exponent, sizes, powermap2, coeffs,
                 group=None, classes=None):
        self.order = order
        self.exponent = exponent
        self.sizes = tuple(sizes)
        self.powermap2 = tuple(powermap2)
        self.coeffs = coeffs
        self.group = group
        self.classes = classes
        self._cache: dict = {}

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.coeffs[:, 0, 0].tolist())

    @cached_property
    def irreps(self) -> tuple[Character, ...]:
        """The characters as ``Cyclotomic`` values, built on first use
        straight from the integer coefficient rows (denominator 1)."""
        e = self.exponent
        return tuple(Character(degree=row[0][0], values=tuple(Cyclotomic(e, v) for v in row))
                     for row in self.coeffs.tolist())

    def value(self, irrep: int, cls: int) -> Cyclotomic:
        return self.irreps[irrep].values[cls]

    def conjugate_irrep(self, irrep: int) -> int:
        """Index of the contragredient irrep (entrywise complex conjugate),
        found by ``_duals`` as a constructor checks the table; a table made
        directly finds it with ``modular.TableImages.conj``, or raises
        ``VerificationError``."""
        perm = self._cache.get("duals")
        if perm is None:
            perm = _duals(self, modular.images(self).conj)
            if perm is None:
                raise VerificationError("contragredient character missing")
        return perm[irrep]


# -- linear algebra over F_p --------------------------------------------------

def _dixon_prime(e: int, n: int) -> int:
    """Least prime p = 1 (mod e) with p > 2*sqrt(n).

    int64 range: every residue below lies in [0, p), and every int64 sum
    adds at most n products of two residues: a class-matrix row times a
    basis vector (k <= n classes), a DFT over an element order (o <= e <= n),
    an entry under elimination (one product per column, k <= n columns).
    n (p - 1)^2 < 2^63 keeps them all exact, so a larger p is refused; it
    also keeps p below ``modular.MR_EXACT_BELOW``, where the prime test is
    exact.
    """
    p = e + 1
    while not (p * p > 4 * n and p > 2 and modular._is_prime(p)):
        p += e
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"the Dixon prime {p} is too large for int64 arithmetic "
                         f"at order {n}")
    return p


def _inverse(x, p: int):
    """x^(p-2) mod p elementwise: the inverse of every nonzero x, and 0 at 0."""
    x = np.asarray(x, dtype=np.int64) % p
    y = np.ones_like(x)
    t = p - 2
    while t:
        if t & 1:
            y = y * x % p
        x = x * x % p
        t >>= 1
    return y


def _echelon(a, p: int):
    """Reduced row echelon form over F_p of a matrix, or of every matrix of a
    stack a[..., r, c] at once, and the mask [..., c] of its pivot columns."""
    a = np.array(a, dtype=np.int64)
    a %= p
    shape = a.shape
    r, c = shape[-2:]
    a = a.reshape(-1, r, c)
    b = np.arange(len(a))
    rows = np.arange(r)
    rank = np.zeros(len(a), dtype=np.intp)
    pivot = np.zeros((len(a), c), dtype=bool)
    inverse = _inverse(np.arange(p), p)
    for col in range(c):
        # the pivot row is the first row at or below the rank with a nonzero
        # entry in col; left of col it is zero, and so is every row below it.
        # Other entries are reduced at the end: each loses at most one
        # product of residues per column, c <= n of them (``_dixon_prime``)
        a[:, :, col] %= p
        cand = (a[:, :, col] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        t = np.minimum(rank, r - 1)
        i = np.where(has, cand.argmax(axis=1), t)
        top = a[b, i, col:] % p * np.where(has, inverse[a[b, i, col]], 1)[:, None] % p
        a[b, i] = a[b, t]
        a[b, t, col:] = top
        f = np.where(has[:, None] & (rows != t[:, None]), a[:, :, col], 0)
        a[:, :, col:] -= f[:, :, None] * top[:, None, :]
        pivot[:, col] = has
        rank += has
    a %= p
    return a.reshape(shape), pivot.reshape(shape[:-2] + (c,))


# entries of one stacked elimination in ``_eigenvalues``
_EIGEN_BLOCK = 2**22


def _eigenvalues(Ms, p: int):
    """For each matrix M of the stack Ms (all m x m), the list of (lambda, R,
    pivot) for every lambda in F_p, ascending, at which M - lambda I is
    singular: R is its reduced echelon form, and pivot the mask of R's pivot
    columns.

    One elimination runs on every shifted matrix of every M at once, in
    blocks of about ``_EIGEN_BLOCK`` entries that take the pairs (M, lambda)
    in order.
    """
    count, m = len(Ms), Ms.shape[-1]
    step = max(1, _EIGEN_BLOCK // (m * m))
    found = [[] for _ in range(count)]
    for start in range(0, count * p, step):
        which, lam = np.divmod(np.arange(start, min(start + step, count * p)), p)
        R, pivot = _echelon(Ms[which] - lam[:, None, None] * np.eye(m, dtype=np.int64), p)
        for i in np.flatnonzero(pivot.sum(axis=1) < m).tolist():
            found[which[i]].append((int(lam[i]), R[i], pivot[i]))
    return found


def _eigenspace(R, pivot, p: int):
    """(N, F): the rows N span the kernel of the reduced echelon form R with
    pivot mask ``pivot``, and N[:, F] = I on its free columns F."""
    F = np.flatnonzero(~pivot)
    N = np.zeros((len(F), len(pivot)), dtype=np.int64)
    N[:, F] = np.eye(len(F), dtype=np.int64)
    N[:, pivot] = -R[:len(pivot) - len(F), F].T % p
    return N, F


# -- the Dixon-Schneider computation -----------------------------------------

def _split_eigenvectors(G: GroupTable, cd: ConjugacyData, p: int) -> np.ndarray:
    """The common eigenvectors w of the class matrices A_j, scaled to w[0] = 1.

    (A_j)[i, l] = #{x in class_j : class(x^-1 rep_l) = i}, and A_j w =
    omega_j w for w_i = |class_i| chi(g_i) / chi(1).  A subspace is a basis
    E (rows) with E[:, P] = I, so A_j E^T = E^T M for M = A_j[P] E^T; an
    eigenspace N of M (N[:, F] = I) gives the subspace N E with columns
    P[F].  A_j is built when the split reaches it, and only while some
    subspace has dimension above 1.
    """
    k = cd.num_classes
    class_of = np.asarray(cd.class_of)
    inv = np.asarray(G.inv)
    cols = np.arange(k)
    spaces = [(np.eye(k, dtype=np.int64), np.arange(k))]
    for j in range(1, k):
        if all(len(E) == 1 for E, _ in spaces):
            break
        products = G.table[np.ix_(inv[class_of == j], cd.reps)]  # x^-1 rep_l
        A = np.bincount((class_of[products] * k + cols).ravel(),
                        minlength=k * k).reshape(k, k) % p
        # the restrictions with more than one eigenvalue, by dimension: each
        # dimension's subspaces split in one stacked eigenvalue search
        by_dim: dict[int, list] = {}
        for i, (E, P) in enumerate(spaces):
            M = A[P] @ E.T % p if len(E) > 1 else None
            if M is not None and (M != M[0, 0] * np.eye(len(E), dtype=np.int64)).any():
                by_dim.setdefault(len(E), []).append((i, M))
        pieces = {}
        for m, restricted in by_dim.items():
            eigen = _eigenvalues(np.array([M for _, M in restricted]), p)
            for (i, _), found in zip(restricted, eigen):
                found = [_eigenspace(R, pivot, p) for _, R, pivot in found]
                if sum(len(N) for N, _ in found) != m:
                    raise VerificationError("class matrix did not split over F_p")
                E, P = spaces[i]
                pieces[i] = [(N @ E % p, P[F]) for N, F in found]
        spaces = [piece for i, space in enumerate(spaces) for piece in pieces.get(i, [space])]
    if any(len(E) != 1 for E, _ in spaces):
        raise VerificationError("eigenspace splitting incomplete")
    W = np.concatenate([E for E, _ in spaces])
    if not W[:, 0].all():
        raise VerificationError("eigenvector vanishes on the identity class")
    return W * _inverse(W[:, :1], p) % p


def _lift(chi, degrees, G: GroupTable, cd: ConjugacyData, p: int, z: int, e: int):
    """Power-basis coefficients [irrep, class, :] of every character from its
    values chi mod p, by eigenvalue multiplicities.

    For a class of order o, the multiplicity of zeta_o^m in rho(g) is
    (1/o) sum_t chi(g^t) zeta_o^(-mt): one DFT product mod p per element
    order, for all irreps at once.  Multiplicities are checked to lie in
    [0, degree], so a coefficient, a sum of o of them times power-basis
    entries, is at most n^1.5 times the largest such entry in size.
    """
    reps = np.asarray(cd.reps)
    class_of = np.asarray(cd.class_of)
    orders = G.orders[reps]
    x = np.zeros_like(reps)
    powers = []  # powers[t][j] = class of rep_j^t
    for _ in range(int(orders.max())):
        powers.append(class_of[x])
        x = G.table[x, reps]
    powers = np.stack(powers, axis=1)
    basis = np.array(power_basis(e), dtype=np.int64)
    coeffs = np.zeros((len(chi), len(reps), euler_phi(e)), dtype=np.int64)
    for o in sorted(set(orders.tolist())):
        J = np.flatnonzero(orders == o)
        t = np.arange(o)
        w = pow(z, e - e // o, p)  # zeta_o^-1
        dft = np.array([pow(w, s, p) for s in range(o)], dtype=np.int64)[np.outer(t, t) % o]
        mult = chi[:, powers[J, :o]] @ dft % p * pow(o, p - 2, p) % p
        if (mult > degrees[:, None, None]).any():
            raise VerificationError("eigenvalue multiplicity out of range")
        coeffs[:, J] = mult @ basis[t * (e // o)]
    return coeffs


def _kronecker_matrix(T: CharacterTable):
    """[Q | n sigma] exactly, or None, from V [(V |C|)^T | w] mod each prime:
    Q[i, j] = sum_c |C_c| chi_i(c) chi_j(c) = n kappa(V_i, V_j) and n sigma_i
    = sum_c |C_c| chi_i(c^2) = sum_c w_c chi_i(c), w_c the size of the classes
    that square into c (in Python ints: import sizes may pass int64).  Every
    pi_a keeps sizes and commutes with ``powermap2``, so it keeps w, and one
    embedding is enough (``modular``)."""
    img = modular.images(T)
    m = img.class_l1
    w = [0] * T.num_classes
    for c, s in zip(T.powermap2, T.sizes):
        w[c] += s
    bound = max(img.r * sum(s * m[c] ** 2 for c, s in enumerate(T.sizes)),
                sum(x * m[c] for c, x in enumerate(w)))
    return img.exact(bound, lambda p, V: modular.dot(V, np.concatenate(
        [(V * modular.residues(T.sizes, p) % p).T, modular.residues(w, p)[:, None]], axis=1), p))


def _duals(T: CharacterTable, inverse_class):
    """The dual P(i) of each irrep, cached on T with n sigma, when the rows are
    orthonormal and closed under the class map ``inverse_class``; else None.

    Q (``_kronecker_matrix``) must be n P for a permutation matrix P (Q is
    symmetric, so one entry n per row makes P a permutation), and
    chi_i(inverse_class[c]) = chi_P(i)(c) must hold coefficient by
    coefficient, an int64 comparison.

    Row orthogonality follows: sum_c |C_c| chi_i(c) chi_j(inverse_class[c])
    = sum_c |C_c| chi_i(c) chi_P(j)(c) = Q[i, P(j)] = (Q P^T)[i, j] = n [i = j].
    So does the column relation, as the table is square (Isaacs, *Character
    Theory of Finite Groups*, ch. 2).  With X the k x k table, D = diag |C_c|
    and J the permutation matrix with (X J)[i, c] = X[i, iota(c)], iota =
    ``inverse_class``, row orthogonality reads X D J^T X^T = n I.  So X is
    invertible with X^-1 = D J^T X^T / n, and X^-1 X = I gives X^T X = n J
    D^-1.  As iota is an involution that keeps class sizes (the group's
    inversion, or the certified pi_(-1) of an import), that is sum_i chi_i(c)
    chi_i(iota c') = [c = c'] n / |C_c|.
    """
    S = _kronecker_matrix(T)
    if S is None:
        return None
    Q = S[:, :-1]
    perm = (Q == T.order).argmax(axis=1)
    P = np.eye(T.num_classes, dtype=bool)[perm]  # n may pass int64: Q is compared in place
    if (Q[P] != T.order).any() or Q[~P].any() or (
            T.coeffs[:, list(inverse_class)] != T.coeffs[perm]).any():
        return None
    T._cache["n_sigma"] = S[:, -1].tolist()
    perm = T._cache["duals"] = tuple(perm.tolist())
    return perm


def character_table(G: GroupTable) -> CharacterTable:
    """Exact character table of G (deterministic run-to-run)."""
    cd = conjugacy_data(G)
    k = cd.num_classes
    e = G.exponent()
    n = G.order
    p = _dixon_prime(e, n)
    z = modular._root_of_unity(p, e)
    W = _split_eigenvectors(G, cd, p)
    # chi(1)^2 = n / sum_j w_j w_j' / |class_j|, j' the class of the inverses
    inv_sizes = _inverse(cd.sizes, p)
    s = W * W[:, cd.inverse_class] % p @ inv_sizes % p
    root = {d * d % p: d for d in range(1, isqrt(n) + 1)}  # p > 2 sqrt(n): one root each
    degrees = [root.get(x) for x in (n % p * _inverse(s, p) % p).tolist()]
    if None in degrees:
        raise VerificationError("degree recovery failed")
    degrees = np.array(degrees, dtype=np.int64)
    coeffs = _lift(degrees[:, None] * W % p * inv_sizes % p, degrees, G, cd, p, z, e)
    if (coeffs >= 2**52).any() or (coeffs <= -2**52).any():  # as ``load_table``
        raise VerificationError("a lifted coefficient is not below 2^52 in size")
    if (coeffs[:, 0, 0] != degrees).any() or coeffs[:, 0, 1:].any():
        raise VerificationError("lifted degree mismatch")
    if (degrees**2).sum() != n or (n % degrees).any():
        raise VerificationError("degrees do not divide the group order or square-sum to it")
    # rows in the order of (degree, the values as written by dump_table)
    keys = [(row[0][0], [format_value(e, v) for v in row]) for row in coeffs.tolist()]
    T = CharacterTable(
        order=n,
        exponent=e,
        sizes=cd.sizes,
        powermap2=cd.powermap2,
        coeffs=coeffs[sorted(range(k), key=keys.__getitem__)],
        group=G,
        classes=cd,
    )
    if _duals(T, cd.inverse_class) is None:
        raise VerificationError("verification failed: orthogonality")
    return T


# -- Frobenius-Schur indicators and fixed spaces ------------------------------

def rational_rows(x: np.ndarray, message: str) -> list[int]:
    """The rational values of power-basis rows x[..., phi(e)], else
    ``VerificationError(message)``.  Sums of at most 2^11 table rows
    (``modular.MAX_TERMS``), with coefficients below 2^52 in size and weights
    of at most 1, stay below 2^63: int64 adds them exactly."""
    if x[..., 1:].any():
        raise VerificationError(message)
    return x[..., 0].tolist()


def fs_indicators(T: CharacterTable) -> IndicatorData:
    """sigma per irrep and square-root counts r per class (cached on T)."""
    fs = T._cache.get("fs")
    if fs is not None:
        return fs
    n = T.order
    T.conjugate_irrep(0)  # ``_duals`` caches n sigma with the duals
    sums = T._cache["n_sigma"]
    if any(x % n or x // n not in (-1, 0, 1) for x in sums):
        raise VerificationError("non-integral Frobenius-Schur indicator")
    sigma = [x // n for x in sums]
    # sigma_i != 0 exactly on the self-dual irreps
    if any((x != 0) != (T.conjugate_irrep(i) == i) for i, x in enumerate(sigma)):
        raise VerificationError("Frobenius-Schur indicator contradicts duality")
    # r(c) = sum_i sigma_i chi_i(c), with |sigma_i| <= 1
    r = rational_rows(np.tensordot(sigma, T.coeffs, 1), "square-root count not rational")
    if any(x < 0 for x in r):
        raise VerificationError("negative square-root count")
    if sum(s * rc for s, rc in zip(T.sizes, r)) != T.order:
        raise VerificationError("square-root counts do not sum to |G|")
    fs = T._cache["fs"] = IndicatorData(sigma=tuple(sigma), r=tuple(r))
    return fs


def dim_fixed_space(T: CharacterTable, K: SubgroupSpec) -> tuple[int, ...]:
    """dim V^K = (1/|K|) sum over K of chi_V, for every irrep V.

    One subgroup check and one int64 sum of the coefficient rows give every
    dimension; they are cached on T per subgroup.
    """
    dims = T._cache.get(("fixed", K))
    if dims is not None:
        return dims
    if T.group is None or T.classes is None:
        raise TableError("fixed-space dimensions need the underlying group")
    if not is_subgroup(T.group, K):
        raise TableError("not a subgroup")
    # elements of K per class
    counts = np.bincount(np.asarray(T.classes.class_of)[list(K.elements)],
                         minlength=T.num_classes).tolist()
    # the int64 sums are exact while this bound on their partial sums is below 2^63
    bound = max(sum(m * l1 for m, l1 in zip(counts, row)) for row in modular.images(T).l1)
    if bound >= 2**63:
        raise VerificationError("fixed-space sums not below 2^63")
    totals = rational_rows(np.tensordot(T.coeffs, counts, axes=([1], [0])),
                           "fixed-space dimension not a non-negative integer")
    if any(t % K.order or t < 0 for t in totals):
        raise VerificationError("fixed-space dimension not a non-negative integer")
    dims = T._cache[("fixed", K)] = tuple(t // K.order for t in totals)
    return dims


# -- exchange format -----------------------------------------------------------

def dump_table(T: CharacterTable) -> str:
    lines = [
        f"order {T.order}",
        f"exponent {T.exponent}",
        f"classes {T.num_classes}",
        "sizes " + " ".join(map(str, T.sizes)),
        "powermap2 " + " ".join(map(str, T.powermap2)),
    ]
    for row in T.coeffs.tolist():
        lines.append("chi: " + " | ".join(format_value(T.exponent, v) for v in row))
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
    # phi(e) >= sqrt(e / 2) for every e, so phi(e) > MAX_TERMS whenever
    # e > 2 MAX_TERMS^2: such an exponent is refused before it is factored
    if exponent > 2 * modular.MAX_TERMS**2 or euler_phi(exponent) > modular.MAX_TERMS:
        raise TableError(f"format error: phi(exponent) must be at most {modular.MAX_TERMS}")
    # A table repeats few distinct values; each is read once.  A character
    # value is a sum of chi(1) roots of unity, so a coefficient is at most
    # chi(1) r in size (r as in ``modular``).  Coefficients of 2^52 or more
    # are refused: below that, an L1 norm over at most 2^11 coefficients
    # stays below 2^63, as ``modular.TableImages`` needs.
    parsed: dict[str, list[int]] = {}
    coeffs = []
    for row in rows:
        values = [v.strip() for v in row.split("|")]
        if len(values) != k:
            raise TableError("format error: wrong number of character values")
        for v in values:
            if v not in parsed:
                try:
                    parsed[v] = parse_value(v, exponent)
                except ValueError as exc:
                    raise TableError(f"format error: {exc}") from exc
                if any(abs(c) >= 2**52 for c in parsed[v]):
                    raise TableError("format error: a coefficient is not below 2^52 in size")
        coeffs.append([parsed[v] for v in values])
        if any(coeffs[-1][0][1:]) or coeffs[-1][0][0] <= 0:
            raise TableError("format error: bad character degree")
    T = CharacterTable(
        order=order, exponent=exponent, sizes=sizes, powermap2=powermap2,
        coeffs=np.array(coeffs, dtype=np.int64),
    )
    try:
        img = modular.images(T)
        duals = _duals(T, img.conj)
    except ValueError as exc:  # beyond the limits of the modular engine
        raise TableError(f"format error: {exc}") from exc
    if img.perms is None:
        raise TableError("character values not Galois-stable on import")
    if duals is None:
        raise TableError("orthogonality failed on import")
    try:
        fs_indicators(T)
    except VerificationError as exc:
        raise TableError(f"indicator check failed on import: {exc}") from exc
    return T
