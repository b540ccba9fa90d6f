"""Exact class sums as float64 matrix products modulo primes.

Every character-side number in kronkit is a class sum

    S = sum_c w_c * prod_t x_t(c)

with integer weights w_c (class sizes, subgroup counts, indicators) and
factors x_t(c) in Z[zeta_e], e the exponent of the table.  This module
evaluates such sums at one embedding of Z[zeta_e] into F_p per prime and
recovers them exactly.

Embeddings.  Let p be a prime with p = 1 (mod e) and z in F_p of order e.
Then Phi_e splits over F_p into the distinct linear factors x - z^a, one
for each unit a mod e, and by the Chinese remainder theorem

    Z[zeta_e] / p  =  F_p[x] / Phi_e  ->  F_p^phi(e),   zeta -> (z^a)_a

is a ring isomorphism.  As 1, zeta, ..., zeta^(phi-1) is a Z-basis of
Z[zeta_e], an element vanishes at every embedding modulo p exactly when p
divides each of its power-basis coefficients; modulo several primes,
exactly when their product P does.

Exact recovery.  Let every power-basis coefficient of S lie in [-B, B] and
let P > 2B.  If the images of S agree at every embedding modulo p, with
common residue t_p, then S - t_p vanishes at every embedding, so its
coefficients c_1, ..., c_(phi-1) are divisible by p and c_0 = t_p (mod p).
Over all primes, P divides c_1, ..., c_(phi-1), which are then 0 as they
are smaller than P in size: S = c_0 is rational.  Conversely a rational S
has the same image at every embedding.  Its value c_0 is the one integer
in (-P/2, P/2) congruent to t_p modulo every p.

Galois certificate.  For a unit a mod e let s_a be the automorphism
zeta -> zeta^a of Z[zeta_e]; the image of s_a(y) at the embedding b is the
image of y at ab.  A table computed from a group is Galois-stable:
s_a(chi_i(c)) = chi_i(pi_a c), where pi_a c is the class of g^a for g in c,
and pi_a keeps class sizes and commutes with squaring and inversion.
``TableImages`` certifies this once per table, for a set of units that
generates (Z/e)^x and holds -1: it finds pi_a by matching, class by class,
the images of s_a(chi(c)) at every embedding, modulo primes whose product
exceeds 2 (r + 1) max L1, with those of a class, and checks that pi_a is a
permutation that keeps the sizes and commutes with ``powermap2``.  The
difference chi_i(pi_a c) - s_a(chi_i(c)) has coefficients of at most
(r + 1) max L1 in size (bounds below), so its vanishing at every embedding
modulo these primes makes it 0: the certificate is exact.  A table that
fails it gets no images, and ``exact`` returns None.

One embedding per prime.  As s_a s_b = s_ab, the certified pi_a give a
class permutation for every unit.  So, modulo every prime:

- a sum over all classes, weighted by class sizes, of an integer
  polynomial in chi(c) and chi(c^2) is fixed by every s_a: reindexing the
  classes by pi_a gives the same sum.  Its images at every embedding
  agree.
- an output indexed by classes obeys s_a(S(c)) = S(pi_a c), so its images
  at embedding 1 are invariant under every pi_a (``invariant``) exactly
  when its images at every embedding agree.
- other weights (``dim_fixed_space``'s subgroup counts) must themselves be
  invariant under every pi_a; then the sum is of the first kind.

``exact`` therefore evaluates each sum at embedding 1 only and checks the
outputs indexed by classes, and the recovery above holds as it stands: "is
S rational, and which integer is it" is answered without error, and every
bug trap built on it (not rational, not divisible by |G|, negative, out of
range, orthogonality) keeps its exact meaning.  Complex conjugation is
s_(-1): an imported table's conj chi(c) is chi(pi_(-1) c) (``conj``).

Coefficient bounds.  With L1(y) the sum of the absolute values of the
coefficients of y, and r the largest row L1 norm of ``power_basis(e)``
(rows zeta^m for m <= max(e - 1, 2 phi - 2), streamed by
``cyclo.reduced_powers``):

    L1(x y) <= r L1(x) L1(y)    (x y = sum x_i y_j zeta^(i+j))
    L1(s_a y) <= r L1(y)        (s_a zeta^j = zeta^(a j mod e))

so a sum of m-fold products obeys B = r^(m-1) sum_c |w_c| prod_t L1(x_t(c)).
Callers compute B as a Python int next to each sum; ``TableImages.at`` adds
primes until P > 2B.

float64 range.  Residues lie in [0, p) with p < 2^21, so a product of two
is below 2^42 and a sum of up to 2^11 products is below 2^53: every partial
sum is an integer that float64 holds exactly, in whatever order BLAS adds
them.  ``dot`` casts the result back to int64 before it reduces mod p.
Every contraction runs over phi(e) coefficients or over k classes or
irreps, so both stay at most 2^11.

``TableImages`` reads the table's int64 coefficient array ``T.coeffs``
[irrep, class, phi(e)] as it is: one matrix product per prime maps it to
the embeddings.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .cyclo import reduced_powers

PRIME_CEILING = 2**21  # residues below 2^21: products below 2^42
MAX_TERMS = 2**11      # so 2^11 products sum below 2^53
# Prime supply.  phi(e) <= MAX_TERMS keeps e <= 9240, and below 2^21 every
# such e has at least 63 primes p = 1 (mod e), whose product exceeds 2^1224
# (the fewest: e = 2029).  ``TableImages.at`` refuses a bound beyond the
# supply before it adds a prime.


def residues(values, p: int) -> np.ndarray:
    """Python integers reduced mod p, as an int64 array."""
    return np.array([v % p for v in values], dtype=np.int64)


def dot(a, b, p: int) -> np.ndarray:
    """a @ b mod p, as int64, for residue arrays a and b that add at most
    MAX_TERMS products per entry: exact in float64 (see above)."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p


# The least strong pseudoprime to all of the bases 2, 3, 5 and 7 (Pomerance,
# Selfridge and Wagstaff, Math. Comp. 35 (1980) 1003-1026): Miller-Rabin with
# these bases is exact below it, far above PRIME_CEILING.
MR_EXACT_BELOW = 3_215_031_751
_MR_BASES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_EXACT_BELOW."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _MR_BASES:
        squares = [pow(a, (n - 1) >> (s - r), n) for r in range(s)]  # a^d, a^2d, ...
        if squares[0] != 1 and n - 1 not in squares:
            return False
    return True


def _root_of_unity(p: int, e: int) -> int:
    """An element of exact multiplicative order e in F_p (requires e | p - 1)."""
    factors = [q for q in range(2, e + 1) if e % q == 0 and _is_prime(q)]
    for g in range(2, p):
        z = pow(g, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in factors):
            return z
    raise ArithmeticError(f"no root of unity of order {e} mod {p}")


def _unit_generators(e: int) -> list[int]:
    """Units mod e that generate (Z/e)^x, -1 first (none for e <= 2)."""
    gens, reached = [], {1 % e}
    for a in [e - 1, *range(2, e - 1)]:
        if gcd(a, e) != 1 or a in reached:
            continue
        gens.append(a)
        coset, step = set(reached), a  # the subgroup is the union of the a^j H
        while step not in reached:
            coset |= {x * step % e for x in reached}
            step = step * a % e
        reached = coset
    return gens


class TableImages:
    """A table's values at the embedding zeta -> z, modulo primes found on
    demand, and its Galois certificate.

    ``perms`` holds the class permutations pi_a of the certified units a,
    -1 first (None when the table fails the certificate), and ``conj`` is
    pi_(-1).  ``l1[i][c]`` is L1(chi_i(c)) and ``r`` the power-basis
    constant of the bounds above.
    """

    def __init__(self, T):
        e, (k, _, phi) = T.exponent, T.coeffs.shape
        if k > MAX_TERMS or phi > MAX_TERMS:
            raise ValueError(f"classes and phi(exponent) must be at most {MAX_TERMS} "
                             f"for exact class sums (got {k} and {phi})")
        self.e = e
        self.coeffs = T.coeffs
        # coefficients lie below 2^52 in size (``chartab.load_table`` for
        # imported tables), so a sum of at most 2^11 of them stays below 2^63
        self.l1 = abs(T.coeffs).sum(axis=2).tolist()
        self.r = reduced_powers(e)[0]
        self._supply: list[int] = []  # primes = 1 (mod e), descending
        self.primes: list[tuple[int, np.ndarray]] = []
        self.perms = self._certify(np.array(T.sizes), np.array(T.powermap2))
        self.conj = None if self.perms is None else (
            self.perms[0] if e > 2 else np.arange(k))

    @property
    def class_l1(self) -> list[int]:
        """Largest L1 norm over the irreps, per class."""
        return [max(col) for col in zip(*self.l1)]

    @property
    def irrep_l1(self) -> list[int]:
        """Largest L1 norm over the classes, per irrep."""
        return [max(row) for row in self.l1]

    def _images(self, p: int, units) -> np.ndarray:
        """V[i, c, t]: chi_i(c) at the embedding zeta -> z^units[t], mod p."""
        e, phi = self.e, self.coeffs.shape[2]
        z, powers = _root_of_unity(p, e), [1]
        for _ in range(e - 1):
            powers.append(powers[-1] * z % p)
        # W[j, t] = z^(units[t] j): the embedding units[t] applied to zeta^j
        W = np.array(powers, dtype=np.int64)[np.outer(range(phi), units) % e]
        k = len(self.coeffs)
        return dot(self.coeffs.reshape(k * k, phi) % p, W, p).reshape(k, k, len(units))

    def _certify(self, sizes: np.ndarray, powermap2: np.ndarray):
        """The class permutations pi_a of ``_unit_generators(e)``, or None
        when the table is not Galois-stable (see above)."""
        e, k = self.e, len(sizes)
        units = [a for a in range(e) if gcd(a, e) == 1]
        position = np.zeros(e, dtype=np.intp)
        position[units] = np.arange(len(units))
        n = self._count((self.r + 1) * max(map(max, self.l1)))
        full = [self._images(p, units) for p in self._supply[:n]]
        self.primes = [(p, np.ascontiguousarray(V[:, :, 0])) for p, V in zip(self._supply, full)]
        # keys[c, (prime, i), t]: the images of column c at every embedding
        keys = np.ascontiguousarray(np.concatenate(full).transpose(1, 0, 2))
        column = {key.tobytes(): c for c, key in enumerate(keys)}
        perms = []
        for a in _unit_generators(e):
            moved = keys[:, :, position[[a * b % e for b in units]]]  # s_a of each column
            pi = [column.get(key.tobytes()) for key in moved]
            if None in pi or len(set(pi)) < k:
                return None
            pi = np.array(pi)
            if (sizes[pi] != sizes).any() or (pi[powermap2] != powermap2[pi]).any():
                return None
            perms.append(pi)
        return perms

    def invariant(self, x) -> bool:
        """True when ``x``, indexed by classes, is unchanged by every pi_a."""
        x = np.asarray(x)
        return self.perms is not None and all(np.array_equal(x[pi], x) for pi in self.perms)

    def _count(self, bound: int) -> int:
        """How many primes multiply to more than 2 * bound; finds them, or
        raises ``ValueError`` when too few lie below PRIME_CEILING."""
        e = self.e
        modulus, n = 1, 0
        while modulus <= 2 * bound:
            if n == len(self._supply):
                p = self._supply[-1] if self._supply else PRIME_CEILING
                p -= (p - 1) % e or e  # the next p = 1 (mod e) below
                while p > 1 and not _is_prime(p):
                    p -= e
                if p < 2:
                    raise ValueError(f"too few primes = 1 (mod {e}) below {PRIME_CEILING} "
                                     f"for an exact class sum")
                self._supply.append(p)
            modulus *= self._supply[n]
            n += 1
        return n

    def at(self, bound: int) -> list[tuple[int, np.ndarray]]:
        """(p, V) pairs whose primes multiply to more than 2 * bound.

        V[i, c] is chi_i(c) at the embedding zeta -> z, reduced mod p.
        """
        n = self._count(bound)
        for p in self._supply[len(self.primes):n]:
            self.primes.append((p, self._images(p, [1])[:, :, 0]))
        return self.primes[:n]

    def exact(self, bound: int, sums_mod, by_class: bool = False):
        """Exact values of class sums that are all rational, else None.

        ``sums_mod(p, V)`` gives the residues mod p of the sums at the
        embedding of ``at``, indexed by classes when ``by_class``.
        ``bound`` bounds every power-basis coefficient of every sum.  The
        result is an array of the sums' integer values (int64 for one prime,
        Python ints for more).  None also when the table failed the Galois
        certificate.
        """
        if self.perms is None:
            return None
        value = modulus = None
        for p, V in self.at(bound):
            residue = np.asarray(sums_mod(p, V))
            if by_class and not self.invariant(residue):
                return None
            if modulus is None:
                value, modulus = residue, p
                continue
            # Garner, in Python ints: extend value = residue (mod modulus) by p
            value, residue = value.astype(object), residue.astype(object)
            t = (residue - value % p) * pow(modulus, -1, p) % p
            value, modulus = np.asarray(value + modulus * t, dtype=object), modulus * p
        return np.where(value > modulus // 2, value - modulus, value)


def images(T) -> TableImages:
    """The table's ``TableImages``, built once and cached on it."""
    img = T._cache.get("modular")
    if img is None:
        img = T._cache["modular"] = TableImages(T)
    return img
