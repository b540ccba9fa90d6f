"""Exact class sums as int64 matrix products modulo primes.

Every character-side number in kronkit is a class sum

    S = sum_c w_c * prod_t x_t(c)

with integer weights w_c (class sizes, subgroup counts, indicators) and
factors x_t(c) in Z[zeta_e], e the exponent of the table.  This module
evaluates such sums at the embeddings of Z[zeta_e] into F_p and recovers
them exactly.

Embeddings.  Let p be a prime with p = 1 (mod e) and z in F_p of order e.
Then Phi_e splits over F_p into the distinct linear factors x - z^a, one
for each unit a mod e, and by the Chinese remainder theorem

    Z[zeta_e] / p  =  F_p[x] / Phi_e  ->  F_p^phi(e),   zeta -> (z^a)_a

is a ring isomorphism.  As 1, zeta, ..., zeta^(phi-1) is a Z-basis of
Z[zeta_e], an element vanishes at every embedding modulo p exactly when p
divides each of its power-basis coefficients; modulo several primes,
exactly when their product P does.  Complex conjugation is the embedding
-a: the image of conj(y) at a is the image of y at -a.

Exact recovery.  Let every power-basis coefficient of S lie in [-B, B] and
let P > 2B.  If the images of S agree at every embedding modulo p, with
common residue t_p, then S - t_p vanishes at every embedding, so its
coefficients c_1, ..., c_(phi-1) are divisible by p and c_0 = t_p (mod p).
Over all primes, P divides c_1, ..., c_(phi-1), which are then 0 as they
are smaller than P in size: S = c_0 is rational.  Conversely a rational S
has the same image at every embedding.  Its value c_0 is the one integer
in (-P/2, P/2) congruent to t_p modulo every p.  So ``exact`` answers
"is S rational, and which integer is it" without error, and every bug trap
built on it (not rational, not divisible by |G|, negative, out of range,
orthogonality) keeps its exact meaning.

Coefficient bounds.  With L1(y) the sum of the absolute values of the
coefficients of y, and r the largest row L1 norm of ``power_basis(e)``
(rows zeta^m for m <= max(e - 1, 2 phi - 2)):

    L1(x y) <= r L1(x) L1(y)    (x y = sum x_i y_j zeta^(i+j))
    L1(conj y) <= r L1(y)       (conj zeta^j = zeta^(e-j))

so a sum of m-fold products obeys B = r^(m-1) sum_c |w_c| prod_t L1(x_t(c)),
with one more factor r per conjugated factor.  Callers compute B as a
Python int next to each sum; ``TableImages.at`` adds primes until P > 2B.

int64 range.  Residues lie in [0, p) with p < 2^26, so a product of two is
below 2^52 and a sum of up to 2^11 products is below 2^63.  Every
contraction reduces its operands modulo p first and runs over phi(e)
coefficients or over k classes or irreps, so both stay at most 2^11.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .cyclo import euler_phi, power_basis

PRIME_CEILING = 2**26  # residues below 2^26: products below 2^52
MAX_TERMS = 2**11      # so 2^11 products sum below 2^63


def residues(values, p: int) -> np.ndarray:
    """Python integers reduced mod p, as an int64 array."""
    return np.array([v % p for v in values], dtype=np.int64)


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


class TableImages:
    """A table's values at every embedding, modulo primes found on demand.

    ``units`` lists the embeddings zeta -> z^a; ``conj[i]`` is the index of
    the embedding -units[i].  ``l1[i][c]`` is L1(chi_i(c)) and ``r`` the
    power-basis constant of the bounds above.
    """

    def __init__(self, T):
        e, k = T.exponent, T.num_classes
        phi = euler_phi(e)
        if k > MAX_TERMS or phi > MAX_TERMS:
            raise ValueError(f"classes and phi(exponent) must be at most {MAX_TERMS} "
                             f"for int64 class sums (got {k} and {phi})")
        self.e = e
        self.units = [a for a in range(e) if gcd(a, e) == 1]
        self.conj = [self.units.index(-a % e) for a in self.units]
        coeffs = np.empty((k, k, phi), dtype=object)
        for i, ch in enumerate(T.irreps):
            for c, v in enumerate(ch.values):
                vv = v.promote(e)
                if not vv.is_integral():
                    raise ValueError("character value not an algebraic integer")
                coeffs[i, c] = [int(x) for x in vv.coeffs]
        self.coeffs = coeffs
        self.l1 = [[sum(abs(x) for x in coeffs[i, c]) for c in range(k)] for i in range(k)]
        self.r = max(sum(abs(x) for x in row) for row in power_basis(e))
        self.primes: list[tuple[int, np.ndarray]] = []

    @property
    def class_l1(self) -> list[int]:
        """Largest L1 norm over the irreps, per class."""
        return [max(col) for col in zip(*self.l1)]

    @property
    def irrep_l1(self) -> list[int]:
        """Largest L1 norm over the classes, per irrep."""
        return [max(row) for row in self.l1]

    def _add_prime(self):
        e = self.e
        p = self.primes[-1][0] if self.primes else PRIME_CEILING
        p -= (p - 1) % e or e  # the next p = 1 (mod e) below
        while not _is_prime(p):
            p -= e
            if p < 2:
                raise ArithmeticError(f"too few primes = 1 (mod {e}) below {PRIME_CEILING}")
        z = _root_of_unity(p, e)
        # W[j, t] = z^(a_t j): the embedding a_t applied to zeta^j
        W = np.array([[pow(z, a * j, p) for a in self.units] for j in range(len(self.units))],
                     dtype=np.int64)
        V = (self.coeffs % p).astype(np.int64) @ W % p
        self.primes.append((p, np.ascontiguousarray(V.transpose(2, 0, 1))))

    def at(self, bound: int) -> list[tuple[int, np.ndarray]]:
        """(p, V) pairs whose primes multiply to more than 2 * bound.

        V[a, i, c] is chi_i(c) at embedding a, reduced mod p.
        """
        modulus, n = 1, 0
        while modulus <= 2 * bound:
            if n == len(self.primes):
                self._add_prime()
            modulus *= self.primes[n][0]
            n += 1
        return self.primes[:n]

    def exact(self, bound: int, sums_mod):
        """Exact values of class sums that are all rational, else None.

        ``sums_mod(p, V)`` yields, one embedding after another, the residues
        mod p of the sums at that embedding.  ``bound`` bounds every
        power-basis coefficient of every sum.  The result is an array of the
        sums' integer values (int64 for one prime, Python ints for more).
        """
        value = modulus = None
        for p, V in self.at(bound):
            it = iter(sums_mod(p, V))
            first = np.asarray(next(it))
            if any(not np.array_equal(s, first) for s in it):
                return None
            if modulus is None:
                value, modulus = first, p
                continue
            # Garner, in Python ints: extend value = residue (mod modulus) by p
            value, first = value.astype(object), first.astype(object)
            t = (first - value % p) * pow(modulus, -1, p) % p
            value, modulus = np.asarray(value + modulus * t, dtype=object), modulus * p
        return np.where(value > modulus // 2, value - modulus, value)


def images(T) -> TableImages:
    """The table's ``TableImages``, built once and cached on it."""
    img = T._cache.get("modular")
    if img is None:
        img = T._cache["modular"] = TableImages(T)
    return img
