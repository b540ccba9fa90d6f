"""Exact values in cyclotomic fields Q(zeta_e): the exchange format, both
ways, and the reference ring arithmetic.

Values are stored in the power basis 1, zeta, ..., zeta^(phi(e)-1) after
reduction modulo the e-th cyclotomic polynomial, so equality at a common
conductor is plain coefficient equality.  ``_terms`` reads the value
grammar "c:[i=a/b,...]", ``format_value`` writes it, and ``parse_value``
reads a value straight into its integer row at an exponent.  ``Cyclotomic``
(one row of Python ints over one positive denominator, in lowest terms; no
floats) is the tests' reference and the ``CharacterTable.irreps`` view; no
command builds one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np


class NotRationalError(ValueError):
    """Raised when a cyclotomic value expected to be rational is not."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e (ascending degree, monic): by Moebius inversion
    of x^e - 1 = prod_{d | e} Phi_d, the product of (x^(e/m) - 1)^mu(m) over
    the squarefree divisors m of e, all factors with mu = 1 taken first so
    that every division is exact."""
    if e < 1:
        raise ValueError("conductor must be positive")
    up, down = [e], []  # the n of the factors x^n - 1 with mu = 1 and mu = -1
    p, rest = 2, e
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            up, down = up + [n // p for n in down], down + [n // p for n in up]
            while rest % p == 0:
                rest //= p
        p += 1
    poly = [1]
    for n in up:  # poly (x^n - 1)
        poly = [(poly[i - n] if i >= n else 0) - (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + n)]
    for n in down:  # the q with q (x^n - 1) = poly: q[i] = poly[i + n] + q[i + n]
        q = poly[n:]
        for i in range(len(q) - n - 1, -1, -1):
            q[i] += q[i + n]
        if any(poly[i] + q[i] for i in range(n)):
            raise ArithmeticError("inexact polynomial division")
        poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    """phi(e) = e * prod(1 - 1/p) over the primes p dividing e."""
    if e < 1:
        raise ValueError("conductor must be positive")
    phi, rest, p = e, e, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def _power_rows(e: int):
    """x^m mod Phi_e for m = 0 .. max(e - 1, 2 phi - 2), one int64 row at a
    time, each with its L1 norm."""
    mod = np.array(cyclotomic_polynomial(e)[:-1], dtype=np.int64)
    # a row of L1 norm l gives a next row of L1 norm at most l (1 + L1(mod)):
    # below ``limit`` every next row, and its L1 norm, fits in int64.  Over
    # every e with phi(e) <= 2048 the largest L1 norm is 7382 (e = 7410)
    limit = 2**63 // (1 + int(abs(mod).sum()))
    row = np.eye(1, len(mod), dtype=np.int64)[0]
    for _ in range(max(e - 1, 2 * len(mod) - 2) + 1):
        l1 = int(abs(row).sum())
        if l1 >= limit:
            raise ArithmeticError(f"power basis of exponent {e} beyond int64")
        yield row, l1
        row = np.concatenate(([0], row[:-1])) - row[-1] * mod  # x row, reduced by monic Phi_e


@lru_cache(maxsize=None)
def power_basis(e: int) -> tuple[tuple[int, ...], ...]:
    """x^m mod Phi_e for m = 0 .. max(e-1, 2*phi-2), as integer coefficient rows."""
    return tuple(tuple(row.tolist()) for row, _ in _power_rows(e))


@lru_cache(maxsize=None)
def reduced_powers(e: int) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """What one pass over the rows of ``power_basis(e)`` keeps: r, their
    largest L1 norm (the constant of ``modular``'s bounds), and the rows
    m = i e/c (c | e, i < phi(c)) that ``parse_value`` reads, as the indices
    and values of their nonzero coefficients.  No other row is held."""
    wanted = {i * (e // c) for c in range(1, e + 1) if e % c == 0 for i in range(euler_phi(c))}
    r, rows = 0, {}
    for m, (row, l1) in enumerate(_power_rows(e)):
        r = max(r, l1)
        if m in wanted:
            nonzero = np.flatnonzero(row)
            rows[m] = nonzero, row[nonzero]
    return r, rows


def format_value(e: int, num, den: int = 1) -> str:
    """The exchange form "e:[i=a/b,...]" of the value with power-basis
    coefficients num[i] / den at conductor e (ints, den > 0), listing the
    nonzero ones, each in lowest terms."""
    parts = []
    for i, a in enumerate(num):
        if a:
            g = gcd(a, den)
            parts.append(f"{i}={a // g}/{den // g}")
    return f"{e}:[{','.join(parts)}]"


def _terms(text: str, e: int | None = None) -> tuple[int, dict[int, tuple[int, int]]]:
    """The conductor c and the terms {i: (a, b)} of a value "c:[i=a/b,...]"
    of Q(zeta_e), of Q(zeta_c) by default; "/b" may be left out.  Refused in
    this order: c not dividing e (before phi(c) is taken), malformed text,
    and per term an index out of range or written twice, a zero denominator."""
    text = text.strip()
    head, _, body = text.partition(":")
    c = int(head)
    if c < 1 or (e is not None and e % c):
        raise ValueError("a value's conductor does not divide the exponent")
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad cyclotomic literal: {text!r}")
    phi, terms = euler_phi(c), {}
    inner = body[1:-1].strip()
    for part in inner.split(",") if inner else ():
        idx, _, frac = part.partition("=")
        num, _, den = frac.partition("/")
        i, a, b = int(idx), int(num), int(den or 1)
        if not 0 <= i < phi:
            raise ValueError(f"coefficient index {i} out of range for e={c}")
        if i in terms:
            raise ValueError(f"coefficient index {i} written twice")
        if b == 0:
            raise ValueError(f"zero denominator in {text!r}")
        terms[i] = (a, b)
    return c, terms


def parse_value(text: str, e: int) -> list[int]:
    """The integer power-basis row at exponent e of a value "c:[i=a/b,...]",
    the inverse of ``format_value``.  zeta_c^i is row i e/c of
    ``power_basis(e)``, which ``reduced_powers`` keeps.  The power basis is
    an integral basis of Z[zeta_e]: D times the value is an integer row (D
    the common denominator), and the value is an algebraic integer exactly
    when D divides it."""
    c, terms = _terms(text, e)
    den = lcm(*(b for _, b in terms.values()))
    rows, row = reduced_powers(e)[1], [0] * euler_phi(e)
    for i, (a, b) in terms.items():
        index, value = rows[i * (e // c)]
        for j, x in zip(index.tolist(), value.tolist()):
            row[j] += a * (den // b) * x
    if any(x % den for x in row):
        raise ValueError("character value not an algebraic integer")
    return [x // den for x in row]


def _is_scalar(x) -> bool:
    """True for an int or a Fraction.  The int test comes first, so that
    integral arithmetic never reads ``Fraction``."""
    return isinstance(x, int) or isinstance(x, Fraction)


class Cyclotomic:
    """An exact element of Q(zeta_e): the integer power-basis row ``num``
    over the positive denominator ``den``, in lowest terms (gcd(den, *num) is
    1, the zero value has den 1), so that equality at a common conductor is
    tuple equality.  The entries are Python ints, exact at any size."""

    __slots__ = ("e", "num", "den")

    def __init__(self, e: int, coeffs, den: int = 1):
        """The value sum coeffs[i] zeta^i / den: each coefficient an int or a
        Fraction, den a nonzero int.  A float anywhere is a TypeError."""
        num = tuple(coeffs)
        phi = euler_phi(e)
        if len(num) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {e}")
        if not isinstance(den, int):
            raise TypeError(f"denominator {den!r} is not an int")
        if set(map(type, num)) != {int}:
            if not all(_is_scalar(c) for c in num):
                raise TypeError(f"coefficients {num!r} are not all ints or Fractions")
            common = lcm(*(c.denominator for c in num))
            num = tuple(c.numerator * (common // c.denominator) for c in num)
            den *= common
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            g = gcd(den, *num) if den > 0 else -gcd(den, *num)
            if g != 1:
                num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r, e: int = 1) -> "Cyclotomic":
        return Cyclotomic(e, (r,) + (0,) * (euler_phi(e) - 1))

    @staticmethod
    def root(e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k reduced mod Phi_e."""
        return Cyclotomic(e, power_basis(e)[k % e])

    @staticmethod
    def zero(e: int = 1) -> "Cyclotomic":
        return Cyclotomic.rational(0, e)

    # -- conductor handling ------------------------------------------------

    def promote(self, e_new: int) -> "Cyclotomic":
        if e_new == self.e:
            return self
        if e_new % self.e:
            raise ValueError("can only promote to a multiple conductor")
        return self._substitute(e_new, e_new // self.e)

    def _substitute(self, e: int, k: int) -> "Cyclotomic":
        """The value with zeta^i replaced by zeta_e^(i k) in every term."""
        out = [0] * euler_phi(e)
        if self.is_rational():
            out[0] = self.num[0]
        else:
            basis = power_basis(e)
            for i, c in enumerate(self.num):
                if c:
                    for j, x in enumerate(basis[(i * k) % e]):
                        if x:
                            out[j] += c * x
        return Cyclotomic(e, out, self.den)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        e = lcm(a.e, b.e)
        return a.promote(e), b.promote(e)

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int) -> "Cyclotomic":
        """self + sign * other, or NotImplemented for an unknown other."""
        if not isinstance(other, Cyclotomic):
            if not _is_scalar(other):
                return NotImplemented
            other = Cyclotomic.rational(other)
        a, b = Cyclotomic._common(self, other)
        den = lcm(a.den, b.den)
        s, t = den // a.den, sign * (den // b.den)
        return Cyclotomic(a.e, [x * s + y * t for x, y in zip(a.num, b.num)], den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.e, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            if not _is_scalar(other):
                return NotImplemented
            return Cyclotomic(self.e, [c * other.numerator for c in self.num],
                              self.den * other.denominator)
        if self.is_rational() or other.is_rational():
            # scale the other factor, at the common conductor, by the rational one
            r, v = (self, other) if self.is_rational() else (other, self)
            v = v.promote(lcm(self.e, other.e))
            return Cyclotomic(v.e, [c * r.num[0] for c in v.num], v.den * r.den)
        a, b = Cyclotomic._common(self, other)
        phi = len(a.num)
        terms = [(j, y) for j, y in enumerate(b.num) if y]
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in terms:
                    conv[i + j] += x * y
        basis = power_basis(a.e)
        out = conv[:phi]
        for m in range(phi, 2 * phi - 1):
            c = conv[m]
            if c:
                for j, x in enumerate(basis[m]):
                    if x:
                        out[j] += c * x
        return Cyclotomic(a.e, out, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return Cyclotomic(self.e, [c * other.denominator for c in self.num],
                          self.den * other.numerator)

    def galois(self, k: int) -> "Cyclotomic":
        """Image under zeta_e -> zeta_e^k (requires gcd(k, e) = 1)."""
        if gcd(k, self.e) != 1:
            raise ValueError("galois exponent must be coprime to conductor")
        return self._substitute(self.e, k)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta_e -> zeta_e^(-1)."""
        if self.e == 1:
            return self
        return self.galois(self.e - 1)

    # -- predicates and extraction ----------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_zero(self) -> bool:
        return not any(self.num)

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"not rational: {self.serialize()}")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True when the reduced denominator is 1."""
        return self.den == 1

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = Cyclotomic._common(self, other)
            return (a.num, a.den) == (b.num, b.den)
        if _is_scalar(other):  # both in lowest terms
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    __hash__ = None  # mutable-free but conductor-sensitive; not hashable

    # -- serialization: "e:[i=num/den,...]" --------------------------------

    def serialize(self) -> str:
        return format_value(self.e, self.num, self.den)

    @staticmethod
    def parse(text: str) -> "Cyclotomic":
        e, terms = _terms(text)
        den = lcm(*(b for _, b in terms.values()))
        num = [0] * euler_phi(e)
        for i, (a, b) in terms.items():
            num[i] = a * (den // b)
        return Cyclotomic(e, num, den)

    def __repr__(self):
        return f"Cyclotomic({self.serialize()})"
