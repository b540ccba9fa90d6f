"""Exact values in cyclotomic fields Q(zeta_e): the exchange format, both
ways, and the reference ring arithmetic.

Values are stored in the power basis 1, zeta, ..., zeta^(phi(e)-1) after
reduction modulo the e-th cyclotomic polynomial, so equality at a common
conductor is plain coefficient equality.  ``_terms`` reads the value
grammar "c:[i=a/b,...]", ``format_value`` writes it, and ``parse_value``
reads a value straight into its integer row at an exponent.  ``Cyclotomic``
(``fractions.Fraction`` coefficients, no floats) is the tests' reference
and the ``CharacterTable.irreps`` view; no command builds one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class NotRationalError(ValueError):
    """Raised when a cyclotomic value expected to be rational is not."""


def _poly_divmod_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e (ascending degree, monic)."""
    if e < 1:
        raise ValueError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


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


@lru_cache(maxsize=None)
def power_basis(e: int) -> tuple[tuple[int, ...], ...]:
    """x^m mod Phi_e for m = 0 .. max(e-1, 2*phi-2), as integer coefficient rows."""
    phi = euler_phi(e)
    top = max(e - 1, 2 * phi - 2)
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    mod = cyclotomic_polynomial(e)
    for _ in range(top + 1):
        rows.append(tuple(cur))
        # multiply by x and reduce by the monic Phi_e
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(phi):
                cur[j] -= lead * mod[j]
    return tuple(rows)


def format_value(e: int, coeffs) -> str:
    """The exchange form "e:[i=num/den,...]" of power-basis coefficients at
    conductor e (ints or Fractions), listing the nonzero ones."""
    parts = [f"{i}={c.numerator}/{c.denominator}" for i, c in enumerate(coeffs) if c]
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
    ``power_basis(e)``, an integral basis of Z[zeta_e]: D times the value is
    an integer row (D the common denominator), and the value is an algebraic
    integer exactly when D divides it."""
    c, terms = _terms(text, e)
    den = lcm(*(b for _, b in terms.values()))
    basis, row = power_basis(e), [0] * euler_phi(e)
    for i, (a, b) in terms.items():
        for j, x in enumerate(basis[i * (e // c)]):
            if x:
                row[j] += a * (den // b) * x
    if any(x % den for x in row):
        raise ValueError("character value not an algebraic integer")
    return [x // den for x in row]


class Cyclotomic:
    """An exact element of Q(zeta_e) in reduced power-basis form."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        phi = euler_phi(e)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {e}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r, e: int = 1) -> "Cyclotomic":
        r = Fraction(r)
        phi = euler_phi(e)
        return Cyclotomic(e, (r,) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def root(e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k reduced mod Phi_e."""
        row = power_basis(e)[k % e]
        return Cyclotomic(e, row)

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
        basis = power_basis(e)
        out = [Fraction(0)] * euler_phi(e)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, b in enumerate(basis[(i * k) % e]):
                    if b:
                        out[j] += c * b
        return Cyclotomic(e, out)

    @staticmethod
    def _common(a: "Cyclotomic", b) -> tuple["Cyclotomic", "Cyclotomic"]:
        if not isinstance(b, Cyclotomic):
            b = Cyclotomic.rational(b, 1)
        e = lcm(a.e, b.e)
        return a.promote(e), b.promote(e)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.e, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.e, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.e, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.e, tuple(c * other for c in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        if a.is_rational():
            return Cyclotomic(b.e, tuple(a.coeffs[0] * c for c in b.coeffs))
        if b.is_rational():
            return Cyclotomic(a.e, tuple(b.coeffs[0] * c for c in a.coeffs))
        phi = len(a.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        basis = power_basis(a.e)
        out = list(conv[:phi])
        for m in range(phi, 2 * phi - 1):
            c = conv[m]
            if c:
                row = basis[m]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclotomic(a.e, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return self * inv
        return NotImplemented

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
        return all(c == 0 for c in self.coeffs[1:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"not rational: {self.serialize()}")
        return self.coeffs[0]

    def is_integral(self) -> bool:
        """True when all reduced coefficients have denominator 1."""
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but conductor-sensitive; not hashable

    # -- serialization: "e:[i=num/den,...]" --------------------------------

    def serialize(self) -> str:
        return format_value(self.e, self.coeffs)

    @staticmethod
    def parse(text: str) -> "Cyclotomic":
        e, terms = _terms(text)
        coeffs = [Fraction(0)] * euler_phi(e)
        for i, (a, b) in terms.items():
            coeffs[i] = Fraction(a, b)
        return Cyclotomic(e, coeffs)

    def __repr__(self):
        return f"Cyclotomic({self.serialize()})"
