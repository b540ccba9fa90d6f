"""Constructors for the group families used throughout: cyclic/Abelian
groups, symmetric/alternating, generalized dihedral D(A), generalized
quaternion Q(A), Heisenberg groups over finite fields, extraspecial
2-groups, GL2/PSL2, and Frobenius groups C_p^b x| C_q.

The field-based families read ``make_field(q)``: F_q for prime powers
q <= 49 as add, mul and neg arrays, built from the digit array of its
elements, with the least monic irreducible modulus and the least primitive
element.

``FAMILIES`` declares each family once: its parameters, its order, the order
of the largest table its construction holds, and its constructor.
``zoo_build`` checks that largest table against the order cap before any
table is built, so the constructors take no cap of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Callable, Optional

import numpy as np

from . import modular
from .groupcore import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    direct_product,
    group_from_generators,
    quotient_group,
    semidirect_product,
    subgroup_closure,
)


# -- finite fields -----------------------------------------------------------

def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise GroupError("q not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise GroupError("q not a prime power")
            return p, k
    raise GroupError("q not a prime power")


class FiniteField:
    """F_q as explicit add/mul tables; elements are indices 0..q-1.

    Element i encodes the polynomial sum(c_j x^j) with i = sum(c_j p^j);
    0 and 1 are the additive and multiplicative identities.  ``add``,
    ``mul`` and ``neg`` are read-only int32 arrays; ``modulus`` holds
    (c_0, ..., c_{k-1}) of the monic modulus x^k + sum(c_j x^j), and ``exp``
    the powers primitive^e for 0 <= e < q - 1.
    """

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if q > 49:
            raise GroupError("field too large (q <= 49)")
        self.p, self.k, self.q = p, k, q
        digits = np.arange(q)[:, None] // p ** np.arange(k) % p  # [i, j] = c_j of i

        def index(c):  # the element with the digits c (mod p) in the last axis
            return (c % p @ p ** np.arange(k)).astype(np.int32)

        self.add = index(digits[:, None] + digits)
        self.neg = index(-digits)
        # The candidate moduli f have the digits of t = 0, 1, ... as their
        # low coefficients.  F_p[x]/(f) is a finite commutative ring, so it is
        # a field iff it has no zero divisors.  If f = g h with deg g, deg h
        # >= 1, then g h = 0 with g and h nonzero mod f; if f is irreducible,
        # f divides no product of two nonzero residues.  So the first f whose
        # products of nonzero elements are all nonzero is the least monic
        # irreducible of degree k.
        for c in digits:
            # a b = sum_j a_j (x^j b); times x shifts the digits up and
            # replaces x^k by -sum(c_j x^j)
            xb, product = digits, 0
            for j in range(k):
                product = product + digits[:, None, j, None] * xb
                xb = (np.pad(xb[:, :-1], ((0, 0), (1, 0))) - xb[:, -1:] * c) % p
            mul = index(product)
            if mul[1:, 1:].all():
                break
        self.modulus = tuple(c.tolist())
        self.mul = mul
        # power[a - 1, e] = a^e; a has order q - 1 iff a^e != 1 for 0 < e < q - 1
        units = np.arange(1, q)
        power = np.ones((q - 1, q - 1), dtype=np.int32)
        for e in range(1, q - 1):
            power[:, e] = mul[power[:, e - 1], units]
        least = int((power[:, 1:] != 1).all(axis=1).argmax())
        self.primitive, self.exp = least + 1, power[least]
        for table in (self.add, self.neg, self.mul, self.exp):
            table.flags.writeable = False


@lru_cache(maxsize=None)
def make_field(q: int) -> FiniteField:
    return FiniteField(q)


# -- basic families ----------------------------------------------------------

def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise GroupError("cyclic order must be positive")
    ar = np.arange(n, dtype=np.int32)
    return GroupTable((ar[:, None] + ar) % n)


def abelian(invariants) -> GroupTable:
    G = cyclic(1)
    for n in invariants:
        G = direct_product(G, cyclic(n))
    return G


def symmetric(n: int) -> GroupTable:
    if n <= 1:
        return cyclic(1)
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return group_from_generators(n, [swap, cycle], order_cap=factorial(n))


def alternating(n: int) -> GroupTable:
    if n <= 2:
        return cyclic(1)
    gens = []
    for i in range(2, n):
        c = list(range(n))
        c[0], c[1], c[i] = 1, i, 0  # 3-cycle (0 1 i)
        gens.append(tuple(c))
    return group_from_generators(n, gens, order_cap=factorial(n) // 2)


def generalized_dihedral(A: GroupTable) -> GroupTable:
    """D(A) = A x| C2 with the involution acting by inversion."""
    C2 = cyclic(2)
    ident = tuple(range(A.order))
    return semidirect_product(A, C2, [ident, A.inv])


def generalized_quaternion(A: GroupTable) -> GroupTable:
    """Q(A) = (A x| C4) / <(z, s^2)> for the unique order-2 element z of A.

    The semidirect product A x| C4 has twice the order of Q(A).
    """
    order2 = np.flatnonzero(A.table.diagonal() == 0)[1:]  # [0] is the identity
    if len(order2) != 1:
        raise GroupError("no unique order-2 element")
    z = int(order2[0])
    C4 = cyclic(4)
    ident = tuple(range(A.order))
    S = semidirect_product(A, C4, [ident, A.inv, ident, A.inv])
    # element (a, h) of S has index a*4 + h
    zs2 = z * 4 + 2
    N = subgroup_closure(S, [zs2])
    Q, _ = quotient_group(S, N)
    return Q


def heisenberg(n: int, q: int) -> GroupTable:
    """H_n(F_q): triples (x, y; z) in F_q^n x F_q^n x F_q with
    (x,y;z)(x',y';z') = (x+x', y+y'; z+z'+x.y')."""
    if n < 1:
        raise GroupError("n must be positive")
    F = make_field(q)
    total = q ** (2 * n + 1)
    add, mul = F.add, F.mul
    # coordinate j of element i is its base-q digit j: x_0..x_{n-1}, y_0..y_{n-1}, z
    coords = np.arange(total)[:, None] // q ** np.arange(2 * n + 1) % q
    x, y, z = coords[:, :n], coords[:, n:2 * n], coords[:, 2 * n]
    code = np.zeros((total, total), dtype=np.int32)
    dot = np.zeros((total, total), dtype=np.int32)  # x . y' for every pair
    for i in range(n):
        dot = add[dot, mul[x[:, i, None], y[None, :, i]]]
        code += add[x[:, i, None], x[None, :, i]] * q**i
        code += add[y[:, i, None], y[None, :, i]] * q ** (n + i)
    code += add[add[z[:, None], z[None, :]], dot] * q ** (2 * n)
    return GroupTable(code)


def central_product(G: GroupTable, H: GroupTable, zG: int, zH: int) -> GroupTable:
    """(G x H) / <(zG, zH)> for central elements of equal order."""
    if (G.table[:, zG] != G.table[zG]).any():
        raise GroupError("zG not central")
    if (H.table[:, zH] != H.table[zH]).any():
        raise GroupError("zH not central")
    if G.orders[zG] != H.orders[zH]:
        raise GroupError("central elements have different orders")
    P = direct_product(G, H)
    N = subgroup_closure(P, [zG * H.order + zH])
    Q, _ = quotient_group(P, N)
    return Q


def _central_involution(G: GroupTable) -> int:
    central = (G.table == G.table.T).all(axis=1)
    zs = np.flatnonzero(central & (G.table.diagonal() == 0))[1:]  # [0] is the identity
    if len(zs) != 1:
        raise GroupError("center has no unique involution")
    return int(zs[0])


def extraspecial2(a: int, b: int) -> GroupTable:
    """Central product of a copies of D8 and b copies of Q8 (right-associated),
    an extraspecial 2-group of order 2^(2(a+b)+1).  The last direct product
    has twice that order."""
    if a < 0 or b < 0 or a + b < 1:
        raise GroupError("need at least one factor")
    factors = [generalized_dihedral(cyclic(4)) for _ in range(a)]
    factors += [generalized_quaternion(cyclic(4)) for _ in range(b)]
    G = factors[-1]
    for F in reversed(factors[:-1]):
        G = central_product(F, G, _central_involution(F), _central_involution(G))
    return G


def gl2(q: int, det_one: bool = False) -> GroupTable:
    """GL2(F_q) (or SL2 when det_one), by enumerating invertible matrices."""
    F = make_field(q)
    add, mul = F.add, F.mul
    # matrix (a, b; c, d) has the base-q code ((a q + b) q + c) q + d
    codes = np.arange(q**4)
    a, b, c, d = (codes // q**i % q for i in (3, 2, 1, 0))
    det = add[mul[a, d], F.neg[mul[b, c]]]
    mats = codes[det == 1] if det_one else codes[det != 0]
    ident = q**3 + 1  # (1, 0; 0, 1), put first
    mats = np.concatenate(([ident], mats[mats != ident]))
    n = len(mats)
    a, b, c, d = a[mats], b[mats], c[mats], d[mats]
    # dot[u, v] = u . v for field vectors u, v coded u_0 q + u_1
    u0, u1 = np.divmod(np.arange(q * q), q)
    dot = add[mul[u0[:, None], u0], mul[u1[:, None], u1]]
    # rows[u, m] codes the row vector u times matrix m
    rows = dot[:, a * q + c] * q + dot[:, b * q + d]
    element = np.zeros(q**4, dtype=np.int32)  # base-q code -> element index
    element[mats] = np.arange(n)
    # the rows of m1 m2 are (row 0 of m1) m2 and (row 1 of m1) m2
    table = element[rows[a * q + b] * (q * q) + rows[c * q + d]]
    labels = [str(m) for m in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())]
    return GroupTable(table, labels=labels)


def psl2(q: int) -> GroupTable:
    S = gl2(q, det_one=True)
    if q % 2 == 0:  # characteristic 2: PSL2 = SL2
        return S
    # -I is the unique central involution of SL2 in odd characteristic
    N = subgroup_closure(S, [_central_involution(S)])
    Q, _ = quotient_group(S, N)
    return Q


def frobenius(p: int, b: int, q: int) -> GroupTable:
    """C_p^b x| C_q with C_q acting as a primitive q-th root of F_{p^b}."""
    if not modular._is_prime(p):
        raise GroupError("p must be prime")
    if not modular._is_prime(q):
        raise GroupError("q must be prime")
    if b < 1:
        raise GroupError("b must be positive")
    pb = p**b
    if (pb - 1) % q:
        raise GroupError("q must divide p^b - 1")
    F = make_field(pb)
    # additive group of F_{p^b}: element indices are field indices, 0 = identity
    P = GroupTable(F.add)
    # generator j of C_q multiplies by w^j, w = primitive^((p^b - 1) / q)
    return semidirect_product(P, cyclic(q), F.mul[F.exp[::(pb - 1) // q]])


def heisenberg_odd_p3(p: int) -> GroupTable:
    """The non-Abelian group C_{p^2} x| C_p of order p^3 and exponent p^2
    (the generator of C_p acts by multiplication by 1+p)."""
    if p == 2 or not modular._is_prime(p):
        raise GroupError("p must be an odd prime")
    A = cyclic(p * p)
    Cp = cyclic(p)
    action = []
    m = 1
    for _ in range(p):
        action.append(tuple((m * x) % (p * p) for x in range(p * p)))
        m = (m * (1 + p)) % (p * p)
    return semidirect_product(A, Cp, action)


# -- the family table ----------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """``params`` names the parameters; one name ending in "..." takes one
    or more values.  ``order`` gives the group's order from the parameters
    and ``largest`` the order of the largest table the construction holds,
    where that is a larger group than the result."""
    params: str
    order: Callable[..., int]
    build: Callable[..., GroupTable]
    largest: Optional[Callable[..., int]] = None


FAMILIES: dict[str, Family] = {
    "cyclic": Family("n", lambda n: n, cyclic),
    "abelian": Family("n...", lambda *ns: prod(ns), lambda *ns: abelian(ns)),
    # n > 21 counts as 21, whose order already exceeds 2^64
    "symmetric": Family("n", lambda n: factorial(min(max(n, 1), 21)), symmetric),
    "alternating": Family("n", lambda n: factorial(min(n, 21)) // 2 if n > 2 else 1,
                          alternating),
    "generalized_dihedral": Family("n...", lambda *ns: 2 * prod(ns),
                                   lambda *ns: generalized_dihedral(abelian(ns))),
    # through A x| C4
    "generalized_quaternion": Family("n...", lambda *ns: 2 * prod(ns),
                                     lambda *ns: generalized_quaternion(abelian(ns)),
                                     largest=lambda *ns: 4 * prod(ns)),
    "heisenberg": Family("n q", lambda n, q: q ** (2 * max(n, 0) + 1), heisenberg),
    # through the last central product's G x H, twice the group; Q8 alone
    # through its 16-element A x| C4
    "extraspecial2": Family("a b", lambda a, b: 2 ** (2 * max(a + b, 0) + 1), extraspecial2,
                            largest=lambda a, b: 4 ** (a + b + 1) if a + b > 1 else 8 + 8 * b),
    "gl2": Family("q", lambda q: (q * q - 1) * (q * q - q), gl2),
    # through SL2(q)
    "psl2": Family("q", lambda q: q * (q * q - 1) // (1 if q % 2 == 0 else 2), psl2,
                   largest=lambda q: q * (q * q - 1)),
    "frobenius": Family("p b q", lambda p, b, q: p ** max(b, 0) * q, frobenius),
    "heisenberg_odd_p3": Family("p", lambda p: p**3, heisenberg_odd_p3),
}


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise GroupError(f"unknown family {self.family!r}")
        params = tuple(int(p) for p in self.params)
        if len(params) != len(fam.params.split()) and not (fam.params.endswith("...") and params):
            raise GroupError(f"{self.family} takes the parameters {fam.params}")
        object.__setattr__(self, "params", params)

    @property
    def order(self) -> int:
        """The order of the group, meaningful for parameters the constructor accepts."""
        return FAMILIES[self.family].order(*self.params)

    @property
    def largest_table(self) -> int:
        """The order of the largest table the construction holds."""
        fam = FAMILIES[self.family]
        return (fam.largest or fam.order)(*self.params)

    def __str__(self):
        return f"{self.family}({','.join(map(str, self.params))})"


def zoo_build(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build the group of ``spec``.  A construction whose largest table is
    above ``order_cap`` raises ``GroupError`` before any table is built."""
    if spec.largest_table > order_cap:
        raise GroupError("group exceeds order cap")
    return FAMILIES[spec.family].build(*spec.params)
