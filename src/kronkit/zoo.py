"""Constructors for the group families used throughout: cyclic/Abelian
groups, symmetric/alternating, generalized dihedral D(A), generalized
quaternion Q(A), Heisenberg groups over small finite fields, extraspecial
2-groups, GL2/PSL2, and Frobenius groups C_p^b x| C_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

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

FAMILIES = (
    "cyclic",
    "abelian",
    "symmetric",
    "alternating",
    "generalized_dihedral",
    "generalized_quaternion",
    "heisenberg",
    "extraspecial2",
    "gl2",
    "psl2",
    "frobenius",
    "heisenberg_odd_p3",
)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GroupError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))

    def __str__(self):
        return f"{self.family}({','.join(map(str, self.params))})"


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
    0 and 1 are the additive and multiplicative identities.
    """

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if q > 49:
            raise GroupError("field too large (q <= 49)")
        self.p, self.k, self.q = p, k, q
        self.modulus = self._least_irreducible(p, k)
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self._coeffs(a)
            for b in range(q):
                cb = self._coeffs(b)
                add[a][b] = self._index([(x + y) % p for x, y in zip(ca, cb)])
                mul[a][b] = self._polymul(ca, cb)
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.neg = tuple(self.add[a].index(0) for a in range(q))
        self.primitive = self._find_primitive()

    def _coeffs(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _index(self, coeffs) -> int:
        out = 0
        for c in reversed(list(coeffs)):
            out = out * self.p + (c % self.p)
        return out

    def _polymul(self, ca, cb) -> int:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                conv[i + j] = (conv[i + j] + x * y) % p
        # reduce by monic modulus of degree k
        for m in range(2 * k - 2, k - 1, -1):
            c = conv[m]
            if c:
                conv[m] = 0
                for j in range(k):
                    conv[m - k + j] = (conv[m - k + j] - c * self.modulus[j]) % p
        return self._index(conv[:k])

    @staticmethod
    def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
        """Lexicographically least monic irreducible of degree k over F_p.

        Coefficients are (c_0, ..., c_{k-1}) of the non-leading part; lex
        order is over that tuple read low degree first.
        """
        if k == 1:
            return (0,)

        def polymod(poly, mod):
            poly = list(poly)
            for m in range(len(poly) - 1, k - 1, -1):
                c = poly[m]
                if c:
                    poly[m] = 0
                    for j in range(k):
                        poly[m - k + j] = (poly[m - k + j] - c * mod[j]) % p
            return poly[:k]

        def is_irreducible(mod) -> bool:
            # no roots / no low-degree monic factors, by trial division
            for deg in range(1, k // 2 + 1):
                for t in range(p**deg):
                    div = []
                    tt = t
                    for _ in range(deg):
                        div.append(tt % p)
                        tt //= p
                    div.append(1)  # monic
                    # long division remainder of mod-polynomial by div
                    rem = [mod[j] for j in range(k)] + [1]
                    for m in range(k, deg - 1, -1):
                        c = rem[m]
                        if c:
                            rem[m] = 0
                            for j in range(deg):
                                rem[m - deg + j] = (rem[m - deg + j] - c * div[j]) % p
                    if not any(rem[:deg]):
                        return False
            return True

        for t in range(p**k):
            mod = []
            tt = t
            for _ in range(k):
                mod.append(tt % p)
                tt //= p
            if is_irreducible(tuple(mod)):
                return tuple(mod)
        raise AssertionError("no irreducible polynomial found")

    def _find_primitive(self) -> int:
        target = self.q - 1
        for a in range(1, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul[x][a]
                order += 1
            if order == target:
                return a
        raise AssertionError("multiplicative group not cyclic")

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul[out][a]
        return out


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
    return group_from_generators(n, [swap, cycle], labels_from_perms=True)


def alternating(n: int) -> GroupTable:
    if n <= 2:
        return cyclic(1)
    gens = []
    for i in range(2, n):
        c = list(range(n))
        c[0], c[1], c[i] = 1, i, 0  # 3-cycle (0 1 i)
        gens.append(tuple(c))
    return group_from_generators(n, gens, labels_from_perms=True)


def _inversion_perm(A: GroupTable) -> tuple[int, ...]:
    return A.inv


def generalized_dihedral(A: GroupTable) -> GroupTable:
    """D(A) = A x| C2 with the involution acting by inversion."""
    C2 = cyclic(2)
    ident = tuple(range(A.order))
    return semidirect_product(A, C2, [ident, _inversion_perm(A)])


def generalized_quaternion(A: GroupTable,
                           order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Q(A) = (A x| C4) / <(z, s^2)> for the unique order-2 element z of A.

    The semidirect product A x| C4 has twice the order of Q(A); ``order_cap``
    applies to it.
    """
    order2 = np.flatnonzero(A.table.diagonal() == 0)[1:]  # [0] is the identity
    if len(order2) != 1:
        raise GroupError("no unique order-2 element")
    z = int(order2[0])
    C4 = cyclic(4)
    ident = tuple(range(A.order))
    invp = _inversion_perm(A)
    S = semidirect_product(A, C4, [ident, invp, ident, invp], order_cap)
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
    if total > DEFAULT_ORDER_CAP:
        raise GroupError("group too large")
    add, mul = np.array(F.add, dtype=np.int32), np.array(F.mul, dtype=np.int32)
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


def central_product(G: GroupTable, H: GroupTable, zG: int, zH: int,
                    order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """(G x H) / <(zG, zH)> for central elements of equal order.

    ``order_cap`` applies to G x H, which is larger than the result.
    """
    if (G.table[:, zG] != G.table[zG]).any():
        raise GroupError("zG not central")
    if (H.table[:, zH] != H.table[zH]).any():
        raise GroupError("zH not central")
    if G.element_order(zG) != H.element_order(zH):
        raise GroupError("central elements have different orders")
    P = direct_product(G, H, order_cap)
    N = subgroup_closure(P, [zG * H.order + zH])
    Q, _ = quotient_group(P, N)
    return Q


def _central_involution(G: GroupTable) -> int:
    central = (G.table == G.table.T).all(axis=1)
    zs = np.flatnonzero(central & (G.table.diagonal() == 0))[1:]  # [0] is the identity
    if len(zs) != 1:
        raise GroupError("center has no unique involution")
    return int(zs[0])


def extraspecial2(a: int, b: int, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Central product of a copies of D8 and b copies of Q8 (right-associated),
    an extraspecial 2-group of order 2^(2(a+b)+1).  The last direct product
    has twice that order; ``order_cap`` applies to it."""
    if a < 0 or b < 0 or a + b < 1:
        raise GroupError("need at least one factor")
    factors = [generalized_dihedral(cyclic(4)) for _ in range(a)]
    factors += [generalized_quaternion(cyclic(4)) for _ in range(b)]
    G = factors[-1]
    for F in reversed(factors[:-1]):
        G = central_product(F, G, _central_involution(F), _central_involution(G),
                            order_cap)
    return G


def gl2(q: int, cap: int = DEFAULT_ORDER_CAP, det_one: bool = False) -> GroupTable:
    """GL2(F_q) (or SL2 when det_one), by enumerating invertible matrices."""
    if q > 7:
        raise GroupError("gl2/psl2 supported for q <= 7")
    F = make_field(q)
    add, mul = np.array(F.add, dtype=np.int32), np.array(F.mul, dtype=np.int32)
    # matrix (a, b; c, d) has the base-q code ((a q + b) q + c) q + d
    codes = np.arange(q**4)
    a, b, c, d = (codes // q**i % q for i in (3, 2, 1, 0))
    det = add[mul[a, d], np.array(F.neg)[mul[b, c]]]
    mats = codes[det == 1] if det_one else codes[det != 0]
    ident = q**3 + 1  # (1, 0; 0, 1), put first
    mats = np.concatenate(([ident], mats[mats != ident]))
    n = len(mats)
    if n > cap:
        raise GroupError("group too large")
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
    F = make_field(q)
    neg1 = F.neg[1]
    if neg1 == 1:  # characteristic 2: PSL2 = SL2
        return S
    # -I is the unique central involution of SL2 in odd characteristic
    N = subgroup_closure(S, [_central_involution(S)])
    Q, _ = quotient_group(S, N)
    return Q


def frobenius(p: int, b: int, q: int) -> GroupTable:
    """C_p^b x| C_q with C_q acting as a primitive q-th root of F_{p^b}."""
    if q < 2 or any(q % t == 0 for t in range(2, q)):
        raise GroupError("q must be prime")
    if b < 1:
        raise GroupError("b must be positive")
    pb = p**b
    if (pb - 1) % q:
        raise GroupError("q must divide p^b - 1")
    F = make_field(pb)
    w = F.pow(F.primitive, (pb - 1) // q)
    # additive group of F_{p^b}: element indices are field indices, 0 = identity
    P = GroupTable([[F.add[a][c] for c in range(pb)] for a in range(pb)])
    Cq = cyclic(q)
    action = []
    wj = 1
    for _ in range(q):
        action.append(tuple(F.mul[wj][x] for x in range(pb)))
        wj = F.mul[wj][w]
    return semidirect_product(P, Cq, action)


def heisenberg_odd_p3(p: int) -> GroupTable:
    """The non-Abelian group C_{p^2} x| C_p of order p^3 and exponent p^2
    (the generator of C_p acts by multiplication by 1+p)."""
    if p < 3 or any(p % t == 0 for t in range(2, p)):
        raise GroupError("p must be an odd prime")
    A = cyclic(p * p)
    Cp = cyclic(p)
    action = []
    m = 1
    for _ in range(p):
        action.append(tuple((m * x) % (p * p) for x in range(p * p)))
        m = (m * (1 + p)) % (p * p)
    return semidirect_product(A, Cp, action)


# -- dispatcher ---------------------------------------------------------------

def family_order(spec: FamilySpec) -> int:
    """The order of the group ``spec`` builds, from its parameters alone.

    Meaningful only for parameters the constructor accepts; it lets a cap
    be applied before any table is built.  For n > 21 the symmetric and
    alternating orders are given as those of n = 21, which exceed 2^64.
    """
    fam, params = spec.family, spec.params
    if fam in ("cyclic", "abelian"):
        return prod(params)
    if fam in ("generalized_dihedral", "generalized_quaternion"):
        return 2 * prod(params)
    if fam == "symmetric":
        (n,) = params
        return factorial(min(max(n, 1), 21))
    if fam == "alternating":
        (n,) = params
        return factorial(min(n, 21)) // 2 if n > 2 else 1
    if fam == "heisenberg":
        n, q = params
        return q ** (2 * max(n, 0) + 1)
    if fam == "extraspecial2":
        a, b = params
        return 2 ** (2 * max(a + b, 0) + 1)
    if fam == "gl2":
        (q,) = params
        return (q * q - 1) * (q * q - q)
    if fam == "psl2":
        (q,) = params
        return q * (q * q - 1) // (1 if q % 2 == 0 else 2)
    if fam == "frobenius":
        p, b, q = params
        return p ** max(b, 0) * q
    if fam == "heisenberg_odd_p3":
        (p,) = params
        return p**3
    raise GroupError(f"unknown family {fam!r}")


def zoo_build(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build the group of ``spec``; a group above ``order_cap`` raises
    ``GroupError`` before any table is built."""
    if family_order(spec) > order_cap:
        raise GroupError("group exceeds order cap")
    fam, params = spec.family, spec.params
    if fam == "cyclic":
        (n,) = params
        return cyclic(n)
    if fam == "abelian":
        return abelian(params)
    if fam == "symmetric":
        (n,) = params
        return symmetric(n)
    if fam == "alternating":
        (n,) = params
        return alternating(n)
    if fam == "generalized_dihedral":
        return generalized_dihedral(abelian(params))
    if fam == "generalized_quaternion":
        return generalized_quaternion(abelian(params), order_cap)
    if fam == "heisenberg":
        n, q = params
        return heisenberg(n, q)
    if fam == "extraspecial2":
        a, b = params
        return extraspecial2(a, b, order_cap)
    if fam == "gl2":
        (q,) = params
        return gl2(q)
    if fam == "psl2":
        (q,) = params
        return psl2(q)
    if fam == "frobenius":
        p, b, q = params
        return frobenius(p, b, q)
    if fam == "heisenberg_odd_p3":
        (p,) = params
        return heisenberg_odd_p3(p)
    raise GroupError(f"unknown family {fam!r}")
