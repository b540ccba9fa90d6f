"""Finite groups as explicit multiplication tables.

Elements are dense indices 0..n-1 with the identity always at index 0.
Constructors (closure, products, quotients) produce associative tables by
design; tables from external sources go through :func:`validate_cayley`,
which checks associativity exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import lcm

DEFAULT_ORDER_CAP = 20000


class GroupError(ValueError):
    pass


class GroupTable:
    """A finite group given by its full multiplication table."""

    def __init__(self, mul, labels=None):
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        self.id = 0
        inv = [None] * self.order
        for x in range(self.order):
            row = self.mul[x]
            for y in range(self.order):
                if row[y] == 0:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise GroupError("missing inverse")
        self.inv = tuple(inv)
        self.labels = tuple(labels) if labels is not None else None
        self._orders = None
        self._gens = None

    # -- basic queries -----------------------------------------------------

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def element_order(self, x: int) -> int:
        if self._orders is None:
            orders = []
            for y in range(self.order):
                k, z = 1, y
                while z != 0:
                    z = self.mul[z][y]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[x]

    def exponent(self) -> int:
        return reduce(lcm, (self.element_order(x) for x in range(self.order)), 1)

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv[x], -k
        out, base = 0, x
        while k:
            if k & 1:
                out = self.mul[out][base]
            base = self.mul[base][base]
            k >>= 1
        return out

    def generating_set(self) -> tuple[int, ...]:
        """A small deterministic generating set (greedy by element index)."""
        if self._gens is None:
            gens: list[int] = []
            known = {0}
            while len(known) < self.order:
                g = min(x for x in range(self.order) if x not in known)
                gens.append(g)
                frontier = list(known | {g})
                known.add(g)
                queue = [g]
                while queue:
                    x = queue.pop()
                    for y in frontier:
                        for z in (self.mul[x][y], self.mul[y][x]):
                            if z not in known:
                                known.add(z)
                                frontier.append(z)
                                queue.append(z)
            self._gens = tuple(gens)
        return self._gens

    def is_abelian(self) -> bool:
        m = self.mul
        return all(m[a][b] == m[b][a] for a in range(self.order) for b in range(a))

    def validate(self) -> "GroupTable":
        """Exhaustive identity/inverse/associativity check (O(n^3))."""
        n = self.order
        for x in range(n):
            if self.mul[0][x] != x or self.mul[x][0] != x:
                raise GroupError("no identity")
            if self.mul[x][self.inv[x]] != 0:
                raise GroupError("missing inverse")
        try:
            import numpy as np

            m = np.array(self.mul, dtype=np.int32)
            for a in range(n):
                left = m[m[a], :]          # (ab)c for all b, c
                right = m[a][m]            # a(bc)
                if not np.array_equal(left, right):
                    b, c = map(int, np.argwhere(left != right)[0])
                    raise GroupError(f"associativity violated at ({a},{b},{c})")
        except ImportError:  # pragma: no cover
            m = self.mul
            for a in range(n):
                for b in range(n):
                    ab = m[a][b]
                    for c in range(n):
                        if m[ab][c] != m[a][m[b][c]]:
                            raise GroupError(f"associativity violated at ({a},{b},{c})")
        return self

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True)
class ConjugacyData:
    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    centralizer_orders: tuple[int, ...]
    inverse_class: tuple[int, ...]
    power_class: dict[int, tuple[int, ...]] = field(compare=False)

    @property
    def num_classes(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class SubgroupSpec:
    elements: tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order != len(self.elements):
            raise GroupError("subgroup order mismatch")


# -- construction ------------------------------------------------------------

def _perm_mul(p, q):
    """(p*q)(x) = p(q(x))."""
    return tuple(p[i] for i in q)


def group_from_generators(degree: int, gens, order_cap: int = DEFAULT_ORDER_CAP,
                          labels_from_perms: bool = False) -> GroupTable:
    """Closure of permutation generators, breadth-first from the identity."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(ident):
            raise GroupError("generator is not a permutation")
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = _perm_mul(x, g)
            if y not in index:
                if len(elems) >= order_cap:
                    raise GroupError("group too large")
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    mul = [[index[_perm_mul(elems[a], elems[b])] for b in range(n)] for a in range(n)]
    labels = [str(p) for p in elems] if labels_from_perms else None
    return GroupTable(mul, labels=labels)


def validate_cayley(table, labels=None) -> GroupTable:
    """Validate a raw n x n index table and return it as a GroupTable.

    The identity is relocated to index 0 if necessary (canonical relabeling).
    """
    n = len(table)
    table = [list(row) for row in table]
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise GroupError("table entries out of range")
    ident = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise GroupError("no identity")
    if ident != 0:
        # relabel by swapping 0 <-> ident
        sw = list(range(n))
        sw[0], sw[ident] = ident, 0
        table = [[sw[table[sw[a]][sw[b]]] for b in range(n)] for a in range(n)]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[ident] = labels[ident], labels[0]
    G = GroupTable(table, labels=labels)  # raises on missing inverse
    return G.validate()


def conjugacy_data(G: GroupTable, powers=(2,)) -> ConjugacyData:
    """Conjugacy classes by orbit expansion, plus inverse/power class maps."""
    n = G.order
    class_of = [-1] * n
    reps, sizes = [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        c = len(reps)
        orbit = [x]
        class_of[x] = c
        head = 0
        while head < len(orbit):
            y = orbit[head]
            head += 1
            for g in G.generating_set():
                z = G.conj(g, y)
                if class_of[z] < 0:
                    class_of[z] = c
                    orbit.append(z)
        reps.append(x)
        sizes.append(len(orbit))
    k = len(reps)
    inverse_class = tuple(class_of[G.inv[r]] for r in reps)
    pw = set(powers) | {2}
    power_class = {
        int(p): tuple(class_of[G.power(r, p)] for r in reps) for p in pw
    }
    return ConjugacyData(
        class_of=tuple(class_of),
        reps=tuple(reps),
        sizes=tuple(sizes),
        centralizer_orders=tuple(n // s for s in sizes),
        inverse_class=inverse_class,
        power_class=power_class,
    )


def subgroup_closure(G: GroupTable, seed) -> SubgroupSpec:
    queue = list(dict.fromkeys(seed))
    if any(not 0 <= s < G.order for s in queue):
        raise GroupError(f"subgroup generators must lie in 0..{G.order - 1}")
    known = {0}
    for s in queue:
        known.add(s)
    while queue:
        x = queue.pop()
        for y in list(known):
            for z in (G.mul[x][y], G.mul[y][x], G.inv[x]):
                if z not in known:
                    known.add(z)
                    queue.append(z)
    elements = tuple(sorted(known))
    if G.order % len(elements):
        raise GroupError("closure violates Lagrange")  # defensive; cannot happen
    return SubgroupSpec(elements=elements, order=len(elements))


def is_subgroup(G: GroupTable, K: SubgroupSpec) -> bool:
    s = set(K.elements)
    if 0 not in s:
        return False
    return all(G.mul[a][b] in s and G.inv[a] in s for a in s for b in s)


def direct_product(G: GroupTable, H: GroupTable,
                   order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    n, m = G.order, H.order
    if n * m > order_cap:
        raise GroupError("group too large")
    gm, hm = G.mul, H.mul
    mul = [
        [gm[a][c] * m + hm[b][d] for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    return GroupTable(mul)


def _check_action(A: GroupTable, H: GroupTable, action):
    action = [tuple(a) for a in action]
    if len(action) != H.order:
        raise GroupError("action must give one map per element of H")
    idx = set(range(A.order))
    for perm in action:
        if set(perm) != idx:
            raise GroupError("action not automorphism")
        for a in range(A.order):
            for b in range(A.order):
                if perm[A.mul[a][b]] != A.mul[perm[a]][perm[b]]:
                    raise GroupError("action not automorphism")
    for h1 in range(H.order):
        for h2 in range(H.order):
            composed = tuple(action[h1][action[h2][a]] for a in range(A.order))
            if action[H.mul[h1][h2]] != composed:
                raise GroupError("action not homomorphism")
    return action


def semidirect_product(A: GroupTable, H: GroupTable, action,
                       order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """A x| H with multiplication (a,h)(a',h') = (a * action[h](a'), hh')."""
    action = _check_action(A, H, action)
    n, m = A.order, H.order
    if n * m > order_cap:
        raise GroupError("group too large")
    mul = [
        [A.mul[a][action[h][a2]] * m + H.mul[h][h2] for a2 in range(n) for h2 in range(m)]
        for a in range(n)
        for h in range(m)
    ]
    return GroupTable(mul)


def quotient_group(G: GroupTable, N: SubgroupSpec):
    """G/N with cosets indexed by their least element. Returns (Q, projection)."""
    nset = set(N.elements)
    if not is_subgroup(G, N):
        raise GroupError("not a subgroup")
    for g in range(G.order):
        for x in N.elements:
            if G.conj(g, x) not in nset:
                raise GroupError("subgroup not normal")
    proj = [-1] * G.order
    coset_reps: list[int] = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        c = len(coset_reps)
        coset_reps.append(g)
        for x in N.elements:
            proj[G.mul[g][x]] = c
    q = len(coset_reps)
    mul = [
        [proj[G.mul[coset_reps[a]][coset_reps[b]]] for b in range(q)]
        for a in range(q)
    ]
    return GroupTable(mul), tuple(proj)


# -- exchange format ---------------------------------------------------------

def dump_group(G: GroupTable) -> str:
    lines = [f"order {G.order}"]
    for row in G.mul:
        lines.append(" ".join(str(v) for v in row))
    if G.labels is not None:
        for lab in G.labels:
            lines.append(f"# label {lab}")
    return "\n".join(lines) + "\n"


def load_group(text: str) -> GroupTable:
    """Parse the group exchange format and validate the table exhaustively."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    body = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    labels = [ln[len("# label "):] for ln in lines if ln.startswith("# label ")]
    if not body or not body[0].startswith("order "):
        raise GroupError("format error: missing order line")
    n = int(body[0].split()[1])
    if len(body) != n + 1:
        raise GroupError("format error: wrong number of rows")
    table = [[int(v) for v in ln.split()] for ln in body[1:]]
    return validate_cayley(table, labels=labels if labels else None)
