"""Finite groups as explicit multiplication tables.

Elements are dense indices 0..n-1 with the identity always at index 0.
Constructors (closure, products, quotients) produce associative tables by
design; tables from external sources go through :func:`validate_cayley`,
which checks associativity by Light's test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import isqrt, lcm

import numpy as np

from . import _kernels

# What one Cayley table may cost.  A group of order n is an n x n table of
# int32 entries (4 bytes).  Building it peaks higher: measured in a fresh
# process (ru_maxrss), S7 takes 12.8 bytes per entry, a direct product 8, and
# a semidirect product or a Heisenberg group 16, the most; conjugacy classes
# and the exponent add nothing measurable.  So a group is admitted while
# n^2 * TABLE_BYTES_PER_ENTRY fits TABLE_BUDGET_BYTES: n <= 5792, which
# admits S7 (5040) and refuses 2^13.  Constructors that pass
# through a larger group (a central product's G x H, the A x| C4 behind a
# generalized quaternion group) apply the same cap to it.
TABLE_BYTES_PER_ENTRY = 16
TABLE_BUDGET_BYTES = 2**29
DEFAULT_ORDER_CAP = isqrt(TABLE_BUDGET_BYTES // TABLE_BYTES_PER_ENTRY)


class GroupError(ValueError):
    pass


class GroupTable:
    """A finite group given by its full multiplication table.

    ``table`` is the n x n int32 array of products: table[a, b] = a * b.
    """

    def __init__(self, mul, labels=None):
        table = np.asarray(mul, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1] or not table.size:
            raise GroupError("table is not a non-empty square")
        table.flags.writeable = False
        self.table = table
        self.order = len(table)
        # the first 0 of each row: entries are >= 0, so argmin finds it if any
        inv = table.argmin(axis=1)
        if (table[np.arange(self.order), inv] != 0).any():
            raise GroupError("missing inverse")
        self.inv = tuple(inv.tolist())
        self.labels = tuple(labels) if labels is not None else None
        self._gens = None

    # -- basic queries -----------------------------------------------------

    @cached_property
    def orders(self) -> np.ndarray:
        """Element orders: the least k >= 1 with x^k = 1, for every x."""
        orders = np.zeros(self.order, dtype=np.int64)
        active = np.arange(self.order)  # elements whose order is not known yet
        power = active                  # x^k for each active x
        k = 1
        while active.size:
            done = power == 0
            orders[active[done]] = k
            active, power = active[~done], power[~done]
            power = self.table[power, active]
            k += 1
        return orders

    def element_order(self, x: int) -> int:
        return int(self.orders[x])

    def exponent(self) -> int:
        return reduce(lcm, set(self.orders.tolist()), 1)

    def generating_set(self) -> tuple[int, ...]:
        """A small deterministic generating set: greedily, the least element
        outside the subgroup the generators so far generate."""
        if self._gens is None:
            self._gens = greedy_generators(self, range(self.order))
        return self._gens

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def validate(self) -> "GroupTable":
        """Identity and inverse checks, and Light's associativity test.

        Light's test checks (x a) y = x (a y) for every x, y and every a in
        ``generating_set()``: O(n^2 |gens|).  The a that pass are closed
        under products, since (x (a b)) y = ((x a) b) y = (x a)(b y) =
        x (a (b y)) = x ((a b) y); every element is a product of generators
        (the closure in ``_close`` reaches it as ((g g') g'') ...), so every
        a passes and the table is associative.
        """
        m = self.table
        n = self.order
        ar = np.arange(n)
        if not ((m[0] == ar).all() and (m[:, 0] == ar).all()):
            raise GroupError("no identity")
        if (m[ar, self.inv] != 0).any():
            raise GroupError("missing inverse")
        rows = max(1, 2**20 // n)  # compare blocks of about 2^20 entries
        for a in self.generating_set():
            for lo in range(0, n, rows):
                left = m[m[lo:lo + rows, a]]       # (x a) y
                right = m[lo:lo + rows][:, m[a]]   # x (a y)
                if not np.array_equal(left, right):
                    x, y = map(int, np.argwhere(left != right)[0])
                    raise GroupError(f"associativity violated at ({lo + x},{a},{y})")
        return self

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def _close(table: np.ndarray, inside: np.ndarray, gens) -> None:
    """Grow the mask ``inside`` in place to the subgroup generated by ``gens``.

    ``inside`` must hold the identity and lie in that subgroup.  It is closed
    under right multiplication by every generator; in a finite group the
    words in ``gens`` that this reaches from the identity are the subgroup.
    """
    cols = np.asarray(gens, dtype=np.intp)
    frontier = np.flatnonzero(inside)
    while frontier.size:
        reached = np.zeros_like(inside)
        reached[table[np.ix_(frontier, cols)]] = True
        frontier = np.flatnonzero(reached & ~inside)
        inside |= reached


def greedy_generators(G: GroupTable, elements) -> tuple[int, ...]:
    """Generators of the subgroup with the sorted ``elements``: greedily, the
    least element outside the subgroup the generators so far generate."""
    gens: list[int] = []
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    outside = np.asarray(elements, dtype=np.intp)
    while (outside := outside[~inside[outside]]).size:
        gens.append(int(outside[0]))
        _close(G.table, inside, gens)
    return tuple(gens)


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
    """Closure of permutation generators, breadth-first from the identity.

    Element k is the k-th permutation the search reaches, taking elements in
    index order and, for each, the generators in the order given.  The search
    records right[j][x], the index of x * g_j, and for each new element b its
    parent and generator: b = parent(b) * g_via(b).  The table is then filled
    column by column, a BFS level at a time, from a * b = (a * parent(b)) *
    g_via(b): column b is right[via(b)] gathered at column parent(b).
    """
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(ident):
            raise GroupError("generator is not a permutation")
    elems = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    parent, via = [0], [0]
    level_ends = [1]  # BFS level i holds the elements below level_ends[i]
    head = 0
    while head < len(elems):
        end = len(elems)
        for x in range(head, end):
            for j, g in enumerate(gens):
                y = _perm_mul(elems[x], g)
                k = index.get(y)
                if k is None:
                    if len(elems) >= order_cap:
                        raise GroupError("group too large")
                    k = index[y] = len(elems)
                    elems.append(y)
                    parent.append(x)
                    via.append(j)
                right[j].append(k)
        head = end
        level_ends.append(len(elems))
    n = len(elems)
    right = np.array(right, dtype=np.int32).reshape(len(gens), n)
    parent, via = np.array(parent), np.array(via)
    cols = np.empty((n, n), dtype=np.int32)  # cols[b] = column b of the table
    cols[0] = np.arange(n)
    for lo, hi in zip(level_ends, level_ends[1:]):
        cols[lo:hi] = right[via[lo:hi, None], cols[parent[lo:hi]]]
    labels = [str(p) for p in elems] if labels_from_perms else None
    return GroupTable(np.ascontiguousarray(cols.T), labels=labels)


def validate_cayley(table, labels=None) -> GroupTable:
    """Validate a raw n x n index table and return it as a GroupTable.

    The identity is relocated to index 0 if necessary (canonical relabeling).
    """
    n = len(table)
    if any(len(row) != n for row in table):
        raise GroupError("table entries out of range")
    try:
        m = np.array(table, dtype=np.int64).reshape(n, n)
    except OverflowError:
        raise GroupError("table entries out of range") from None
    if ((m < 0) | (m >= n)).any():
        raise GroupError("table entries out of range")
    ar = np.arange(n)
    both = np.flatnonzero((m == ar).all(axis=1) & (m == ar[:, None]).all(axis=0))
    if not both.size:
        raise GroupError("no identity")
    ident = int(both[0])
    if ident != 0:
        # relabel by swapping 0 <-> ident
        sw = ar.copy()
        sw[0], sw[ident] = ident, 0
        m = sw[m[np.ix_(sw, sw)]]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[ident] = labels[ident], labels[0]
    G = GroupTable(m, labels=labels)  # raises on missing inverse
    return G.validate()


def conjugacy_data(G: GroupTable, powers=(2,)) -> ConjugacyData:
    """Conjugacy classes from the orbit kernel at d = 1, plus inverse/power
    class maps.  Classes are numbered by their least elements, the reps."""
    n = G.order
    gens = list(G.generating_set()) or [0]
    root = _kernels.conjugation_orbit_roots(G.table, G.inv, gens, n, 1)
    reps = np.flatnonzero(root == np.arange(n))
    class_of = np.searchsorted(reps, root)
    sizes = np.bincount(class_of).tolist()
    power_class = {p: tuple(class_of[_power(G.table, reps, p)].tolist())
                   for p in map(int, set(powers) | {2})}
    return ConjugacyData(
        class_of=tuple(class_of.tolist()),
        reps=tuple(reps.tolist()),
        sizes=tuple(sizes),
        centralizer_orders=tuple(n // s for s in sizes),
        inverse_class=tuple(class_of[np.asarray(G.inv)[reps]].tolist()),
        power_class=power_class,
    )


def _power(table: np.ndarray, xs: np.ndarray, k: int) -> np.ndarray:
    """x^k for every x in ``xs`` (k >= 0), by repeated squaring."""
    out, base = np.zeros_like(xs), xs
    while k:
        if k & 1:
            out = table[out, base]
        base = table[base, base]
        k >>= 1
    return out


def subgroup_closure(G: GroupTable, seed) -> SubgroupSpec:
    seed = list(dict.fromkeys(seed))
    if any(not 0 <= s < G.order for s in seed):
        raise GroupError(f"subgroup generators must lie in 0..{G.order - 1}")
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    _close(G.table, inside, seed)
    elements = tuple(np.flatnonzero(inside).tolist())
    if G.order % len(elements):
        raise GroupError("closure violates Lagrange")  # defensive; cannot happen
    return SubgroupSpec(elements=elements, order=len(elements))


def _mask(G: GroupTable, elements) -> np.ndarray:
    inside = np.zeros(G.order, dtype=bool)
    inside[list(elements)] = True
    return inside


def is_subgroup(G: GroupTable, K: SubgroupSpec) -> bool:
    els = np.array(K.elements, dtype=np.intp)
    inside = _mask(G, els)
    return bool(inside[0] and inside[G.table[np.ix_(els, els)]].all()
                and inside[np.asarray(G.inv)[els]].all())


def direct_product(G: GroupTable, H: GroupTable,
                   order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """G x H with (a, b) at index a * |H| + b."""
    n, m = G.order, H.order
    if n * m > order_cap:
        raise GroupError("group too large")
    table = G.table[:, None, :, None] * m + H.table[None, :, None, :]
    return GroupTable(table.reshape(n * m, n * m))


def _check_action(A: GroupTable, H: GroupTable, action) -> np.ndarray:
    """The action as an |H| x |A| array, checked to be a homomorphism H -> Aut(A)."""
    action = [tuple(a) for a in action]
    if len(action) != H.order:
        raise GroupError("action must give one map per element of H")
    ident = list(range(A.order))
    if any(sorted(perm) != ident for perm in action):
        raise GroupError("action not automorphism")
    P, t = np.array(action, dtype=np.intp), A.table
    # perm(ab) = perm(a) perm(b) for every perm, a, b
    if (P[:, t] != t[P[:, :, None], P[:, None, :]]).any():
        raise GroupError("action not automorphism")
    # action[h1 h2] = action[h1] o action[h2]
    if (P[H.table] != P[np.arange(H.order)[:, None, None], P[None, :, :]]).any():
        raise GroupError("action not homomorphism")
    return P


def semidirect_product(A: GroupTable, H: GroupTable, action,
                       order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """A x| H with multiplication (a,h)(a',h') = (a * action[h](a'), hh'),
    (a, h) at index a * |H| + h."""
    n, m = A.order, H.order
    if n * m > order_cap:
        raise GroupError("group too large")
    P = _check_action(A, H, action)  # holds |H| |A|^2 entries
    left = A.table[:, P]  # [a, h, a'] = a * action[h](a')
    table = left[:, :, :, None] * m + H.table[None, :, None, :]
    return GroupTable(table.reshape(n * m, n * m))


def quotient_group(G: GroupTable, N: SubgroupSpec):
    """G/N with cosets indexed by their least element. Returns (Q, projection)."""
    if not is_subgroup(G, N):
        raise GroupError("not a subgroup")
    t, els = G.table, np.array(N.elements, dtype=np.intp)
    conj = t[t[:, els], np.asarray(G.inv)[:, None]]  # [g, x] = g x g^-1
    if not _mask(G, els)[conj].all():
        raise GroupError("subgroup not normal")
    # coset gN is numbered by the rank of its least element
    least = t[:, els].min(axis=1)
    coset_reps = np.flatnonzero(least == np.arange(G.order))
    proj = np.searchsorted(coset_reps, least)
    return GroupTable(proj[t[np.ix_(coset_reps, coset_reps)]]), tuple(proj.tolist())


# -- exchange format ---------------------------------------------------------

def dump_group(G: GroupTable) -> str:
    lines = [f"order {G.order}"]
    name = list(map(str, range(G.order))).__getitem__
    lines += [" ".join(map(name, row.tolist())) for row in G.table]
    if G.labels is not None:
        for lab in G.labels:
            lines.append(f"# label {lab}")
    return "\n".join(lines) + "\n"


def load_group(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Parse the group exchange format and validate the table exhaustively.

    The order line is read first, so a group above ``order_cap`` is refused
    before any row is parsed or checked.  Every malformed input raises
    ``GroupError``.
    """
    lines = text.splitlines()
    body = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    head = body[0].split() if body else []
    if len(head) != 2 or head[0] != "order":
        raise GroupError("format error: missing order line")
    try:
        n = int(head[1])
    except ValueError:
        raise GroupError("format error: order is not an integer") from None
    if n < 1:
        raise GroupError("format error: order must be positive")
    if n > order_cap:
        raise GroupError("group exceeds order cap")
    if len(body) != n + 1:
        raise GroupError("format error: wrong number of rows")
    labels = [ln[len("# label "):] for ln in lines if ln.startswith("# label ")]
    if labels and len(labels) != n:
        raise GroupError("format error: wrong number of labels")
    try:
        table = [[int(v) for v in ln.split()] for ln in body[1:]]
    except ValueError:
        raise GroupError("format error: table entry is not an integer") from None
    return validate_cayley(table, labels=labels or None)
