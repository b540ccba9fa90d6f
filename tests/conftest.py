from functools import lru_cache

from kronkit.chartab import character_table
from kronkit.groupcore import GroupError, SubgroupSpec, direct_product
from kronkit.orbits import DEFAULT_ORBIT_CAP
from kronkit.zoo import FamilySpec, zoo_build


@lru_cache(maxsize=None)
def build(family, *params):
    return zoo_build(FamilySpec(family, tuple(params)))


@lru_cache(maxsize=None)
def table(family, *params):
    return character_table(build(family, *params))


def rows(G):
    """G's multiplication table as row tuples, for Python-loop references."""
    return tuple(map(tuple, G.table.tolist()))


def diagonal_subgroup(G, d, order_cap=DEFAULT_ORBIT_CAP):
    """(G^(d+1), diagonal copy of G). Tiny instances only."""
    n = G.order
    if n ** (d + 1) > order_cap:
        raise GroupError("group too large")
    P = G
    for _ in range(d):
        P = direct_product(P, G, order_cap=order_cap)
    # element (g, ..., g) has index g * (n^d + n^(d-1) + ... + 1)
    weight = sum(n**i for i in range(d + 1))
    elements = tuple(sorted(g * weight for g in range(n)))
    return P, SubgroupSpec(elements=elements, order=n)
