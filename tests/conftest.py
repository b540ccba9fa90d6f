from functools import lru_cache
from importlib import resources

from kronkit import kron
from kronkit.chartab import character_table
from kronkit.groupcore import GroupError, SubgroupSpec, direct_product
from kronkit.orbits import DEFAULT_ORBIT_CAP
from kronkit.zoo import FamilySpec, zoo_build


def battery():
    """The bundled battery as (label, family, params) triples."""
    text = resources.files("kronkit").joinpath("data/battery.txt").read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            out.append((parts[0], parts[1], tuple(int(p) for p in parts[2:])))
    return out


BATTERY = battery()


@lru_cache(maxsize=None)
def build(family, *params):
    return zoo_build(FamilySpec(family, tuple(params)))


@lru_cache(maxsize=None)
def table(family, *params):
    return character_table(build(family, *params))


def classified(T):
    """kron.classify's records by name."""
    return {r.name: r for r in kron.classify(T)}


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
        P = direct_product(P, G)
    # element (g, ..., g) has index g * (n^d + n^(d-1) + ... + 1)
    weight = sum(n**i for i in range(d + 1))
    elements = tuple(sorted(g * weight for g in range(n)))
    return P, SubgroupSpec(elements=elements, order=n)


def c2_power_table(n):
    """The exchange-format character table of C2^n, chi_s(x) = (-1)^|s & x|."""
    k = 2**n
    sign = ("2:[0=1/1]", "2:[0=-1/1]")
    lines = [f"order {k}", "exponent 2", f"classes {k}", "sizes" + " 1" * k,
             "powermap2" + " 0" * k]
    lines += ["chi: " + " | ".join(sign[bin(s & x).count("1") % 2] for x in range(k))
              for s in range(k)]
    return "\n".join(lines) + "\n"
