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


def _c8_root(m):
    """zeta_8^m in the power basis 1, zeta, zeta^2, zeta^3 (zeta^4 = -1)."""
    return f"8:[{m % 4}={(-1) ** (m % 8 // 4)}/1]"


def non_dual_tables():
    """Exchange-format tables that pass row orthogonality and have integral
    indicators, but are not closed under duality, as {name: text}.

    ``C8-mixed``: C8 with chi_2 and chi_6 replaced by their unitary mixes
    (1, +-zeta^3, -1, -+zeta^3, ...), whose conjugates are not rows.
    ``C2xC2-pm4``: the real table of C2 x C2 with the squaring map of C4,
    so two self-dual irreps get indicator 0.
    """
    rows = [[j * x for x in range(8)] for j in (0, 1, 3, 4, 5, 7)]
    rows += [[(0, 3, 4, 7)[x % 4] for x in range(8)], [(0, 7, 4, 3)[x % 4] for x in range(8)]]
    c8 = ["order 8", "exponent 8", "classes 8", "sizes" + " 1" * 8,
          "powermap2 " + " ".join(str(2 * x % 8) for x in range(8))]
    c8 += ["chi: " + " | ".join(map(_c8_root, row)) for row in rows]
    return {"C8-mixed": "\n".join(c8) + "\n",
            "C2xC2-pm4": c2_power_table(2).replace("powermap2 0 0 0 0", "powermap2 0 2 0 2")}
