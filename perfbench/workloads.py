"""The benchmark's two workloads: seeded inputs, command lines and checks.

A seed only reorders and relabels inputs. It never changes the amount of
work, so the exact counters of a traced pass and every report record are the
same for every seed; ``check.py`` asserts this.

Each workload is a list of commands for ``kronkit.cli.main``. ``key`` names a
command independently of the seed and indexes the reference reports in
``reference/<workload>.json``, which were recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


@dataclass(frozen=True)
class Command:
    key: str          # seed-independent name of the command
    argv: tuple       # arguments for kronkit.cli.main, without --out
    payload: bool     # True: --out receives a character table, not a report


# -- battery -------------------------------------------------------------------

def _battery(rng: random.Random, src: Path, work: Path) -> list[Command]:
    manifest = src / "kronkit" / "data" / "battery.txt"
    lines = [ln for ln in manifest.read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    rng.shuffle(lines)
    path = work / "battery.txt"
    path.write_text("\n".join(lines) + "\n")
    return [Command("scan", ("scan", "--battery", str(path)), False)]


# -- large ---------------------------------------------------------------------

# chartab: zoo closure, generating_set and eigenspace splitting, written out
_TABLES = (("gl2", "4"), ("symmetric", "6"))
# verify with a subgroup: 1.7M tuples through the orbit kernel
_ORACLES = (("symmetric", "5", ("1", "26")),)
# verify --table-file: product tables built from golden tables, relabelled
_PRODUCTS = (("S3", "S3", "S4"), ("A5", "S3"))


def product_table_text(factors, rng: random.Random) -> str:
    """Exchange-format table of the direct product of the given tables.

    The table of G x H is the Kronecker product of the two tables. Classes
    and irreps are then permuted consistently from ``rng``; the identity
    class stays first, because the format reads degrees from column 0.
    """
    from math import lcm

    first, *rest = factors
    order, exponent = first.order, first.exponent
    sizes, powermap = list(first.sizes), list(first.powermap2)
    rows = [list(ch.values) for ch in first.irreps]
    for T in rest:
        k = T.num_classes
        exponent = lcm(exponent, T.exponent)
        order *= T.order
        sizes = [s * t for s in sizes for t in T.sizes]
        powermap = [p * k + q for p in powermap for q in T.powermap2]
        rows = [[a * b for a in row for b in ch.values]
                for row in rows for ch in T.irreps]
    k = len(sizes)
    classes = [0] + rng.sample(range(1, k), k - 1)
    new_index = {old: new for new, old in enumerate(classes)}
    rows = rng.sample(rows, k)
    lines = [
        f"order {order}",
        f"exponent {exponent}",
        f"classes {k}",
        "sizes " + " ".join(str(sizes[c]) for c in classes),
        "powermap2 " + " ".join(str(new_index[powermap[c]]) for c in classes),
    ]
    for row in rows:
        lines.append("chi: " + " | ".join(row[c].promote(exponent).serialize()
                                          for c in classes))
    return "\n".join(lines) + "\n"


def _large(rng: random.Random, src: Path, work: Path) -> list[Command]:
    from kronkit.chartab import load_table

    cmds = [Command(f"chartab {fam} {q}", ("chartab", "--family", fam, "--params", q), True)
            for fam, q in _TABLES]
    for fam, q, gens in _ORACLES:
        gens = list(gens)
        rng.shuffle(gens)
        cmds.append(Command(f"verify {fam} {q}",
                            ("verify", "--family", fam, "--params", q, "--d", "2", "3",
                             "--subgroup-gens", *gens), False))
    golden = src / "kronkit" / "data" / "golden"
    for names in _PRODUCTS:
        factors = [load_table((golden / f"{name}.tbl").read_text()) for name in names]
        key = "x".join(names)
        path = work / f"{key}.tbl"
        path.write_text(product_table_text(factors, rng))
        cmds.append(Command(f"verify {key}",
                            ("verify", "--table-file", str(path), "--d", "1", "2", "3"), False))
    rng.shuffle(cmds)
    return cmds


BUILDERS = {"battery": _battery, "large": _large}


def make_inputs(workload: str, seed: int, src: Path, work: Path) -> list[Command]:
    """Write the seeded inputs of one workload under ``work``; return its commands."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), src, work)


# -- correctness ---------------------------------------------------------------

def digest(cmd: Command, text: str) -> dict:
    """The parts of a command's output that must match the reference.

    A report is reduced to its records keyed by name, so that record order
    (shuffled battery) and the input path do not matter. A character table
    is compared byte for byte, by hash.
    """
    if cmd.payload:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                "classes": int(text.split("\nclasses ", 1)[1].split("\n", 1)[0])}
    doc = json.loads(text)
    records = {r["name"]: {k: v for k, v in r.items() if k != "name"}
               for r in doc["records"]}
    return {"records": dict(sorted(records.items())), "errors": doc.get("errors", [])}


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
