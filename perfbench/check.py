"""Self-test of the benchmark: trace coverage, exact counters, seed invariance.

    python3 perfbench/check.py

It checks, and exits 1 naming each failure:

1. While the tracer is installed, no module or class of kronkit still holds
   an unwrapped traced function (for example ``cli.character_table`` or
   the kernel that ``orbits`` reaches as ``_kernels.conjugation_orbit_roots``),
   and every binding is restored afterwards.
2. For each workload, two traced runs with different seeds are correct (so
   their record values equal the same name-keyed reference, and each traced
   report is byte-identical to the untraced one) and give identical exact
   counters: the seed reorders and relabels inputs but never changes the work.
3. The spans file of each traced run is well formed: every span lies inside
   its parent, and self times are not negative.
4. ``run.clear_caches``, called before every pass, finds kronkit's memo
   caches and empties them.
5. In a directory that holds only ``BENCHMARK.json`` and this directory,
   ``run.py`` exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import run
import workloads
from layers import COUNTS, LAYERS, Tracer

SEEDS = (1, 2)
_EPS = 1e-6  # seconds; clock reads of one span may differ by this little


def _namespaces():
    """Every kronkit module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if name == "kronkit" or name.startswith("kronkit."):
            yield mod
            for obj in vars(mod).values():
                if isinstance(obj, type) and obj.__module__.startswith("kronkit"):
                    yield obj


def check_bindings() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    import kronkit.cli  # noqa: F401

    before = {(id(ns), attr): obj for ns in _namespaces() for attr, obj in vars(ns).items()}
    tracer = Tracer()
    errors = []
    with tracer.installed():
        originals = {id(orig) for _, _, orig in tracer._patches}
        for ns in _namespaces():
            for attr, obj in vars(ns).items():
                if id(obj) in originals:
                    errors.append(f"{ns.__name__}.{attr} escapes the trace")
        cli = sys.modules["kronkit.cli"]
        for ns, attr in ((cli, "character_table"), (cli, "load_table"), (cli, "zoo_build"),
                         (cli, "dump_table"), (sys.modules["kronkit.kron"], "fs_indicators"),
                         (sys.modules["kronkit.orbits"]._kernels, "conjugation_orbit_roots")):
            if not hasattr(getattr(ns, attr), "__wrapped__"):
                errors.append(f"{ns.__name__}.{attr} is not wrapped")
        for layer in LAYERS:
            public = [a for a, o in vars(sys.modules["kronkit." + layer]).items()
                      if isinstance(o, types.FunctionType) and not a.startswith("_")]
            if not public:
                errors.append(f"layer {layer} has no traced function")
    after = {(id(ns), attr): obj for ns in _namespaces() for attr, obj in vars(ns).items()}
    if after != before:
        errors.append("the tracer did not restore every binding")
    return errors


def check_caches() -> list[str]:
    """``run.clear_caches`` reaches kronkit's memo caches and empties them."""
    from kronkit import cyclo, zoo

    cyclo.power_basis(12)
    zoo.make_field(4)
    cleared = run.clear_caches()
    errors = [f"{name} is not cleared before a pass"
              for name in ("kronkit.cyclo.power_basis", "kronkit.cyclo.cyclotomic_polynomial",
                           "kronkit.zoo.make_field") if name not in cleared]
    errors += [f"{fn.__name__} still holds {fn.cache_info().currsize} entries"
               for fn in (cyclo.power_basis, cyclo.cyclotomic_polynomial, zoo.make_field)
               if fn.cache_info().currsize]
    return errors


def _run(args: list[str], cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_spans(path) -> list[str]:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    errors = []
    own = {}
    for s in spans:
        own[s["name"]] = own.get(s["name"], 0.0) + s["end"] - s["start"]
        parent = s["parent"]
        if parent is None:
            continue
        p = spans[parent]
        if not (parent < s["id"] and p["start"] <= s["start"] and s["end"] <= p["end"]):
            errors.append(f"{path.name}: span {s['id']} lies outside its parent {parent}")
        own[p["name"]] = own.get(p["name"], 0.0) - (s["end"] - s["start"])
    errors += [f"{path.name}: negative self time of {name}"
               for name, t in own.items() if t < -_EPS]
    if not spans or any(s["parent"] is None and s["name"] != "cli.main" for s in spans):
        errors.append(f"{path.name}: a root span is not cli.main")
    return errors


def check_workload(name: str) -> list[str]:
    errors, counts = [], {}
    for seed in SEEDS:
        proc = _run(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
        if proc.returncode != 0:
            return [f"{name} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            errors.append(f"{name} seed {seed}: {proc.stdout.splitlines()[-2]}")
        counts[seed] = {k: result["metrics"][k]["value"] for k in COUNTS}
        errors += check_spans(run.OUT / f"spans-{name}-seed{seed}.jsonl")
    first, second = (counts[s] for s in SEEDS)
    errors += [f"{name}: {k} is {first[k]} with seed {SEEDS[0]} but {second[k]} with seed {SEEDS[1]}"
               for k in COUNTS if first[k] != second[k]]
    print(f"{name}: counters {first}", flush=True)
    return errors


def check_bare() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py succeeded without kronkit's sources"]
    return []


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    errors = check_bindings() + check_caches() + check_bare()
    for name in sorted(workloads.BUILDERS):
        errors += check_workload(name)
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
