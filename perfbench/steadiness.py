"""Steadiness of the end-to-end metrics: two sets of runs on the same code.

    python3 perfbench/steadiness.py

For each workload of ``BENCHMARK.json`` it makes ``RUNS`` rounds. Each
round runs ``run.py`` once for set A and once for set B, alternating which
goes first, every run with its own seed and ``run_seconds`` from
``BENCHMARK.json``. For each end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over median), the set-to-set
difference of the medians, and how far single runs spread. Under each
workload it lists every run with the host-speed probe read before and after
its passes, so a run that fell in a slow phase of the host shows. Each run's detail and result lines are
appended to ``out/steadiness.jsonl``.

A metric passes when each set's spread is within its bound (``setup_s`` is
exempt, as in the acceptance rule) and the medians differ by no more than
the bound; the target is a spread below a third of the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
RUNS = 10  # runs per set and workload


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    *_, detail, result = proc.stdout.splitlines()
    with open(run.OUT / "steadiness.jsonl", "a") as fh:
        fh.write(detail + "\n" + result + "\n")
    detail, result = json.loads(detail), json.loads(result)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output {detail['failed_commands']}")
    return {"detail": detail, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def report(workload: str, sets: dict) -> bool:
    ok = True
    print(f"\n== {workload}: {len(sets['A'])} runs per set")
    print(f"{'metric':12s} {'set':3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'min..max/med':>13s} {'bound':>6s}")
    for name, bound in BOUNDS.items():
        medians = {}
        for label, runs in sets.items():
            values = [r["metrics"][name] for r in runs]
            med, q1, q3, spread = summary(values)
            medians[label] = med
            spread_ok = name == "setup_s" or spread <= bound
            ok &= spread_ok
            print(f"{name:12s} {label:3s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                  f"{(max(values) - min(values)) / med:13.3f} {bound:6.2f}"
                  f"{'' if spread_ok else '  SPREAD ABOVE BOUND'}"
                  f"{'  (above a third of the bound)' if spread_ok and spread > bound / 3 and name != 'setup_s' else ''}")
        diff = medians["B"] / medians["A"] - 1
        ok &= abs(diff) <= bound
        print(f"{name:12s} B/A-1 {diff:+.4f}{'' if abs(diff) <= bound else '  ABOVE BOUND'}")
    print("runs (set seed: wall_s, probe ms before/after):")
    for label, runs in sets.items():
        print("  " + label + "  " + "  ".join(
            f"{r['detail']['seed']}: {r['metrics']['wall_s']:.2f} "
            f"({r['detail']['probe_ms']['before']:.1f}/{r['detail']['probe_ms']['after']:.1f})"
            for r in runs))
    return ok


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    ok = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = 1000 * (1 + (label == "B")) + i
                sets[label].append(one_run(workload, seed))
        ok &= report(workload, sets)
    print("\nall within bounds" if ok else "\nSOME METRIC OUTSIDE ITS BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
