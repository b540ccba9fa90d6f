"""Run one kronkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 60 --trace 0

One run is one fresh, single-threaded Python process and a closed loop with
one client: it calls ``kronkit.cli.main`` (imported from ``src/``) on the
commands of one workload, back to back. One such sequence is a pass. Passes
repeat until the next one would end after ``--seconds``, with at least
``MIN_PASSES``; where three passes take longer than ``--seconds``, that
floor sets the run's length. kronkit's memo caches are emptied before every
pass, so each pass starts as cold as a one-shot CLI call. Every report is
checked against ``reference/``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of ``SETUP_REPS`` set-ups, each a fresh import of
kronkit in a new interpreter plus writing the seeded inputs) and
``peak_rss_mb`` (peak resident memory of this process).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``layers.py`` (median over traced passes), ``run.cpu_s`` and
``trace.overhead_s`` (traced minus untraced median pass); it also writes the
spans of the first traced pass to ``perfbench/out/``.

The line before the result holds what is reported but not gated: the
environment, the host-speed probe before and after the passes, every pass
time in order (``pass_s[0]`` is the first pass), CPU time, the slowest pass
and the set-up samples. A host's CPU speed can swing between fast and slow
phases that last longer than a pass; the probe tells which runs fell in a
slow one.

The last line is the result: ``correct``, ``attempted`` and ``failed``
(commands) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from layers import COUNTS, Tracer, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3       # a median of three cannot be set by one slow pass
SETUP_REPS = 5
PROBE_REPS = 5

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import kronkit.cli; "
                 "print(time.perf_counter() - t)")


def probe_ms() -> float:
    """Median time of a fixed pure-Python Fraction loop, in ms."""
    samples = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2000):
            total += Fraction(1, i)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def clear_caches() -> list[str]:
    """Empty every memo cache of kronkit's modules; return the names cleared.

    kronkit keeps ``lru_cache`` memos across ``cli.main`` calls. Clearing
    them before each pass makes every pass as cold as a one-shot CLI call,
    so memoising across calls cannot lower ``wall_s``.
    """
    cleared = []
    for name, mod in list(sys.modules.items()):
        if name == "kronkit" or name.startswith("kronkit."):
            for attr, obj in vars(mod).items():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
                    cleared.append(f"{name}.{attr}")
    return cleared


def environment() -> dict:
    import numpy
    from kronkit import _kernels

    return {
        "kernel": _kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int, work: Path):
    """Set up ``SETUP_REPS`` times; return (median seconds, samples, commands)."""
    samples, cmds = [], None
    for rep in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        inputs = work / f"setup{rep}"
        inputs.mkdir()
        start = time.perf_counter()
        cmds = workloads.make_inputs(workload, seed, SRC, inputs)
        samples.append(float(proc.stdout) + time.perf_counter() - start)
    return statistics.median(samples), samples, cmds


class Pass:
    """One pass: every command of the workload, back to back."""

    def __init__(self, cmds, work: Path, tracer=None):
        from kronkit import cli

        outs = [work / f"out{i}.txt" for i in range(len(cmds))]
        self.codes, self.errors = [], []
        scope = tracer.installed() if tracer else contextlib.nullcontext()
        clear_caches()
        gc.collect()  # so that no pass pays for the previous one's garbage
        with scope:
            cpu, start = time.process_time(), time.perf_counter()
            for cmd, out in zip(cmds, outs):
                try:
                    self.codes.append(cli.main([*cmd.argv, "--out", str(out)]))
                except Exception as exc:  # a crash is a failed command, not a failed run
                    self.codes.append(None)
                    self.errors.append(f"{cmd.key}: {type(exc).__name__}: {exc}")
            self.wall = time.perf_counter() - start
            self.cpu = time.process_time() - cpu
        self.texts = [out.read_text() if out.exists() else "" for out in outs]
        for out in outs:
            out.unlink(missing_ok=True)

    def failures(self, cmds, reference: dict) -> list[str]:
        """Keys of the commands whose exit code or output is wrong."""
        bad = []
        for cmd, code, text in zip(cmds, self.codes, self.texts):
            try:
                ok = code == 0 and workloads.digest(cmd, text) == reference[cmd.key]
            except (ValueError, KeyError, IndexError):
                ok = False
            if not ok:
                bad.append(cmd.key)
        return bad


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    setup_s, setup_samples, cmds = measure_setup(workload, seed, work)
    reference = workloads.load_reference(workload)
    probe_before = probe_ms()
    plain, layered, failures, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced and len(plain) > len(layered) else None
        p = Pass(cmds, work, tracer)
        bad = p.failures(cmds, reference)
        if tracer is None:
            plain.append(p)
        else:
            layered.append((p, tracer.metrics()))
            if len(layered) == 1:
                tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
            # tracing must not change a single byte of any report
            bad += [c.key for c, a, b in zip(cmds, plain[0].texts, p.texts) if a != b]
        failures += bad
        errors += p.errors
        done = len(plain) + len(layered)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for q in plain)
        if done >= (2 if traced else MIN_PASSES) and elapsed + typical > seconds:
            break
    probe_after = probe_ms()

    walls = [p.wall for p in plain]
    wall_s = statistics.median(walls)
    cpu_s = statistics.median(p.cpu for p in plain)
    if traced:
        metrics = median_metrics([m for _, m in layered])
        metrics["run.cpu_s"] = cpu_s
        metrics["trace.overhead_s"] = statistics.median(p.wall for p, _ in layered) - wall_s
        units = {name: ("count" if name in COUNTS else
                        "1/s" if name.endswith("_per_s") else "s") for name in metrics}
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    detail = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "environment": environment(),
        "probe_ms": {"before": probe_before, "after": probe_after},
        "pass_s": walls,
        "traced_pass_s": [p.wall for p, _ in layered],
        "cpu_s": cpu_s,
        "slowest_pass_s": {"value": max(walls), "of_passes": len(walls)},
        "setup_samples_s": setup_samples,
        "failed_commands": sorted(set(failures)),
        "errors": errors,
    }
    attempted = len(cmds) * (len(plain) + len(layered))
    return {
        "detail": detail,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kronkit" / "cli.py").is_file():
        print(f"error: no kronkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kronkit.cli  # noqa: F401  (the set-up's fresh imports run in children)

    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
