"""Record the reference reports that every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Run it only at a commit whose reports are known to be right: a later commit
must reproduce these records exactly. The seed does not matter, because
records are keyed by name and the seed changes no record's value.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in sorted(workloads.BUILDERS):
            cmds = workloads.make_inputs(name, 0, run.SRC, work)
            p = run.Pass(cmds, work)
            if p.errors or any(code != 0 for code in p.codes):
                print(f"{name}: exit codes {p.codes} {p.errors}", file=sys.stderr)
                return 1
            ref = {c.key: workloads.digest(c, t) for c, t in zip(cmds, p.texts)}
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(dict(sorted(ref.items())), indent=1) + "\n")
            print(f"{name}: {len(cmds)} commands in {p.wall:.2f} s -> {path.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
