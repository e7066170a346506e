"""Write pins.json: the SHA-256 of every file each step of each workload's
pipeline reads and writes at the default seed, as its manifests record them.

    python3 perfbench/pin.py

Run it from the repository root, and only for a change that is meant to
change what the program writes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK_ROOT.mkdir(exist_ok=True)
    pins = {}
    for name, workload in run.WORKLOADS.items():
        cwd = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.WORK_ROOT))
        try:
            setup = workload.setup(cwd, run.DEFAULT_SEED)
            p = run.run_pass(workload, cwd, run.DEFAULT_SEED, traced=False)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        errors = [e for r in setup + p.runs for e in r.errors]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        pins[name] = p.digests
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(len(d) for steps in pins.values() for d in steps.values())} step files in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
