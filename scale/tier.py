"""Command line shared by the scale-tier scripts.

Each case runs in a fresh Python process that imports the package from
`--src` (default `src/`, so an older checkout's `src/` can be measured the
same way) and prints one JSON line.  A script may also give a `prepare`
step: it runs in a fresh process of its own, with this checkout's `src/`,
and its JSON result reaches the case's process on stdin, so every checkout
measures the same inputs and the case's peak memory holds none of their
making.  The launching process stays small: a child's `ru_maxrss` starts
from its parent's resident size at the fork.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent


def desk_generator():
    """`perfbench/gen.py`, the benchmark's seeded corpus generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    return gen


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(
    argv: list[str],
    script: str,
    doc: str,
    cases: Sequence[str],
    measure: Callable[..., dict],
    prepare: Callable[[str], Any] | None = None,
) -> int:
    """Run each named case as `script --child` and print its JSON line.
    measure(case, src) gives the line, or measure(case, src, prepared) when
    prepare is given."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("cases", nargs="*", default=list(cases), help=f"any of {', '.join(cases)} (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(cases))
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}; choose from {', '.join(cases)}")
    if args.prepare:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(prepare(args.cases[0])))
        return 0
    if args.child:
        extra = [json.load(sys.stdin)] if prepare else []
        print(json.dumps(measure(args.cases[0], args.src.resolve(), *extra)))
        return 0
    for case in args.cases:
        stdin = None
        if prepare:
            stdin = subprocess.run([sys.executable, script, "--prepare", case],
                                   capture_output=True, text=True, check=True).stdout
        run = subprocess.run(
            [sys.executable, script, "--child", "--src", str(args.src), case],
            input=stdin, capture_output=True, text=True, check=True,
        )
        print(run.stdout.strip(), flush=True)
    return 0
