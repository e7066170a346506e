"""The harness shared by the scale-tier scripts.

Each case runs in a fresh Python process that imports the package from
`--src` (default `src/`, so an older checkout's `src/` can be measured the
same way) and prints one JSON line.  A script may also give a `prepare`
step: it runs in a fresh process of its own, with this checkout's `src/`,
and its JSON result reaches the case's process on stdin, so every checkout
measures the same inputs and the case's peak memory holds none of their
making.  The launching process stays small: a child's `ru_maxrss` starts
from its parent's resident size at the fork.

A case's line holds `case`, `src` (the package directory it imported),
`corpus_maxrss_mb` (the process's `ru_maxrss` once the case's inputs exist,
before any package code runs), `maxrss_mb` (the same at the end), and the
fields its script measures through a `Probe`: seconds of timed calls,
SHA-256 digests of outputs, and what the script adds itself.

The corpora come from `perfbench/gen.py`'s seeded desk generator: `desk`
reads one of `CORPORA` at one of `SIZES`, so every script spells a corpus
the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent

# The desk corpora the tiers read: generator alphabet and seed.  A parent
# vocabulary is learned from lt + cy, a child one from lt3 + hy.
CORPORA = {"lt": ("LATIN", 1), "cy": ("CYRILLIC", 2), "lt3": ("LATIN", 3), "hy": ("ARMENIAN", 4), "lt5": ("LATIN", 5)}
# Sentences and word types a corpus is generated at.
SIZES = {"5k": (5000, 1500), "20k": (20_000, 8000), "50k": (50_000, 20_000), "100k": (100_000, 60_000)}


def desk_generator():
    """`perfbench/gen.py`, the benchmark's seeded corpus generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    return gen


def desk(name: str, size: str) -> list[str]:
    """The sentences of desk corpus `name` (a key of CORPORA) at `size` (a key of SIZES)."""
    gen = desk_generator()
    alphabet, seed = CORPORA[name]
    return gen.desk_sentences(seed, getattr(gen, alphabet), *SIZES[size])


def long_word_corpus(length: int) -> list[str]:
    """The 5k `lt5` corpus plus one sentence holding one random Latin word of
    `length` letters, seeded by its length."""
    gen = desk_generator()
    return desk("lt5", "5k") + ["".join(random.Random(length).choices(gen.LATIN, k=length))]


def maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


class Probe:
    """What one case's process measures, field by field.  `tmp` is a
    directory that lives as long as the case."""

    def __init__(self, src: Path, tmp: Path):
        self.src, self.tmp = src, tmp
        self.seconds: dict[str, float] = {}
        self.digests: dict[str, Any] = {}
        self.corpus_maxrss_mb: float | None = None

    def start(self) -> None:
        """Once the case's inputs exist: record `corpus_maxrss_mb` and import the package from `src`."""
        self.corpus_maxrss_mb = maxrss_mb()
        sys.path.insert(0, str(self.src))

    def time(self, field: str, func: Callable, *args):
        """func(*args), its seconds added to `field`."""
        start = perf_counter()
        result = func(*args)
        self.seconds[field] = self.seconds.get(field, 0.0) + perf_counter() - start
        return result

    def write(self, name: str, lines: Iterable[str]) -> Path:
        """A file of `tmp` holding the lines, each ended by a newline."""
        path = self.tmp / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def run(self, field: str, *argv) -> None:
        """The CLI command `argv` (paths allowed), timed into `field`; a nonzero exit raises."""
        from xfervocab import cli

        argv = [str(arg) for arg in argv]
        code = self.time(field, cli.main, argv)
        if code:
            raise RuntimeError(f"xfervocab {' '.join(argv)} exited {code}")

    def hash(self, data: str | bytes, field: str = "digest") -> str:
        """Adds `data` (text as UTF-8) to the SHA-256 of `field`; returns its hex digest so far."""
        digest = self.digests.setdefault(field, hashlib.sha256())
        digest.update(data.encode("utf-8") if isinstance(data, str) else data)
        return digest.hexdigest()

    def fields(self) -> dict:
        return {
            "corpus_maxrss_mb": self.corpus_maxrss_mb,
            **{field: round(seconds, 4) for field, seconds in self.seconds.items()},
            **{field: digest.hexdigest() for field, digest in self.digests.items()},
        }


def main(
    argv: list[str],
    script: str,
    doc: str,
    cases: Sequence[str],
    measure: Callable[..., dict],
    prepare: Callable[[str], Any] | None = None,
) -> int:
    """Run each named case as `script --child` and print its JSON line.
    measure(case, probe) gives the script's own fields, or
    measure(case, probe, prepared) when prepare is given."""
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
        case, src = args.cases[0], args.src.resolve()
        extra = [json.load(sys.stdin)] if prepare else []
        with tempfile.TemporaryDirectory() as tmp:
            probe = Probe(src, Path(tmp))
            own = measure(case, probe, *extra)
        print(json.dumps({"case": case, **probe.fields(), **own, "maxrss_mb": maxrss_mb(), "src": str(src)}))
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
