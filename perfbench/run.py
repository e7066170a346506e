"""End-to-end benchmark of the `xfervocab` command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it reads the package from `src/` and the
reference generator from `tests/conftest.py`.  A workload generates seeded
synthetic desk corpora (`gen.py`), then runs its pipeline with every step
as its own `python -m xfervocab.cli ...` process, one at a time: a closed
loop with a single client.  The set-up repeats, into the same files,
until it has run at least MIN_SETUPS times and for SETUP_SECONDS;
`setup_s` is the median of those runs.  After an untimed warm-up pass
(bytecode compilation, file cache) the pipeline repeats until the next pass
would end after S seconds; timings are medians over the timed passes.
Before every step a reference process (`python -c "import numpy"`) runs;
`wall_ref` is a pass's step time divided by its reference time, so the
host's drift in speed cancels and the program's time stays.

Workloads, and why each exists:

* `warmstart` - shared vocabulary before parent training: joint
  `learn-bpe`, `apply-bpe`, `merge-vocab --target-size`, `balanced-vocab`.
  The learner-heavy write path; no wordpiece application, no `mteval`.
* `coldstart` - parent vocabulary rewritten for a child pair:
  `transform-vocab --variant levenshtein --embeddings`, then `apply-wp`,
  `corpus filter --max-subwords` and the `diag` reports.  The read path,
  and the only workload with the parent x child edit-distance assignment.
* `evaluate` - two systems derived by `corpus pseudo` and `corpus
  corrupt`, scored by `eval bleu`, `eval bootstrap`, `eval token-analysis`.
  No learning or segmentation: the "no change" workload for learner and
  matcher work.

Every pass checks its outputs: each manifest's digests match the files on
disk, `apply-wp` lines detokenize to their input, `apply-bpe` lines with
`@@ ` joined equal their input, `embeddings.bin` equals the input matrix,
and every pass yields the same bytes as the warm-up pass.  At the default
seed every step's inputs and outputs must also match `pins.json`
(regenerate with `pin.py`).  A step fails on a non-zero exit or a failed
check; `failed` counts each failed step once.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it reports the
per-layer metrics (`traced.py`) that every workload measures, including the
tracing overhead.  Lines above it print every metric with its unit: the
per-step times, the metrics of each layer the workload enters, the exact
workload properties and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
PINS = BENCH / "pins.json"
DEFAULT_SEED = 1

MIN_SETUPS = 5
SETUP_SECONDS = 2.0

# The reference process, run before every step: Python start-up and the
# numpy import, which every step also pays, and no code of the repository.
# On a shared host the speed of such processes drifts by tens of percent
# over minutes, every step by the same factor; dividing a pass's time by
# its references' time removes that drift and keeps the program's own.
REFERENCE = [sys.executable, "-c", "import numpy"]

# Per-layer metrics for the result line: only those every workload
# measures.  A metric of a layer that some workload never enters would
# read 0 there by construction, so it is printed on the workloads that
# enter the layer and left out of the line.
PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "cli.steps": "count",
    "corpus.load_s": "s",
    "trace.overhead_s": "s",
}


def sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def step_env() -> dict[str, str]:
    """The environment of every step: the package from src/, and no
    variable that changes what the program does or how it starts."""
    drop = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")
    env = {k: v for k, v in os.environ.items() if not k.startswith("XFERVOCAB_") and k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


ENV = step_env()


@dataclass
class Step:
    label: str
    argv: list[str]
    metric: str | None = None  # step metric whose time this step adds to


@dataclass
class StepRun:
    step: Step
    seconds: float
    rss_kb: int
    errors: list[str]
    digests: dict[str, str] = field(default_factory=dict)  # manifest inputs and outputs
    spans: dict | None = None

    def compare(self, reference: dict[str, dict[str, str]], what: str) -> None:
        """Check this step read and wrote the same files as in `reference`
        (step label -> path -> digest); a step that already failed is not
        checked again."""
        if self.errors:
            return
        want = reference.get(self.step.label, {})
        differ = sorted(p for p in want.keys() | self.digests.keys() if want.get(p) != self.digests.get(p))
        if differ:
            self.errors.append(f"{self.step.label}: {', '.join(differ)} differ from {what}")


def run_process(cmd: list[str], cwd: Path, stderr) -> tuple[float, int, int]:
    """Run one process to its end; returns its wall seconds, exit code and
    peak resident set in KiB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop the process before leaving
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def run_reference(cwd: Path) -> float:
    """Wall seconds of one reference process (see REFERENCE)."""
    seconds, code, _ = run_process(REFERENCE, cwd, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"reference process {REFERENCE} exited {code}")
    return seconds


def run_cli(step: Step, cwd: Path, index: int, spans: Path | None) -> StepRun:
    manifest = f"out/manifest.{index:02d}.{step.label}.json"
    argv = ["--manifest", manifest, *step.argv]
    if spans is None:
        cmd = [sys.executable, "-m", "xfervocab.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), *argv]
    with open(cwd / "stderr.log", "w+b") as err:
        seconds, code, rss_kb = run_process(cmd, cwd, err)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip()
    run = StepRun(step, seconds, rss_kb, [])
    if code != 0:
        run.errors.append(f"{step.label}: exit {code}: {stderr[-500:]}")
    else:
        payload = json.loads((cwd / manifest).read_text(encoding="utf-8"))
        run.digests = {**payload["inputs"], **payload["outputs"]}
        for rel, digest in run.digests.items():
            if sha256(cwd / rel) != digest:
                run.errors.append(f"{step.label}: manifest digest of {rel} differs from the file")
    if spans is not None and spans.exists():
        run.spans = json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
    return run


def corpus_properties(path: Path) -> dict[str, float]:
    from xfervocab.wordpiece import pretokenize

    lines = read_lines(path)
    words = [w for line in lines for w in line.split()]
    units = {u for line in lines for u in pretokenize(line)}
    types = len(set(words))
    return {
        "sentences": len(lines),
        "word_tokens": len(words),
        "word_types": types,
        "unit_types": len(units),
        "repeat_word_share": 1 - types / len(words),
    }


class Workload:
    name = ""
    inputs: dict[str, tuple] = {}  # file -> desk_sentences arguments after the seed

    def generate(self, cwd: Path, seed: int) -> None:
        (cwd / "in").mkdir(exist_ok=True)
        for i, (name, spec) in enumerate(self.inputs.items()):
            gen.write_lines(cwd / "in" / name, gen.desk_sentences(seed * 100 + i, *spec))

    def setup(self, cwd: Path, seed: int) -> list[StepRun]:
        self.generate(cwd, seed)
        return []

    def steps(self, seed: int) -> list[Step]:
        raise NotImplementedError

    def check(self, cwd: Path) -> list[tuple[str, str]]:
        """Output checks of a pass: (label of the step at fault, message)."""
        return []

    def properties(self, cwd: Path) -> dict[str, float]:
        props = {}
        for name in self.inputs:
            for key, value in corpus_properties(cwd / "in" / name).items():
                props[f"input.{name}.{key}"] = value
        return props

    def computed_layers(self, cwd: Path) -> dict[str, float]:
        return {}


class Warmstart(Workload):
    name = "warmstart"
    # parent pair Latin/Cyrillic, child pair Greek/Armenian
    inputs = {
        "p.lt": (gen.LATIN, 700, 250),
        "p.cy": (gen.CYRILLIC, 700, 250),
        "c.gr": (gen.GREEK, 700, 250),
        "c.hy": (gen.ARMENIAN, 700, 250),
    }
    merges = 350
    merged_size = 750
    balanced_size = 750

    def generate(self, cwd: Path, seed: int) -> None:
        super().generate(cwd, seed)
        joined = "".join((cwd / "in" / name).read_text(encoding="utf-8") for name in self.inputs)
        (cwd / "in" / "train.all").write_text(joined, encoding="utf-8")

    def steps(self, seed: int) -> list[Step]:
        sides = ["in/p.lt", "in/p.cy", "in/c.gr", "in/c.hy"]
        corpora = ["--parent-source", "in/p.lt", "--parent-target", "in/p.cy",
                   "--child-source", "in/c.gr", "--child-target", "in/c.hy"]
        return [
            Step("learn-bpe", ["learn-bpe", "--input", *sides, "--merges", str(self.merges),
                               "--out", "out/joint.merges"], "learn_bpe_s"),
            Step("apply-bpe", ["apply-bpe", "--table", "out/joint.merges", "--input", "in/train.all",
                               "--out", "out/train.bpe"], "apply_bpe_s"),
            Step("merge-vocab", ["merge-vocab", *corpora, "--target-size", str(self.merged_size),
                                 "--out", "out/merged.vocab", "--report", "out/merged.tsv"], "merge_vocab_s"),
            Step("balanced-vocab", ["balanced-vocab", *corpora, "--target-size", str(self.balanced_size),
                                    "--seed", str(seed), "--out", "out/balanced.vocab"], "balanced_vocab_s"),
        ]

    def check(self, cwd: Path) -> list[tuple[str, str]]:
        source = read_lines(cwd / "in" / "train.all")
        joined = [line.replace("@@ ", "") for line in read_lines(cwd / "out" / "train.bpe")]
        if joined != source:
            return [("apply-bpe", "output with '@@ ' joined differs from its input")]
        return []

    def computed_layers(self, cwd: Path) -> dict[str, float]:
        rows = read_lines(cwd / "out" / "merged.tsv")
        report = dict(zip(rows[0].split("\t"), rows[1].split("\t")))
        return {"sharedvocab.merged.attempts": int(report["iterations"])}


class Coldstart(Workload):
    name = "coldstart"
    # The child's second script has longer words over a larger alphabet.
    inputs = {
        "p.lt": (gen.LATIN, 1_500, 400),
        "p.cy": (gen.CYRILLIC, 1_500, 400),
        "c.lt": (gen.LATIN, 600, 300),
        "c.hy": (gen.ARMENIAN, 600, 400, (3, 12)),
    }
    parent_size = 600
    parent_train_sentences = 2_000  # all of p.lt, a third of p.cy
    embedding_dim = 64
    max_subwords = 40

    def setup(self, cwd: Path, seed: int) -> list[StepRun]:
        self.generate(cwd, seed)
        learn = Step("learn-wp", ["learn-wp", "--input", "in/p.lt", "in/p.cy",
                                  "--target-size", str(self.parent_size),
                                  "--max-train-sentences", str(self.parent_train_sentences),
                                  "--out", "in/parent.vocab"])
        (cwd / "out").mkdir(exist_ok=True)
        run = run_cli(learn, cwd, 0, None)
        if not run.errors:
            rows = len(read_lines(cwd / "in" / "parent.vocab"))
            matrix = np.random.default_rng(seed).standard_normal((rows, self.embedding_dim))
            with open(cwd / "in" / "parent.emb", "wb") as fh:
                fh.write(np.array([rows, self.embedding_dim], dtype="<u4").tobytes())
                fh.write(matrix.astype("<f4").tobytes())
        return [run]

    def steps(self, seed: int) -> list[Step]:
        vocab = ["--vocab", "out/bundle/vocabulary.txt"]
        child = ["in/c.lt", "in/c.hy"]
        pair = ["--source", "in/c.lt", "--target", "in/c.hy"]
        return [
            Step("transform-vocab", ["transform-vocab", "--parent-vocab", "in/parent.vocab", "--child", *child,
                                     "--variant", "levenshtein", "--embeddings", "in/parent.emb",
                                     "--out-dir", "out/bundle"], "transform_vocab_s"),
            Step("apply-wp-lt", ["apply-wp", *vocab, "--input", "in/c.lt", "--out", "out/c.lt.wp"], "segment_s"),
            Step("apply-wp-hy", ["apply-wp", *vocab, "--input", "in/c.hy", "--out", "out/c.hy.wp"], "segment_s"),
            Step("filter", ["corpus", "filter", *pair, "--max-subwords", str(self.max_subwords), *vocab,
                            "--out-source", "out/f.lt", "--out-target", "out/f.hy",
                            "--report", "out/filter.tsv"], "segment_s"),
            Step("overlap", ["diag", "overlap", *vocab, "--corpus", "plt=in/p.lt", "--corpus", "pcy=in/p.cy",
                             "--corpus", "clt=in/c.lt", "--corpus", "chy=in/c.hy", "--parent", "plt",
                             "--parent", "pcy", "--child", "clt", "--child", "chy",
                             "--out", "out/overlap.tsv"], "segment_s"),
            Step("rate", ["diag", "rate", *vocab, "--input", *child, "--out", "out/rate.tsv"], "segment_s"),
            Step("usage", ["diag", "usage", *vocab, "--input", *child, "--char-range", "0x0530-0x058F",
                           "--out", "out/usage.tsv"], "segment_s"),
            Step("filter-impact", ["diag", "filter-impact", *vocab, *pair, "--threshold", str(self.max_subwords),
                                   "--out", "out/impact.tsv"], "segment_s"),
        ]

    def check(self, cwd: Path) -> list[tuple[str, str]]:
        from xfervocab.wordpiece import detokenize

        errors = []
        for side in ("lt", "hy"):
            source = read_lines(cwd / "in" / f"c.{side}")
            segmented = read_lines(cwd / "out" / f"c.{side}.wp")
            if [detokenize(line.split(" ")) for line in segmented] != source:
                errors.append((f"apply-wp-{side}", "detokenized output differs from its input"))
        if (cwd / "out/bundle/embeddings.bin").read_bytes() != (cwd / "in/parent.emb").read_bytes():
            errors.append(("transform-vocab", "embeddings.bin differs from the input matrix"))
        return errors

    def computed_layers(self, cwd: Path) -> dict[str, float]:
        """Size of the edit-distance DP over the unshared slots, computed
        from the mapping: every (parent, child) pair for every character
        position, with two int64 layers of (max child length + 1) live."""
        free_parents, remaining = [], []
        for row in read_lines(cwd / "out/bundle/mapping.tsv")[1:]:
            _, parent, child, shared = row.split("\t")
            if shared == "false":
                free_parents.append(parent)
                if child != parent:
                    remaining.append(child)
        pairs = len(free_parents) * len(remaining)
        max_p = max(map(len, free_parents), default=0)
        max_c = max(map(len, remaining), default=0)
        return {
            "transfer.map.dp_cells": pairs * max_p * max_c,
            "transfer.map.dp_bytes": 2 * 8 * pairs * (max_c + 1),
        }


class Evaluate(Workload):
    name = "evaluate"
    inputs = {
        "src.cy": (gen.CYRILLIC, 5_000, 1_500),
        "ref.lt": (gen.LATIN, 5_000, 1_500),
    }
    samples = 1000
    n_max = 4

    def steps(self, seed: int) -> list[Step]:
        pair = ["--source", "in/src.cy", "--target", "in/ref.lt"]
        ref = ["--references", "in/ref.lt"]
        return [
            Step("pseudo", ["corpus", "pseudo", *pair, "--keep-percent", "0.9", "--seed", str(seed),
                            "--out-source", "out/a.src", "--out-target", "out/sys_a.txt"]),
            Step("corrupt", ["corpus", "corrupt", *pair, "--mode", "shuffle_target", "--seed", str(seed),
                             "--out-source", "out/b.src", "--out-target", "out/sys_b.txt"]),
            Step("bleu-a", ["eval", "bleu", "--candidates", "out/sys_a.txt", *ref, "--out", "out/bleu_a.tsv"],
                 "bleu_s"),
            Step("bleu-b", ["eval", "bleu", "--candidates", "out/sys_b.txt", *ref, "--out", "out/bleu_b.tsv"],
                 "bleu_s"),
            Step("bootstrap", ["eval", "bootstrap", "--candidates-a", "out/sys_a.txt", "--candidates-b",
                               "out/sys_b.txt", *ref, "--samples", str(self.samples), "--seed", str(seed),
                               "--out", "out/bootstrap.tsv"], "bootstrap_s"),
            Step("token-analysis", ["eval", "token-analysis", "--child", "out/sys_a.txt", "--baseline",
                                    "out/sys_b.txt", *ref, "--out", "out/tokens.tsv"]),
        ]

    def computed_layers(self, cwd: Path) -> dict[str, float]:
        """Bytes the bootstrap gathers: both systems' per-sentence statistics
        rows (2 * n_max + 2 int64) for every sentence of every sample."""
        n = len(read_lines(cwd / "in" / "ref.lt"))
        return {"mteval.bootstrap.gather_bytes": 2 * self.samples * n * (2 * self.n_max + 2) * 8}


WORKLOADS = {w.name: w for w in (Warmstart(), Coldstart(), Evaluate())}


@dataclass
class Pass:
    runs: list[StepRun]
    refs: list[float]  # wall seconds of the reference process before each step

    @property
    def wall(self) -> float:
        """The pipeline's time: the sum of its step processes' wall times."""
        return sum(run.seconds for run in self.runs)

    @property
    def wall_ref(self) -> float:
        """The pipeline's time over the time of its reference processes."""
        return self.wall / sum(self.refs)

    @property
    def digests(self) -> dict[str, dict[str, str]]:
        """Step label -> path -> digest of what the step read and wrote."""
        return {run.step.label: dict(sorted(run.digests.items())) for run in self.runs}

    def compare(self, reference: dict[str, dict[str, str]], what: str) -> None:
        for run in self.runs:
            run.compare(reference, what)


def run_pass(workload: Workload, cwd: Path, seed: int, traced: bool) -> Pass:
    """One pass of the pipeline, each step preceded by a reference process;
    every error is attached to its step."""
    out = cwd / "out"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    result = Pass([], [])
    for i, step in enumerate(workload.steps(seed), start=1):
        result.refs.append(run_reference(cwd))
        result.runs.append(run_cli(step, cwd, i, cwd / f"spans.{i:02d}.json" if traced else None))
    runs = result.runs
    if not any(run.errors for run in runs):
        by_label = {run.step.label: run for run in runs}
        for label, message in workload.check(cwd):
            by_label[label].errors.append(f"{label}: {message}")
    return result


def manifest_bytes(cwd: Path) -> tuple[int, int]:
    """Bytes the pass's steps read and wrote, summed over steps."""
    read = written = 0
    for path in (cwd / "out").glob("manifest.*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        read += sum((cwd / rel).stat().st_size for rel in payload["inputs"])
        written += sum((cwd / rel).stat().st_size for rel in payload["outputs"])
    return read, written


def layer_metrics(workload: Workload, cwd: Path, p: Pass) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced pass, and the largest gap, over its
    processes, between summed self times and top-level span time.  A layer
    the pass never entered gets no metrics."""
    times: dict[str, float] = {"cli.self": 0.0, "trace.bookkeeping": 0.0}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    residual = 0.0
    builds = build_learns = 0
    segmented: set[str] = set()
    for run in p.runs:
        spans = run.spans
        names = {s["id"]: s["name"] for s in spans["spans"]}
        parents = {s["id"]: s["parent"] for s in spans["spans"]}
        summed = spans["bookkeeping_s"]
        for s in spans["spans"]:
            times[s["name"]] = times.get(s["name"], 0.0) + s["self"]
            summed += s["self"]
            builds += s["name"].startswith("sharedvocab.")
            if s["call"] == "learn":
                anc = s["parent"]
                while anc and not names[anc].startswith("sharedvocab."):
                    anc = parents[anc]
                build_learns += bool(anc)
        for f in spans["fine"]:
            times[f["name"]] = times.get(f["name"], 0.0) + f["self"]
            calls[f["name"]] = calls.get(f["name"], 0) + f["calls"]
            summed += f["self"]
        for key, value in spans["counts"].items():
            counts[key] = counts.get(key, 0) + value
        segmented.update(spans["sentences"])
        residual = max(residual, abs(summed - spans["top_level_s"]))
        times["cli.self"] += run.seconds - spans["top_level_s"]
        times["trace.bookkeeping"] += spans["bookkeeping_s"]

    def c(name: str) -> float:
        return counts.get(name, 0)

    metrics = {f"{name}_s": value for name, value in times.items()}
    bytes_in, bytes_out = manifest_bytes(cwd)
    metrics.update({"cli.steps": len(p.runs), "cli.bytes_in": bytes_in, "cli.bytes_out": bytes_out})
    if "corpus.sample_equal" in times:
        metrics["corpus.sample_equal.pairs"] = c("corpus.sample_equal.pairs")
    if "wordpiece.learn" in times:
        metrics.update({
            "wordpiece.learn.calls": c("wordpiece.learn.calls"),
            "wordpiece.learn.unit_types": c("wordpiece.learn.unit_types"),
            "wordpiece.learn.within_tolerance_ratio": c("wordpiece.learn.within_tolerance")
            / c("wordpiece.learn.calls"),
        })
    if "wordpiece.apply" in calls:
        metrics.update({
            "wordpiece.apply.sentences": calls["wordpiece.apply"],
            "wordpiece.apply.tokens": c("wordpiece.apply.tokens"),
            "wordpiece.apply.resegment_ratio": calls["wordpiece.apply"] / len(segmented),
            "wordpiece.apply.repeat_word_share": 1 - c("wordpiece.apply.words.distinct") / c("wordpiece.apply.words"),
            "wordpiece.apply.escape_token_share": c("wordpiece.apply.escape_tokens") / c("wordpiece.apply.tokens"),
        })
    if "bpe.learn" in times:
        metrics.update({
            "bpe.learn.ms_per_merge": 1000 * times["bpe.learn"] / c("bpe.learn.merges"),
            "bpe.learn.merges_ratio": c("bpe.learn.merges") / c("bpe.learn.merges_requested"),
            "bpe.learn.word_types": c("bpe.learn.word_types"),
        })
    if "bpe.apply" in calls:
        metrics.update({
            "bpe.apply.words": c("bpe.apply.words"),
            "bpe.apply.repeat_word_share": 1 - c("bpe.apply.words.distinct") / c("bpe.apply.words"),
        })
    if builds:
        metrics["sharedvocab.learn_calls_per_build"] = build_learns / builds
    if "mteval.sentence_stats" in times:
        metrics["mteval.sentence_stats.calls"] = c("mteval.sentence_stats.calls")
    if "mteval.tokenize" in calls:
        metrics.update({
            "mteval.tokenize.calls": calls["mteval.tokenize"],
            "mteval.tokenize.unique_ratio": c("mteval.tokenize.strings.distinct") / calls["mteval.tokenize"],
        })
    metrics.update(workload.computed_layers(cwd))
    return metrics, residual


LAYER_UNITS = {"_s": "s", "ms_per_merge": "ms", "_ratio": "ratio", "_share": "ratio", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    return next((unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(name: str, values: list[float], unit: str) -> None:
    q1, q2, q3 = quartiles(values)
    print(f"{name:<40} {q2:>14.6f} {unit:<6} p25 {q1:.6f} p75 {q3:.6f} min {min(values):.6f} n {len(values)}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_pins(workload: str) -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text(encoding="utf-8"))[workload]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, cwd: Path) -> dict:
    """Set up, warm up and measure one workload; returns the result line."""
    problems: list[str] = []
    attempted = failed = 0

    def account(runs: list[StepRun]) -> None:
        nonlocal attempted, failed
        attempted += len(runs)
        failed += sum(1 for r in runs if r.errors)
        problems.extend(e for r in runs for e in r.errors)

    setup_times: list[float] = []
    inputs = None
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        runs = workload.setup(cwd, seed)
        setup_times.append(time.perf_counter() - t0)
        account(runs)
        written = {p.name: sha256(p) for p in sorted((cwd / "in").iterdir())}
        if inputs is not None and written != inputs:
            problems.append("setup: a repeated set-up wrote different inputs")
        inputs = written
    properties = workload.properties(cwd)

    warm = run_pass(workload, cwd, seed, traced=False)
    if seed == DEFAULT_SEED:
        warm.compare(load_pins(workload.name), PINS.name)
    account(warm.runs)
    if not any(run.errors for run in warm.runs):
        properties.update(workload.computed_layers(cwd))

    untraced: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    residual = 0.0
    start = time.perf_counter()
    while True:
        is_traced = trace and len(traced) < len(untraced)
        t0 = time.perf_counter()
        p = run_pass(workload, cwd, seed, is_traced)
        elapsed = time.perf_counter() - t0
        p.compare(warm.digests, "the warm-up pass")
        account(p.runs)
        (traced if is_traced else untraced).append(p)
        if is_traced and not any(run.errors for run in p.runs):
            metrics, gap = layer_metrics(workload, cwd, p)
            layers.append(metrics)
            residual = max(residual, gap)
        if time.perf_counter() - start + elapsed > seconds and (traced or not trace):
            break

    print(f"# xfervocab pipeline benchmark: workload {workload.name}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print(f"env python {platform.python_version()} numpy {np.__version__} "
          f"cpu_count {os.cpu_count()} cpu_model {cpu_model()!r}")
    for name, value in properties.items():
        print(f"property {name} {value!r}")
    print(f"steps {', '.join(step.label for step in workload.steps(seed))}")

    setup_s = statistics.median(setup_times)
    walls = [p.wall for p in untraced]
    peak_mb = max(r.rss_kb for p in untraced for r in p.runs) / 1024
    report("setup_s", setup_times, "s")
    report("wall_s", walls, "s")
    report("reference_s", [r for p in untraced for r in p.refs], "s")
    report("wall_ref", [p.wall_ref for p in untraced], "ref")
    print(f"{'peak_rss_mb':<40} {peak_mb:>14.6f} MB     largest over {len(untraced)} passes")
    for metric in dict.fromkeys(s.metric for s in workload.steps(seed) if s.metric):
        report(metric, [sum(r.seconds for r in p.runs if r.step.metric == metric) for p in untraced], "s")
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6f} ratio  {failed} of {attempted} steps")

    result_metrics: dict[str, dict] = {}
    if trace:
        if not layers:
            problems.append("no traced pass completed")
        else:
            overhead = statistics.median(p.wall for p in traced) - statistics.median(walls)
            for metrics in layers:
                metrics["trace.overhead_s"] = overhead
            for name in sorted(layers[0]):
                values = [m[name] for m in layers]
                unit = layer_unit(name)
                if unit in ("s", "ms"):
                    report(name, values, unit)
                else:
                    if any(v != values[0] for v in values):
                        problems.append(f"layer count {name} differs between traced passes")
                    print(f"{name:<40} {values[0]!r:>14} {unit}")
            print(f"trace self-time residual {residual:.3g} s (self times + bookkeeping vs top-level spans)")
            if residual > 1e-3:
                problems.append(f"trace self times miss their spans by {residual:.3g} s")
            for name, unit in PER_LAYER.items():
                values = [m[name] for m in layers]
                value = statistics.median(values) if unit == "s" else values[0]  # counts repeat exactly
                result_metrics[name] = {"value": value, "unit": unit}
    else:
        result_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": statistics.median(p.wall_ref for p in untraced), "unit": "ref"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for problem in dict.fromkeys(problems):
        print(f"FAIL {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "xfervocab" / "cli.py").is_file():
        print(f"perfbench: no xfervocab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gen.self_check(ROOT / "tests")

    WORK_ROOT.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
