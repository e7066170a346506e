"""Seeded synthetic desk corpora for the benchmark.

`desk_sentences` yields exactly the lines of the test suite's
`tests/conftest.py::desk_sentences` for the same seed and arguments (run
`python3 perfbench/gen.py` to check), but precomputes the cumulative Zipf
weights once instead of passing `weights=` to every `choices` call, which
rebuilds them per sentence.  The extra `word_len` argument (default equal to
the conftest generator) makes longer-word scripts.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

LATIN = "abcdefghijklmnop"
CYRILLIC = "абвгдежзиклмноп"
GREEK = "αβγδεζηθικλμνξοπρστ"
ARMENIAN = "աբգդեզէըթժիլխծկհձղճմյնշոչպջռսվտրցւփքօֆ"


def make_words(rng: random.Random, alphabet: str, n_types: int, word_len: tuple[int, int]) -> list[str]:
    words, seen = [], set()
    lo, hi = word_len
    while len(words) < n_types:
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def desk_sentences(
    seed: int,
    alphabet: str = LATIN,
    n_sentences: int = 10_000,
    n_types: int = 1_500,
    word_len: tuple[int, int] = (2, 9),
) -> list[str]:
    """Zipf-weighted synthetic sentences; fully determined by the arguments."""
    rng = random.Random(seed)
    words = make_words(rng, alphabet, n_types, word_len)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n_types)))
    choices, randint = rng.choices, rng.randint
    return [
        " ".join(choices(words, cum_weights=cum_weights, k=randint(4, 9))) + "."
        for _ in range(n_sentences)
    ]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def self_check(tests_dir: Path, seed: int = 11, n_sentences: int = 1_000) -> None:
    """Compare against the test suite's generator at one seed; raise on any
    difference."""
    sys.path.insert(0, str(tests_dir))
    try:
        import conftest
    finally:
        sys.path.remove(str(tests_dir))
    for alphabet, n_types in ((LATIN, 1_500), (CYRILLIC, 600)):
        want = conftest.desk_sentences(seed, alphabet, n_sentences, n_types)
        got = desk_sentences(seed, alphabet, n_sentences, n_types)
        if got != want:
            raise RuntimeError(f"desk generator differs from {tests_dir / 'conftest.py'} at seed {seed}")


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    self_check(root / "tests")
    print("desk generator matches tests/conftest.py")
