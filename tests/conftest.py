"""Shared fixtures: deterministic synthetic desk corpora in two scripts."""

import itertools
import random

import pytest

from xfervocab.corpus import ParallelCorpus

LATIN = "abcdefghijklmnop"
CYRILLIC = "абвгдежзиклмноп"


def make_words(rng: random.Random, alphabet: str, n_types: int) -> list[str]:
    words, seen = [], set()
    while len(words) < n_types:
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def desk_sentences(
    seed: int,
    alphabet: str = LATIN,
    n_sentences: int = 10_000,
    n_types: int = 1_500,
) -> list[str]:
    """Zipf-weighted synthetic sentences; fully determined by the seed.

    The cumulative weights are built once; `choices(weights=...)` rebuilds
    them on every call, then draws exactly as it does from `cum_weights`."""
    rng = random.Random(seed)
    words = make_words(rng, alphabet, n_types)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n_types)))
    sentences = []
    for _ in range(n_sentences):
        k = rng.randint(4, 9)
        sentences.append(" ".join(rng.choices(words, cum_weights=cum_weights, k=k)) + ".")
    return sentences


def desk_parallel(
    seed: int,
    src_alphabet: str = LATIN,
    tgt_alphabet: str = CYRILLIC,
    n_sentences: int = 2_000,
    n_types: int = 600,
) -> ParallelCorpus:
    src = desk_sentences(seed, src_alphabet, n_sentences, n_types)
    tgt = desk_sentences(seed + 1, tgt_alphabet, n_sentences, n_types)
    return ParallelCorpus(tuple(src), tuple(tgt))


@pytest.fixture(scope="session")
def latin_corpus() -> list[str]:
    return desk_sentences(11, LATIN)


@pytest.fixture(scope="session")
def cyrillic_corpus() -> list[str]:
    return desk_sentences(12, CYRILLIC)
