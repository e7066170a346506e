"""Golden SHA-256 digests of learned vocabularies, BPE merge tables and
segmented text, transfer mappings and evaluation reports.

The digests pin the exact bytes the learners and the scorers produce at
small sizes, so any change to candidate counting, the threshold ladder, BPE
merge selection and application, the tie-breaks or BLEU and bootstrap
scoring shows up here.  A change that means to alter an output updates the
digest and says so in CHANGES.md.
"""

import hashlib

import pytest

from tests.conftest import CYRILLIC, LATIN, desk_parallel, desk_sentences
from xfervocab.bpe import learn_bpe, segment_sentence
from xfervocab.corpus import corrupt_word_order, make_pseudo_related
from xfervocab.mteval import bleu, paired_bootstrap
from xfervocab.sharedvocab import build_balanced_vocab, build_merged_vocab
from xfervocab.transfer import map_vocabularies, transform_vocab
from xfervocab.wordpiece import VocabSpec, learn_wordpiece

GREEK = "αβγδεζηθικλμνξο"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def vocab_text(vocab) -> str:
    return f"{vocab.within_tolerance}\n" + "\n".join(vocab.tokens) + "\n"


@pytest.fixture(scope="module")
def parent():
    return desk_parallel(41, n_sentences=500, n_types=200)


@pytest.fixture(scope="module")
def child():
    return desk_parallel(43, LATIN, GREEK, n_sentences=400, n_types=150)


@pytest.mark.parametrize(
    "target, digest",
    [
        (150, "373cef08a638547488c70b9554629ef2a266539abea891cb4f62ab15853007ec"),
        (400, "3a13ccf369ffc0eb813d966da8aeb340f3000ff46dceb5146c6a646859d0e202"),
    ],
)
def test_learn_wordpiece_digest(target, digest):
    corpus = desk_sentences(31, LATIN, 1200, 300)
    assert sha(vocab_text(learn_wordpiece([corpus], VocabSpec(target_size=target)))) == digest


def test_learn_wordpiece_digest_at_scale():
    # 50k sentences over 20k word types: every move of the threshold ladder
    # reaches thousands of units, as in the learner's scale measurements.
    corpus = desk_sentences(5, LATIN, 50_000, 20_000)
    vocab = learn_wordpiece([corpus], VocabSpec(target_size=8000))
    assert sha(vocab_text(vocab)) == "30c9851156294f595fdfc5ab9684f48bb33aa3e5d3a435cfca2a1225d5f35a4a"


def test_merged_vocab_digest(parent, child):
    merged, report = build_merged_vocab(parent, child, 450)
    assert sha(vocab_text(merged)) == "6737ca1ca9eea0fccf3c94de268615c1b4de4d83919f0a7243e99a6f41224e6c"
    assert sha(report.to_tsv()) == "1bf5fd6a23f4ef4133b517ee0d6e289df62b85266dd04ec5987db90f470f7977"


def test_balanced_vocab_digest(parent, child):
    balanced = build_balanced_vocab(parent, child, 450, seed=3)
    assert sha(vocab_text(balanced)) == "ae392c9d499a5cb25ec216423e7403a0226a75951938ea29c37becba947b1207"


def test_transform_vocab_digest(parent, child):
    parent_vocab = learn_wordpiece([parent.sources, parent.targets], VocabSpec(target_size=300))
    vocab, mapping = transform_vocab(parent_vocab, [child.sources, child.targets], variant="levenshtein", seed=5)
    assert sha(mapping.to_tsv()) == "cc672399466b2491f7789ff346a6673232d5d45f64f6c1293bfd30d5d2236bb4"
    assert sha(vocab_text(vocab)) == "ef0fcc5581d0e4be2940d69b8be207aa35030b69c2827cb61f55718e6c3196e8"


@pytest.mark.parametrize(
    "variant, seed, digest",
    [
        ("frequency", None, "6d116345e8ea9ead15258c68e04774ad6d388b71e45293cd5e231702fd8f6ec1"),
        ("unmatched_random", 5, "80f9033888ac8f5eddd6b92ab04fc4b32f37a8fbddce248caf8017049a1d1acc"),
        ("everything_random", 5, "21de45f9e02e7d4e908a61d8db2c9aa9c2a3bc1177b8c79155448420c72e7c1b"),
    ],
)
def test_map_vocabularies_digest(parent, child, variant, seed, digest):
    # The Levenshtein mapping is pinned through transform_vocab above; these
    # pin which slot each other variant gives each child token, and so the
    # random variants' draws.
    parent_vocab = learn_wordpiece([parent.sources, parent.targets], VocabSpec(target_size=300))
    child_vocab = learn_wordpiece([child.sources, child.targets], VocabSpec(target_size=len(parent_vocab)))
    assert sha(map_vocabularies(parent_vocab, child_vocab, variant, seed).to_tsv()) == digest


def joint_bpe_corpus():
    return [desk_sentences(51, LATIN, 600, 200), desk_sentences(52, CYRILLIC, 600, 200)]


@pytest.mark.parametrize(
    "corpus, merges, digest",
    [
        ("joint", 150, "3d581f49535f75560eff6c810eafc3699926f1bdee177eb1b6ccdb8b414e4260"),
        ("joint", 400, "8385084ebb14d162c0d35fadba7127999cd1e9d7329980ee1a50243d6b778889"),
        # 34 merges exhaust this corpus; the table stops there.
        ("tiny", 500, "38237ce4f7731a760da22c656b03a8375d2b9f27ebc673506e9063a960245350"),
    ],
)
def test_learn_bpe_merge_file_digest(tmp_path, corpus, merges, digest):
    if corpus == "joint":
        corpora = joint_bpe_corpus()
    else:
        corpora = [desk_sentences(53, LATIN, 4, 3), desk_sentences(54, CYRILLIC, 4, 3)]
    path = tmp_path / "merges.txt"
    learn_bpe(corpora, merges).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_segment_sentence_digest():
    corpora = joint_bpe_corpus()
    table = learn_bpe(corpora, 400)
    text = "".join(" ".join(segment_sentence(table, s)) + "\n" for side in corpora for s in side)
    assert sha(text) == "851ce3b6eb7f9e9fd7b5f059eb22be29a72167dc87b450a42da50ab8e2792858"


@pytest.fixture(scope="module")
def systems():
    """References and two near-equal systems: a pseudo-related rewrite, and
    the references with three sentences in every seven word-shuffled."""
    pair = desk_parallel(47, n_sentences=400, n_types=150)
    references = list(pair.targets)
    pseudo = list(make_pseudo_related(pair, 0.9, seed=1).targets)
    shuffled = corrupt_word_order(pair, "shuffle_target", seed=1).targets
    corrupt = [shuffled[i] if i % 7 < 3 else ref for i, ref in enumerate(references)]
    return pseudo, corrupt, references


def test_bleu_digest(systems):
    pseudo, corrupt, references = systems
    assert sha(bleu(pseudo, references).to_tsv()) == "52a239fe085c0f1782bffb5eb152cd0078e47e473dea18866565e9f4d54a6380"
    assert sha(bleu(corrupt, references).to_tsv()) == "80cb826b57c273b9a22cb1d924bccf8d52018744aafaada06c4dde8792dd46a2"


@pytest.mark.parametrize(
    "samples, n_max, smoothing, digest",
    [
        (1000, 4, "exponential", "775fc546dd42182a61aa3b926bca116c0919708694a7e6f5fe456c131fccbaa3"),
        (300, 2, "none", "d8dd0b15890db55bb8bfd089ec72b9733dcd68ccea5912021ecface34826247a"),
    ],
)
def test_paired_bootstrap_digest(systems, samples, n_max, smoothing, digest):
    result = paired_bootstrap(*systems, samples=samples, seed=7, n_max=n_max, smoothing=smoothing)
    assert sha(result.to_tsv()) == digest
