"""Vocabulary transformation: hand-traced assignment, variant properties,
a brute-force edit-distance oracle, and transfer bundle emission."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfervocab.errors import CorpusFormatError, EmbeddingShapeError
from xfervocab.transfer import (
    MappingEntry,
    VocabMapping,
    _levenshtein_matrix,
    emit_transfer_bundle,
    load_embeddings,
    load_embeddings_binary,
    map_vocabularies,
    save_embeddings_binary,
    save_embeddings_tsv,
    transform_vocab,
)
from xfervocab.wordpiece import ESCAPE_TOKENS, Vocabulary


def brute_levenshtein(a: str, b: str) -> int:
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        new_row = [i]
        for j, cb in enumerate(b, 1):
            new_row.append(min(row[j] + 1, new_row[-1] + 1, row[j - 1] + (ca != cb)))
        row = new_row
    return row[-1]


def random_vocab(rng: random.Random, size: int, alphabet="abcd") -> Vocabulary:
    tokens = dict.fromkeys(ESCAPE_TOKENS)
    while len(tokens) < size:
        tokens.setdefault("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))))
    return Vocabulary(list(tokens)[:size])


def test_frequency_hand_traced_assignment():
    parent = Vocabulary(["a", "b", "c", "d"])
    child = Vocabulary(["b", "x", "a", "y"])
    mapping = map_vocabularies(parent, child, "frequency")
    assert mapping.output_tokens() == ["a", "b", "x", "y"]
    assert [e.shared for e in mapping.entries] == [True, True, False, False]
    assert [e.slot for e in mapping.entries] == [0, 1, 2, 3]


def test_identity_child_all_shared():
    parent = Vocabulary(["a", "b", "c"])
    for variant in ("frequency", "unmatched_random", "levenshtein"):
        mapping = map_vocabularies(parent, parent, variant, seed=0)
        assert mapping.output_tokens() == parent.tokens
        assert all(e.shared for e in mapping.entries)


def test_disjoint_vocabularies_zero_shared():
    mapping = map_vocabularies(Vocabulary(["aa", "bb"]), Vocabulary(["xx", "yy"]), "frequency")
    assert mapping.output_tokens() == ["xx", "yy"]
    assert not any(e.shared for e in mapping.entries)


def test_random_variants_require_seed():
    parent = Vocabulary(["a", "b"])
    with pytest.raises(ValueError):
        map_vocabularies(parent, parent, "everything_random")
    with pytest.raises(ValueError):
        map_vocabularies(parent, parent, "unmatched_random")


def test_unknown_variant():
    parent = Vocabulary(["a"])
    with pytest.raises(ValueError):
        map_vocabularies(parent, parent, "alphabetical")


def test_levenshtein_matrix_matches_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        a = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(1, 12))]
        b = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(1, 12))]
        matrix = _levenshtein_matrix(a, b)
        for i, ta in enumerate(a):
            for j, tb in enumerate(b):
                assert matrix[i, j] == brute_levenshtein(ta, tb)


def oracle_levenshtein_matrix(parent_tokens, child_tokens):
    """The int64 DP over per-call character codes that `_levenshtein_matrix` replaced."""
    n_p, n_c = len(parent_tokens), len(child_tokens)
    len_p = np.array([len(t) for t in parent_tokens], dtype=np.int64)
    len_c = np.array([len(t) for t in child_tokens], dtype=np.int64)
    max_p, max_c = int(len_p.max()), int(len_c.max())
    codes = {}

    def encode(tokens, width):
        arr = np.zeros((len(tokens), width), dtype=np.int32)
        for i, tok in enumerate(tokens):
            for j, ch in enumerate(tok):
                arr[i, j] = codes.setdefault(ch, len(codes) + 1)
        return arr

    enc_p = encode(parent_tokens, max_p)
    enc_c = encode(child_tokens, max_c)
    result = np.zeros((n_p, n_c), dtype=np.int64)
    prev = np.broadcast_to(np.arange(max_c + 1, dtype=np.int64)[:, None, None], (max_c + 1, n_p, n_c)).copy()
    cols = np.arange(n_c)
    for i in range(1, max_p + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        chars_p = enc_p[:, i - 1][:, None]
        for j in range(1, max_c + 1):
            sub = prev[j - 1] + (chars_p != enc_c[:, j - 1][None, :])
            cur[j] = np.minimum(np.minimum(prev[j] + 1, cur[j - 1] + 1), sub)
        prev = cur
        at_end = len_p == i
        if at_end.any():
            result[at_end] = prev[len_c, :, cols].T[at_end]
    return result


def oracle_levenshtein_mapping(parent, child):
    """The levenshtein variant before the sorted walk: for each distinct
    distance in ascending order, one row-major pass over the open cells."""
    parent_tokens = parent.tokens
    child_tokens = child.tokens[: len(parent_tokens)]
    parent_set, child_set = set(parent_tokens), set(child_tokens)
    assignment = [tok if tok in child_set else None for tok in parent_tokens]
    free_slots = [slot for slot, tok in enumerate(assignment) if tok is None]
    remaining = [tok for tok in child_tokens if tok not in parent_set]
    if free_slots and remaining:
        distances = oracle_levenshtein_matrix([parent_tokens[s] for s in free_slots], remaining)
        slot_open = np.ones(len(free_slots), dtype=bool)
        child_open = np.ones(len(remaining), dtype=bool)
        open_count = min(len(free_slots), len(remaining))
        for dist in np.unique(distances):
            hits = np.argwhere((distances == dist) & slot_open[:, None] & child_open[None, :])
            for si, ci in hits:
                if slot_open[si] and child_open[ci]:
                    assignment[free_slots[si]] = remaining[ci]
                    slot_open[si] = False
                    child_open[ci] = False
                    open_count -= 1
            if open_count == 0:
                break
    entries = []
    for slot, token in enumerate(assignment):
        parent_token = parent_tokens[slot]
        if token is None:
            entries.append(MappingEntry(slot, parent_token, parent_token, False, True))
        else:
            entries.append(MappingEntry(slot, parent_token, token, token == parent_token))
    return VocabMapping(tuple(entries), "levenshtein")


# Spaces, a Latin-1 letter and two astral code points; small, so ties and
# shared tokens are common.
LEV_TOKENS = st.text(st.sampled_from("ab c\u00e9\U0001F600\U00010348"), min_size=1, max_size=14)
LEV_VOCABS = st.lists(LEV_TOKENS, min_size=1, max_size=24, unique=True).map(Vocabulary)
LONG = "ab" * 130  # 260 characters: distances above 255 need uint16


@settings(max_examples=300, deadline=None)
@given(parent=LEV_VOCABS, child=LEV_VOCABS)
@example(parent=Vocabulary([LONG, "a", "b"]), child=Vocabulary(["c", "b", LONG[:-1] + " "]))
@example(parent=Vocabulary(["a \U0001F600", "b"]), child=Vocabulary(["\U0001F600", "a", "bb", "c", "é"]))
def test_levenshtein_mapping_matches_per_distance_oracle(parent, child):
    mapping = map_vocabularies(parent, child, "levenshtein")
    oracle = oracle_levenshtein_mapping(parent, child)
    assert mapping.to_tsv() == oracle.to_tsv()
    assert [e.filled_from_parent for e in mapping.entries] == [e.filled_from_parent for e in oracle.entries]
    matrix = _levenshtein_matrix(parent.tokens, child.tokens)
    assert np.array_equal(matrix, oracle_levenshtein_matrix(parent.tokens, child.tokens))


def test_levenshtein_matrix_widens_for_long_tokens():
    matrix = _levenshtein_matrix([LONG, "a"], ["c", LONG + "a"])
    assert matrix.dtype == np.uint16
    assert matrix.tolist() == [[260, 1], [1, 260]]
    assert _levenshtein_matrix(["abc"], ["abd", "x"]).dtype == np.uint8


def test_levenshtein_all_ties_assign_in_slot_then_child_order():
    # Every free parent is at distance 2 from every new child token; the
    # last slot keeps its parent token because the child runs out.
    parent = Vocabulary(["ab", "cd", "zz", "ef", "gh", "ij"])
    child = Vocabulary(["wx", "zz", "yw", "vu", "ts"])
    mapping = map_vocabularies(parent, child, "levenshtein")
    assert mapping.output_tokens() == ["wx", "yw", "zz", "vu", "ts", "ij"]
    assert [e.filled_from_parent for e in mapping.entries] == [False] * 5 + [True]
    assert mapping.to_tsv() == oracle_levenshtein_mapping(parent, child).to_tsv()


def test_levenshtein_zero_distance_equals_frequency_shared_set():
    parent = Vocabulary(["cat", "dog", "bird", "fish"])
    child = Vocabulary(["dog", "cab", "dish", "bird"])
    lev = map_vocabularies(parent, child, "levenshtein")
    freq = map_vocabularies(parent, child, "frequency")
    assert {e.slot for e in lev.entries if e.shared} == {e.slot for e in freq.entries if e.shared}


def test_levenshtein_greedy_tie_order():
    # dog: d=1 to both dog-like children; slot order then child order decides.
    parent = Vocabulary(["dog", "dot"])
    child = Vocabulary(["dig", "dag"])
    mapping = map_vocabularies(parent, child, "levenshtein")
    # slot 0 (dog) takes the first child at distance 1 in child order: dig
    assert mapping.output_tokens() == ["dig", "dag"]


def test_shared_token_slot_preservation_randomized():
    rng = random.Random(7)
    for trial in range(60):
        size = rng.randint(len(ESCAPE_TOKENS) + 1, 80)
        parent = random_vocab(rng, size)
        child = random_vocab(rng, size)
        child_set = set(child.tokens)
        for variant in ("frequency", "unmatched_random", "levenshtein"):
            mapping = map_vocabularies(parent, child, variant, seed=trial)
            assert sorted(mapping.output_tokens()) == sorted(child.tokens)
            assert len(mapping.entries) == size
            for entry in mapping.entries:
                if entry.parent_token in child_set:
                    assert entry.child_token == entry.parent_token
                    assert entry.slot == parent.index(entry.parent_token)


def test_everything_random_is_seeded_permutation():
    rng = random.Random(0)
    parent = random_vocab(rng, 40)
    child = random_vocab(rng, 40)
    first = map_vocabularies(parent, child, "everything_random", seed=5)
    second = map_vocabularies(parent, child, "everything_random", seed=5)
    assert first.output_tokens() == second.output_tokens()
    assert sorted(first.output_tokens()) == sorted(child.tokens)
    other = map_vocabularies(parent, child, "everything_random", seed=6)
    assert other.output_tokens() != first.output_tokens()


def test_smaller_child_fills_from_parent():
    parent = Vocabulary(["a", "b", "c", "d"])
    child = Vocabulary(["b", "x"])
    mapping = map_vocabularies(parent, child, "frequency")
    assert mapping.output_tokens() == ["x", "b", "c", "d"]
    fillers = [e for e in mapping.entries if e.filled_from_parent]
    assert [e.slot for e in fillers] == [2, 3]
    for entry in fillers:
        assert entry.child_token == entry.parent_token
        assert not entry.shared


def test_mapping_tsv_layout():
    parent = Vocabulary(["a", "b", "c", "d"])
    child = Vocabulary(["b", "x", "a", "y"])
    tsv = map_vocabularies(parent, child, "frequency").to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "slot\tparent\tchild\tshared"
    assert lines[1] == "0\ta\ta\ttrue"
    assert lines[3] == "2\tc\tx\tfalse"


def test_mapping_with_a_tab_in_a_token_raises_before_any_bundle_file(tmp_path):
    mapping = VocabMapping((MappingEntry(0, "a", "\t", False),), "frequency")
    with pytest.raises(CorpusFormatError, match=r"'\\t'"):
        mapping.to_tsv()
    with pytest.raises(CorpusFormatError):
        emit_transfer_bundle(mapping, np.zeros((1, 2), dtype=np.float32), tmp_path / "bundle")
    assert not (tmp_path / "bundle").exists()


def test_transform_vocab_end_to_end(latin_corpus):
    parent = Vocabulary.with_ascii_fallback(["the_", "cat_", "hat_", "ing"])
    out_vocab, mapping = transform_vocab(parent, [latin_corpus[:400]], "frequency")
    assert len(out_vocab) == len(parent)
    assert len(mapping.entries) == len(parent)
    assert mapping.used_parent_slots is not None
    # every slot whose parent token was seen in the segmented child corpus
    used_tokens = {mapping.entries[s].parent_token for s in mapping.used_parent_slots}
    assert used_tokens  # single letters at least are used


def test_emit_bundle_matrix_unchanged(tmp_path):
    parent = Vocabulary(["a", "b", "c", "d"])
    child = Vocabulary(["b", "x", "a", "y"])
    mapping = map_vocabularies(parent, child, "frequency")
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    bundle = emit_transfer_bundle(mapping, matrix, tmp_path / "bundle")
    written = load_embeddings_binary(bundle.embeddings_path)
    assert np.array_equal(written, matrix)
    assert Vocabulary.load(bundle.vocabulary_path).tokens == ["a", "b", "x", "y"]
    text = bundle.mapping_path.read_text(encoding="utf-8")
    assert "0\ta\ta\ttrue" in text and "3\td\ty\tfalse" in text


def test_emit_bundle_identity_mapping_byte_identical(tmp_path):
    parent = Vocabulary(["a", "b", "c"])
    mapping = map_vocabularies(parent, parent, "frequency")
    matrix = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
    first = emit_transfer_bundle(mapping, matrix, tmp_path / "one")
    second = emit_transfer_bundle(mapping, matrix, tmp_path / "two")
    assert first.embeddings_path.read_bytes() == second.embeddings_path.read_bytes()
    reference = tmp_path / "direct.bin"
    save_embeddings_binary(matrix, reference)
    assert first.embeddings_path.read_bytes() == reference.read_bytes()


def test_emit_bundle_without_embeddings_writes_vocabulary_and_mapping(tmp_path):
    mapping = map_vocabularies(Vocabulary(["a", "b", "c", "d"]), Vocabulary(["b", "x", "a", "y"]), "frequency")
    bundle = emit_transfer_bundle(mapping, None, tmp_path / "bundle")
    assert bundle.embeddings_path is None and bundle.unused_parent_path is None
    assert sorted(path.name for path in (tmp_path / "bundle").iterdir()) == ["mapping.tsv", "vocabulary.txt"]
    assert bundle.mapping_path.read_text(encoding="utf-8") == mapping.to_tsv()
    assert Vocabulary.load(bundle.vocabulary_path).tokens == ["a", "b", "x", "y"]


def test_emit_bundle_shape_error(tmp_path):
    parent = Vocabulary(["a", "b"])
    mapping = map_vocabularies(parent, parent, "frequency")
    with pytest.raises(EmbeddingShapeError):
        emit_transfer_bundle(mapping, np.zeros((3, 2), dtype=np.float32), tmp_path)


@pytest.mark.filterwarnings("ignore:vocabulary size")
def test_unused_parent_report(tmp_path):
    parent = Vocabulary.with_ascii_fallback(["aa", "bb"])
    _, mapping = transform_vocab(parent, [["x y"]], "frequency")
    bundle = emit_transfer_bundle(mapping, np.zeros((len(parent), 2), dtype=np.float32), tmp_path)
    unused = bundle.unused_parent_path.read_text(encoding="utf-8").splitlines()
    unused_tokens = {line.split("\t")[1] for line in unused[1:]}
    assert {"aa", "bb"} <= unused_tokens
    # "x y" segments to x_ and y_, so those parent tokens are in use
    assert "x_" not in unused_tokens and "y_" not in unused_tokens


def test_embeddings_tsv_and_binary_loaders(tmp_path):
    matrix = np.array([[1.5, -2.25], [0.0, 3.0]], dtype=np.float32)
    bin_path = tmp_path / "m.bin"
    tsv_path = tmp_path / "m.tsv"
    save_embeddings_binary(matrix, bin_path)
    save_embeddings_tsv(matrix, tsv_path)
    assert np.array_equal(load_embeddings(bin_path), matrix)
    assert np.array_equal(load_embeddings(tsv_path), matrix)
    header = bin_path.read_bytes()[:8]
    assert np.frombuffer(header, dtype="<u4").tolist() == [2, 2]


@pytest.mark.parametrize("cut", [0, 5, 8 + 3, 8 + 17])
def test_truncated_binary_embeddings_name_the_file(tmp_path, cut):
    path = tmp_path / "m.bin"
    save_embeddings_binary(np.ones((2, 3), dtype=np.float32), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(EmbeddingShapeError, match=str(path)):
        load_embeddings_binary(path)
