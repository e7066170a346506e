"""BPE learning vs. a from-scratch recount oracle, plus application fixtures."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfervocab.bpe import (
    END_OF_WORD,
    MergeRule,
    MergeTable,
    _apply_lines,
    apply_bpe,
    enumerate_substrings,
    learn_bpe,
    segment_sentence,
)
from xfervocab.errors import CorpusFormatError

# Toy merge table from the worked example: r</w>, ol, er</w>, der</w>, wi.
TOY_TABLE = MergeTable([("r", END_OF_WORD), ("o", "l"), ("e", "r</w>"), ("d", "er</w>"), ("w", "i")])


def _oracle_symbol_key(symbol):
    return (1,) if symbol == END_OF_WORD else (0, symbol)


def oracle_learn(corpora, num_merges):
    """O(n^2) oracle: recount every pair from scratch each iteration, same
    tie-break (count, left symbol frequency, pair order with the end marker
    last), spelled as its own nested key rather than the learner's."""
    freqs = Counter(word for corpus in corpora for sentence in corpus for word in sentence.split())
    words = {tuple(list(word) + [END_OF_WORD]): f for word, f in freqs.items()}
    rules, used = [], set()
    for _ in range(num_merges):
        pair_counts, symbol_counts = Counter(), Counter()
        for symbols, f in words.items():
            for s in symbols:
                symbol_counts[s] += f
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += f
        candidates = [p for p in pair_counts if p not in used]
        if not candidates:
            break
        best = min(
            candidates,
            key=lambda p: (-pair_counts[p], -symbol_counts[p[0]], _oracle_symbol_key(p[0]), _oracle_symbol_key(p[1])),
        )
        used.add(best)
        rules.append(MergeRule(*best))
        rewritten = Counter()
        for symbols, f in words.items():
            rewritten[oracle_merge(symbols, best)] += f
        words = dict(rewritten)
    return rules


def oracle_merge(symbols, pair):
    """The symbols with each occurrence of pair merged, scanned left to right."""
    out, i = [], 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def oracle_apply(table, word):
    """Replay the merges present, lowest rank first, then drop the end marker
    (and a symbol it leaves empty) and mark every symbol but the last "@@"."""
    ranks = {rule: i for i, rule in enumerate(table)}
    symbols = (*word, END_OF_WORD)
    while present := [ranks[pair] for pair in zip(symbols, symbols[1:]) if pair in ranks]:
        symbols = oracle_merge(symbols, table.rules[min(present)])
    *symbols, last = symbols
    if last != END_OF_WORD:
        symbols.append(last[: -len(END_OF_WORD)])
    return [symbol + "@@" for symbol in symbols[:-1]] + symbols[-1:]


def test_apply_toy_table_older():
    assert apply_bpe(TOY_TABLE, "older") == ["ol@@", "der"]


def test_apply_toy_table_old():
    assert apply_bpe(TOY_TABLE, "old") == ["ol@@", "d"]


def test_apply_empty_table():
    assert apply_bpe(MergeTable([]), "cat") == ["c@@", "a@@", "t"]


def test_apply_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        apply_bpe(TOY_TABLE, "two words")
    with pytest.raises(ValueError):
        apply_bpe(TOY_TABLE, "")


def test_learn_single_word_aa():
    assert learn_bpe([["aa"]], 1).rules == [MergeRule("a", "a")]


def test_learn_matches_oracle_on_toy_vocabulary():
    table = learn_bpe([["old older wider"]], 5)
    assert table.rules == oracle_learn([["old older wider"]], 5)
    assert len(table) == 5
    # Equivalence with the worked example is judged by application results.
    assert apply_bpe(table, "older") == ["ol@@", "der"]


def test_learn_matches_oracle_randomized():
    rng = random.Random(0)
    for _ in range(60):
        sentence = " ".join(
            "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 8))
        )
        n = rng.randint(1, 14)
        assert learn_bpe([[sentence]], n).rules == oracle_learn([[sentence]], n)


# Fragments that spell one string several ways ("ab" + "c", "a" + "bc"), and
# pieces of the end-of-word marker, which build one symbol by two merge
# paths: "a<" + "/w>" inside a word, and "a" + "</w>" at its end.
oracle_words = st.lists(
    st.sampled_from(["a", "b", "c", "ab", "bc", "abc", "<", "/", "w", ">", "</w>", "a<", "/w>"]),
    min_size=1,
    max_size=4,
).map("".join)
oracle_corpora = st.lists(
    st.lists(st.lists(oracle_words, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


@settings(max_examples=400, deadline=None)
@given(corpora=oracle_corpora, num_merges=st.integers(1, 60))
# Merge 5, "a" + "</w>", raises the count of "a</w>", which merge 4 built as
# "a<" + "/w>"; the left-symbol tie-break then prefers "a</w>" + "<".
@example(corpora=[["a</w>a a</w>< a w>a< /"]], num_merges=6)
# Merge 4, "<" + "/w>", builds the symbol "</w>" after "a" again, so the pair
# of merge 1, "a" + "</w>", comes back with the highest count of all.
@example(corpora=[["a a a a a a a a a</w>b a</w>b a</w>c a</w>c"]], num_merges=30)
# After merge 4 the words are "a</w>" + "</w>" and "</w>" + "a</w>": both pairs
# count 1 and both left symbols count 2, so the pair whose left symbol is the
# marker string sorts last, although "<" sorts before "a".
@example(corpora=[["a</w> </w>a"]], num_merges=5)
def test_learn_matches_oracle_on_two_path_and_marker_alphabets(corpora, num_merges):
    # Up to 60 merges is past exhaustion for most of these corpora.
    assert learn_bpe(corpora, num_merges).rules == oracle_learn(corpora, num_merges)


# Long words over two letters and the marker's pieces: runs of "a" give
# adjacent occurrences ("aaaa") and overlapping ones ("aaa"), and "<" + "/w>"
# rebuilds the marker inside a word, at lengths the corpora above never reach.
long_words = st.integers(1, 200).flatmap(
    lambda n: st.lists(st.sampled_from(["a", "b", "<", "/w>"]), min_size=n, max_size=n).map("".join)
)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(long_words, min_size=1, max_size=4), num_merges=st.integers(1, 80))
def test_learn_matches_oracle_on_long_words(words, num_merges):
    corpora = [[" ".join(words)]]
    assert learn_bpe(corpora, num_merges).rules == oracle_learn(corpora, num_merges)


def test_learn_joint_over_multiple_corpora():
    joint = learn_bpe([["abab"], ["abab abab"]], 2)
    single = learn_bpe([["abab abab abab"]], 2)
    assert joint.rules == single.rules


def test_learn_empty_corpus_raises():
    with pytest.raises(ValueError):
        learn_bpe([[]], 3)


def test_rule_count_bounded_and_stops_when_exhausted():
    table = learn_bpe([["ab"]], 50)
    assert len(table) <= 50
    # "ab</w>": only two pairs exist in total
    assert len(table) == 2


def test_apply_is_lossless():
    rng = random.Random(1)
    table = learn_bpe([["abc abd bcd cd"]], 6)
    for _ in range(300):
        word = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 12)))
        tokens = apply_bpe(table, word)
        rebuilt = "".join(t[:-2] for t in tokens[:-1]) + tokens[-1]
        assert rebuilt == word


non_space_words = st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(training=st.lists(non_space_words, min_size=1, max_size=12), words=st.lists(non_space_words, min_size=1, max_size=12))
def test_apply_is_lossless_and_cached_results_are_fresh(training, words):
    table = learn_bpe([[" ".join(training)]], 30)
    for word in training + words:
        tokens = apply_bpe(table, word)
        rebuilt = "".join(t[:-2] for t in tokens[:-1]) + tokens[-1]
        assert rebuilt == word
        assert all(t.endswith("@@") for t in tokens[:-1])
        expected = list(tokens)
        tokens.append("mutated")
        tokens[0] = ""
        # A second call, and a new table, return a fresh list.
        assert apply_bpe(table, word) == apply_bpe(MergeTable(table.rules), word) == expected


# Lines whose words repeat, split by runs of spaces, tabs and "\r", with the
# marker's and the continuation's characters inside words.
BPE_LINE_PIECES = ["ab", "ba", "abab", "é", "@@", "@", "</w>", "w>", "<", " ", "  ", "\t", "\r", "a@@b"]
bpe_lines = st.lists(st.lists(st.sampled_from(BPE_LINE_PIECES), max_size=10).map("".join), max_size=8)


@settings(max_examples=200, deadline=None)
@given(training=bpe_lines, lines=bpe_lines, num_merges=st.integers(1, 40))
def test_per_call_apply_matches_the_per_sentence_function_and_oracle(training, lines, num_merges):
    table = learn_bpe([[*training, "ab ba é@@ </w>"]], num_merges)
    assert _apply_lines(table, lines) == [" ".join(segment_sentence(table, line)) for line in lines]
    for word in {word for line in lines for word in line.split()}:
        assert apply_bpe(table, word) == oracle_apply(table, word)


def test_rendered_output_never_contains_end_marker(latin_corpus):
    sample = latin_corpus[:80]
    table = learn_bpe([sample], 120)
    for sentence in sample[:30]:
        for token in segment_sentence(table, sentence):
            assert END_OF_WORD not in token


def test_merge_table_rejects_duplicates_and_empty_sides():
    with pytest.raises(ValueError):
        MergeTable([("a", "b"), ("a", "b")])
    with pytest.raises(ValueError):
        MergeTable([("a", "")])


def test_merge_file_roundtrip(tmp_path):
    path = tmp_path / "merges.txt"
    TOY_TABLE.save(path)
    content = path.read_text(encoding="utf-8")
    assert content.startswith("#version: xfervocab-1\n")
    assert MergeTable.load(path) == TOY_TABLE


def test_merge_file_with_crlf_line_ends_loads(tmp_path):
    path = tmp_path / "merges.txt"
    TOY_TABLE.save(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert MergeTable.load(path) == TOY_TABLE


def test_merge_file_header_required(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        MergeTable.load(path)


def test_substrings_worked_example():
    assert enumerate_substrings("cat") == {
        "^c", "ca", "at", "t$", "^ca", "cat", "at$", "^cat", "cat$", "^cat$",
    }


def test_substrings_single_letter():
    assert enumerate_substrings("a") == {"^a", "a$", "^a$"}


def brute_force_substrings(word):
    decorated = "^" + word + "$"
    out = set()
    for i in range(len(decorated)):
        for j in range(i + 2, len(decorated) + 1):
            out.add(decorated[i:j])
    return out


def test_substring_count_formula_by_brute_force():
    # All-distinct characters: (n+2)(n+1)/2 substrings of length >= 2.
    alphabet = "abcdef"
    for n in range(1, 7):
        word = alphabet[:n]
        result = enumerate_substrings(word)
        assert result == brute_force_substrings(word)
        assert len(result) == (n + 2) * (n + 1) // 2


def test_substrings_contain_word_and_bigrams():
    for word in ("cat", "hello", "xyzzy"):
        subs = enumerate_substrings(word)
        decorated = "^" + word + "$"
        assert decorated in subs
        for i in range(len(decorated) - 1):
            assert decorated[i : i + 2] in subs
