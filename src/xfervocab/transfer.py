"""Cold-start vocabulary transformation and transfer-bundle emission.

The transformation rewrites parent vocabulary slots with child subwords so
that a child model can reuse the parent's embedding table: subwords common
to both vocabularies keep their slot (and therefore their trained
embedding row); the remaining child subwords take over the unused slots
according to the selected assignment variant.  The embedding matrix itself
is never reordered; the remap is purely a token-label rewrite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmbeddingShapeError
from .textio import read_lines, render_tsv, write_text
from .wordpiece import VARIANTS, Vocabulary, VocabSpec, apply_wordpiece
from .wordpiece_learner import learn_wordpiece


@dataclass(frozen=True)
class MappingEntry:
    slot: int
    parent_token: str
    child_token: str
    shared: bool
    filled_from_parent: bool = False


@dataclass(frozen=True)
class VocabMapping:
    """Per-slot record of a parent-to-child vocabulary rewrite."""

    entries: tuple[MappingEntry, ...]
    variant: str
    seed: int | None = None
    used_parent_slots: frozenset[int] | None = None

    def to_tsv(self) -> str:
        rows = [(e.slot, e.parent_token, e.child_token, e.shared) for e in self.entries]
        return render_tsv([("slot", "parent", "child", "shared"), *rows])

    def output_tokens(self) -> list[str]:
        return [e.child_token for e in self.entries]


def _levenshtein_matrix(parent_tokens: Sequence[str], child_tokens: Sequence[str]) -> np.ndarray:
    """Pairwise edit distances, computed with a DP vectorized over all pairs.

    Characters compare as code points, zero-padded to the longest token; the
    padding is never read, because each parent's row is captured at its own
    length and each child's column at its own length.  The layers hold the
    narrowest unsigned integer that fits every cell (at most max_p + max_c).
    """
    len_p = np.array([len(t) for t in parent_tokens])
    len_c = np.array([len(t) for t in child_tokens])
    max_p, max_c = int(len_p.max()), int(len_c.max())
    dtype = np.min_scalar_type(max_p + max_c)
    enc_p = np.array([[ord(ch) for ch in t.ljust(max_p, "\0")] for t in parent_tokens])
    enc_c = np.array([[ord(ch) for ch in t.ljust(max_c, "\0")] for t in child_tokens])

    n_p, n_c = len(parent_tokens), len(child_tokens)
    result = np.zeros((n_p, n_c), dtype=dtype)
    # prev[j] holds dp row (i) for all pairs at once, shape (max_c + 1, n_p, n_c)
    prev = np.broadcast_to(np.arange(max_c + 1, dtype=dtype)[:, None, None], (max_c + 1, n_p, n_c)).copy()
    cols = np.arange(n_c)
    for i in range(1, max_p + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        chars_p = enc_p[:, i - 1][:, None]  # (n_p, 1)
        for j in range(1, max_c + 1):
            sub = prev[j - 1] + (chars_p != enc_c[:, j - 1][None, :])
            cur[j] = np.minimum(np.minimum(prev[j] + 1, cur[j - 1] + 1), sub)
        prev = cur
        at_end = len_p == i
        result[at_end] = prev[len_c, :, cols].T[at_end]
    return result


def map_vocabularies(
    parent: Vocabulary,
    child: Vocabulary,
    variant: str = "frequency",
    seed: int | None = None,
) -> VocabMapping:
    """Assign child tokens to parent slots; see the module docstring.

    The child vocabulary should have at most as many tokens as the parent;
    if it has fewer, leftover slots keep their parent token and are flagged.
    Extra child tokens beyond the parent size are ignored in child order.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant in ("everything_random", "unmatched_random") and seed is None:
        raise ValueError(f"variant {variant!r} is stochastic and requires a seed")
    parent_tokens = parent.tokens
    child_tokens = child.tokens[: len(parent_tokens)]
    parent_set = set(parent_tokens)
    child_set = set(child_tokens)
    n = len(parent_tokens)
    rng = random.Random(seed)

    assignment: list[str | None] = [None] * n

    if variant == "everything_random":
        shuffled = child_tokens[:]
        rng.shuffle(shuffled)
        for slot, token in enumerate(shuffled):
            assignment[slot] = token
    else:
        for slot, token in enumerate(parent_tokens):
            if token in child_set:
                assignment[slot] = token
        free_slots = [slot for slot in range(n) if assignment[slot] is None]
        remaining = [tok for tok in child_tokens if tok not in parent_set]

        if variant == "frequency":
            for slot, token in zip(free_slots, remaining):
                assignment[slot] = token
        elif variant == "unmatched_random":
            shuffled = remaining[:]
            rng.shuffle(shuffled)
            for slot, token in zip(free_slots, shuffled):
                assignment[slot] = token
        else:  # levenshtein
            if free_slots and remaining:
                free_parents = [parent_tokens[slot] for slot in free_slots]
                distances = _levenshtein_matrix(free_parents, remaining)
                # Ascending distance, ties in slot order then child order.
                order = np.argsort(distances, axis=None, kind="stable").tolist()
                taken = [False] * len(remaining)
                open_count = min(len(free_slots), len(remaining))
                for flat in order:
                    si, ci = divmod(flat, len(remaining))
                    slot = free_slots[si]
                    if assignment[slot] is None and not taken[ci]:
                        assignment[slot] = remaining[ci]
                        taken[ci] = True
                        open_count -= 1
                        if open_count == 0:
                            break

    entries = []
    for slot, token in enumerate(assignment):
        parent_token = parent_tokens[slot]
        if token is None:
            # Child vocabulary exhausted: keep the parent token, flagged.
            entries.append(MappingEntry(slot, parent_token, parent_token, False, True))
        else:
            entries.append(MappingEntry(slot, parent_token, token, token == parent_token))
    return VocabMapping(tuple(entries), variant, seed)


def transform_vocab(
    parent: Vocabulary,
    child_corpus: Sequence[Iterable[str]],
    variant: str = "frequency",
    seed: int | None = None,
    tolerance: float = 0.01,
) -> tuple[Vocabulary, VocabMapping]:
    """Learn a child vocabulary sized to the parent and remap parent slots.

    Also records which parent tokens ever occur in the child corpus under
    the parent segmentation, for the unused-parent report.
    """
    sentences = [list(part) for part in child_corpus]
    spec = VocabSpec(target_size=len(parent), tolerance=tolerance)
    child = learn_wordpiece(sentences, spec)
    mapping = map_vocabularies(parent, child, variant, seed)

    observed: set[str] = set()
    for part in sentences:
        for sentence in part:
            observed.update(apply_wordpiece(parent, sentence))
    used = frozenset(e.slot for e in mapping.entries if e.parent_token in observed)
    mapping = VocabMapping(mapping.entries, mapping.variant, mapping.seed, used)
    out_tokens = mapping.output_tokens()
    return Vocabulary(out_tokens, within_tolerance=child.within_tolerance), mapping


@dataclass(frozen=True)
class TransferBundle:
    vocabulary_path: Path
    embeddings_path: Path | None
    mapping_path: Path
    unused_parent_path: Path | None


def save_embeddings_binary(matrix: np.ndarray, path: str | Path) -> None:
    """Little-endian float32 with an 8-byte header: row count, column count."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(np.array([rows, cols], dtype="<u4").tobytes())
        fh.write(matrix.tobytes())


def load_embeddings_binary(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise EmbeddingShapeError(f"{path}: {len(raw)} bytes is shorter than the 8-byte header")
    if (len(raw) - 8) % 4:
        raise EmbeddingShapeError(f"{path}: payload of {len(raw) - 8} bytes is not a whole number of float32 values")
    rows, cols = np.frombuffer(raw[:8], dtype="<u4")
    matrix = np.frombuffer(raw[8:], dtype="<f4")
    if matrix.size != int(rows) * int(cols):
        raise EmbeddingShapeError(f"{path}: payload does not match header {rows}x{cols}")
    return matrix.reshape(int(rows), int(cols)).copy()


def save_embeddings_tsv(matrix: np.ndarray, path: str | Path) -> None:
    write_text(path, render_tsv(np.asarray(matrix, dtype=np.float32).tolist()))


def load_embeddings_tsv(path: str | Path) -> np.ndarray:
    rows = []
    for i, line in enumerate(read_lines(path), start=1):
        row = []
        for cell in line.split("\t"):
            try:
                row.append(float(cell))
            except ValueError:
                raise EmbeddingShapeError(f"{path}: line {i}: not a number: {cell!r}") from None
        if rows and len(row) != len(rows[0]):
            raise EmbeddingShapeError(f"{path}: line {i}: expected {len(rows[0])} values, got {len(row)}")
        rows.append(row)
    return np.array(rows, dtype=np.float32)


def load_embeddings(path: str | Path) -> np.ndarray:
    """Format chosen by extension: .tsv is text, anything else is binary."""
    if str(path).endswith(".tsv"):
        return load_embeddings_tsv(path)
    return load_embeddings_binary(path)


def emit_transfer_bundle(
    mapping: VocabMapping, parent_embeddings: np.ndarray | None, out_dir: str | Path
) -> TransferBundle:
    """Write the transformed vocabulary and the slot mapping TSV and, given
    parent embeddings, the unchanged embedding matrix and the unused-parent
    report.  Every text is rendered before out_dir is created, so a failed
    render writes nothing."""
    vocab = Vocabulary(mapping.output_tokens())
    mapping_tsv = mapping.to_tsv()
    unused_tsv = None
    if parent_embeddings is not None:
        parent_embeddings = np.asarray(parent_embeddings)
        if parent_embeddings.ndim != 2 or parent_embeddings.shape[0] != len(mapping.entries):
            raise EmbeddingShapeError(
                f"embedding matrix has {parent_embeddings.shape[0] if parent_embeddings.ndim == 2 else 'malformed'} "
                f"rows but the mapping has {len(mapping.entries)} slots"
            )
        used = mapping.used_parent_slots
        unused = [(e.slot, e.parent_token) for e in mapping.entries if used is not None and e.slot not in used]
        unused_tsv = render_tsv([("slot", "parent"), *unused])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab_path, mapping_path = out_dir / "vocabulary.txt", out_dir / "mapping.tsv"
    vocab.save(vocab_path)
    write_text(mapping_path, mapping_tsv)
    if unused_tsv is None:
        return TransferBundle(vocab_path, None, mapping_path, None)
    emb_path, unused_path = out_dir / "embeddings.bin", out_dir / "unused_parent.tsv"
    save_embeddings_binary(parent_embeddings, emb_path)
    write_text(unused_path, unused_tsv)
    return TransferBundle(vocab_path, emb_path, mapping_path, unused_path)
