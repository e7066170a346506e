"""Cold-start vocabulary transformation and transfer-bundle emission.

The transformation rewrites parent vocabulary slots with child subwords so
that a child model can reuse the parent's embedding table.  One rule covers
every assignment variant: a subword common to both vocabularies keeps its
slot (and therefore its trained embedding row), and the free slots take the
remaining child subwords in child order (frequency), in seeded shuffled
order (unmatched_random) or by the greedy edit-distance walk (levenshtein).
everything_random keeps no slot: every slot is free and every child subword
remains, shuffled.  The embedding matrix itself is never reordered; the
remap is purely a token-label rewrite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import _unit_token_counts
from .errors import EmbeddingShapeError, check_seed
from .textio import read_lines, render_tsv, write_text
from .wordpiece import MAX_TRAIN_SENTENCES, VARIANTS, Vocabulary, VocabSpec, _count_units
from .wordpiece_learner import WordpieceLearner


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
    used_parent_slots: frozenset[int] | None = None

    def to_tsv(self) -> str:
        rows = [(e.slot, e.parent_token, e.child_token, e.shared) for e in self.entries]
        return render_tsv([("slot", "parent", "child", "shared"), *rows])

    def output_tokens(self) -> list[str]:
        return [e.child_token for e in self.entries]


_BLOCK_BYTES = 4 << 20  # the edit-distance DP's row block and the walk's row chunk; bounds memory, never changes a slot


def _levenshtein_matrix(parent_tokens: Sequence[str], child_tokens: Sequence[str]) -> np.ndarray:
    """Pairwise edit distances, in the narrowest unsigned integer that holds
    max_p + max_c.

    Parents and children are sorted by length, longest first.  At DP row i
    (a parent's i-th character) only the first kp[i] parents still run, and
    at column j only the first kc[j] children, so a layer is one array per
    column j, kc[j] children wide, and a cell is computed only when both
    tokens reach it.  Each parent's row is captured at its own length, and
    each child's column at its own length.  Parents run in row blocks that
    fit in _BLOCK_BYTES (one row, if a row is larger), a row counting its two
    layers, its distances and one cell's scratch; only the (n_p, n_c) result
    outlives a block.  Characters compare as dense per-call codes.
    """
    len_p = np.array([len(t) for t in parent_tokens])
    len_c = np.array([len(t) for t in child_tokens])
    max_p, max_c = int(len_p.max()), int(len_c.max())
    dtype = np.min_scalar_type(max_p + max_c)
    order_p = np.argsort(-len_p, kind="stable")
    order_c = np.argsort(-len_c, kind="stable")
    len_p, len_c = len_p[order_p], len_c[order_c]
    enc_p = np.array([[ord(ch) for ch in parent_tokens[k].ljust(max_p, "\0")] for k in order_p.tolist()])
    enc_c = np.array([[ord(ch) for ch in child_tokens[k].ljust(max_c, "\0")] for k in order_c.tolist()])
    # Dense character codes in the narrowest type compare fastest; the padding is never read.
    _, codes = np.unique(np.concatenate([enc_p.ravel(), enc_c.ravel()]), return_inverse=True)
    codes = codes.astype(np.min_scalar_type(codes.max()))
    enc_p, enc_c = codes[: enc_p.size].reshape(enc_p.shape).T, codes[enc_p.size :].reshape(enc_c.shape).T
    # kc[j]: children of length >= j, j = 0..max_c+1; the same for parents
    kc = np.searchsorted(-len_c, -np.arange(max_c + 2), side="right").tolist()
    kp = np.searchsorted(-len_p, -np.arange(max_p + 2), side="right").tolist()
    unsort_c = np.argsort(order_c)

    n_p, n_c = len(parent_tokens), len(child_tokens)
    result = np.empty((n_p, n_c), dtype=dtype)
    # A block row: two layers, its distances before and after unsorting, and one cell's scratch.
    rows = max(1, _BLOCK_BYTES // (dtype.itemsize * (2 * sum(kc) + 4 * n_c)))
    prev = [np.empty((min(rows, n_p), k), dtype=dtype) for k in kc[:-1]]
    cur = [np.empty_like(layer) for layer in prev]
    mismatch, step = np.empty(cur[1].shape, dtype=bool), np.empty_like(cur[1])  # scratch for one cell
    for lo in range(0, n_p, rows):
        hi = min(lo + rows, n_p)
        block = np.empty((hi - lo, n_c), dtype=dtype)
        for j, layer in enumerate(prev):
            layer.fill(j)
        for i in range(int(len_p[lo]) + 1):
            running = min(kp[i], hi) - lo
            if i:
                cur[0][:running] = i
                chars = enc_p[i - 1, lo : lo + running, None]
                for j in range(1, max_c + 1):
                    k = kc[j]
                    cell, differ, gap = cur[j][:running], mismatch[:running, :k], step[:running, :k]
                    np.not_equal(chars, enc_c[j - 1, :k], out=differ)
                    np.add(prev[j - 1][:running, :k], differ.view(np.uint8), out=cell)
                    np.minimum(prev[j][:running], cur[j - 1][:running, :k], out=gap)
                    gap += 1
                    np.minimum(cell, gap, out=cell)
                prev, cur = cur, prev
            # parents of length i are the block rows [kp[i+1], kp[i]), children of length j columns [kc[j+1], kc[j])
            ending = slice(max(kp[i + 1] - lo, 0), running)
            for j in range(max_c + 1):
                if kc[j + 1] < kc[j]:
                    block[ending, kc[j + 1] : kc[j]] = prev[j][ending, kc[j + 1] :]
        result[order_p[lo:hi]] = block[:, unsort_c]
    return result


def _greedy_pairs(distances: np.ndarray) -> list[tuple[int, int]]:
    """(row, column) pairs taken by the greedy assignment: pairs in ascending
    distance, ties in row order then column order (a stable argsort of the
    flattened matrix), each taken while its row and column are both open.

    The walk goes one distance level at a time over row chunks whose
    distances and mask fit in _BLOCK_BYTES; a chunk masks out the rows and
    columns taken before it, and each open row takes its first hit whose
    column is still open.
    Freedom only decreases, so this is the argsort's order without the sort.
    """
    n_rows, n_cols = distances.shape
    row_open, col_open = bytearray(b"\1") * n_rows, bytearray(b"\1") * n_cols
    rows_view, cols_view = np.frombuffer(row_open, dtype=bool), np.frombuffer(col_open, dtype=bool)
    chunk = max(1, _BLOCK_BYTES // ((distances.itemsize + 1) * n_cols))  # a chunk's distances and its mask
    pairs: list[tuple[int, int]] = []
    left = min(n_rows, n_cols)
    for level in range(int(distances.max()) + 1):
        for lo in range(0, n_rows, chunk):
            rows = lo + np.flatnonzero(rows_view[lo : lo + chunk])
            if not len(rows):
                continue
            hits = distances[rows] == level
            hits &= cols_view
            first = hits.argmax(axis=1)
            found = np.flatnonzero(hits[np.arange(len(rows)), first])
            for k, row, col in zip(found.tolist(), rows[found].tolist(), first[found].tolist()):
                if not col_open[col]:  # taken earlier in this chunk: the row's next open hit
                    hit_row = hits[k] & cols_view
                    col = int(hit_row.argmax())
                    if not hit_row[col]:
                        continue
                row_open[row] = col_open[col] = 0
                pairs.append((row, col))
                left -= 1
                if not left:
                    return pairs
    return pairs


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
    if seed is not None:
        check_seed(seed)
    parent_tokens = parent.tokens
    remaining = child.tokens[: len(parent_tokens)]
    if variant == "everything_random":
        assignment: list[str | None] = [None] * len(parent_tokens)
    else:
        child_set, parent_set = set(remaining), set(parent_tokens)
        assignment = [token if token in child_set else None for token in parent_tokens]
        remaining = [token for token in remaining if token not in parent_set]
    free_slots = [slot for slot, token in enumerate(assignment) if token is None]
    if variant in ("everything_random", "unmatched_random"):
        random.Random(seed).shuffle(remaining)
    pairs = zip(free_slots, remaining)
    if variant == "levenshtein" and free_slots and remaining:
        distances = _levenshtein_matrix([parent_tokens[slot] for slot in free_slots], remaining)
        pairs = ((free_slots[si], remaining[ci]) for si, ci in _greedy_pairs(distances))
    for slot, token in pairs:
        assignment[slot] = token
    # A slot left empty once the child runs out keeps its parent token, flagged.
    return VocabMapping(
        tuple(
            MappingEntry(slot, parent_token, parent_token, False, True)
            if token is None
            else MappingEntry(slot, parent_token, token, token == parent_token)
            for slot, (parent_token, token) in enumerate(zip(parent_tokens, assignment))
        )
    )


def transform_vocab(
    parent: Vocabulary,
    child_corpus: Sequence[Iterable[str]],
    variant: str = "frequency",
    seed: int | None = None,
) -> tuple[Vocabulary, VocabMapping]:
    """Learn a child vocabulary sized to the parent and remap parent slots.

    Also records which parent slots the child corpus uses under the parent
    segmentation, for the unused-parent report.  The child corpus is
    pretokenized once: the learner reads the unit table of its first
    MAX_TRAIN_SENTENCES sentences, as `learn_wordpiece` does, and the usage
    count reads that table plus the units of any sentences past the cap.
    """
    sentences = chain.from_iterable(child_corpus)
    units = _count_units([sentences], MAX_TRAIN_SENTENCES)
    child = WordpieceLearner(units).learn(VocabSpec(target_size=len(parent)))
    mapping = map_vocabularies(parent, child, variant, seed)

    units.update(_count_units([sentences], None))
    counts = _unit_token_counts(parent, units)
    used = frozenset(e.slot for e in mapping.entries if counts[e.parent_token])
    mapping = VocabMapping(mapping.entries, used)
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
    vocab_text = Vocabulary(mapping.output_tokens()).render()
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
    write_text(vocab_path, vocab_text)
    write_text(mapping_path, mapping_tsv)
    if unused_tsv is None:
        return TransferBundle(vocab_path, None, mapping_path, None)
    emb_path, unused_path = out_dir / "embeddings.bin", out_dir / "unused_parent.tsv"
    save_embeddings_binary(parent_embeddings, emb_path)
    write_text(unused_path, unused_tsv)
    return TransferBundle(vocab_path, emb_path, mapping_path, unused_path)
