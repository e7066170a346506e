"""The one line reader, line writer and TSV renderer that every text file
of the toolkit goes through."""

from __future__ import annotations

from numbers import Integral, Real
from pathlib import Path
from typing import Iterable

from .errors import CorpusDecodeError, CorpusFormatError


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split on "\\n" only; a bad byte is reported
    with the file and the number of its line."""
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        for i, chunk in enumerate(raw.split(b"\n"), start=1):
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(f"{path}: line {i}: invalid UTF-8 ({exc.reason})") from exc
        raise
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """The inverse of `read_lines`: each line ends with "\\n", so no lines
    is an empty file."""
    write_text(path, "\n".join([*lines, ""]))


def _cell(value: object) -> str:
    # Concrete types first: the numbers ABCs, which catch numpy scalars, are
    # several times slower to test.
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, (str, int)):
        text = str(value)
    elif isinstance(value, float) or isinstance(value, Real) and not isinstance(value, Integral):
        text = repr(float(value))
    else:
        text = str(value)
    if "\t" in text or "\n" in text:
        raise CorpusFormatError(f"TSV cell {text!r} contains a tab or newline")
    return text


def render_tsv(rows: Iterable[Iterable[object]]) -> str:
    """The TSV text of `rows`: one line per row, its cells joined by tabs.  A
    bool renders as `true`/`false`, a float (numpy's too) as `repr(float(x))`
    and any other cell as `str(x)`; a cell holding a tab or newline raises
    `CorpusFormatError`."""
    lines = ["\t".join(map(_cell, row)) for row in rows]
    return "\n".join([*lines, ""])
