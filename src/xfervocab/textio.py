"""The one line reader every text-file loader goes through."""

from __future__ import annotations

from pathlib import Path

from .errors import CorpusDecodeError


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
