"""The CLI's commands, one module each, and the helpers they share.

`hyperstruct.cli` imports only the module of the command a process runs
and calls its run(args). Each module imports the library functions it runs
when run is called, so a traced run, which swaps module attributes, sees
every call. Reading goes through `open`, so `pathlib` and `tempfile` load
only when `--out` writes a document.
"""
from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

from ..errors import HyperstructError, ParseError, SchemaError

if TYPE_CHECKING:
    from ..core import Hyperstructure
    from ..document import Document


def _read_text(path: str, error: type[HyperstructError], prefix: str) -> str:
    """The text of the file at path: SchemaError when it cannot be read, and
    error, its message starting with prefix, when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise error(f"{prefix}byte {e.start}: not UTF-8 text ({e.reason})") from None


def _read_document(path: str) -> Document:
    from .. import document

    return document.parse(_read_text(path, ParseError, ""))


def _write_atomic(path: str, text: str) -> None:
    import tempfile
    from pathlib import Path

    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, str(target))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e.strerror}") from None


def _need(doc: Document, section: str):
    got = getattr(doc, section)
    if got is None:
        raise SchemaError(f"document lacks a {section} section")
    return got


def _assignment_lines(title: str, lam) -> list[str]:
    lines = [title]
    for i, level in enumerate(lam.per_level):
        shown = ", ".join(f"{e.id}={level[e]!r}" for e in sorted(level, key=lambda e: e.key))
        lines.append(f"level {i}: {shown}")
    return lines


def _tower_summary(h: Hyperstructure) -> list[str]:
    lines = [f"level-0 elements: {len(h.levels[0])}"]
    for i in range(1, h.order + 1):
        lines.append(f"level-{i} bonds: {len(h.levels[i])}")
    return lines


def _print(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit(out: str | None, doc: Document) -> None:
    """Write the result document, if asked for. Commands call this before they
    print, so a document that cannot be written leaves only the error on stdout."""
    if out:
        from .. import document

        _write_atomic(out, document.serialize(doc))
