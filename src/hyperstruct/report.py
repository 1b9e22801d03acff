"""Deterministic check reports.

Checkers never raise on a failed property; they return a report whose
rendering is byte-stable for identical inputs.
"""
from __future__ import annotations

from collections.abc import Iterable

from .core import value_type


class Finding(value_type("Finding", "code message")):
    """One failed property: its code and its witness message."""

    __slots__ = ()


class CheckReport:
    """A check's verdict, its findings sorted by code and message, and notes.

    The findings may arrive as an iterator that the checker writes as a
    generator: `passed` draws at most the first finding, and the rest are
    drained when `findings` (or anything rendered from it) is first read.
    So a caller that wants only the verdict never pays for the remaining
    witnesses, and the rendered text is the same whichever is read first.
    """

    __slots__ = ("name", "notes", "_pending", "_drawn", "_sorted")

    def __init__(self, name: str, findings: Iterable[Finding] = (), notes: Iterable[str] = ()):
        self.name = name
        self.notes = tuple(notes)
        self._pending = iter(findings)
        self._drawn: list[Finding] = []
        self._sorted: tuple[Finding, ...] | None = None

    @property
    def passed(self) -> bool:
        if not self._drawn:
            first = next(self._pending, None)
            if first is not None:
                self._drawn.append(first)
        return not self._drawn

    @property
    def findings(self) -> tuple[Finding, ...]:
        if self._sorted is None:
            self._drawn.extend(self._pending)
            self._sorted = tuple(sorted(self._drawn))  # a Finding sorts as its (code, message) tuple
        return self._sorted

    @property
    def codes(self) -> frozenset[str]:
        return frozenset(f.code for f in self.findings)

    def lines(self) -> list[str]:
        out = [f"{self.name}: {'pass' if self.passed else 'FAIL'}"]
        out.extend(f"note: {n}" for n in self.notes)
        out.extend(f"{f.code}: {f.message}" for f in self.findings)
        return out

    def render(self) -> str:
        return "\n".join(self.lines())

    def __repr__(self) -> str:
        return f"CheckReport(name={self.name!r}, passed={self.passed!r}, findings={self.findings!r}, notes={self.notes!r})"

