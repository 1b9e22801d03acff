"""emergent: tokens at a union not produced by the combiner."""
from __future__ import annotations

from typing import TYPE_CHECKING

from . import _need, _print, _read_document
from .refs import _combiner, _resolve_id

if TYPE_CHECKING:
    from ..core import Hyperstructure, RawId


def run(args) -> int:
    from ..assignments import emergent

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    comb = _combiner(args.combiner)
    s1 = h.support_at(args.level, _split_ids(h, args.level, args.s1))
    s2 = h.support_at(args.level, _split_ids(h, args.level, args.s2))
    got = emergent(h.omegas[args.level], s1, s2, comb)
    _print([f"emergent: {', '.join(sorted(got)) if got else '(none)'}"])
    return 0


def _split_ids(h: Hyperstructure, level: int, joined: str) -> list[RawId]:
    return [_resolve_id(h, level, part) for part in joined.split(",") if part != ""]
