"""Element references and combiner names, as compose, fuse and emergent read them."""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..core import ElementId
from ..errors import SchemaError

if TYPE_CHECKING:
    from ..core import Hyperstructure, RawId


def _resolve_id(h: Hyperstructure, level: int, raw: str) -> RawId:
    """A command-line id at level: an integer id written as its own canonical
    text ("1", "-2"; not "01", "+1" or " 2") wins if that element exists."""
    try:
        as_int = int(raw)
    except ValueError:
        return raw
    return as_int if str(as_int) == raw and h.has_element(ElementId(level, as_int)) else raw


def _element_ref(h: Hyperstructure, ref: str) -> ElementId:
    """Parse a level:id reference; integer ids win over equal-looking strings."""
    if ":" not in ref:
        raise SchemaError(f"element reference {ref!r} must look like level:id")
    lvl_s, raw = ref.split(":", 1)
    try:
        lvl = int(lvl_s)
    except ValueError:
        raise SchemaError(f"element reference {ref!r} must start with a level index") from None
    return h.element(lvl, _resolve_id(h, lvl, raw))


def _combiner(name: str | None):
    if name is None:
        return None
    from ..assignments import BUILTIN_COMBINERS

    got = BUILTIN_COMBINERS.get(name)
    if got is None:
        raise SchemaError(f"unknown combiner {name!r}; choose from {sorted(BUILTIN_COMBINERS)}")
    return got
