"""Canonical JSON documents bundling a tower with its optional payloads.

One document carries everything a command needs: the tower itself, a
topology, state spaces with connectors, category/presheaf data, or raw
simplicial data. Serialization is canonical — every set is sorted, every
id-keyed mapping is a sorted pair list — so equal inputs produce identical
bytes and golden-file comparisons are trivial.

This module holds the envelope and the checks every reader of outside input
shares, so each rule is spelled once: `load_json` decodes text and refuses
nesting too deep for the decoder and lone surrogates; `_expect_obj`,
`_expect_list`, `_expect_id`, `_expect_int` and `_expect_row` check shapes,
the last one each fixed-length `[...]` row; `_of_types` checks a whole
table's types in one pass; `_refuse_repeat` refuses a key a keyed list
already holds. Every section's reader and the `install` payload read
through them, and each payload section's writer passes what it writes
through `_jkey` (a checked `core.id_key`), `_expect_id` or `_expect_int`. `parse` lives
in `document_reader` with the tower section's reader, and `serialize` in
`document_writer` with the tower section's writer; each loads on first use,
so a command that only writes a document never compiles the reader, and one
that only reads never compiles the writer. Each payload
section's reader and writer lives beside its types: the topology section in
`topology`, the states section in `states`, and the category, presheaf and
simplicial sections in `catelem`. `parse` and `serialize` import a section's
module only when the section is present, so a document without payload
sections loads none of them.
"""
from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, NamedTuple

from .core import ElementId, Hyperstructure, RawId, id_key
from .errors import HyperstructError, SchemaError

if TYPE_CHECKING:
    from .catelem import FiniteCategory, Presheaf, SimplicialData
    from .states import CoConnector, Connector, LambdaAssignment, StateTower
    from .topology import Sieve

FORMAT = "hyperstruct/1"


def _jkey(v):
    """v's place in id order, once v is checked to be an identifier or a state."""
    if not isinstance(v, (str, int)) or isinstance(v, bool):
        raise SchemaError(f"identifiers and states must be strings or integers, got {v!r}")
    return id_key(v)


def _expect_obj(value, where: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    if required <= value.keys() <= allowed:
        return value
    # otherwise a field lies outside allowed or a required one is missing, and a loop below raises
    for k in value:
        if k not in allowed:
            raise SchemaError(f"{where}: unknown field {k!r}")
    for k in sorted(required):  # sorted, so the field named does not depend on the hash seed
        if k not in value:
            raise SchemaError(f"{where}: missing field {k!r}")


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return value


def _expect_id(value, where: str, noun: str = "identifiers") -> RawId:
    """value, an identifier or (with noun "states") a state: a str or an int, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{where}: {noun} must be strings or integers, got {value!r}")
    return value


def _expect_int(value, where: str) -> int:
    """value, an int and never a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _of_types(values, *types: type) -> bool:
    """Whether every value's type is one of types (so a bool is not an int): a
    whole table's check in one pass, before it is read at once."""
    return set(map(type, values)).issubset(types)


def _expect_row(value, where: str, n: int, shape: str) -> list:
    """value as a list of n items; shape shows the row as it should read."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    if len(value) != n:
        raise SchemaError(f"{where}: expected {shape}")
    return value


def _refuse_repeat(table: dict, key, where: str, before: str = "", after: str = "") -> None:
    """Raise SchemaError when table already holds key; before and after frame the key's repr in the message."""
    if key in table:
        raise SchemaError(f"{where}: duplicate entry for {before}{key!r}{after}")


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json(text: str, error: type[HyperstructError], prefix: str):
    """The value the JSON text holds, or error with a message that starts with prefix.

    Besides malformed JSON, this refuses nesting too deep for the decoder, and
    any string, key or value, holding a lone surrogate: UTF-8 cannot encode
    one, so such a string could be read but never written. JSON text read as
    UTF-8 holds one only as an escape, so the value is walked only when the
    text has one.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{prefix}line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise error(f"{prefix or 'document '}nested too deeply") from None  # a document's message names it
    stack = [data] if _SURROGATE_ESCAPE.search(text) else []
    while stack:
        v = stack.pop()
        if isinstance(v, str) and re.search("[\ud800-\udfff]", v):  # compiled only when text has an escape
            raise error(f"{prefix}string {v!r} holds a lone surrogate, which UTF-8 cannot encode")
        if isinstance(v, (list, dict)):
            stack.extend(reversed([x for kv in v.items() for x in kv] if isinstance(v, dict) else v))
    return data


class StatesSection(NamedTuple):
    tower: StateTower | None = None
    base: dict[ElementId, object] | None = None
    top: dict[ElementId, object] | None = None
    connectors: tuple[Connector, ...] | None = None
    co_connectors: tuple[CoConnector, ...] | None = None
    assignment: LambdaAssignment | None = None


class Document(NamedTuple):
    hyperstructure: Hyperstructure | None = None
    topology: dict[ElementId, frozenset[Sieve]] | None = None
    states: StatesSection | None = None
    category: FiniteCategory | None = None
    presheaf: Presheaf | None = None
    simplicial: SimplicialData | None = None


SECTIONS = {"format", "hyperstructure", "topology", "states", "category", "presheaf", "simplicial"}


def __getattr__(name: str):
    """parse and serialize, from the document reader and writer, each loaded on first use."""
    home = {"parse": "document_reader", "serialize": "document_writer"}.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{home}", fromlist=[name]), name)
