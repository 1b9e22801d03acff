"""serialize, the canonical writer of documents, with the tower section's writer.

`document` exports serialize and loads this module on first use. `states`
writes its pair lists with the helpers here.
"""
from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import itemgetter

from .core import ElementId, Hyperstructure, IDENTITY_PROPERTY, RawId, _key_sorted, id_key
from .document import FORMAT, Document, _jkey
from .errors import SchemaError


# -- serialization ------------------------------------------------------------------
#
# serialize writes json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
# + "\n" of the document's JSON object without building that object for the
# two sections that grow with the tower: the tower is written from one
# template per bond, omega entry and fusion record, and the states section's
# pair lists from one template per pair (see states). Everything else goes
# through json.dumps, its lines shifted to their depth. Each writer takes the
# indentation of the line its value starts on.
#
# The writer writes only what the reader reads, with one path per table. One
# set-of-types test per column (_writer) picks how the column is written and
# refuses, with SchemaError naming it, a value of a type the reader refuses
# there (exactly: a bool is no int). Every section is checked before any is
# written; ranges and references are left to validate and parse. Id lists
# sort as plain values, and by id_key only when a str meets an int.


def _dumps(value, pad: str) -> str:
    """value as json.dumps(indent=2) writes it inside a line indented by pad."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n" + pad)


_raw = itemgetter(1)  # an ElementId's raw id
_IDENTITY = frozenset({IDENTITY_PROPERTY})

# What a column may hold: the message refusing anything else, and the writer of each type.
_IDS = ("identifiers and states must be strings or integers", {str: encode_basestring, int: int.__repr__})
_TOKENS = ("property tokens must be strings", {str: encode_basestring})
_INTS = ("levels, k and the order must be integers", {int: int.__repr__})
_FLAGS = ("identity flags must be booleans", {bool: {True: "true", False: "false"}.__getitem__})


def _writer(rows, kind: tuple = _IDS):
    """How each value of rows (iterables that can be walked twice) is written,
    once every value's type is one that kind holds; SchemaError names the
    first value that is not."""
    noun, writers = kind
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds.issubset(writers):
        bad = next(v for v in chain.from_iterable(rows) if type(v) not in writers)
        raise SchemaError(f"{noun}, got {bad!r}")
    if len(kinds) == 1:
        return writers[kinds.pop()]
    return lambda v: writers[type(v)](v)


def _lists(rows, write, pad: str) -> list[str]:
    """Each row as a JSON list inside a line indented by pad, written with one
    join (one f-string: the joined items are copied once); write gives each
    value's text."""
    inner = "\n" + pad + "  "
    sep, end = "," + inner, "\n" + pad + "]"
    return [f"[{inner}{sep.join(map(write, row))}{end}" if row else "[]" for row in rows]


def _list(items: list[str], pad: str) -> str:
    """A JSON list of written items."""
    return _lists([items], str, pad)[0]


def _id_lists(member_sets: list, pad: str) -> tuple[list[list[RawId]], list[str]]:
    """Each set's raw ids in id order, and the same written as a JSON list."""
    try:
        rows = list(map(sorted, map(map, repeat(_raw), member_sets)))
    except TypeError:  # a str met an int, or a value no id can be, which _jkey names
        rows = [sorted(map(_raw, m), key=_jkey) for m in member_sets]
    return rows, _lists(rows, _writer(rows), pad)


def _omega_entries(table: dict, written: dict[frozenset[ElementId], str]) -> list[tuple[list[RawId], str, str]]:
    """An omega table's entries as (ids, support text, properties text) in
    canonical order. The identity token is not written, nor an entry that
    carries nothing else.

    Each distinct token set is written once, and each support's id list is
    written at a bond's depth into written, for the bonds to reuse; an entry
    shifts it two columns right.
    """
    token_sets = set(table.values())
    write = _writer(token_sets, _TOKENS)
    kept = {tokens: sorted(tokens.difference(_IDENTITY)) for tokens in token_sets}
    properties = dict(zip(kept, _lists(kept.values(), write, " " * 10)))
    members, tokens = list(zip(*[(s.members, tokens) for s, tokens in table.items() if kept[tokens]])) or [(), ()]
    rows, texts = _id_lists(members, " " * 8)
    written.update(zip(members, texts))
    entries = list(zip(rows, map(str.replace, texts, repeat("\n"), repeat("\n  ")), map(properties.__getitem__, tokens)))
    try:  # ids of one type at each position compare as their keys do
        return sorted(entries, key=itemgetter(0))
    except TypeError:  # a str met an int: order by id_key, ints first
        return sorted(entries, key=lambda e: list(map(id_key, e[0])))


def _h_sorted(h: Hyperstructure) -> tuple[list, list, list, list]:
    """The tower section's parts, checked and written, in canonical order:
    each level's id list, each omega table's entries, each bond's fields and
    each fusion record. A support written for an omega entry is reused."""
    p6, p8 = " " * 6, " " * 8
    levels = [_id_lists([lvl], p6)[1][0] for lvl in h.levels]
    written: dict[frozenset[ElementId], str] = {}
    omega = [_omega_entries(table, written) for table in h.omegas]
    try:
        bonds = _key_sorted(list(h.bonds), itemgetter(0))
    except TypeError:  # a level or id no document holds, which the column checks below name
        bonds = list(h.bonds)
    columns = list(zip(*[(b.id.level, b.id.id, b.property, b.identity) for b in bonds])) or [()] * 4
    writers = [_writer([c], kind) for c, kind in zip(columns, (_INTS, _IDS, _TOKENS, _FLAGS))]
    members = [b.support.members for b in bonds]
    missing = [m for m in members if m not in written]
    written.update(zip(missing, _id_lists(missing, p8)[1]))
    fields = zip(*map(map, writers, columns), map(written.__getitem__, members))
    refs = [e for r in h.fusion_log for e in (r.a, r.b, r.result)]
    write_int = _writer([[h.order], [r.k for r in h.fusion_log], [e.level for e in refs]], _INTS)
    write_id = _writer([[e.id for e in refs]])

    def pair(e: ElementId) -> str:
        return _list([write_int(e.level), write_id(e.id)], p8)

    records = [
        f'{{\n{p8}"a": {pair(r.a)},\n{p8}"b": {pair(r.b)},\n{p8}"k": {write_int(r.k)},'
        f'\n{p8}"result": {pair(r.result)}\n{p6}}}'
        for r in h.fusion_log
    ]
    return levels, omega, fields, records


def _h_text(h: Hyperstructure, levels: list, omega: list, fields: list, records: list) -> str:
    """The hyperstructure section, put together at depth one from _h_sorted's parts."""
    p4, p6, p8, p10 = " " * 4, " " * 6, " " * 8, " " * 10
    items = [
        f'{{\n{p8}"id": {i},\n{p8}"identity": {f},\n{p8}"level": {lvl},\n{p8}"property": {prop},\n{p8}"support": {support}\n{p6}}}'
        for lvl, i, prop, f, support in fields
    ]
    parts = [f'"bonds": {_list(items, p4)}']
    if records:  # written only when present, so unfused towers keep their bytes
        parts.append(f'"fusion_log": {_list(records, p4)}')
    parts.append(f'"levels": {_list(levels, p4)}')
    tables = [
        _list([f'{{\n{p10}"properties": {tokens},\n{p10}"support": {support}\n{p8}}}' for _, support, tokens in entries], p6)
        for entries in omega
    ]
    parts.append(f'"omega": {_list(tables, p4)}')
    parts.append(f'"order": {int.__repr__(h.order)}')
    sep = ",\n" + p4
    return f"{{\n{p4}{sep.join(parts)}\n  }}"


def serialize(doc: Document) -> str:
    """The document's canonical text (see the serialization notes above)."""
    h = doc.hyperstructure
    writers = {"format": partial(_dumps, FORMAT, "  ")}  # section -> its text, once every check has run
    if h is not None:
        writers["hyperstructure"] = partial(_h_text, h, *_h_sorted(h))
    if doc.topology is not None:
        from .topology import _topology_to_json

        writers["topology"] = partial(_dumps, _topology_to_json(doc.topology), "  ")
    if doc.states is not None:
        from .states import _states_sorted, _states_text

        writers["states"] = partial(_states_text, _states_sorted(doc.states))
    if doc.category is not None:
        from .catelem import _category_to_json

        writers["category"] = partial(_dumps, _category_to_json(doc.category), "  ")
    if doc.presheaf is not None:
        from .catelem import _presheaf_to_json

        writers["presheaf"] = partial(_dumps, _presheaf_to_json(doc.presheaf), "  ")
    if doc.simplicial is not None:
        from .catelem import _simplicial_to_json

        writers["simplicial"] = partial(_dumps, _simplicial_to_json(doc.simplicial), "  ")
    body = ",\n".join(f'  "{name}": {write()}' for name, write in sorted(writers.items()))
    return f"{{\n{body}\n}}\n"
