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

from .core import ElementId, Hyperstructure, IDENTITY_PROPERTY, RawId
from .document import FORMAT, Document, _jkey, _of_types


# -- serialization ------------------------------------------------------------------
#
# serialize writes json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
# + "\n" of the document's JSON object without building that object for the
# two sections that grow with the tower: the tower is written from one
# template per bond, omega entry and fusion record, and the states section's
# pair lists from one template per pair (see states). Everything else goes
# through json.dumps, its lines shifted to their depth. Each writer takes the
# indentation of the line its value starts on. Every section is checked
# before any is written, so a refused document raises its first error.
#
# Tables are written at once. When every id of a table's id lists is a str,
# or every one an int, the lists sort as plain values and each is written
# with one join (_id_lists); bond fields and omega tokens of one type per
# column are written by one map per column. Only a table that
# mixes types, or holds a value no document can, is written entry by entry
# with _id_list and _scalar, in the order the entries are read, so the first
# bad id is the one refused whichever way a table is written.


def _dumps(value, pad: str) -> str:
    """value as json.dumps(indent=2) writes it inside a line indented by pad."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n" + pad)


def _scalar(v, pad: str) -> str:
    """_dumps(v, pad), with strings, booleans and ints written directly."""
    if isinstance(v, str):
        return encode_basestring(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    return _dumps(v, pad)


def _list(items: list[str], pad: str) -> str:
    """A JSON list of written items."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]"  # one f-string: the joined items are copied once


def _id_list(elements, pad: str) -> tuple[list[RawId], str]:
    """The elements' raw ids in _jkey order, and the same written as a JSON
    list, one id at a time: _jkey refuses the first id that is neither a
    str nor an int."""
    ids = sorted((e.id for e in elements), key=_jkey)
    return ids, _list([_scalar(x, pad) for x in ids], pad)


_raw = itemgetter(1)  # an ElementId's raw id
_ID_WRITERS = {str: encode_basestring, int: int.__repr__}
_WRITERS = {**_ID_WRITERS, bool: {True: "true", False: "false"}.__getitem__}
_IDENTITY = frozenset({IDENTITY_PROPERTY})


def _writer(values, writers: dict = _ID_WRITERS):
    """How each of values is written, when they all have one type that
    writers holds (any writer, when there are no values); None otherwise."""
    kinds = set(map(type, values))
    return writers.get(kinds.pop()) if len(kinds) == 1 else encode_basestring if not kinds else None


def _lists(rows, write, pad: str) -> list[str]:
    """Each row as a JSON list inside a line indented by pad, written with one
    join; write gives each value's text."""
    inner = "\n" + pad + "  "
    sep, end = "," + inner, "\n" + pad + "]"
    return [f"[{inner}{sep.join(map(write, row))}{end}" if row else "[]" for row in rows]


def _id_lists(member_sets: list, pad: str) -> tuple[list[list[RawId]], list[str]]:
    """Each set's raw ids in _jkey order, and the same written as a JSON list.

    When every id of every set is a str, or every one an int, the ids sort
    as plain values and each list is written with one join. Otherwise each
    set goes through _id_list.
    """
    write = _writer(map(_raw, chain.from_iterable(member_sets)))
    if write is None:
        written = [_id_list(m, pad) for m in member_sets]
        return [ids for ids, _ in written], [text for _, text in written]
    rows = list(map(sorted, map(map, repeat(_raw), member_sets)))
    return rows, _lists(rows, write, pad)


def _omega_entries(table: dict, written: dict[frozenset[ElementId], str]) -> list[tuple[list[RawId], str, str]]:
    """An omega table's entries as (ids, support text, properties text) in
    canonical order. The identity token is not written, nor an entry that
    carries nothing else.

    When every token is a str, each distinct token set is written once, and
    each support's id list is written at a bond's depth into written, for
    the bonds to reuse; an entry shifts it two columns right.
    """
    p10 = " " * 10
    if _of_types(table.values(), frozenset) and _writer(chain.from_iterable(table.values())) is encode_basestring:
        kept = {tokens: sorted(tokens.difference(_IDENTITY)) for tokens in set(table.values())}
        properties = dict(zip(kept, _lists(kept.values(), encode_basestring, p10)))
        members, tokens = list(zip(*[(s.members, tokens) for s, tokens in table.items() if kept[tokens]])) or [(), ()]
        rows, texts = _id_lists(members, " " * 8)
        written.update(zip(members, texts))
        entries = list(zip(rows, map(str.replace, texts, repeat("\n"), repeat("\n  ")), map(properties.__getitem__, tokens)))
    else:
        entries = []
        for s, tokens in table.items():
            kept = sorted(t for t in tokens if t != IDENTITY_PROPERTY)
            if kept:
                ids, text = _id_list(s.members, p10)
                entries.append((ids, text, _list([_scalar(t, p10 + "  ") for t in kept], p10)))
    try:  # ids of one type at each position compare as their keys do
        return sorted(entries, key=itemgetter(0))
    except TypeError:  # a str met an int: order by _jkey, ints first
        return sorted(entries, key=lambda e: [_jkey(x) for x in e[0]])


def _h_sorted(h: Hyperstructure) -> tuple[list, list, list]:
    """The tower section's id lists, written, in canonical order: per level,
    per omega table (with each entry's tokens) and per bond (with the bond).

    All the section's _jkey checks run here, levels first, then omega
    tables, then bonds, so the first bad id is refused before anything is
    written. A bond's support already written for an omega entry is not
    written again.
    """
    levels = [_id_lists([lvl], " " * 6)[1][0] for lvl in h.levels]
    written: dict[frozenset[ElementId], str] = {}
    omega = [_omega_entries(table, written) for table in h.omegas]
    bond_ids = list(map(itemgetter(0), h.bonds))
    if _writer(map(itemgetter(0), bond_ids)) is int.__repr__ and _writer(map(_raw, bond_ids)):
        bonds = sorted(h.bonds, key=itemgetter(0))  # int levels and one plain id type: bonds sort as their ids
    else:
        bonds = sorted(h.bonds, key=lambda b: (b.id.level, _jkey(b.id.id)))
    members = [b.support.members for b in bonds]
    missing = [m for m in members if m not in written]
    written.update(zip(missing, _id_lists(missing, " " * 8)[1]))
    return levels, omega, list(zip(bonds, map(written.__getitem__, members)))


def _h_text(h: Hyperstructure, levels: list, omega: list, bonds: list) -> str:
    """The hyperstructure section, written at depth one from _h_sorted's lists."""
    p4, p6, p8, p10 = " " * 4, " " * 6, " " * 8, " " * 10
    columns = list(zip(*[(b.id.id, b.identity, b.id.level, b.property) for b, _ in bonds])) or [()] * 4
    writers = [_writer(column, _WRITERS) for column in columns]
    if all(writers):  # every field of one type: each column written by one map
        rows = zip(*(map(write, column) for write, column in zip(writers, columns)), map(itemgetter(1), bonds))
    else:
        rows = (
            (_scalar(b.id.id, p8), _scalar(b.identity, p8), _scalar(b.id.level, p8), _scalar(b.property, p8), support)
            for b, support in bonds
        )
    items = [
        f'{{\n{p8}"id": {i},\n{p8}"identity": {f},\n{p8}"level": {lvl},\n{p8}"property": {prop},\n{p8}"support": {support}\n{p6}}}'
        for i, f, lvl, prop, support in rows
    ]
    fields = [f'"bonds": {_list(items, p4)}']
    if h.fusion_log:  # written only when present, so unfused towers keep their bytes

        def pair(e: ElementId) -> str:
            return _list([_scalar(e.level, p10), _scalar(e.id, p10)], p8)

        records = [
            f'{{\n{p8}"a": {pair(r.a)},\n{p8}"b": {pair(r.b)},\n{p8}"k": {_scalar(r.k, p8)},'
            f'\n{p8}"result": {pair(r.result)}\n{p6}}}'
            for r in h.fusion_log
        ]
        fields.append(f'"fusion_log": {_list(records, p4)}')
    fields.append(f'"levels": {_list(levels, p4)}')
    tables = [
        _list([f'{{\n{p10}"properties": {tokens},\n{p10}"support": {support}\n{p8}}}' for _, support, tokens in entries], p6)
        for entries in omega
    ]
    fields.append(f'"omega": {_list(tables, p4)}')
    fields.append(f'"order": {_scalar(h.order, p4)}')
    sep = ",\n" + p4
    return f"{{\n{p4}{sep.join(fields)}\n  }}"


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
