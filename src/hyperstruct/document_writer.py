"""serialize, the canonical writer of documents, with the tower section's writer.

`document` exports serialize and loads this module on first use. `states`
writes its pair lists with the helpers here.
"""
from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring

from .core import ElementId, Hyperstructure, IDENTITY_PROPERTY, RawId
from .document import FORMAT, Document, _jkey


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
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _id_list(elements, pad: str) -> tuple[list[RawId], str, set[type]]:
    """The elements' raw ids in _jkey order, the same written as a JSON list, and their types."""
    ids = [e.id for e in elements]
    types = set(map(type, ids))
    if types == {str}:
        ids.sort()
        texts = map(encode_basestring, ids)
    elif types == {int}:
        ids.sort()
        texts = map(int.__repr__, ids)
    else:
        ids.sort(key=_jkey)
        texts = [_scalar(x, pad) for x in ids]
    return ids, _list(list(texts), pad), types


def _h_sorted(h: Hyperstructure) -> tuple[list, list, list]:
    """The tower section's id lists, written, in canonical order: per level,
    per omega table (with each entry's tokens) and per bond (with the bond).

    All the section's _jkey checks run here, levels first, then omega
    tables, then bonds, so the first bad id is refused before anything is
    written.
    """
    levels = [_id_list(lvl, " " * 6)[1] for lvl in h.levels]
    omega = []
    for table in h.omegas:
        entries = []
        types: set[type] = set()
        for s, tokens in table.items():
            kept = sorted(t for t in tokens if t != IDENTITY_PROPERTY)
            if kept:
                ids, text, more = _id_list(s.members, " " * 10)
                entries.append((ids, text, kept))
                types |= more
        if types == {str} or types == {int}:  # one plain type: ids compare as their keys do
            entries.sort(key=lambda e: e[0])
        else:
            entries.sort(key=lambda e: [_jkey(x) for x in e[0]])
        omega.append(entries)
    bonds = sorted(h.bonds, key=lambda b: (b.id.level, _jkey(b.id.id)))
    return levels, omega, [(b, _id_list(b.support.members, " " * 8)[1]) for b in bonds]


def _h_text(h: Hyperstructure, levels: list, omega: list, bonds: list) -> str:
    """The hyperstructure section, written at depth one from _h_sorted's lists."""
    p4, p6, p8, p10 = " " * 4, " " * 6, " " * 8, " " * 10
    bond_items = [
        f'{{\n{p8}"id": {_scalar(b.id.id, p8)},\n{p8}"identity": {_scalar(b.identity, p8)},'
        f'\n{p8}"level": {_scalar(b.id.level, p8)},\n{p8}"property": {_scalar(b.property, p8)},'
        f'\n{p8}"support": {support}\n{p6}}}'
        for b, support in bonds
    ]
    fields = [f'"bonds": {_list(bond_items, p4)}']
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
    tables = []
    for entries in omega:
        items = [
            f'{{\n{p10}"properties": {_list([_scalar(t, p10 + "  ") for t in kept], p10)},'
            f'\n{p10}"support": {support}\n{p8}}}'
            for _, support, kept in entries
        ]
        tables.append(_list(items, p6))
    fields.append(f'"omega": {_list(tables, p4)}')
    fields.append(f'"order": {_scalar(h.order, p4)}')
    return "{\n" + ",\n".join(p4 + f for f in fields) + "\n  }"


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
    return "{\n" + body + "\n}\n"
