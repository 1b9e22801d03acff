"""Canonical JSON documents bundling a tower with its optional payloads.

One document carries everything a command needs: the tower itself, a
topology, state spaces with connectors, category/presheaf data, or raw
simplicial data. Serialization is canonical — every set is sorted, every
id-keyed mapping is a sorted pair list — so equal inputs produce identical
bytes and golden-file comparisons are trivial.

This module holds the envelope, the tower section and the validators every
section shares. Each payload section's reader and writer lives beside its
types: the topology section in `topology`, the states section in `states`,
and the category, presheaf and simplicial sections in `catelem`. `parse` and
`serialize` import a section's module only when the section is present, so
a document without payload sections loads none of them.
"""
from __future__ import annotations

import json
import re
from functools import partial
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from .core import Bond, ElementId, FusionRecord, Hyperstructure, IDENTITY_PROPERTY, RawId, Record, Support, assemble
from .errors import DanglingReference, HyperstructError, ParseError, ReservedProperty, SchemaError

if TYPE_CHECKING:
    from .catelem import FiniteCategory, Presheaf, SimplicialData
    from .states import CoConnector, Connector, LambdaAssignment, StateTower
    from .topology import Sieve

FORMAT = "hyperstruct/1"


def _jkey(v):
    if not isinstance(v, (str, int)) or isinstance(v, bool):
        raise SchemaError(f"identifiers and states must be strings or integers, got {v!r}")
    return (isinstance(v, str), v)


def _expect_obj(value, where: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    if required <= value.keys() <= allowed:
        return value
    for k in value:
        if k not in allowed:
            raise SchemaError(f"{where}: unknown field {k!r}")
    for k in sorted(required):  # sorted, so the field named does not depend on the hash seed
        if k not in value:
            raise SchemaError(f"{where}: missing field {k!r}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return value


def _expect_id(value, where: str) -> RawId:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{where}: identifiers must be strings or integers, got {value!r}")
    return value


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def refuse_lone_surrogates(text: str, data, error: type[HyperstructError], where: str) -> None:
    """Raise error on the first string of data, key or value, holding a lone surrogate.

    UTF-8 cannot encode one, so such a string could be read but never written.
    JSON text read as UTF-8 holds one only as an escape, so data is walked only when text has one.
    """
    stack = [data] if _SURROGATE_ESCAPE.search(text) else []
    while stack:
        v = stack.pop()
        if isinstance(v, str) and re.search("[\ud800-\udfff]", v):  # compiled only when text has an escape
            raise error(f"{where}string {v!r} holds a lone surrogate, which UTF-8 cannot encode")
        if isinstance(v, (list, dict)):
            stack.extend(reversed([x for kv in v.items() for x in kv] if isinstance(v, dict) else v))


class StatesSection(Record):
    _fields = ("tower", "base", "top", "connectors", "co_connectors", "assignment")
    tower: StateTower | None
    base: dict[ElementId, object] | None
    top: dict[ElementId, object] | None
    connectors: tuple[Connector, ...] | None
    co_connectors: tuple[CoConnector, ...] | None
    assignment: LambdaAssignment | None

    def __init__(self, tower=None, base=None, top=None, connectors=None, co_connectors=None, assignment=None):
        self.tower, self.base, self.top = tower, base, top
        self.connectors, self.co_connectors, self.assignment = connectors, co_connectors, assignment


class Document(Record):
    _fields = ("hyperstructure", "topology", "states", "category", "presheaf", "simplicial")
    hyperstructure: Hyperstructure | None
    topology: dict[ElementId, frozenset[Sieve]] | None
    states: StatesSection | None
    category: FiniteCategory | None
    presheaf: Presheaf | None
    simplicial: SimplicialData | None

    def __init__(self, hyperstructure=None, topology=None, states=None, category=None, presheaf=None, simplicial=None):
        self.hyperstructure, self.topology, self.states = hyperstructure, topology, states
        self.category, self.presheaf, self.simplicial = category, presheaf, simplicial


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


_PLAIN_IDS = frozenset({str, int})
_OMEGA_FIELDS = frozenset({"support", "properties"})
_BOND_FIELDS = frozenset({"id", "level", "support", "property", "identity"})
_BOND_REQUIRED = _BOND_FIELDS - {"identity"}


def _h_from_json(value) -> Hyperstructure:
    obj = _expect_obj(value, "hyperstructure", {"order", "levels", "omega", "bonds", "fusion_log"}, {"order", "levels", "omega", "bonds"})
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise SchemaError("hyperstructure.order: expected a non-negative integer")
    raw_levels = _expect_list(obj["levels"], "hyperstructure.levels")
    if len(raw_levels) != order + 1:
        raise SchemaError(f"hyperstructure.levels: expected {order + 1} levels, got {len(raw_levels)}")
    levels: list[dict[RawId, ElementId]] = []  # per level: raw id -> element
    for i, lvl in enumerate(raw_levels):
        ids = _expect_list(lvl, f"levels[{i}]")
        if not set(map(type, ids)) <= _PLAIN_IDS:
            ids = [_expect_id(r, f"levels[{i}]") for r in ids]
        elems = {r: ElementId(i, r) for r in ids}
        if len(elems) != len(ids):
            raise SchemaError(f"levels[{i}]: duplicate identifiers")
        levels.append(elems)

    def resolve(i: int, raw, where: str) -> ElementId:
        r = _expect_id(raw, where)
        e = levels[i].get(r) if 0 <= i <= order else None
        if e is None:
            raise DanglingReference(f"{where}: no element {raw!r} at level {i}")
        return e

    supports: list[dict[frozenset[ElementId], Support]] = [{} for _ in levels]  # one object per support

    def support(i: int, raws, where: str) -> Support:
        raws = _expect_list(raws, where)
        members = None
        if set(map(type, raws)) <= _PLAIN_IDS:
            try:
                members = frozenset(map(levels[i].__getitem__, raws))
            except KeyError:
                pass
        if members is None:  # resolve one by one, which raises the first member's error
            members = frozenset([resolve(i, r, where) for r in raws])
        s = supports[i].get(members)
        if s is None:
            s = supports[i][members] = Support(i, members)
        return s

    raw_omega = _expect_list(obj["omega"], "hyperstructure.omega")
    if len(raw_omega) != order + 1:
        raise SchemaError(f"hyperstructure.omega: expected {order + 1} tables")
    omegas: list[dict[Support, frozenset[str]]] = []
    for i, entries in enumerate(raw_omega):
        table: dict[Support, frozenset[str]] = {}
        where = f"omega[{i}]"
        for entry in _expect_list(entries, where):
            e = _expect_obj(entry, where, _OMEGA_FIELDS, _OMEGA_FIELDS)
            s = support(i, e["support"], f"{where}.support")
            tokens = _expect_list(e["properties"], f"{where}.properties")
            for t in tokens:
                if not isinstance(t, str):
                    raise SchemaError(f"{where}: property tokens must be strings")
                if t == IDENTITY_PROPERTY:
                    raise ReservedProperty(f"{where}: {IDENTITY_PROPERTY!r} is reserved")
            table[s] = table.get(s, frozenset()) | frozenset(tokens)
        omegas.append(table)

    bonds = []
    for k, entry in enumerate(_expect_list(obj["bonds"], "hyperstructure.bonds")):
        e = _expect_obj(entry, f"bonds[{k}]", _BOND_FIELDS, _BOND_REQUIRED)
        lvl = e["level"]
        if not isinstance(lvl, int) or isinstance(lvl, bool) or not 1 <= lvl <= order:
            raise SchemaError(f"bonds[{k}]: level must be an integer in 1..{order}")
        eid = resolve(lvl, e["id"], f"bonds[{k}].id")
        s = support(lvl - 1, e["support"], f"bonds[{k}].support")
        prop = e["property"]
        if not isinstance(prop, str):
            raise SchemaError(f"bonds[{k}]: property must be a string")
        identity = e.get("identity", False)
        if not isinstance(identity, bool):
            raise SchemaError(f"bonds[{k}]: identity must be a boolean")
        if prop == IDENTITY_PROPERTY and not identity:
            raise ReservedProperty(f"bonds[{k}]: {IDENTITY_PROPERTY!r} is reserved for identity bonds")
        bonds.append(Bond(id=eid, support=s, property=prop, identity=identity))

    def ref(value, where: str) -> ElementId:
        pair = _expect_list(value, where)
        if len(pair) != 2 or not isinstance(pair[0], int) or isinstance(pair[0], bool):
            raise SchemaError(f"{where}: expected [level, id]")
        return resolve(pair[0], pair[1], where)

    fusion_log = []
    for k, entry in enumerate(_expect_list(obj.get("fusion_log", []), "hyperstructure.fusion_log")):
        e = _expect_obj(entry, f"fusion_log[{k}]", {"k", "a", "b", "result"}, {"k", "a", "b", "result"})
        a, b, result = (ref(e[name], f"fusion_log[{k}].{name}") for name in ("a", "b", "result"))
        m, n = max(a.level, b.level), min(a.level, b.level)
        glue = e["k"]
        if not isinstance(glue, int) or isinstance(glue, bool) or not 0 <= glue < n:
            raise SchemaError(f"fusion_log[{k}]: k must be an integer in 0..{n - 1}")
        fusion_log.append(FusionRecord(k=glue, m=m, n=n, a=a, b=b, result=result))

    # identity bonds imply their (stripped) omega entries, added in registry order
    for b in sorted((b for b in bonds if b.identity), key=lambda b: b.key):
        table = omegas[b.support.level]
        table[b.support] = table.get(b.support, frozenset()) | {b.property}
    h = assemble([lvl.values() for lvl in levels], omegas, bonds, tuple(fusion_log))
    h.__dict__["element_index"] = tuple(levels)  # the cached property, from the tables built above
    return h


SECTIONS = {"format", "hyperstructure", "topology", "states", "category", "presheaf", "simplicial"}


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


def parse(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    refuse_lone_surrogates(text, data, ParseError, "")
    obj = _expect_obj(data, "document", SECTIONS, {"format"})
    if obj["format"] != FORMAT:
        raise SchemaError(f"unsupported format {obj['format']!r}; expected {FORMAT!r}")
    doc = Document()
    if "hyperstructure" in obj:
        doc.hyperstructure = _h_from_json(obj["hyperstructure"])
    if "topology" in obj:
        from .topology import _topology_from_json

        doc.topology = _topology_from_json(obj["topology"], doc.hyperstructure)
    if "states" in obj:
        from .states import _states_from_json

        doc.states = _states_from_json(obj["states"], doc.hyperstructure)
    if "category" in obj:
        from .catelem import _category_from_json

        doc.category = _category_from_json(obj["category"])
    if "presheaf" in obj:
        from .catelem import _presheaf_from_json

        doc.presheaf = _presheaf_from_json(obj["presheaf"], doc.category)
    if "simplicial" in obj:
        from .catelem import _simplicial_from_json

        doc.simplicial = _simplicial_from_json(obj["simplicial"])
    return doc
