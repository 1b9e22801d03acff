"""Canonical JSON documents bundling a tower with its optional payloads.

One document carries everything a command needs: the tower itself, a
topology, state spaces with connectors, category/presheaf data, or raw
simplicial data. Serialization is canonical — every set is sorted, every
id-keyed mapping is a sorted pair list — so equal inputs produce identical
bytes and golden-file comparisons are trivial.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from .core import Bond, ElementId, FusionRecord, Hyperstructure, IDENTITY_PROPERTY, RawId, Record, Support, assemble
from .errors import DanglingReference, HyperstructError, ParseError, ReservedProperty, SchemaError

# A payload section's module is imported by the reader or writer that needs
# it, so a document without that section never loads it.
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


def _expect_state(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{where}: states must be strings or integers, got {value!r}")
    return value


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
# tower, the largest section: it is written from one template per bond, omega
# entry and fusion record. Every other section goes through json.dumps, its
# lines shifted to their depth. Each writer takes the indentation of the line
# its value starts on.


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
    return assemble([lvl.values() for lvl in levels], omegas, bonds, tuple(fusion_log))


def _topology_to_json(topology: dict[ElementId, frozenset[Sieve]]) -> list:
    out = []
    for e in sorted(topology, key=lambda e: e.key):
        sieves = sorted(
            (sorted((m.id for m in s.members), key=_jkey) for s in topology[e]),
            key=lambda ms: [_jkey(m) for m in ms],
        )
        out.append([[e.level, e.id], sieves])
    return out


def _topology_from_json(value, h: Hyperstructure | None) -> dict[ElementId, frozenset[Sieve]]:
    if h is None:
        raise DanglingReference("topology: requires a hyperstructure section")
    from .topology import Sieve

    out: dict[ElementId, frozenset[Sieve]] = {}
    for k, entry in enumerate(_expect_list(value, "topology")):
        pair = _expect_list(entry, f"topology[{k}]")
        if len(pair) != 2:
            raise SchemaError(f"topology[{k}]: expected [[level, id], sieves]")
        key = _expect_list(pair[0], f"topology[{k}].key")
        if len(key) != 2 or not isinstance(key[0], int) or isinstance(key[0], bool):
            raise SchemaError(f"topology[{k}]: key must be [level, id]")
        lvl, raw = key
        root = ElementId(lvl, _expect_id(raw, f"topology[{k}].key"))
        if not h.has_element(root):
            raise DanglingReference(f"topology[{k}]: no element {raw!r} at level {lvl}")
        sieves = []
        for ms in _expect_list(pair[1], f"topology[{k}].sieves"):
            members = []
            for m in _expect_list(ms, f"topology[{k}].sieve"):
                e = ElementId(lvl, _expect_id(m, f"topology[{k}].sieve"))
                if not h.has_element(e):
                    raise DanglingReference(f"topology[{k}]: sieve member {m!r} missing at level {lvl}")
                members.append(e)
            sieves.append(Sieve(root=root, members=frozenset(members)))
        if root in out:
            raise SchemaError(f"topology[{k}]: duplicate entry for {root!r}")
        out[root] = frozenset(sieves)
    return out


def _pairs_to_json(mapping: dict[ElementId, object]) -> list:
    return [[e.id, v] for e, v in sorted(mapping.items(), key=lambda kv: kv[0].key)]


def _state_from_json(value, where: str, allow_marker: bool = False):
    if isinstance(value, dict):
        if not allow_marker:
            raise SchemaError(f"{where}: markers are only valid inside assignments")
        from .states import MARKERS

        obj = _expect_obj(value, where, {"marker"}, {"marker"})
        m = MARKERS.get(obj["marker"])
        if m is None:
            raise SchemaError(f"{where}: unknown marker {obj['marker']!r}")
        return m
    return _expect_state(value, where)


def _connector_to_json(c: Connector) -> dict:
    if c.kind == "table":
        entries = sorted(
            ([list(k), v] for k, v in (c.table or {}).items()),
            key=lambda e: [_jkey(x) for x in e[0]],
        )
        return {"kind": "table", "entries": entries}
    return {"kind": c.kind}


def _connector_from_json(value, where: str) -> Connector:
    from .states import Connector

    obj = _expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind in ("product", "sum", "union"):
        if "entries" in obj:
            raise SchemaError(f"{where}: built-in connectors take no entries")
        return Connector(kind=kind)
    if kind != "table":
        raise SchemaError(f"{where}: unknown connector kind {kind!r}")
    table = {}
    for e in _expect_list(obj.get("entries", []), f"{where}.entries"):
        pair = _expect_list(e, f"{where}.entries")
        if len(pair) != 2:
            raise SchemaError(f"{where}.entries: expected [multiset, state]")
        key = tuple(sorted((_expect_state(x, where) for x in _expect_list(pair[0], where)), key=_jkey))
        table[key] = _expect_state(pair[1], where)
    return Connector(kind="table", table=table)


def _co_connector_to_json(c: CoConnector) -> dict:
    if c.kind == "identity":
        return {"kind": "identity"}
    if c.kind == "table":
        entries = sorted(([k, v] for k, v in (c.table or {}).items()), key=lambda e: _jkey(e[0]))
        return {"kind": "table", "entries": entries}
    entries = sorted(
        ([[p.id, ch.id], v] for (p, ch), v in (c.table or {}).items()),
        key=lambda e: [_jkey(e[0][0]), _jkey(e[0][1])],
    )
    return {"kind": "per_child", "entries": entries}


def _co_connector_from_json(value, where: str, h: Hyperstructure, transition: int) -> CoConnector:
    from .states import CoConnector

    obj = _expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind == "identity":
        if "entries" in obj:
            raise SchemaError(f"{where}: identity co-connectors take no entries")
        return CoConnector(kind="identity")
    if kind == "table":
        table = {}
        for e in _expect_list(obj.get("entries", []), f"{where}.entries"):
            pair = _expect_list(e, f"{where}.entries")
            if len(pair) != 2:
                raise SchemaError(f"{where}.entries: expected [state, state]")
            table[_expect_state(pair[0], where)] = _expect_state(pair[1], where)
        return CoConnector(kind="table", table=table)
    if kind != "per_child":
        raise SchemaError(f"{where}: unknown co-connector kind {kind!r}")
    upper = h.order - transition
    table = {}
    for e in _expect_list(obj.get("entries", []), f"{where}.entries"):
        pair = _expect_list(e, f"{where}.entries")
        if len(pair) != 2 or not isinstance(pair[0], list) or len(pair[0]) != 2:
            raise SchemaError(f"{where}.entries: expected [[parent, child], state]")
        parent = ElementId(upper, _expect_id(pair[0][0], where))
        child = ElementId(upper - 1, _expect_id(pair[0][1], where))
        for e2 in (parent, child):
            if not h.has_element(e2):
                raise DanglingReference(f"{where}: no element {e2!r}")
        table[(parent, child)] = _expect_state(pair[1], where)
    return CoConnector(kind="per_child", table=table)


def _states_to_json(s: StatesSection) -> dict:
    from .states import Marker

    out: dict = {}
    if s.tower is not None:
        spaces = []
        for tokens, op in zip(s.tower.spaces, s.tower.ops):
            entry: dict = {"tokens": sorted(tokens, key=_jkey)}
            if op is None:
                entry["op"] = None
            else:
                entry["op"] = {
                    "unit": op.unit,
                    "table": sorted(([a, b, v] for (a, b), v in op.table.items()), key=lambda t: (_jkey(t[0]), _jkey(t[1]))),
                }
            spaces.append(entry)
        out["spaces"] = spaces
    out["base"] = _pairs_to_json(s.base) if s.base is not None else None
    out["top"] = _pairs_to_json(s.top) if s.top is not None else None
    out["connectors"] = [_connector_to_json(c) for c in s.connectors] if s.connectors is not None else None
    out["co_connectors"] = [_co_connector_to_json(c) for c in s.co_connectors] if s.co_connectors is not None else None
    if s.assignment is not None:
        out["assignment"] = [
            [[e.id, {"marker": v.name} if isinstance(v, Marker) else v] for e, v in sorted(level.items(), key=lambda kv: kv[0].key)]
            for level in s.assignment.per_level
        ]
    else:
        out["assignment"] = None
    return out


def _states_from_json(value, h: Hyperstructure | None) -> StatesSection:
    if h is None:
        raise DanglingReference("states: requires a hyperstructure section")
    from .states import LambdaAssignment, SpaceOp, state_tower

    obj = _expect_obj(value, "states", {"spaces", "base", "top", "connectors", "co_connectors", "assignment"})
    s = StatesSection()
    if obj.get("spaces") is not None:
        spaces = []
        ops = []
        for k, entry in enumerate(_expect_list(obj["spaces"], "states.spaces")):
            e = _expect_obj(entry, f"states.spaces[{k}]", {"tokens", "op"}, {"tokens"})
            tokens = frozenset(_expect_state(t, f"states.spaces[{k}]") for t in _expect_list(e["tokens"], f"states.spaces[{k}].tokens"))
            spaces.append(tokens)
            op = e.get("op")
            if op is None:
                ops.append(None)
            else:
                o = _expect_obj(op, f"states.spaces[{k}].op", {"unit", "table"}, {"unit", "table"})
                table = {}
                for t in _expect_list(o["table"], f"states.spaces[{k}].op.table"):
                    trip = _expect_list(t, f"states.spaces[{k}].op.table")
                    if len(trip) != 3:
                        raise SchemaError(f"states.spaces[{k}].op.table: expected [a, b, result]")
                    table[(_expect_state(trip[0], "op"), _expect_state(trip[1], "op"))] = _expect_state(trip[2], "op")
                ops.append(SpaceOp(unit=_expect_state(o["unit"], "op"), table=table))
        s.tower = state_tower(spaces, ops)

    def read_pairs(name: str, level: int) -> dict[ElementId, object] | None:
        raw = obj.get(name)
        if raw is None:
            return None
        out: dict[ElementId, object] = {}
        for e in _expect_list(raw, f"states.{name}"):
            pair = _expect_list(e, f"states.{name}")
            if len(pair) != 2:
                raise SchemaError(f"states.{name}: expected [id, state]")
            el = ElementId(level, _expect_id(pair[0], f"states.{name}"))
            if not h.has_element(el):
                raise DanglingReference(f"states.{name}: no element {pair[0]!r} at level {level}")
            out[el] = _expect_state(pair[1], f"states.{name}")
        return out

    s.base = read_pairs("base", 0)
    s.top = read_pairs("top", h.order)
    if obj.get("connectors") is not None:
        s.connectors = tuple(
            _connector_from_json(c, f"states.connectors[{k}]")
            for k, c in enumerate(_expect_list(obj["connectors"], "states.connectors"))
        )
    if obj.get("co_connectors") is not None:
        s.co_connectors = tuple(
            _co_connector_from_json(c, f"states.co_connectors[{k}]", h, k)
            for k, c in enumerate(_expect_list(obj["co_connectors"], "states.co_connectors"))
        )
    if obj.get("assignment") is not None:
        raw_levels = _expect_list(obj["assignment"], "states.assignment")
        if len(raw_levels) != h.order + 1:
            raise SchemaError(f"states.assignment: expected {h.order + 1} levels")
        per_level = []
        for i, entries in enumerate(raw_levels):
            level: dict[ElementId, object] = {}
            for e in _expect_list(entries, f"states.assignment[{i}]"):
                pair = _expect_list(e, f"states.assignment[{i}]")
                if len(pair) != 2:
                    raise SchemaError(f"states.assignment[{i}]: expected [id, state]")
                el = ElementId(i, _expect_id(pair[0], f"states.assignment[{i}]"))
                if not h.has_element(el):
                    raise DanglingReference(f"states.assignment[{i}]: no element {pair[0]!r}")
                level[el] = _state_from_json(pair[1], f"states.assignment[{i}]", allow_marker=True)
            per_level.append(level)
        s.assignment = LambdaAssignment(per_level=tuple(per_level))
    return s


def _category_to_json(c: FiniteCategory) -> dict:
    return {
        "objects": sorted(c.objects, key=_jkey),
        "morphisms": [
            {"id": m.id, "src": m.src, "tgt": m.tgt}
            for m in sorted(c.morphisms, key=lambda m: _jkey(m.id))
        ],
        "identities": sorted(([o, m] for o, m in c.identities.items()), key=lambda e: _jkey(e[0])),
        "composition": sorted(
            ([g, f, gf] for (g, f), gf in c.composition.items()),
            key=lambda e: (_jkey(e[0]), _jkey(e[1])),
        ),
    }


def _category_from_json(value) -> FiniteCategory:
    from .catelem import Morphism, finite_category

    obj = _expect_obj(value, "category", {"objects", "morphisms", "identities", "composition"}, {"objects", "morphisms", "identities", "composition"})
    objects = [_expect_id(o, "category.objects") for o in _expect_list(obj["objects"], "category.objects")]
    morphisms = []
    for k, m in enumerate(_expect_list(obj["morphisms"], "category.morphisms")):
        e = _expect_obj(m, f"category.morphisms[{k}]", {"id", "src", "tgt"}, {"id", "src", "tgt"})
        morphisms.append(Morphism(_expect_id(e["id"], "morphism"), _expect_id(e["src"], "morphism"), _expect_id(e["tgt"], "morphism")))
    obj_set = set(objects)
    mor_set = {m.id for m in morphisms}
    for m in morphisms:
        if m.src not in obj_set or m.tgt not in obj_set:
            raise DanglingReference(f"category: morphism {m.id!r} references unknown objects")
    identities = {}
    for e in _expect_list(obj["identities"], "category.identities"):
        pair = _expect_list(e, "category.identities")
        if len(pair) != 2:
            raise SchemaError("category.identities: expected [object, morphism]")
        if _expect_id(pair[0], "category.identities") not in obj_set or _expect_id(pair[1], "category.identities") not in mor_set:
            raise DanglingReference(f"category.identities: unresolved pair {pair!r}")
        identities[pair[0]] = pair[1]
    composition = {}
    for e in _expect_list(obj["composition"], "category.composition"):
        trip = _expect_list(e, "category.composition")
        if len(trip) != 3:
            raise SchemaError("category.composition: expected [g, f, gf]")
        for m in trip:
            if _expect_id(m, "category.composition") not in mor_set:
                raise DanglingReference(f"category.composition: unknown morphism {m!r}")
        composition[(trip[0], trip[1])] = trip[2]
    return finite_category(objects, morphisms, identities, composition)


def _presheaf_to_json(p: Presheaf) -> dict:
    return {
        "on_objects": sorted(([o, sorted(v, key=_jkey)] for o, v in p.on_objects.items()), key=lambda e: _jkey(e[0])),
        "on_morphisms": sorted(
            ([m, sorted(([x, y] for x, y in t.items()), key=lambda xy: _jkey(xy[0]))] for m, t in p.on_morphisms.items()),
            key=lambda e: _jkey(e[0]),
        ),
    }


def _presheaf_from_json(value, cat: FiniteCategory | None) -> Presheaf:
    if cat is None:
        raise DanglingReference("presheaf: requires a category section")
    from .catelem import Presheaf, validate_presheaf

    obj = _expect_obj(value, "presheaf", {"on_objects", "on_morphisms"}, {"on_objects", "on_morphisms"})
    on_objects = {}
    for e in _expect_list(obj["on_objects"], "presheaf.on_objects"):
        pair = _expect_list(e, "presheaf.on_objects")
        if len(pair) != 2:
            raise SchemaError("presheaf.on_objects: expected [object, elements]")
        if _expect_id(pair[0], "presheaf.on_objects") not in cat.objects:
            raise DanglingReference(f"presheaf.on_objects: unknown object {pair[0]!r}")
        on_objects[pair[0]] = frozenset(_expect_id(x, "presheaf") for x in _expect_list(pair[1], "presheaf.on_objects"))
    on_morphisms = {}
    for e in _expect_list(obj["on_morphisms"], "presheaf.on_morphisms"):
        pair = _expect_list(e, "presheaf.on_morphisms")
        if len(pair) != 2:
            raise SchemaError("presheaf.on_morphisms: expected [morphism, table]")
        if _expect_id(pair[0], "presheaf.on_morphisms") not in cat.by_id:
            raise DanglingReference(f"presheaf.on_morphisms: unknown morphism {pair[0]!r}")
        table = {}
        for xy in _expect_list(pair[1], "presheaf.on_morphisms"):
            x = _expect_list(xy, "presheaf.on_morphisms")
            if len(x) != 2:
                raise SchemaError("presheaf.on_morphisms: expected [from, to]")
            table[_expect_id(x[0], "presheaf.on_morphisms")] = _expect_id(x[1], "presheaf.on_morphisms")
        on_morphisms[pair[0]] = table
    p = Presheaf(on_objects=on_objects, on_morphisms=on_morphisms)
    validate_presheaf(cat, p)
    return p


def _simplicial_to_json(s: SimplicialData) -> dict:
    dims = []
    for k in range(s.max_dim + 1):
        entries = []
        for sid in sorted(s.simplices[k], key=_jkey):
            if k == 0:
                entries.append({"id": sid, "faces": None})
            else:
                entries.append({"id": sid, "faces": list(s.faces[sid])})
        dims.append(entries)
    return {"max_dim": s.max_dim, "dimensions": dims}


def _simplicial_from_json(value) -> SimplicialData:
    from .catelem import SimplicialData

    obj = _expect_obj(value, "simplicial", {"max_dim", "dimensions"}, {"max_dim", "dimensions"})
    max_dim = obj["max_dim"]
    if not isinstance(max_dim, int) or isinstance(max_dim, bool) or max_dim < 0:
        raise SchemaError("simplicial.max_dim: expected a non-negative integer")
    raw_dims = _expect_list(obj["dimensions"], "simplicial.dimensions")
    if len(raw_dims) != max_dim + 1:
        raise SchemaError(f"simplicial.dimensions: expected {max_dim + 1} dimensions")
    simplices: list[tuple] = []
    faces: dict = {}
    for k, entries in enumerate(raw_dims):
        ids = []
        for e in _expect_list(entries, f"simplicial.dimensions[{k}]"):
            o = _expect_obj(e, f"simplicial.dimensions[{k}]", {"id", "faces"}, {"id"})
            sid = _expect_id(o["id"], f"simplicial.dimensions[{k}]")
            ids.append(sid)
            fs = o.get("faces")
            if k == 0:
                if fs is not None:
                    raise SchemaError(f"simplicial.dimensions[0]: vertices have no faces")
                continue
            if fs is None:
                raise SchemaError(f"simplicial.dimensions[{k}]: simplex {sid!r} lacks faces")
            fl = _expect_list(fs, f"simplicial.dimensions[{k}].faces")
            if len(fl) != k + 1:
                raise SchemaError(f"simplicial.dimensions[{k}]: simplex {sid!r} needs {k + 1} faces")
            lower = set(simplices[k - 1])
            checked = []
            for f in fl:
                if f is None:
                    checked.append(None)
                    continue
                f = _expect_id(f, f"simplicial.dimensions[{k}].faces")
                if f not in lower:
                    raise DanglingReference(f"simplicial: face {f!r} of {sid!r} missing in dimension {k - 1}")
                checked.append(f)
            faces[sid] = tuple(checked)
        if len(set(ids)) != len(ids):
            raise SchemaError(f"simplicial.dimensions[{k}]: duplicate simplex ids")
        simplices.append(tuple(ids))
    return SimplicialData(max_dim=max_dim, simplices=tuple(simplices), faces=faces)


SECTIONS = {"format", "hyperstructure", "topology", "states", "category", "presheaf", "simplicial"}


def serialize(doc: Document) -> str:
    """The document's canonical text (see the serialization notes above)."""
    h = doc.hyperstructure
    sections: dict = {"format": FORMAT}
    if h is not None:
        sections["hyperstructure"] = _h_sorted(h)
    if doc.topology is not None:
        sections["topology"] = _topology_to_json(doc.topology)
    if doc.states is not None:
        sections["states"] = _states_to_json(doc.states)
    if doc.category is not None:
        sections["category"] = _category_to_json(doc.category)
    if doc.presheaf is not None:
        sections["presheaf"] = _presheaf_to_json(doc.presheaf)
    if doc.simplicial is not None:
        sections["simplicial"] = _simplicial_to_json(doc.simplicial)
    body = ",\n".join(
        f'  "{name}": ' + (_h_text(h, *value) if name == "hyperstructure" else _dumps(value, "  "))
        for name, value in sorted(sections.items())
    )
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
        doc.topology = _topology_from_json(obj["topology"], doc.hyperstructure)
    if "states" in obj:
        doc.states = _states_from_json(obj["states"], doc.hyperstructure)
    if "category" in obj:
        doc.category = _category_from_json(obj["category"])
    if "presheaf" in obj:
        doc.presheaf = _presheaf_from_json(obj["presheaf"], doc.category)
    if "simplicial" in obj:
        doc.simplicial = _simplicial_from_json(obj["simplicial"])
    return doc
