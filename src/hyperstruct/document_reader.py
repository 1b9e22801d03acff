"""parse, the reader of documents, with the tower section's reader.

`document` exports parse and loads this module on first use.

Tables are read at once. An omega table or the bond list is checked whole,
one pass per check (every entry an object of the right fields, every id a
str or an int, every token a str, every level in range), and its ids are
resolved by one `map` over the level's raw-id table, each distinct support
list made into a Support once. Only when a check or a lookup fails is the
table walked entry by entry, in document order, checking each entry's
fields in the order they are listed; the walk raises the first fault, so a
document names the same fault whichever way its tables are read. The
states section's pair lists follow the same rule (see states._read_pairs).
"""
from __future__ import annotations

import gc
from itertools import chain, repeat
from operator import itemgetter

from .core import Bond, ElementId, FusionRecord, Hyperstructure, IDENTITY_PROPERTY, RawId, Support, _new, assemble
from .document import FORMAT, SECTIONS, Document, _expect_id, _expect_list, _expect_obj, _expect_row, _of_types, load_json
from .errors import DanglingReference, ParseError, ReservedProperty, SchemaError


_OMEGA_FIELDS = frozenset({"support", "properties"})
_BOND_FIELDS = frozenset({"id", "level", "support", "property", "identity"})
_BOND_REQUIRED = _BOND_FIELDS - {"identity"}
_omega_columns = itemgetter("support", "properties")
_bond_columns = itemgetter("level", "id", "support", "property", "identity")


def _columns(entries: list, fields: itemgetter, n: int) -> tuple | None:
    """The entries' values, one tuple per field that fields reads, when every
    entry is an object of exactly those n fields; None otherwise."""
    if not (entries and _of_types(entries, dict) and set(map(len, entries)) == {n}):
        return None
    try:
        return tuple(zip(*map(fields, entries)))
    except KeyError:
        return None


def _id_rows(rows) -> bool:
    """Whether every row is a list of strs and ints."""
    return _of_types(rows, list) and _of_types(chain.from_iterable(rows), str, int)


def _omega_at_once(entries: list) -> tuple | None:
    """An omega table's support lists and token lists, when every entry is
    well formed but for ids that name no element; None otherwise."""
    columns = _columns(entries, _omega_columns, 2)
    if columns is None or not (_id_rows(columns[0]) and _of_types(columns[1], list)):
        return None
    if not _of_types(chain.from_iterable(columns[1]), str) or IDENTITY_PROPERTY in set(chain.from_iterable(columns[1])):
        return None
    return columns


def _bonds_at_once(entries: list, order: int) -> tuple | None:
    """The bond list's levels, ids, support lists, properties and identity
    flags, when every entry is well formed but for ids that name no element;
    None otherwise."""
    columns = _columns(entries, _bond_columns, 5)
    if columns is None:
        return None
    lvls, ids, raws, props, flags = columns
    if not (_of_types(lvls, int) and 1 <= min(lvls) and max(lvls) <= order and _of_types(ids, str, int) and _id_rows(raws)):
        return None
    if not (_of_types(props, str) and _of_types(flags, bool)):
        return None
    if IDENTITY_PROPERTY in props and not all(f for p, f in zip(props, flags) if p == IDENTITY_PROPERTY):
        return None
    return columns


def _h_from_json(value) -> Hyperstructure:
    """The tower section as a tower, each omega table and the bond list read
    at once, or walked entry by entry when that fails (see above)."""
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
        if not _of_types(ids, str, int):
            ids = [_expect_id(r, f"levels[{i}]") for r in ids]
        elems = dict(zip(ids, map(_new, repeat(ElementId), zip(repeat(i), ids))))
        if len(elems) != len(ids):
            raise SchemaError(f"levels[{i}]: duplicate identifiers")
        levels.append(elems)

    def resolve(i: int, raw, where: str) -> ElementId:
        r = _expect_id(raw, where)
        e = levels[i].get(r) if 0 <= i <= order else None
        if e is None:
            raise DanglingReference(f"{where}: no element {raw!r} at level {i}")
        return e

    def checked_row(i: int, raws, where: str) -> list:
        for r in _expect_list(raws, where):
            resolve(i, r, where)
        return raws

    listed: dict[tuple, Support] = {}  # (level, raw ids as listed) -> its Support, one object per listing

    def supports(at, rows) -> list[Support]:
        """The Support of each row of raw ids, at its level; KeyError when an id names no element."""
        keys = list(zip(at, map(tuple, rows)))
        found = list(map(listed.get, keys))
        new = list({key for key, s in zip(keys, found) if s is None})
        if new:
            members = map(frozenset, map(map, [levels[i].__getitem__ for i, _ in new], [raws for _, raws in new]))
            listed.update(zip(new, map(Support, [i for i, _ in new], members)))
            found = list(map(listed.__getitem__, keys))
        return found

    raw_omega = _expect_list(obj["omega"], "hyperstructure.omega")
    if len(raw_omega) != order + 1:
        raise SchemaError(f"hyperstructure.omega: expected {order + 1} tables")
    omegas: list[dict[Support, frozenset[str]]] = []
    for i, entries in enumerate(raw_omega):
        where = f"omega[{i}]"
        entries = _expect_list(entries, where)
        columns = _omega_at_once(entries)
        ss = None
        if columns is not None:
            try:
                ss = supports(repeat(i), columns[0])
            except KeyError:
                pass
        if ss is None:
            columns = ([], [])
            for entry in entries:
                e = _expect_obj(entry, where, _OMEGA_FIELDS, _OMEGA_FIELDS)
                columns[0].append(checked_row(i, e["support"], f"{where}.support"))
                tokens = _expect_list(e["properties"], f"{where}.properties")
                for t in tokens:
                    if not isinstance(t, str):
                        raise SchemaError(f"{where}: property tokens must be strings")
                    if t == IDENTITY_PROPERTY:
                        raise ReservedProperty(f"{where}: {IDENTITY_PROPERTY!r} is reserved")
                columns[1].append(tokens)
            ss = supports(repeat(i), columns[0])
        table = dict(zip(ss, map(frozenset, columns[1])))
        if len(table) < len(ss):  # a support listed twice carries the union of its entries' tokens
            table = {}
            for s, tokens in zip(ss, columns[1]):
                table[s] = table.get(s, frozenset()) | frozenset(tokens)
        omegas.append(table)

    raw_bonds = _expect_list(obj["bonds"], "hyperstructure.bonds")
    columns = _bonds_at_once(raw_bonds, order)
    bonds = None
    if columns is not None:
        lvls, ids, raws, props, flags = columns
        try:
            eids = list(map(dict.__getitem__, map(levels.__getitem__, lvls), ids))
            bonds = list(map(_new, repeat(Bond), zip(eids, supports([i - 1 for i in lvls], raws), props, flags)))
        except KeyError:
            pass
    if bonds is None:
        bonds = []
        for k, entry in enumerate(raw_bonds):
            e = _expect_obj(entry, f"bonds[{k}]", _BOND_FIELDS, _BOND_REQUIRED)
            lvl = e["level"]
            if not isinstance(lvl, int) or isinstance(lvl, bool) or not 1 <= lvl <= order:
                raise SchemaError(f"bonds[{k}]: level must be an integer in 1..{order}")
            eid = resolve(lvl, e["id"], f"bonds[{k}].id")
            (s,) = supports([lvl - 1], [checked_row(lvl - 1, e["support"], f"bonds[{k}].support")])
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
        pair = _expect_row(value, where, 2, "[level, id]")
        if not isinstance(pair[0], int) or isinstance(pair[0], bool):
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


def parse(text: str) -> Document:
    """The document the canonical text holds, every section checked.

    The cyclic garbage collector is paused meanwhile, as Mercurial's
    `util.nogc` does: a large document makes tens of thousands of lists,
    dicts, tuples and frozensets, none of them in a reference cycle, and
    the collector would walk every tracked object each time allocations
    pass its thresholds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> Document:
    obj = _expect_obj(load_json(text, ParseError, ""), "document", SECTIONS, {"format"})
    if obj["format"] != FORMAT:
        raise SchemaError(f"unsupported format {obj['format']!r}; expected {FORMAT!r}")
    h = topology = states = category = presheaf = simplicial = None
    if "hyperstructure" in obj:
        h = _h_from_json(obj["hyperstructure"])
    if "topology" in obj:
        from .topology import _topology_from_json

        topology = _topology_from_json(obj["topology"], h)
    if "states" in obj:
        from .states import _states_from_json

        states = _states_from_json(obj["states"], h)
    if "category" in obj:
        from .catelem import _category_from_json

        category = _category_from_json(obj["category"])
    if "presheaf" in obj:
        from .catelem import _presheaf_from_json

        presheaf = _presheaf_from_json(obj["presheaf"], category)
    if "simplicial" in obj:
        from .catelem import _simplicial_from_json

        simplicial = _simplicial_from_json(obj["simplicial"])
    return Document(h, topology, states, category, presheaf, simplicial)
