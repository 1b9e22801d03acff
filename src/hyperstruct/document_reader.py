"""parse, the reader of documents, with the tower section's reader.

`document` exports parse and loads this module on first use.
"""
from __future__ import annotations

from .core import Bond, ElementId, FusionRecord, Hyperstructure, IDENTITY_PROPERTY, RawId, Support, assemble
from .document import FORMAT, SECTIONS, Document, _expect_id, _expect_list, _expect_obj, _expect_row, load_json
from .errors import DanglingReference, ParseError, ReservedProperty, SchemaError


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
    obj = _expect_obj(load_json(text, ParseError, ""), "document", SECTIONS, {"format"})
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
