"""State assignments over a tower and the machinery that globalizes them.

States run level-reversed: level-0 elements carry tokens from the last state
space, top bonds from the first. A globalizer walks the tower bottom-up,
folding each bond's boundary states through a per-transition connector; a
localizer distributes top states back down. Descent (amalgamation) checks
that covering families recompute the same states the globalizer produced;
it and the other checks on an assignment live in `state_checks`, which
loads when one of them is first read from here.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import partial
from itertools import product as iter_product
from json.encoder import encode_basestring
from math import prod

# union_token is core's; taking it through composition keeps composition loaded with
# states, since perfbench/tracing.py finds the functions it wraps in sys.modules
from .composition import union_token
from .core import ElementId, Hyperstructure, RawId, _key_sorted, id_key, sorted_elements, value_type
from .document import StatesSection, _expect_id, _expect_list, _expect_obj, _expect_row, _jkey, _of_types, _refuse_repeat
from .errors import (
    CoConnectorUndefined,
    ConnectorUndefined,
    DanglingReference,
    InvalidStateTower,
    MissingState,
    OperationMissing,
    SchemaError,
    UnknownElement,
)

StateToken = str | int


class Marker:
    """Explicit non-state markers emitted by localize."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


UNASSIGNED = Marker("unassigned")
CONFLICT = Marker("conflict")
MARKERS = {m.name: m for m in (UNASSIGNED, CONFLICT)}


class SpaceOp(value_type("SpaceOp", "unit table")):
    """A total associative unital binary operation given as a finite table,
    which maps each pair of states to a state."""

    __slots__ = ()

    def apply(self, a: StateToken, b: StateToken) -> StateToken:
        got = self.table.get((a, b))
        if got is None:
            raise OperationMissing(f"operation undefined at ({a!r}, {b!r})")
        return got

    def fold(self, values: Sequence[StateToken]) -> StateToken:
        acc = self.unit
        for v in sorted(values, key=id_key):
            acc = self.apply(acc, v)
        return acc


class StateTower(value_type("StateTower", "spaces ops")):
    """State spaces S_0..S_n (frozensets of states), each with its SpaceOp
    or None; index 0 is the global end, index n the local one."""

    __slots__ = ()

    def space_for_level(self, order: int, level: int) -> frozenset[StateToken]:
        return self.spaces[order - level]


def state_tower(spaces: Sequence[frozenset[StateToken]], ops: Sequence[SpaceOp | None] | None = None) -> StateTower:
    """Build a tower of state spaces, brute-force checking each declared op."""
    sp = tuple(frozenset(s) for s in spaces)
    if ops is None:
        ops = [None] * len(sp)
    if len(ops) != len(sp):
        raise InvalidStateTower(f"{len(sp)} spaces but {len(ops)} operations")
    for k, (space, op) in enumerate(zip(sp, ops)):
        if op is None:
            continue
        if op.unit not in space:
            raise InvalidStateTower(f"space {k}: unit {op.unit!r} outside the space")
        tokens = sorted(space, key=id_key)  # so each error names the same first fault under any hash seed
        for a, b in iter_product(tokens, repeat=2):
            if (a, b) not in op.table:
                raise InvalidStateTower(f"space {k}: operation not total at ({a!r}, {b!r})")
            if op.table[(a, b)] not in space:
                raise InvalidStateTower(f"space {k}: operation leaves the space at ({a!r}, {b!r})")
        for a in tokens:
            if op.table[(op.unit, a)] != a or op.table[(a, op.unit)] != a:
                raise InvalidStateTower(f"space {k}: unit law fails at {a!r}")
        for a, b, c in iter_product(tokens, repeat=3):
            if op.table[(op.table[(a, b)], c)] != op.table[(a, op.table[(b, c)])]:
                raise InvalidStateTower(f"space {k}: associativity fails at ({a!r}, {b!r}, {c!r})")
    return StateTower(spaces=sp, ops=tuple(ops))


def _at_bond(at: ElementId | None) -> str:
    """Where a connector failed, for its error message."""
    return f" at bond {at!r}" if at is not None else ""


class Connector(value_type("Connector", "kind table", defaults=(None,))):
    """Reduces the multiset of a bond's boundary states to the bond's state.

    Built-in folds (product, sum, union) are associative and commutative by
    construction; table connectors map canonical sorted multisets directly.
    The kind is "product", "sum", "union" or "table".
    """

    __slots__ = ()

    def apply(self, values: Sequence[StateToken], at: ElementId | None = None) -> StateToken:
        if not values:
            raise ConnectorUndefined(f"empty state multiset{_at_bond(at)}")
        if self.kind in ("product", "sum"):
            for v in values:
                if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):  # a plain int passes at once
                    raise ConnectorUndefined(f"{self.kind} connector needs integer states, got {v!r}{_at_bond(at)}")
            return prod(values) if self.kind == "product" else sum(values)
        if self.kind == "union":
            acc = None
            for v in sorted(values, key=id_key):
                s = str(v)
                acc = s if acc is None else union_token(acc, s)
            return acc
        if self.kind == "table":
            key = tuple(sorted(values, key=id_key))
            if self.table is None or key not in self.table:
                raise ConnectorUndefined(f"table connector undefined at {key!r}{_at_bond(at)}")
            return self.table[key]
        raise ConnectorUndefined(f"unknown connector kind {self.kind!r}")

    @property
    def is_fold(self) -> bool:
        return self.kind in ("product", "sum", "union")


PRODUCT = Connector(kind="product")
SUM = Connector(kind="sum")
UNION_FOLD = Connector(kind="union")


class LambdaAssignment(value_type("LambdaAssignment", "per_level")):
    """Per-level state maps; index i maps the level-i elements to their states or Markers."""

    __slots__ = ()

    def get(self, e: ElementId, default=None):
        if e.level < len(self.per_level):
            return self.per_level[e.level].get(e, default)
        return default


def _normalize_keyed(h: Hyperstructure, level: int, mapping: Mapping) -> dict[ElementId, StateToken]:
    """mapping keyed by level elements; a str or int key is a raw id, found in the level's raw-id table."""
    table = h.element_index[level]
    out: dict[ElementId, StateToken] = {}
    for k, v in mapping.items():
        e = table.get(k) if type(k) is str or type(k) is int else None  # a bool or float would find an int
        if e is None:
            e = k if isinstance(k, ElementId) else h.element(level, k)
            if e.level != level or not h.has_element(e):
                raise UnknownElement(f"{e!r} is not a level-{level} element")
        out[e] = v
    return out


def globalize(h: Hyperstructure, base: Mapping, connectors: Sequence[Connector]) -> LambdaAssignment:
    """Fold states bottom-up: one connector per level transition.

    connectors[i-1] computes level-i states from the level-(i-1) states of
    each bond's boundary. Evaluation order never matters: fold connectors
    are commutative, and union and table connectors sort the values they
    get. So each boundary is folded in stored order, and read again in
    sorted_elements order only when that fold fails, which makes the error
    name the same member or value whatever the hash seed.
    """
    if len(connectors) != h.order:
        raise ConnectorUndefined(f"need {h.order} connectors, got {len(connectors)}")
    level0 = _normalize_keyed(h, 0, base)
    if len(level0) != len(h.elements(0)):  # every key is a level-0 element, so one lacks a state
        missing = next(e for e in sorted_elements(h.elements(0)) if e not in level0)
        raise MissingState(f"base state missing for {missing!r}")
    per_level: list[dict[ElementId, StateToken]] = [level0]
    for i in range(1, h.order + 1):
        delta = connectors[i - 1]
        below = per_level[i - 1]
        current: dict[ElementId, StateToken] = {}
        for b in h.bonds_at(i):
            try:
                current[b.id] = delta.apply([below[m] for m in b.support.members], at=b.id)
                continue
            except (KeyError, ConnectorUndefined, TypeError):
                pass  # raised again below, by the sorted read
            try:
                values = [below[m] for m in sorted_elements(b.support.members)]
            except KeyError as e:  # a member without a bond record has no state
                raise MissingState(f"no state for {e.args[0]!r} in the boundary of {b.id!r}") from None
            current[b.id] = delta.apply(values, at=b.id)
        per_level.append(current)
    return LambdaAssignment(per_level=tuple(per_level))


class CoConnector(value_type("CoConnector", "kind table", defaults=(None,))):
    """Distributes a bond's state to one boundary member on the way down.
    The kind is "identity", "table" or "per_child"."""

    __slots__ = ()

    def apply(self, state: StateToken, parent: ElementId, child: ElementId) -> StateToken:
        if self.kind == "identity":
            return state
        if self.kind == "table":
            if self.table is None or state not in self.table:
                raise CoConnectorUndefined(f"co-connector undefined at state {state!r}")
            return self.table[state]
        if self.kind == "per_child":
            key = (parent, child)
            if self.table is None or key not in self.table:
                raise CoConnectorUndefined(f"co-connector undefined at ({parent!r}, {child!r})")
            return self.table[key]
        raise CoConnectorUndefined(f"unknown co-connector kind {self.kind!r}")


BROADCAST = CoConnector(kind="identity")


def localize(h: Hyperstructure, top: Mapping, co_connectors: Sequence[CoConnector]) -> LambdaAssignment:
    """Distribute top states downward along boundaries.

    co_connectors[j] handles the transition from level n-j to n-j-1.
    Elements reachable from no top bond keep the unassigned marker; members
    receiving disagreeing proposals from several parents are marked as
    conflicts.
    """
    if len(co_connectors) != h.order:
        raise CoConnectorUndefined(f"need {h.order} co-connectors, got {len(co_connectors)}")
    n = h.order
    states: list[dict[ElementId, StateToken | Marker]] = [dict() for _ in range(n + 1)]
    states[n] = _normalize_keyed(h, n, top)
    if len(states[n]) != len(h.elements(n)):  # every key is a level-n element, so one lacks a state
        missing = next(e for e in sorted_elements(h.elements(n)) if e not in states[n])
        raise MissingState(f"top state missing for {missing!r}")
    for i in range(n, 0, -1):
        co = co_connectors[n - i]
        proposals: dict[ElementId, list[StateToken]] = {}
        for b in h.bonds_at(i):
            s = states[i].get(b.id, UNASSIGNED)
            if isinstance(s, Marker):
                continue
            for child in sorted_elements(b.support.members):
                proposals.setdefault(child, []).append(co.apply(s, b.id, child))
        for child in h.elements(i - 1):
            got = proposals.get(child)
            if not got:
                states[i - 1][child] = UNASSIGNED
            elif len(set(got)) == 1:
                states[i - 1][child] = got[0]
            else:
                states[i - 1][child] = CONFLICT
    return LambdaAssignment(per_level=tuple(states))


# -- the states section of a document -----------------------------------------------
#
# The reader resolves each [id, state] pair through the tower's per-level
# raw-id tables (Hyperstructure.element_index). The writer checks and
# writes each field in one pass, in the order spaces, base, top, connectors,
# co-connectors, assignment: each pair list from one template per pair and
# the rest through json.dumps, so a refused section raises its first error
# as the dict-tree codec did.


def _state_from_json(value, where: str):
    """An assignment's state: a state, or a {"marker": name} object."""
    if isinstance(value, dict):
        obj = _expect_obj(value, where, {"marker"}, {"marker"})
        m = MARKERS.get(obj["marker"]) if isinstance(obj["marker"], str) else None  # a list or an object is unhashable
        if m is None:
            raise SchemaError(f"{where}: unknown marker {obj['marker']!r}")
        return m
    return _expect_id(value, where, "states")


def _connector_to_json(c: Connector) -> dict:
    if c.kind == "table":
        entries = sorted(
            ([list(k), _expect_id(v, "states.connectors", "states")] for k, v in (c.table or {}).items()),
            key=lambda e: [_jkey(x) for x in e[0]],
        )
        return {"kind": "table", "entries": entries}
    return {"kind": c.kind}


def _connector_from_json(value, where: str) -> Connector:
    obj = _expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind in ("product", "sum", "union"):
        if "entries" in obj:
            raise SchemaError(f"{where}: built-in connectors take no entries")
        return Connector(kind=kind)
    if kind != "table":
        raise SchemaError(f"{where}: unknown connector kind {kind!r}")
    table, entries = {}, f"{where}.entries"
    for e in _expect_list(obj.get("entries", []), entries):
        multiset, state = _expect_row(e, entries, 2, "[multiset, state]")
        key = tuple(sorted((_expect_id(x, where, "states") for x in _expect_list(multiset, where)), key=_jkey))
        state = _expect_id(state, where, "states")
        _refuse_repeat(table, key, entries)
        table[key] = state
    return Connector(kind="table", table=table)


def _co_connector_to_json(c: CoConnector) -> dict:
    if c.kind == "identity":
        return {"kind": "identity"}
    if c.kind == "table":
        entries = sorted(([k, _expect_id(v, "states.co_connectors", "states")] for k, v in (c.table or {}).items()), key=lambda e: _jkey(e[0]))
        return {"kind": "table", "entries": entries}
    entries = sorted(
        ([[p.id, ch.id], _expect_id(v, "states.co_connectors", "states")] for (p, ch), v in (c.table or {}).items()),
        key=lambda e: [_jkey(e[0][0]), _jkey(e[0][1])],
    )
    return {"kind": "per_child", "entries": entries}


def _co_connector_from_json(value, where: str, h: Hyperstructure, transition: int) -> CoConnector:
    obj = _expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind == "identity":
        if "entries" in obj:
            raise SchemaError(f"{where}: identity co-connectors take no entries")
        return CoConnector(kind="identity")
    table, entries = {}, f"{where}.entries"
    if kind == "table":
        for e in _expect_list(obj.get("entries", []), entries):
            state, image = _expect_row(e, entries, 2, "[state, state]")
            image = _expect_id(image, where, "states")  # first, so a row with two bad states names the image
            state = _expect_id(state, where, "states")
            _refuse_repeat(table, state, entries)
            table[state] = image
        return CoConnector(kind="table", table=table)
    if kind != "per_child":
        raise SchemaError(f"{where}: unknown co-connector kind {kind!r}")
    upper = h.order - transition
    parents, children = (h.element_index[i] if 0 <= i <= h.order else {} for i in (upper, upper - 1))
    shape = "[[parent, child], state]"
    for e in _expect_list(obj.get("entries", []), entries):
        pair, state = _expect_row(e, entries, 2, shape)
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{entries}: expected {shape}")
        p, c = _expect_id(pair[0], where), _expect_id(pair[1], where)
        parent, child = parents.get(p), children.get(c)
        if parent is None or child is None:
            missing = ElementId(upper, p) if parent is None else ElementId(upper - 1, c)
            raise DanglingReference(f"{where}: no element {missing!r}")
        state = _expect_id(state, where, "states")
        _refuse_repeat(table, (parent, child), entries)
        table[(parent, child)] = state
    return CoConnector(kind="per_child", table=table)


def _marker_text(m: Marker) -> str:
    """A marker as its {"marker": name} object, at an assignment state's depth of ten columns."""
    return f'{{\n{" " * 12}"marker": {encode_basestring(m.name)}\n{" " * 10}}}'


def _pairs_text(mapping: Mapping[ElementId, object], kind: tuple, pad: str) -> str:
    """The mapping's items as a JSON list of [id, state] lists in ElementId.key
    order, one template per pair, once every key is an ElementId with an int
    level, the ids are strs and ints and every state has a type that kind (a
    document_writer column kind) holds; SchemaError names the first key or
    value that is not."""
    from .document_writer import _INTS, _list, _writer

    keys = list(mapping)
    if not _of_types(keys, ElementId):
        bad = next(k for k in keys if type(k) is not ElementId)
        raise SchemaError(f"states are keyed by elements, got {type(bad).__name__} {bad!r}")
    _writer([[e.level for e in keys]], _INTS)
    write_id = _writer([[e.id for e in keys]])
    write_state = _writer([mapping.values()], kind)
    p2, p4 = "\n" + pad + "  ", "\n" + pad + "    "
    return _list([f"[{p4}{write_id(e.id)},{p4}{write_state(mapping[e])}{p2}]" for e in _key_sorted(keys)], pad)


def _op_to_json(op: SpaceOp | None) -> dict | None:
    if op is None:
        return None
    unit = _expect_id(op.unit, "op", "states")
    table = sorted(([a, b, _expect_id(v, "op", "states")] for (a, b), v in op.table.items()), key=lambda t: (_jkey(t[0]), _jkey(t[1])))
    return {"unit": unit, "table": table}


def _states_text(s: StatesSection) -> str:
    """The states section at depth one, its fields checked and written in the
    order spaces, base, top, connectors, co-connectors, assignment.

    The writer's helpers are imported when a states section is written, so a
    command that only reads one never compiles document_writer.
    """
    from .document_writer import _IDS, _dumps, _list

    p4 = " " * 4
    fields = {}
    if s.tower is not None:
        spaces = [{"tokens": sorted(tokens, key=_jkey), "op": _op_to_json(op)} for tokens, op in zip(s.tower.spaces, s.tower.ops)]
        fields["spaces"] = _dumps(spaces, p4)
    fields["base"] = _pairs_text(s.base, _IDS, p4) if s.base is not None else "null"
    fields["top"] = _pairs_text(s.top, _IDS, p4) if s.top is not None else "null"
    fields["connectors"] = _dumps([_connector_to_json(c) for c in s.connectors] if s.connectors is not None else None, p4)
    fields["co_connectors"] = _dumps([_co_connector_to_json(c) for c in s.co_connectors] if s.co_connectors is not None else None, p4)
    marked = (_IDS[0], {**_IDS[1], Marker: _marker_text})  # an assignment's states may also be markers
    fields["assignment"] = _list([_pairs_text(level, marked, " " * 6) for level in s.assignment.per_level], p4) if s.assignment is not None else "null"
    return "{\n" + ",\n".join(f'{p4}"{name}": {text}' for name, text in sorted(fields.items())) + "\n  }"


def _read_pairs(raw, table: dict[RawId, ElementId], where: str, at: str, read_state=partial(_expect_id, noun="states")) -> dict[ElementId, object]:
    """[id, state] pairs as a dict, each id resolved in one raw-id table of the tower.

    The pairs are read at once when every row is an [id, state] pair of
    strs and ints whose id names an element no other row names; otherwise
    they are walked row by row, which raises the first fault.
    """
    rows = _expect_list(raw, where)
    if rows and _of_types(rows, list) and set(map(len, rows)) == {2}:
        ids, states = zip(*rows)
        if _of_types(ids, str, int) and _of_types(states, str, int):
            at_once = dict(zip(map(table.get, ids), states))
            if None not in at_once and len(at_once) == len(rows):
                return at_once
    out: dict[ElementId, object] = {}
    for e in rows:
        r, v = _expect_row(e, where, 2, "[id, state]")
        el = table.get(r) if type(r) is str or type(r) is int else None  # a bool or float would find an int
        if el is None:
            el = table.get(_expect_id(r, where))
            if el is None:
                raise DanglingReference(f"{where}: no element {r!r}{at}")
        if type(v) is not str and type(v) is not int:
            v = read_state(v, where)
        _refuse_repeat(out, el, where)
        out[el] = v
    return out


def _states_from_json(value, h: Hyperstructure | None) -> StatesSection:
    if h is None:
        raise DanglingReference("states: requires a hyperstructure section")
    obj = _expect_obj(value, "states", {"spaces", "base", "top", "connectors", "co_connectors", "assignment"})
    tower = base = top = connectors = co_connectors = assignment = None
    if obj.get("spaces") is not None:
        spaces = []
        ops = []
        for k, entry in enumerate(_expect_list(obj["spaces"], "states.spaces")):
            e = _expect_obj(entry, f"states.spaces[{k}]", {"tokens", "op"}, {"tokens"})
            tokens = frozenset(_expect_id(t, f"states.spaces[{k}]", "states") for t in _expect_list(e["tokens"], f"states.spaces[{k}].tokens"))
            spaces.append(tokens)
            op = e.get("op")
            if op is None:
                ops.append(None)
            else:
                o = _expect_obj(op, f"states.spaces[{k}].op", {"unit", "table"}, {"unit", "table"})
                table, where = {}, f"states.spaces[{k}].op.table"
                for t in _expect_list(o["table"], where):
                    a, b, result = _expect_row(t, where, 3, "[a, b, result]")
                    result = _expect_id(result, "op", "states")  # first, so a row with bad states names the result
                    key = (_expect_id(a, "op", "states"), _expect_id(b, "op", "states"))
                    _refuse_repeat(table, key, where)
                    table[key] = result
                ops.append(SpaceOp(unit=_expect_id(o["unit"], "op", "states"), table=table))
        tower = state_tower(spaces, ops)

    index = h.element_index
    if obj.get("base") is not None:
        base = _read_pairs(obj["base"], index[0], "states.base", " at level 0")
    if obj.get("top") is not None:
        top = _read_pairs(obj["top"], index[h.order], "states.top", f" at level {h.order}")
    if obj.get("connectors") is not None:
        connectors = tuple(
            _connector_from_json(c, f"states.connectors[{k}]")
            for k, c in enumerate(_expect_list(obj["connectors"], "states.connectors"))
        )
    if obj.get("co_connectors") is not None:
        co_connectors = tuple(
            _co_connector_from_json(c, f"states.co_connectors[{k}]", h, k)
            for k, c in enumerate(_expect_list(obj["co_connectors"], "states.co_connectors"))
        )
    if obj.get("assignment") is not None:
        raw_levels = _expect_list(obj["assignment"], "states.assignment")
        if len(raw_levels) != h.order + 1:
            raise SchemaError(f"states.assignment: expected {h.order + 1} levels")
        assignment = LambdaAssignment(
            per_level=tuple(
                _read_pairs(entries, index[i], f"states.assignment[{i}]", "", _state_from_json)
                for i, entries in enumerate(raw_levels)
            )
        )
    return StatesSection(tower, base, top, connectors, co_connectors, assignment)


def __getattr__(name: str):
    """The checks on an assignment, from `state_checks`, loaded on first use."""
    if name not in ("validate_lambda", "check_amalgamation", "check_tensor_pairing"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.state_checks", fromlist=[name]), name)
