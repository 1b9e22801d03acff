"""Level towers of property-tagged bonds.

A tower of order n holds element sets X_0..X_n. Every element above level 0
is a bond: it binds one nonempty subset of the level below (its support) and
carries exactly one property token drawn from that level's omega table.
Boundary maps dissolve bonds back into their supports; identity bonds embed
an element one level up with a singleton boundary.

All operations are functional: they return a new tower and never mutate
their input, so any value can be shared freely across threads.

Every value type of the library is a NamedTuple unless it needs one of
three things: custom iteration (`Support`), an instance dict for cached
indexes and marks (`Hyperstructure`, `FiniteCategory`), or fields named
lazily (`SimplicialData`). Those four share one frozen base, `Record`.

This module holds the value types, the spellings of combined property
tokens, and the bulk construction path that reading, writing and installing
a tower use. It also exports validate and its finding codes (from
`validation`) and the one-step operations assign_property, add_bond,
boundary and gamma (from `operations`); each of those modules loads when
one of its names is first read.
"""
from __future__ import annotations

from functools import cached_property
from itertools import groupby, repeat
from operator import attrgetter, itemgetter
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateId,
    EmptyBase,
    EmptySupport,
    LevelOutOfRange,
    MixedLevels,
    NotABond,
    ReservedProperty,
    UnknownElement,
)

RawId = str | int
PropertyToken = str

#: Reserved token carried by identity bonds; user data may not claim it.
IDENTITY_PROPERTY: PropertyToken = "id"

UNION_SEPARATOR = "∪"  # the token-name join used by the union combiner
TENSOR_SEPARATOR = "⊗"  # the join of an ordered token pair


def union_token(a: PropertyToken, b: PropertyToken) -> PropertyToken:
    """Canonical union-name: flatten, dedupe and sort the joined parts.

    Flattening makes the naming associative and commutative, so composites
    built in any grouping agree on their property.
    """
    parts = sorted(set(a.split(UNION_SEPARATOR)) | set(b.split(UNION_SEPARATOR)))
    return UNION_SEPARATOR.join(parts)


def pair_token(a: PropertyToken, b: PropertyToken) -> PropertyToken:
    """Canonical name for an ordered token pair."""
    return f"{a}{TENSOR_SEPARATOR}{b}"


def id_key(raw: RawId):
    """Total order over raw identifiers: all ints before all strings."""
    return (isinstance(raw, str), raw)


class Record:
    """Base of the value classes that cannot be NamedTuples (see above).

    Subclasses name their fields in `_fields` and set them in `__init__`
    through the instance dict or the slots' own setters. They get a
    NamedTuple's `==`, repr, hash and `_replace`, and refuse any later
    assignment.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __reduce__(self):
        return type(self), self._astuple()

    def _replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise ValueError(f"Got unexpected field names: {sorted(unknown)!r}")
        return type(self)(**{f: changes.get(f, getattr(self, f)) for f in self._fields})


class ElementId(NamedTuple):
    """An element of the tower, addressed by (level, identifier)."""

    level: int
    id: RawId

    @property
    def key(self):
        return (self.level, id_key(self.id))

    def __repr__(self):
        return f"{self.level}:{self.id}"


def sorted_elements(elements: Iterable[ElementId]) -> list[ElementId]:
    """Elements in key order, which is their order as plain tuples unless a level mixes str with other ids."""
    return _key_sorted(list(elements))


def _key_sorted(items: list, element=None) -> list:
    """items (ElementIds, or what element maps to one) in ElementId.key order.

    Two ids at one level compare as plain values exactly as their id_keys
    do, unless one is a str and the other not; that comparison raises
    TypeError, and only then are the keys built. So when every item lies at
    one level, element may map each to its raw id alone.
    """
    try:
        return sorted(items, key=element)
    except TypeError:
        return sorted(items, key=lambda x: x.key)


class Support(Record):
    """A finite set of elements, all at one level.

    The empty support exists only as an omega-table key (behaviour of
    assignments under unions needs a value at the empty collection); bonds
    always bind a nonempty support. Iterating, `len` and `in` read the
    members, so this is a Record rather than a NamedTuple.
    """

    __slots__ = ("level", "members")
    _fields = __slots__
    level: int
    members: frozenset[ElementId]

    def __init__(self, level: int, members: frozenset[ElementId]):
        _set_level(self, level)
        _set_members(self, members)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.level == other.level and self.members == other.members
        return NotImplemented

    def __hash__(self):
        return hash((self.level, self.members))

    @classmethod
    def of(cls, members: Iterable[ElementId]) -> "Support":
        ms = frozenset(members)
        if not ms:
            raise EmptySupport("cannot infer a level for an empty support")
        levels = {m.level for m in ms}
        if len(levels) != 1:
            raise MixedLevels(f"support members span levels {sorted(levels)}")
        return cls(level=next(iter(levels)), members=ms)

    @classmethod
    def empty(cls, level: int) -> "Support":
        return cls(level=level, members=frozenset())

    def __iter__(self):
        return iter(sorted_elements(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, e: ElementId):
        return e in self.members

    @property
    def key(self):
        return tuple(e.key for e in sorted_elements(self.members))

    def raw_ids(self) -> list[RawId]:
        return [e.id for e in sorted_elements(self.members)]

    def union(self, other: "Support") -> "Support":
        if other.level != self.level:
            raise MixedLevels("union across levels")
        return Support(self.level, self.members | other.members)

    def intersection(self, other: "Support") -> "Support":
        if other.level != self.level:
            raise MixedLevels("intersection across levels")
        return Support(self.level, self.members & other.members)

    def issubset(self, other: "Support") -> bool:
        return self.level == other.level and self.members <= other.members

    def __repr__(self):
        return "{" + ",".join(str(e.id) for e in sorted_elements(self.members)) + "}"


# the slots' own setters, which the frozen __setattr__ does not guard
_set_level = Support.level.__set__
_set_members = Support.members.__set__
_level = attrgetter("level")
_members = attrgetter("members")
_new = tuple.__new__  # a NamedTuple from its field values, without its Python-level __new__


class Bond(NamedTuple):
    """A registered binder: one support, one property token.

    A bond knows what it binds — its id never maps to a second support.
    """

    id: ElementId
    support: Support
    property: PropertyToken
    identity: bool = False

    @property
    def key(self):
        return self.id.key


class FusionRecord(NamedTuple):
    """One gluing event: operand levels (m, n) glued at level k."""

    k: int
    m: int
    n: int
    a: ElementId
    b: ElementId
    result: ElementId


OmegaTable = Mapping[Support, frozenset[PropertyToken]]


class Hyperstructure(Record):
    """A tower: its levels, omega tables, bond registry and fusion log.

    A Record with an instance __dict__, which holds the cached indexes.
    """

    _fields = ("order", "levels", "omegas", "bonds", "fusion_log")
    order: int
    levels: tuple[frozenset[ElementId], ...]
    omegas: tuple[OmegaTable, ...]
    bonds: tuple[Bond, ...]
    fusion_log: tuple[FusionRecord, ...]

    def __init__(self, order, levels, omegas, bonds, fusion_log=()):
        self.__dict__.update(order=order, levels=levels, omegas=omegas, bonds=bonds, fusion_log=fusion_log)

    # -- derived indexes (cached; instances are immutable) --

    @cached_property
    def bond_index(self) -> dict[ElementId, Bond]:
        return {b.id: b for b in self.bonds}

    @cached_property
    def identity_index(self) -> dict[ElementId, ElementId]:
        """Maps each element to its identity bond, where one exists."""
        out: dict[ElementId, ElementId] = {}
        for b in self.bonds:
            if b.identity and len(b.support) == 1:
                (x,) = b.support.members
                out.setdefault(x, b.id)
        return out

    @cached_property
    def element_index(self) -> tuple[dict[RawId, ElementId], ...]:
        """Per level, each element by its raw id (document.parse seeds it with its own tables)."""
        return tuple({e.id: e for e in lvl} for lvl in self.levels)

    @cached_property
    def bonds_by_level(self) -> dict[int, tuple[Bond, ...]]:
        """Each level's bonds in canonical registry order; levels without bonds are absent."""
        grouped: dict[int, list[Bond]] = {}
        for b in self.bonds:
            grouped.setdefault(b.id.level, []).append(b)
        return {i: tuple(_key_sorted(bs, itemgetter(0))) for i, bs in grouped.items()}

    @cached_property
    def supports_by_level(self) -> dict[int, frozenset[frozenset[ElementId]]]:
        """Each level's set of bound member sets."""
        return {i: frozenset(b.support.members for b in bs) for i, bs in self.bonds_by_level.items()}

    @cached_property
    def refinement_orders(self) -> dict[int, object]:
        """Per-level views of the refinement preorder, filled in by the topology layer on first use."""
        return {}

    # -- queries --

    def check_level(self, i: int) -> None:
        if not 0 <= i <= self.order:
            raise LevelOutOfRange(f"level {i} outside 0..{self.order}")

    def elements(self, i: int) -> frozenset[ElementId]:
        self.check_level(i)
        return self.levels[i]

    def has_element(self, e: ElementId) -> bool:
        return 0 <= e.level <= self.order and e in self.levels[e.level]

    def element(self, i: int, raw: RawId) -> ElementId:
        e = ElementId(i, raw)
        if not self.has_element(e):
            raise UnknownElement(f"no element {raw!r} at level {i}")
        return e

    def support_at(self, i: int, raw_ids: Iterable[RawId]) -> Support:
        self.check_level(i)
        return Support(i, frozenset(self.element(i, r) for r in raw_ids))

    def bond(self, e: ElementId) -> Bond:
        if not self.has_element(e):
            raise UnknownElement(f"no element {e!r}")
        if e.level == 0:
            raise NotABond(f"{e!r} is a level-0 element")
        b = self.bond_index.get(e)
        if b is None:
            raise NotABond(f"{e!r} has no bond record")
        return b

    def is_bond(self, e: ElementId) -> bool:
        return self.has_element(e) and e in self.bond_index

    def bonds_at(self, i: int) -> list[Bond]:
        self.check_level(i)
        return list(self.bonds_by_level.get(i, ()))

    def omega(self, i: int, s: Support) -> frozenset[PropertyToken]:
        self.check_level(i)
        return self.omegas[i].get(s, frozenset())

    @classmethod
    def empty(cls, order: int = 0) -> "Hyperstructure":
        n = order + 1
        return cls(order=order, levels=(frozenset(),) * n, omegas=({},) * n, bonds=())


# -- constructors and operations ------------------------------------------------


def new_hyperstructure(base: Iterable[RawId]) -> Hyperstructure:
    """Order-0 tower over the given base identifiers."""
    ids = list(base)
    if not ids:
        raise EmptyBase("base collection is empty")
    table = dict(zip(ids, map(_new, repeat(ElementId), zip(repeat(0), ids))))
    if len(table) < len(ids):  # walk the ids to name the first repeat
        seen = set()
        for r in ids:
            if r in seen:
                raise DuplicateId(f"base identifier {r!r} repeats")
            seen.add(r)
    h = Hyperstructure(order=0, levels=(frozenset(table.values()),), omegas=({},), bonds=())
    h.__dict__["element_index"] = (table,)  # the cached property, from the table built above
    return h


class BondSpec(NamedTuple):
    """One bond for add_bonds: bind the level-`level` support under `token` as `raw_id`."""

    level: int
    support: Support
    token: PropertyToken
    raw_id: RawId
    identity: bool = False


def assemble(
    levels: Iterable[Iterable[ElementId]],
    omegas: Iterable[OmegaTable],
    bonds: Iterable[Bond],
    fusion_log: tuple[FusionRecord, ...] = (),
) -> Hyperstructure:
    """Freeze a tower's parts into a tower, sorting the bond registry once.

    Nothing is checked here: callers either checked their input already or
    leave that to validate(), which reports a broken document's faults.
    """
    frozen = tuple(frozenset(lvl) for lvl in levels)
    return Hyperstructure(
        order=len(frozen) - 1,
        levels=frozen,
        omegas=tuple(omegas),
        bonds=tuple(_key_sorted(list(bonds), itemgetter(0))),  # canonical registry order
        fusion_log=fusion_log,
    )


def _check_spec(levels: Sequence[AbstractSet[ElementId]], i: int, s: Support, token: PropertyToken, identity: bool) -> None:
    """Refuse a bond over the level-i support s that the given levels cannot take.

    The checks run in a fixed order, so a spec that breaks several rules
    always reports the same one. A support that lies in its own level
    passes the member check with one subset test; any other is walked in
    sorted_elements order, so the member named does not depend on the hash
    seed.
    """
    top = len(levels) - 1
    if not 0 <= i <= top:
        raise LevelOutOfRange(f"level {i} outside 0..{top}")
    if s.level != i:
        raise LevelOutOfRange(f"support at level {s.level}, expected {i}")
    if not s.members:
        raise EmptySupport("a bond must bind a nonempty support")
    if not s.members <= levels[i]:  # members of other levels that the tower holds still pass
        for m in sorted_elements(s.members):
            if not (0 <= m.level <= top and m in levels[m.level]):
                raise UnknownElement(f"support member {m!r} not in the tower")
    if token == IDENTITY_PROPERTY and not identity:
        raise ReservedProperty(f"{IDENTITY_PROPERTY!r} is reserved for identity bonds")


def _run_at_once(levels: list[set[ElementId]], i: int, run: list[BondSpec]) -> tuple | None:
    """The supports, tokens, new elements and identity flags of a run of specs
    at level i, when the whole run passes _check_spec's rules with every member
    at level i, and its raw ids are distinct and new at level i + 1; None
    otherwise."""
    top = len(levels) - 1
    _, sups, tokens, raws, flags = zip(*run)
    members = list(map(_members, sups))
    if not (0 <= i <= top and set(map(_level, sups)) == {i} and all(members) and set().union(*members) <= levels[i]):
        return None
    if IDENTITY_PROPERTY in tokens and not all(flag for token, flag in zip(tokens, flags) if token == IDENTITY_PROPERTY):
        return None
    eids = list(map(_new, repeat(ElementId), zip(repeat(i + 1), raws)))
    fresh = set(eids)
    if len(fresh) < len(eids) or (i < top and not levels[i + 1].isdisjoint(fresh)):
        return None
    return sups, tokens, eids, flags


def _bind(levels: list[set[ElementId]], omegas: list[dict], bonds: list[Bond], i: int, sups, tokens, eids, flags) -> None:
    """Add checked bonds at level i: grow the tower when i is its top, assign each token to its support, register the bonds."""
    if i == len(levels) - 1:
        levels.append(set())
        omegas.append({})
    table = omegas[i]
    for s, token in zip(sups, tokens):
        have = table.setdefault(s, frozenset((token,)))  # one hash of s for a first entry
        if token not in have:
            table[s] = have | {token}
    levels[i + 1].update(eids)
    bonds.extend(map(_new, repeat(Bond), zip(eids, sups, tokens, flags)))


def add_bonds(h: Hyperstructure, specs: Iterable[BondSpec], order: int = 0) -> Hyperstructure:
    """Register bonds in the order given, assigning each token to its support first.

    Every bond of the library is added here. Empty levels are added until
    the tower has at least the given order. The specs are then bound run by
    run, a run being consecutive specs at one level: each run is checked
    whole against the tower built so far and its bonds are built at once.
    Binding at the top level grows the tower by one level, a raw id already
    present at the bond's level raises DuplicateId, and an identity spec may
    carry the reserved token. Only a run that the whole-run check refuses is
    bound one spec at a time, each checked by _check_spec; that loop names
    the first fault in the order given, or accepts a member that the tower
    holds at another level. The work is linear in the tower and the specs.
    """
    levels = [set(lvl) for lvl in h.levels]
    omegas = [dict(table) for table in h.omegas]
    bonds = list(h.bonds)
    while len(levels) <= order:
        levels.append(set())
        omegas.append({})
    given: list[BondSpec] = []
    try:
        given.extend(specs)
    finally:  # a generator that raised partway: the specs it gave are bound first, so a fault among them is still the error raised
        for i, run in groupby(given, itemgetter(0)):
            run = list(run)
            columns = _run_at_once(levels, i, run)
            if columns is not None:
                _bind(levels, omegas, bonds, i, *columns)
                continue
            for level, s, token, raw_id, identity in run:
                _check_spec(levels, level, s, token, identity)
                eid = ElementId(level + 1, raw_id)
                if level + 1 < len(levels) and eid in levels[level + 1]:
                    raise DuplicateId(f"element {raw_id!r} already present at level {level + 1}")
                _bind(levels, omegas, bonds, level, (s,), (token,), (eid,), (identity,))
    return assemble(levels, omegas, bonds, h.fusion_log)


def lift_specs(h: Hyperstructure, x: ElementId, level: int) -> tuple[list[BondSpec], ElementId]:
    """The identity specs lifting x to the given level, reusing the tower's identity bonds, and the top they reach."""
    specs = []
    while x.level < level:
        above = h.identity_index.get(x)
        if above is None:
            specs.append(BondSpec(x.level, Support(x.level, frozenset({x})), IDENTITY_PROPERTY, f"{IDENTITY_PROPERTY}:{x.id}", True))
            above = ElementId(x.level + 1, specs[-1].raw_id)
        x = above
    return specs, x


def identity_bond(h: Hyperstructure, i: int, x: ElementId) -> tuple[Hyperstructure, ElementId]:
    """The bond binding only {x}; created once and reused per element."""
    h.check_level(i)
    if x.level != i or not h.has_element(x):
        raise UnknownElement(f"no element {x!r} at level {i}")
    specs, lifted = lift_specs(h, x, i + 1)
    return (add_bonds(h, specs) if specs else h), lifted


def iterated_boundary(h: Hyperstructure, b: ElementId, p: int) -> Support:
    """Walk boundaries one level at a time down to level p.

    At p == level(b) the result is the singleton {b}; below, it is the union
    of the iterated boundaries of all support members.
    """
    if not h.has_element(b):
        raise UnknownElement(f"no element {b!r}")
    if p < 0 or p > b.level:
        raise LevelOutOfRange(f"level {p} outside 0..{b.level}")
    frontier = {b}
    level = b.level
    while level > p:
        nxt: set[ElementId] = set()
        for e in sorted_elements(frontier):  # key order names the first element h.bond refuses
            nxt |= h.bond(e).support.members
        frontier = nxt
        level -= 1
    return Support(p, frozenset(frontier))


#: The names core exports from other modules, each loaded on first use: the
#: tower laws, and the one-step operations that no other library module calls.
_ELSEWHERE = {
    **dict.fromkeys(
        (
            "validate",
            "DANGLING_SUPPORT",
            "PROPERTY_NOT_ASSIGNED",
            "DUPLICATE_BOND",
            "IDENTITY_LAW",
            "NON_BOND_ELEMENT",
            "EMPTY_SUPPORT",
            "LEVEL_MISMATCH",
            "MALFORMED_TOWER",
            "EMPTY_OMEGA",
            "DANGLING_FUSION",
        ),
        "validation",
    ),
    **dict.fromkeys(
        ("assign_property", "add_bond", "boundary", "gamma"),
        "operations",
    ),
}


def __getattr__(name: str):
    home = _ELSEWHERE.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{home}", fromlist=[name]), name)
