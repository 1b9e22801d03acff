"""Constructors that put a level structure on common combinatorial inputs.

Relations, hypergraphs and simplicial complexes all become towers whose
bonds record the binding pattern; Brunnian helpers detect bonds none of
whose codimension-1 sub-collections are bound.
"""
from __future__ import annotations

from itertools import combinations, repeat
from operator import itemgetter
from typing import Collection, Iterable, NamedTuple, Sequence

from .core import (
    BondSpec,
    ElementId,
    Hyperstructure,
    RawId,
    Support,
    _new,
    add_bonds,
    id_key,
    new_hyperstructure,
)
from .errors import (
    ArityMismatch,
    DownwardClosureViolation,
    EmptyEdge,
    InvalidBranching,
    UnknownCoordinate,
    UnknownVertex,
)

REL_PROPERTY = "rel"
EDGE_PROPERTY = "edge"
SIMPLEX_PROPERTY = "simplex"
BRUNNIAN_PROPERTY = "brunnian"

#: make_brunnian_tower refuses a branching list whose product, the number of
#: base elements, exceeds this (the tower holds about twice as many elements).
BRUNNIAN_CAP = 1 << 16


def _specs(level: int, supports: Iterable[Support], token: str, raw_ids: Iterable[RawId]) -> list[BondSpec]:
    """One spec per support and raw id, each binding its support at level under token, built at once."""
    return list(map(_new, repeat(BondSpec), zip(repeat(level), supports, repeat(token), raw_ids, repeat(False))))


def _canonical_name(raw_ids: Collection[RawId]) -> str:
    """"{a,b,...}" over the ids in id_key order, which is their plain order unless str and int ids mix."""
    try:
        ids = sorted(raw_ids)
    except TypeError:
        ids = sorted(raw_ids, key=id_key)
    return "{" + ",".join(map(str, ids)) + "}"


def from_relation(components: Sequence[Iterable[RawId]], tuples: Iterable[Sequence[RawId]]) -> Hyperstructure:
    """Install a relation as an order-1 tower of tuple bonds.

    The base is the position-tagged disjoint union of the components (the
    tag keeps the coordinate order), and every tuple becomes one bond over
    its tagged coordinates.
    """
    comps = [set(c) for c in components]
    base = [f"{x}@{k + 1}" for k, comp in enumerate(comps) for x in sorted(comp, key=id_key)]
    h = new_hyperstructure(base)

    def specs():
        for t in sorted(tuples, key=lambda t: tuple(str(x) for x in t)):
            if len(t) != len(comps):
                raise ArityMismatch(f"tuple {tuple(t)!r} has arity {len(t)}, expected {len(comps)}")
            for k, x in enumerate(t):
                if x not in comps[k]:
                    raise UnknownCoordinate(f"coordinate {x!r} not in component {k + 1}")
            s = Support(0, frozenset(ElementId(0, f"{x}@{k + 1}") for k, x in enumerate(t)))
            yield BondSpec(0, s, REL_PROPERTY, "(" + ",".join(str(x) for x in t) + ")")

    return add_bonds(h, specs(), order=1)


def from_hypergraph(vertices: Iterable[RawId], edges: Iterable[Iterable[RawId]]) -> Hyperstructure:
    """Install a hypergraph: vertices at level 0, one bond per edge."""
    h = new_hyperstructure(vertices)
    base = h.element_index[0]
    names: dict[frozenset, str] = {}  # each distinct edge and its bond's raw id
    for e in edges:
        members = frozenset(e)
        if not members:
            raise EmptyEdge("hypergraph edge is empty")
        if members in names:
            continue
        if not base.keys() >= members:
            stray = next(v for v in sorted(members, key=id_key) if v not in base)
            raise UnknownVertex(f"edge vertex {stray!r} not declared")
        names[members] = _canonical_name(members)
    ordered = sorted(names.items(), key=itemgetter(1))
    supports = [Support(0, frozenset(map(base.__getitem__, members))) for members, _ in ordered]
    return add_bonds(h, _specs(0, supports, EDGE_PROPERTY, map(itemgetter(1), ordered)), order=1)


def from_simplicial_complex(
    vertices: Iterable[RawId],
    simplices: Iterable[Iterable[RawId]],
    graded: bool = False,
) -> Hyperstructure:
    """Install a simplicial complex as a tower of simplex bonds.

    Flat mode keeps one level of bonds, each binding its vertex set. Graded
    mode stacks them: a k-simplex becomes a level-k bond over its k+1
    codimension-1 face bonds, so boundaries unfold face by face.
    """
    vs = sorted(set(vertices), key=id_key)
    sset = {frozenset(s) for s in simplices}
    sset.discard(frozenset())
    vset = set(vs)
    # simplices and their vertices in a fixed order, so the first fault
    # reported does not depend on the hash seed
    ordered = sorted(sset, key=lambda s: (len(s), _canonical_name(s)))
    for s in ordered:
        svs = sorted(s, key=id_key)
        for v in svs:
            if v not in vset:
                raise UnknownVertex(f"simplex vertex {v!r} not declared")
        if len(s) > 1:
            for face in combinations(svs, len(s) - 1):
                if frozenset(face) not in sset:
                    raise DownwardClosureViolation(
                        f"simplex {_canonical_name(s)} lacks face {_canonical_name(face)}"
                    )
    for v in vs:
        if frozenset({v}) not in sset:
            raise DownwardClosureViolation(f"vertex {v!r} is not listed as a singleton simplex")

    h = new_hyperstructure(vs)
    by_size = [s for s in ordered if len(s) >= 2]
    if not by_size:
        return h
    base = h.element_index[0]
    names = list(map(_canonical_name, by_size))

    if not graded:
        supports = [Support(0, frozenset(map(base.__getitem__, s))) for s in by_size]
        return add_bonds(h, _specs(0, supports, SIMPLEX_PROPERTY, names))

    # graded: the level-k bond for a k-simplex binds its (k-1)-face bonds
    element = {frozenset((v,)): e for v, e in base.items()}  # each simplex and the element it becomes
    specs = []
    for s, name in zip(by_size, names):
        k = len(s) - 1
        specs.append(BondSpec(k - 1, Support(k - 1, frozenset(element[s - {v}] for v in s)), SIMPLEX_PROPERTY, name))
        element[s] = ElementId(k, name)
    return add_bonds(h, specs)


# -- Brunnian structure ----------------------------------------------------------


class BrunnianComplex(NamedTuple):
    """A vertex set plus a family of bound subsets.

    Unlike a simplicial complex the family need not be downward closed;
    the empty set and all singletons must belong to it.
    """

    vertices: frozenset
    family: frozenset[frozenset]

    @classmethod
    def of(cls, vertices: Iterable[RawId], family: Iterable[Iterable[RawId]]) -> "BrunnianComplex":
        vs = frozenset(vertices)
        fam = frozenset(frozenset(f) for f in family)
        fam |= {frozenset()} | {frozenset({v}) for v in vs}
        for f in fam:
            for v in f:
                if v not in vs:
                    raise UnknownVertex(f"family member {v!r} not a vertex")
        return cls(vertices=vs, family=fam)


def brunnian_bonds(k: BrunnianComplex) -> set[frozenset]:
    """Family members of size >= 2 none of whose codim-1 subsets are bound."""
    return {f for f in k.family if len(f) >= 2 and all(f - {v} not in k.family for v in f)}


def is_brunnian_bond(h: Hyperstructure, bond_id: ElementId) -> bool:
    """A bond over two or more elements none of whose codim-1 sub-supports is bound at its level."""
    members = h.bond(bond_id).support.members
    if len(members) < 2:
        return False
    bound = h.supports_by_level[bond_id.level]
    return not any(members - {m} in bound for m in members)


def brunnian_bond_ids(h: Hyperstructure) -> list[ElementId]:
    """Every Brunnian bond, level by level in registry order."""
    return [b.id for i in range(1, h.order + 1) for b in h.bonds_at(i) if is_brunnian_bond(h, b.id)]


def brunnian_order(h: Hyperstructure, brunnians: Iterable[ElementId] | None = None) -> int:
    """Length of the longest boundary-nested chain of Brunnian bonds.

    Callers that already hold brunnian_bond_ids(h) pass it as `brunnians`.
    """
    if brunnians is None:
        brunnians = brunnian_bond_ids(h)
    depth: dict[ElementId, int] = {}
    for e in sorted(brunnians, key=lambda x: x.level):  # members before the bonds over them
        depth[e] = 1 + max((depth.get(m, 0) for m in h.bond(e).support.members), default=0)
    return max(depth.values(), default=0)


def make_brunnian_tower(branching: Sequence[int]) -> Hyperstructure:
    """Nested blocks of Brunnian bonds: branching[k] blocks per level-k bond.

    For branching [3, 3] this is the nine-vertex pattern: three triples of
    base elements, each triple bound, and the three triple-bonds bound once
    more at the top — with no sub-blocks bound anywhere. A product of the
    factors over BRUNNIAN_CAP raises InvalidBranching before anything is
    built.
    """
    if not branching:
        raise InvalidBranching("branching list is empty")
    for n in branching:
        if not isinstance(n, int) or n < 2:
            raise InvalidBranching(f"branching factor {n!r} must be an integer >= 2")
    total = 1
    for n in branching:
        total *= n
        if total > BRUNNIAN_CAP:  # checked factor by factor, so a long list stops early
            raise InvalidBranching(f"the branching factors ask for more than BRUNNIAN_CAP = {BRUNNIAN_CAP} base elements")
    names = [f"v{j}" for j in range(total)]
    h = new_hyperstructure(names)
    specs = []
    for level, n in enumerate(branching):
        below = list(map(_new, repeat(ElementId), zip(repeat(level), names)))
        names = [f"g{level + 1}.{j}" for j in range(len(below) // n)]
        blocks = zip(*[iter(below)] * n)  # consecutive n-element blocks; n divides len(below)
        specs += _specs(level, map(Support, repeat(level), map(frozenset, blocks)), BRUNNIAN_PROPERTY, names)
    return add_bonds(h, specs)
