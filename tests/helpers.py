"""Shared generators and independently-coded oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: they recompute
definitions from scratch (naive recursion, exhaustive enumeration) so that
agreement is evidence, not circularity.
"""
from __future__ import annotations

import json
import random
from itertools import combinations, product
from pathlib import Path

from hyperstruct.catelem import NERVE_CAP, FiniteCategory, SimplicialData, _key
from hyperstruct.composition import combine_tokens, composable
from hyperstruct.core import (
    IDENTITY_PROPERTY,
    Bond,
    BondSpec,
    ElementId,
    FusionRecord,
    Hyperstructure,
    Support,
    add_bond,
    add_bonds,
    assign_property,
    identity_bond,
    new_hyperstructure,
    sorted_elements,
)
from hyperstruct.errors import (
    DuplicateId,
    EmptySupport,
    InconsistentComplex,
    InvalidCategory,
    LevelOutOfRange,
    NotComposable,
    NotGluable,
    PropertyNotAssigned,
    ReservedProperty,
    SweepTooLarge,
    UnknownElement,
)

PROPS = ["p", "q", "r", "s"]


def random_tower(rng: random.Random, max_order: int = 3, max_per_level: int = 12) -> Hyperstructure:
    """A valid tower built through public operations only."""
    base_n = rng.randint(1, max(1, max_per_level - 2))
    h = new_hyperstructure([f"x{i}" for i in range(base_n)])
    order = rng.randint(0, max_order)
    for level in range(order):
        current = sorted(h.elements(level), key=lambda e: e.key)
        if not current:
            break
        n_bonds = rng.randint(1, max(1, min(max_per_level, len(current) + 2)))
        made = 0
        for j in range(n_bonds):
            size = rng.randint(1, min(len(current), 4))
            members = rng.sample(current, size)
            s = Support.of(members)
            token = rng.choice(PROPS)
            h = assign_property(h, level, s, token)
            h, _ = add_bond(h, level, s, token, f"b{level}_{j}")
            made += 1
        if made and rng.random() < 0.3:
            x = rng.choice(current)
            h, _ = identity_bond(h, level, x)
    return h


def mixed_id_tower(rng):
    """An order-2 tower whose ids mix ints and strings; small levels make ties likely."""
    h = new_hyperstructure([0, 1, 2, "a", "b", 10])
    for level, props in ((0, "p"), (1, "q")):
        current = sorted_elements(h.elements(level))
        specs = []
        for j in range(rng.randint(2, 8)):
            members = rng.sample(current, rng.randint(1, min(3, len(current))))
            raw = 100 * level + j if rng.random() < 0.5 else f"s{level}_{j}"
            specs.append(BondSpec(level, h.support_at(level, [m.id for m in members]), props, raw))
        h = add_bonds(h, specs, order=level + 1)
    return h


def naive_iterated_boundary(h: Hyperstructure, e: ElementId, p: int) -> frozenset[ElementId]:
    """Recursive restatement of the boundary walk, independent of the library's loop."""
    if e.level == p:
        return frozenset({e})
    out: frozenset[ElementId] = frozenset()
    for m in h.bond(e).support.members:
        out |= naive_iterated_boundary(h, m, p)
    return out


# -- naive topology oracle -----------------------------------------------------------


_supports_seen: list = [None, {}]  # the last tower asked about, and its supports by bond id


def _naive_support(h: Hyperstructure, e: ElementId) -> frozenset[ElementId]:
    if e.level == 0:
        return frozenset({e})
    tower, supports = _supports_seen
    if tower is not h:  # a tower is immutable, so one scan of its bonds serves every later question
        supports = {}
        for b in h.bonds:
            supports.setdefault(b.id, b.support.members)  # the first record, as a scan finds it
        _supports_seen[:] = [h, supports]
    got = supports.get(e)
    if got is None:
        raise AssertionError(f"no bond for {e!r}")
    return got


def naive_leq(h: Hyperstructure, a: ElementId, b: ElementId) -> bool:
    return a.level == b.level and _naive_support(h, a) <= _naive_support(h, b)


def naive_all_sieves(h: Hyperstructure, root: ElementId) -> list[frozenset[ElementId]]:
    """Brute force: every subset of the level, kept iff rooted and closed."""
    level = sorted(h.elements(root.level), key=lambda e: e.key)
    out = []
    for r in range(len(level) + 1):
        for chosen in combinations(level, r):
            cs = frozenset(chosen)
            if not all(naive_leq(h, e, root) for e in cs):
                continue
            closed = True
            for e in cs:
                for f in level:
                    if naive_leq(h, f, e) and f not in cs:
                        closed = False
            if closed:
                out.append(cs)
    return out


class NaiveStructures:
    """Per-tower tables the naive checker derives for itself, once."""

    def __init__(self, h: Hyperstructure, level: int):
        self.elements = sorted(h.elements(level), key=lambda e: e.key)
        self.leq = {
            (a, b): naive_leq(h, a, b) for a in self.elements for b in self.elements
        }
        self.maximal = {
            b: frozenset(e for e in self.elements if self.leq[(e, b)]) for b in self.elements
        }
        self.all_sieves = {b: naive_all_sieves(h, b) for b in self.elements}


def naive_check(structs: NaiveStructures, members_of) -> bool:
    """The three axioms, quantified directly from their statements."""
    elements = structs.elements
    leq = structs.leq
    for b in elements:
        if b not in members_of:
            return False
    for b in elements:
        for fam in members_of[b]:
            if not all(leq[(e, b)] for e in fam):
                return False
            for e in fam:
                for f in elements:
                    if leq[(f, e)] and f not in fam:
                        return False
        if structs.maximal[b] not in members_of[b]:
            return False
        for finer in elements:
            if finer == b or not leq[(finer, b)]:
                continue
            for fam in members_of[b]:
                pulled = frozenset(e for e in fam if leq[(e, finer)])
                if pulled not in members_of[finer]:
                    return False
        for fam in members_of[b]:
            for cand in structs.all_sieves[b]:
                if cand in members_of[b]:
                    continue
                if all(
                    frozenset(e for e in cand if leq[(e, finer)]) in members_of[finer]
                    for finer in fam
                ):
                    return False
    return True


def naive_is_topology(h: Hyperstructure, topology, level: int) -> bool:
    structs = NaiveStructures(h, level)
    members_of = {b: {frozenset(s.members) for s in topology.get(b, ())} for b in structs.elements}
    for b in structs.elements:
        if b not in topology:
            return False
    return naive_check(structs, members_of)


# -- reference checkers: the eager, witness-for-every-finding forms ------------------
#
# These keep the axiom checker and the descent check as they were before both
# decided on masks and wrote witnesses only when read. Unlike naive_check they
# return the whole rendered report, so the library's text can be compared byte
# for byte; findings are (code, message) pairs.


def _reference_text(name: str, findings, notes) -> str:
    fs = sorted(findings)
    lines = [f"{name}: {'FAIL' if fs else 'pass'}"]
    lines += [f"note: {n}" for n in notes]
    lines += [f"{code}: {message}" for code, message in fs]
    return "\n".join(lines)


def reference_is_grothendieck_topology(h: Hyperstructure, topology, level: int, exhaustive=None, seed: int = 0):
    """Rendered report of the axiom checker, every witness written and every candidate drawn.

    Witnesses are written as repr(Sieve(...)) and downsets tested by their
    closure here, not by the level order's own text memo and downset test."""
    from hyperstruct.errors import SweepTooLarge
    from hyperstruct.topology import EXHAUSTIVE_CAP, SAMPLE_SIZE, Sieve, _bit_indices, _level_order, _sampled_masks

    h.check_level(level)
    order = _level_order(h, level)
    elements = order.elements
    findings = []
    notes = []
    if exhaustive is None:
        exhaustive = len(elements) <= EXHAUSTIVE_CAP
    if exhaustive:
        for i, b in enumerate(elements):
            size = order.below[i].bit_count()
            if size > EXHAUSTIVE_CAP:
                raise SweepTooLarge(
                    f"exhaustive sweep at {b!r} would enumerate the subsets of a {size}-element ideal; "
                    f"the cap is {EXHAUSTIVE_CAP}, use a sampled check"
                )
    else:
        notes.append(f"sampled: seed={seed} size={SAMPLE_SIZE}")
    rng = random.Random(seed)

    for b in elements:
        if b not in topology:
            findings.append(("undefined", f"no sieve collection at {b!r}"))
    if findings:
        return _reference_text(f"grothendieck-topology level {level}", findings, notes)

    masks = []
    for i, b in enumerate(elements):
        got = set()
        for s in topology[b]:
            if s.root != b:
                findings.append(("misrooted", f"sieve rooted at {s.root!r} listed under {b!r}"))
                continue
            m = order.mask_of(s.members)
            closure = 0
            for j in _bit_indices(m):
                closure |= order.below[j]
            if m & ~order.below[i] or closure != m:
                findings.append(("not-a-sieve", f"family under {b!r} is not downward closed: {s!r}"))
                continue
            got.add(m)
        masks.append(got)

    below = order.below

    def text(i: int, mask: int) -> str:
        return repr(Sieve(elements[i], order.unmask(mask)))

    for i, b in enumerate(elements):
        sieves = masks[i]
        if below[i] not in sieves:
            findings.append(("maximality", f"maximal sieve on {b!r} missing from J({b.id})"))
        for j in _bit_indices(below[i] & ~(1 << i)):
            for s in sieves:
                if s & below[j] not in masks[j]:
                    findings.append(
                        ("stability", f"pullback of {text(i, s)} along {elements[j]!r} missing from J({elements[j].id})")
                    )
        candidates = order.downsets_below(i) if exhaustive else _sampled_masks(order, i, rng, SAMPLE_SIZE)
        covered = 0
        for s in sieves:
            covered |= s
        members = _bit_indices(covered)
        for r in candidates:
            if r in sieves:
                continue
            local = 0
            for j in members:
                if r & below[j] in masks[j]:
                    local |= 1 << j
            for s in sieves:
                if not s & ~local:
                    findings.append(
                        (
                            "transitivity",
                            f"{text(i, r)} covers locally over {text(i, s)} but is missing from J({b.id})",
                        )
                    )
    return _reference_text(f"grothendieck-topology level {level}", findings, notes)


def reference_check_amalgamation(site, lam, connectors):
    """Rendered descent report, from frozenset boundaries and a sorted_elements walk per family."""
    from hyperstruct.core import sorted_elements
    from hyperstruct.states import Marker

    h = site.h
    findings = []
    notes = ("scope: levelwise and adjacent-level coherence",)
    if len(connectors) != h.order:
        findings.append(("shape", f"need {h.order} connectors, got {len(connectors)}"))
        return _reference_text("amalgamation", findings, notes)
    for i in range(1, h.order + 1):
        delta = connectors[i - 1]
        for b in h.bonds_at(i):
            want = lam.get(b.id)
            if want is None or isinstance(want, Marker):
                findings.append(("totality", f"no state for {b.id!r}"))
                continue
            for sieve in sorted(site.topology.get(b.id, frozenset()), key=lambda s: s.key):
                family = [m for m in sorted_elements(sieve.members) if h.is_bond(m)]
                if not family:
                    continue
                boundaries = [h.bond(m).support.members for m in family]
                covered = frozenset().union(*boundaries)
                if covered != b.support.members:
                    continue
                values = [lam.per_level[i - 1][m] for m in sorted_elements(covered)]
                got = delta.apply(values, at=b.id)
                if got != want:
                    findings.append(("descent", f"bond {b.id!r}: family {sieve!r} recomputes {got!r} != {want!r}"))
                disjoint = sum(len(bd) for bd in boundaries) == len(covered)
                if disjoint and delta.is_fold:
                    partials = [delta.apply([lam.per_level[i - 1][m] for m in sorted_elements(bd)], at=b.id) for bd in boundaries]
                    staged = delta.apply(partials, at=b.id)
                    if staged != want:
                        findings.append(
                            ("descent", f"bond {b.id!r}: stagewise fold over {sieve!r} gives {staged!r} != {want!r}")
                        )
    return _reference_text("amalgamation", findings, notes)


def reference_globalize(h: Hyperstructure, base, connectors):
    """globalize with every boundary read in sorted_elements order, for every connector kind."""
    from hyperstruct.core import sorted_elements
    from hyperstruct.errors import ConnectorUndefined, MissingState, UnknownElement
    from hyperstruct.states import LambdaAssignment

    if len(connectors) != h.order:
        raise ConnectorUndefined(f"need {h.order} connectors, got {len(connectors)}")
    level0 = {}
    for k, v in base.items():
        e = k if isinstance(k, ElementId) else h.element(0, k)
        if e.level != 0 or not h.has_element(e):
            raise UnknownElement(f"{e!r} is not a level-0 element")
        level0[e] = v
    for e in sorted_elements(h.elements(0)):
        if e not in level0:
            raise MissingState(f"base state missing for {e!r}")
    per_level = [level0]
    for i in range(1, h.order + 1):
        current = {}
        for b in h.bonds_at(i):
            values = []
            for m in sorted_elements(b.support.members):
                if m not in per_level[i - 1]:
                    raise MissingState(f"no state for {m!r} in the boundary of {b.id!r}")
                values.append(per_level[i - 1][m])
            current[b.id] = connectors[i - 1].apply(values, at=b.id)
        per_level.append(current)
    return LambdaAssignment(per_level=tuple(per_level))


# -- support families as towers -------------------------------------------------------


def tower_from_supports(supports: list[frozenset[str]]) -> Hyperstructure:
    """An order-1 tower whose level-1 bonds realize the given support family."""
    base = sorted({v for s in supports for v in s})
    h = new_hyperstructure(base if base else ["x0"])
    return add_bonds(h, [BondSpec(0, h.support_at(0, s), "p", f"b{j}") for j, s in enumerate(supports)], order=1)


# -- bond-by-bond reference builders ---------------------------------------------------


def reference_add_bond(h: Hyperstructure, i: int, s: Support, token, raw_id, identity: bool = False):
    """One bond added the slow way: every check in order, grow, omega update, re-sorted registry.

    With identity set it adds an identity bond, whose reserved token needs no
    assignment and is stripped into the omega table here.
    """
    if not 0 <= i <= h.order:
        raise LevelOutOfRange(f"level {i} outside 0..{h.order}")
    if s.level != i:
        raise LevelOutOfRange(f"support at level {s.level}, expected {i}")
    if not s.members:
        raise EmptySupport("a bond must bind a nonempty support")
    for m in s.members:
        if not (0 <= m.level <= h.order and m in h.levels[m.level]):
            raise UnknownElement(f"support member {m!r} not in the tower")
    if token == IDENTITY_PROPERTY and not identity:
        raise ReservedProperty(f"{IDENTITY_PROPERTY!r} is reserved for identity bonds")
    have = h.omegas[i].get(s, frozenset())
    if token not in have and not identity:
        raise PropertyNotAssigned(f"{token!r} not assigned to {s!r} at level {i}")
    if i == h.order:
        h = h._replace(order=h.order + 1, levels=h.levels + (frozenset(),), omegas=h.omegas + ({},))
    eid = ElementId(i + 1, raw_id)
    if eid in h.levels[i + 1]:
        raise DuplicateId(f"element {raw_id!r} already present at level {i + 1}")
    if token not in have:
        omegas = list(h.omegas)
        omegas[i] = {**omegas[i], s: have | {token}}
        h = h._replace(omegas=tuple(omegas))
    levels = list(h.levels)
    levels[i + 1] = levels[i + 1] | {eid}
    bonds = sorted(h.bonds + (Bond(id=eid, support=s, property=token, identity=identity),), key=lambda b: b.key)
    return h._replace(levels=tuple(levels), bonds=tuple(bonds)), eid


def reference_identity_bond(h: Hyperstructure, i: int, x: ElementId):
    """identity_bond restated: reuse the element's identity bond, else add one named id:<x>."""
    if not 0 <= i <= h.order:
        raise LevelOutOfRange(f"level {i} outside 0..{h.order}")
    if x.level != i or x not in h.levels[i]:
        raise UnknownElement(f"no element {x!r} at level {i}")
    for b in h.bonds:
        if b.identity and b.support.members == {x}:
            return h, b.id
    return reference_add_bond(h, i, Support(i, frozenset({x})), IDENTITY_PROPERTY, f"{IDENTITY_PROPERTY}:{x.id}", True)


def reference_compose(h: Hyperstructure, a: ElementId, b: ElementId, p: int, mode="strict", combiner=None, raw_id=None):
    """compose restated with assign_property and the one-bond reference."""
    if a.level != b.level:
        raise NotComposable(f"levels differ ({a.level} vs {b.level}); use compose_cross")
    if not composable(h, a, b, p, mode):
        raise NotComposable(f"{a!r} and {b!r} are not {mode}-compatible at level {p}")
    ba, bb = h.bond(a), h.bond(b)
    sup = ba.support.union(bb.support)
    token = combine_tokens(combiner, ba.property, bb.property)
    if token == IDENTITY_PROPERTY:
        return h, a
    if raw_id is None:
        raw_id = f"({a.id}□{b.id})"
    h = assign_property(h, sup.level, sup, token)
    return reference_add_bond(h, sup.level, sup, token, raw_id)


def reference_compose_cross(h: Hyperstructure, a: ElementId, b: ElementId, p: int, mode="strict", combiner=None, raw_id=None):
    """compose_cross restated: decide on the pair as given and name the token,
    then lift the lower bond one identity bond at a time and compose."""
    if a.level < b.level:
        a, b = b, a
    if not 0 <= p < b.level:
        raise LevelOutOfRange(f"probe level {p} must lie below the lower bond (level {b.level})")
    if not composable(h, a, b, p, mode):
        raise NotComposable(f"{a!r} and {b!r} are not {mode}-compatible at level {p}")
    # a lifted operand carries the reserved token, so an undefined combination is refused before any lift
    combine_tokens(combiner, h.bond(a).property, IDENTITY_PROPERTY if b.level < a.level else h.bond(b).property)
    lifted = b
    while lifted.level < a.level:
        h, lifted = reference_identity_bond(h, lifted.level, lifted)
    return reference_compose(h, a, lifted, p, mode, combiner, raw_id)


def reference_fuse(h: Hyperstructure, a: ElementId, b: ElementId, k: int, combiner=None, raw_id=None):
    """fuse restated over reference_compose_cross: weak gluing, then one log record."""
    h.bond(a)
    h.bond(b)
    if not 0 <= k < min(a.level, b.level):
        raise LevelOutOfRange(f"gluing level {k} not below both bonds")
    try:
        h2, eid = reference_compose_cross(h, a, b, k, "weak", combiner, raw_id)
    except NotComposable:
        raise NotGluable(f"{a!r} and {b!r} share nothing at level {k}") from None
    rec = FusionRecord(k=k, m=max(a.level, b.level), n=min(a.level, b.level), a=a, b=b, result=eid)
    return h2._replace(fusion_log=h2.fusion_log + (rec,)), eid


def chain_add_bonds(h: Hyperstructure, specs, order: int = 0) -> Hyperstructure:
    """add_bonds restated one bond at a time: assign_property, then the one-bond reference."""
    while h.order < order:
        h = h._replace(order=h.order + 1, levels=h.levels + (frozenset(),), omegas=h.omegas + ({},))
    for i, s, token, raw_id, identity in specs:
        if not identity:
            h = assign_property(h, i, s, token)
        h, _ = reference_add_bond(h, i, s, token, raw_id, identity)
    return h


def _name(raw_ids) -> str:
    return "{" + ",".join(str(r) for r in sorted(raw_ids, key=lambda r: (isinstance(r, str), r))) + "}"


def chain_from_hypergraph(vertices, edges) -> Hyperstructure:
    h = chain_add_bonds(new_hyperstructure(vertices), [], order=1)
    for members in sorted({frozenset(e) for e in edges}, key=_name):
        s = h.support_at(0, members)
        h = assign_property(h, 0, s, "edge")
        h, _ = reference_add_bond(h, 0, s, "edge", _name(members))
    return h


def chain_from_relation(components, tuples) -> Hyperstructure:
    base = [f"{x}@{k + 1}" for k, comp in enumerate(components) for x in sorted(set(comp), key=lambda r: (isinstance(r, str), r))]
    h = chain_add_bonds(new_hyperstructure(base), [], order=1)
    for t in sorted(tuples, key=lambda t: tuple(str(x) for x in t)):
        s = h.support_at(0, [f"{x}@{k + 1}" for k, x in enumerate(t)])
        h = assign_property(h, 0, s, "rel")
        h, _ = reference_add_bond(h, 0, s, "rel", "(" + ",".join(str(x) for x in t) + ")")
    return h


def chain_from_simplicial_complex(vertices, simplices, graded: bool) -> Hyperstructure:
    h = new_hyperstructure(sorted(set(vertices), key=lambda r: (isinstance(r, str), r)))
    by_size = sorted({frozenset(s) for s in simplices if len(s) >= 2}, key=lambda s: (len(s), _name(s)))
    name_of = {}
    for s in by_size:
        k = len(s) - 1 if graded else 1
        if k == 1:
            sup = h.support_at(0, s)
        else:
            sup = Support.of(name_of[s - {v}] for v in s)
        h = assign_property(h, k - 1, sup, "simplex")
        h, name_of[s] = reference_add_bond(h, k - 1, sup, "simplex", _name(s))
    return h


def chain_brunnian_tower(branching) -> Hyperstructure:
    total = 1
    for n in branching:
        total *= n
    h = new_hyperstructure([f"v{j}" for j in range(total)])
    current = [ElementId(0, f"v{j}") for j in range(total)]
    for level, n in enumerate(branching):
        nxt = []
        for j in range(len(current) // n):
            sup = Support.of(current[j * n : (j + 1) * n])
            h = assign_property(h, level, sup, "brunnian")
            h, eid = reference_add_bond(h, level, sup, "brunnian", f"g{level + 1}.{j}")
            nxt.append(eid)
        current = nxt
    return h


def naive_brunnian_order(h: Hyperstructure) -> int:
    """Brunnian bonds found by scanning every bond, nested by plain recursion."""
    def bound_at(level, members):
        return any(b.id.level == level and b.support.members == members for b in h.bonds)

    brunnian = {
        b.id
        for b in h.bonds
        if len(b.support.members) >= 2
        and not any(bound_at(b.id.level, b.support.members - {m}) for m in b.support.members)
    }

    def depth(e):
        return 1 + max((depth(m) for m in _naive_support(h, e) if m in brunnian), default=0)

    return max((depth(e) for e in brunnian), default=0)


# -- dense GF(2) linear algebra over lists of 0/1 rows -----------------------------------


def naive_boundary_rows(s, k: int) -> list[list[int]]:
    """The boundary from dimension k to k-1 as dense 0/1 rows, read straight
    off the face pointers (a degenerate None face contributes nothing)."""
    rows, cols = s.simplices[k - 1], s.simplices[k]
    return [[sum(1 for f in s.faces[c] if f == r) % 2 for c in cols] for r in rows]


def bit_columns_as_rows(cols: list[int], n_rows: int) -> list[list[int]]:
    """Bitset columns (bit i = row i) as dense 0/1 rows."""
    return [[c >> i & 1 for c in cols] for i in range(n_rows)]


def naive_gf2_rank(rows: list[list[int]]) -> int:
    """Gauss-Jordan elimination over GF(2), one column at a time."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [x ^ y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def gf2_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two dense 0/1 matrices, reduced mod 2."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % 2 for col in cols] for row in a]


# -- naive finite-category oracle ---------------------------------------------------------


def naive_category_ok(objects, morphisms, identities, composition) -> bool:
    """The category laws by all-pairs and all-triples scans, plus the rule a
    document enforces: identity and composition entries name only known
    objects and morphisms, and the table has exactly the composable pairs."""
    objs, mors = set(objects), list(morphisms)
    by_id = {m.id: m for m in mors}
    ends = {m.id: (m.src, m.tgt) for m in mors}
    if len(by_id) != len(mors) or any(m.src not in objs or m.tgt not in objs for m in mors):
        return False
    if not set(identities) <= objs or any(ends.get(identities.get(c)) != (c, c) for c in objs):
        return False
    pairs = [(g.id, f.id) for g in mors for f in mors if f.tgt == g.src]
    if set(composition) != set(pairs):
        return False
    if any(ends.get(composition[(g, f)]) != (by_id[f].src, by_id[g].tgt) for g, f in pairs):
        return False
    for m in mors:
        if composition[(m.id, identities[m.src])] != m.id or composition[(identities[m.tgt], m.id)] != m.id:
            return False
    for h in mors:
        for g in mors:
            for f in mors:
                if f.tgt == g.src and g.tgt == h.src:
                    if composition[(composition[(h.id, g.id)], f.id)] != composition[(h.id, composition[(g.id, f.id)])]:
                        return False
    return True


def naive_composable_pairs(cat) -> list:
    """Every (g, f) with f.tgt == g.src by an all-pairs scan, f-major."""
    return [(g, f) for f in cat.morphisms for g in cat.morphisms if f.tgt == g.src]


def naive_hom(cat, src, tgt) -> list:
    return [m.id for m in cat.morphisms if m.src == src and m.tgt == tgt]


def _id_key(x) -> str:
    return f"{type(x).__name__}:{x}" if isinstance(x, (str, int)) else repr(x)


def naive_nerve_dims(cat, max_dim: int) -> list[tuple]:
    """Objects, then every chain of k composable non-identity morphisms
    (first arrow first), each dimension sorted by its ids' keys."""
    non_id = [m for m in cat.morphisms if cat.identities[m.src] != m.id]
    dims = [tuple(sorted(cat.objects, key=_id_key))]
    for k in range(1, max_dim + 1):
        chains = [c for c in product(non_id, repeat=k) if all(a.tgt == b.src for a, b in zip(c, c[1:]))]
        dims.append(tuple(sorted((tuple(m.id for m in c) for c in chains), key=lambda c: tuple(map(_id_key, c)))))
    return dims


# The name-and-lookup nerve the library used before it walked positions, kept
# as written: it names every chain and looks up every face by name, refuses
# nothing that a composite lookup does not trip over, and lists the faces of
# every 1-chain whatever max_dim is.
def reference_nerve(cat: FiniteCategory, max_dim: int) -> SimplicialData:
    """Chains of composable non-identity morphisms, up to the given length.
    Morphisms are held in id-key order, so chains come out lexicographically.

    Each dimension is counted before it is built, and SweepTooLarge is
    raised when max_dim plus the simplices listed would exceed NERVE_CAP."""
    if max_dim < 0:
        raise InconsistentComplex(f"max_dim must be non-negative, got {max_dim}")
    listed = 0

    def admit(k: int, count: int) -> None:
        nonlocal listed
        listed += count
        if max_dim + listed > NERVE_CAP:
            raise SweepTooLarge(
                f"nerve up to dimension {max_dim}: {listed} simplices by dimension {k}, plus {max_dim} dimensions, exceed the cap of {NERVE_CAP}"
            )

    admit(0, len(cat.objects))
    dims: list[tuple] = [tuple(sorted(cat.objects, key=_key))]
    identity = {m.id for m in cat.morphisms if cat.identities.get(m.src) == m.id}
    non_id = [m for m in cat.morphisms if m.id not in identity]
    tgt = {m.id: m.tgt for m in non_id}
    out: dict = {}
    for m in non_id:
        out.setdefault(m.src, []).append(m.id)
    degree = {m.id: len(out.get(m.tgt, ())) for m in non_id}  # how many chains a chain ending in m extends to
    composition = cat.composition
    chains: list[tuple] = [(m.id,) for m in non_id]
    faces: dict = {(m.id,): (m.tgt, m.src) for m in non_id}  # drop-source vertex first, then drop-target
    if max_dim >= 1:
        admit(1, len(chains))
        dims.append(tuple(chains))
    for k in range(2, max_dim + 1):
        admit(k, sum(degree[chain[-1]] for chain in chains))
        chains = [chain + (n,) for chain in chains for n in out.get(tgt[chain[-1]], ())]
        for chain in chains:
            fs: list = [chain[1:]]  # drop first arrow
            for j in range(len(chain) - 1):
                comp = composition.get((chain[j + 1], chain[j]))
                if comp is None:
                    raise InvalidCategory(f"composite of ({chain[j + 1]!r}, {chain[j]!r}) undefined")
                if comp in identity:
                    fs.append(None)  # the chain collapses onto an identity
                elif comp in tgt:
                    fs.append(chain[:j] + (comp,) + chain[j + 2 :])
                else:
                    raise InvalidCategory(f"unknown morphism {comp!r}")
            fs.append(chain[:-1])  # drop last arrow
            faces[chain] = tuple(fs)
        dims.append(tuple(chains))
    return SimplicialData(max_dim=max_dim, simplices=tuple(dims), faces=faces)


def reference_checked_sections(cat, p) -> dict:
    """The presheaf laws by brute force: every action through `Presheaf.act`,
    and contravariance on every composable pair from an all-pairs scan.
    Objects, sections and pairs are walked in the library's order, so the
    first failure it raises is the one the library must raise."""
    from hyperstruct.errors import InvalidCategory, InvalidPresheaf

    for c in p.on_objects:
        if c not in cat.objects:
            raise InvalidPresheaf(f"value listed at unknown object {c!r}")
    for u in p.on_morphisms:
        if u not in cat.by_id:
            raise InvalidPresheaf(f"action listed for unknown morphism {u!r}")
    objs = sorted(cat.objects, key=_id_key)
    sections = {c: sorted(p.at(c), key=_id_key) for c in objs}

    def at(c):
        return sections[c] if c in sections else p.at(c)

    for m in cat.morphisms:
        for x in at(m.tgt):
            y = p.act(m.id, x)
            if y not in p.at(m.src):
                raise InvalidPresheaf(f"{m.id!r} maps {x!r} outside the value at {m.src!r}")
    for c in objs:
        i = cat.identities.get(c)
        if i is None or i not in cat.by_id:
            raise InvalidCategory(f"object {c!r} lacks an identity morphism")
        for x in sections[c]:
            if p.act(i, x) != x:
                raise InvalidPresheaf(f"identity action at {c!r} moves {x!r}")
    for g, f in naive_composable_pairs(cat):
        gf = cat.compose(g.id, f.id)
        for x in at(g.tgt):
            if p.act(f.id, p.act(g.id, x)) != p.act(gf, x):
                raise InvalidPresheaf(f"contravariance fails at ({g.id!r}, {f.id!r}) on {x!r}")
    return sections


# -- labeled posets up to isomorphism ---------------------------------------------------


def all_posets_up_to_iso(n: int) -> list[frozenset[tuple[int, int]]]:
    """Strict-order relations on range(n), one representative per isomorphism class.

    Every labelled strict order on range(k + 1) is one on range(k) with k
    put above a down-set and below an up-set of it, each member of the
    down-set under each member of the up-set. The labelled orders are read
    in the order of their masks over the pairs (i, j), i != j, row by row,
    and the first of each class is kept: the representatives, in the order,
    that a filter over all 2^(n(n-1)) relations meets first.
    """
    from itertools import permutations

    orders = [frozenset()]
    for k in range(n):
        subsets = [frozenset(c) for size in range(k + 1) for c in combinations(range(k), size)]
        grown = []
        for rel in orders:
            downs = [d for d in subsets if all(x in d for (x, y) in rel if y in d)]
            ups = [u for u in subsets if all(y in u for (x, y) in rel if x in u)]
            for d in downs:
                for u in ups:
                    if all((x, y) in rel for x in d for y in u):
                        grown.append(rel | {(x, k) for x in d} | {(k, y) for y in u})
        orders = grown
    bit = {p: k for k, p in enumerate((i, j) for i in range(n) for j in range(n) if i != j)}
    orders.sort(key=lambda rel: sum(1 << bit[p] for p in rel))
    perms = list(permutations(range(n)))
    seen: set[frozenset] = set()
    out: list[frozenset] = []
    for rel in orders:
        if rel not in seen:
            out.append(rel)
            seen.update(frozenset((p[a], p[b]) for a, b in rel) for p in perms)
    return out


def poset_as_supports(n: int, rel: frozenset[tuple[int, int]]) -> list[frozenset[str]]:
    """Realize an abstract poset as a support family via principal down-sets."""
    return [frozenset({f"v{j}"} | {f"v{i}" for (i, jj) in rel if jj == j}) for j in range(n)]


# -- pushout / pullback function-enumeration oracles -------------------------------------


def _all_functions(dom: list, cod: list):
    if not dom:
        yield {}
        return
    for values in product(cod, repeat=len(dom)):
        yield dict(zip(dom, values))


def naive_pushout_set(w1, w2, w12, f1, f2):
    """Pushout classes by repeated merging (no union-find)."""
    nodes = [("L", x) for x in sorted(w1)] + [("R", y) for y in sorted(w2)]
    classes = [{n} for n in nodes]

    def find(n):
        for c in classes:
            if n in c:
                return c
        raise AssertionError

    for z in sorted(w12):
        a, b = find(("L", f1[z])), find(("R", f2[z]))
        if a is not b:
            classes.remove(a)
            classes.remove(b)
            classes.append(a | b)
    return classes


def oracle_pushout_holds(w1, w2, w12, f1, f2, u1, u2, wu) -> bool:
    """Enumerate candidate comparison maps; the property holds iff a structure-
    respecting bijection from the pushout onto the union's tokens exists."""
    classes = naive_pushout_set(w1, w2, w12, f1, f2)
    reps = [frozenset(c) for c in classes]
    for h in _all_functions(reps, sorted(wu)):
        ok = True
        for c in reps:
            for side, x in c:
                want = u1[x] if side == "L" else u2[x]
                if h[c] != want:
                    ok = False
                    break
            if not ok:
                break
        if ok and len(set(h.values())) == len(reps) == len(wu):
            return True
    return len(reps) == 0 and len(wu) == 0


def oracle_pullback_holds(w1, w2, w12, r1, r2, p1, p2, wu) -> bool:
    pb = [(x, y) for x in sorted(w1) for y in sorted(w2) if r1[x] == r2[y]]
    for k in _all_functions(sorted(wu), pb):
        ok = all(k[t][0] == p1[t] and k[t][1] == p2[t] for t in wu)
        if ok and len(set(k.values())) == len(wu) == len(pb):
            return True
    return len(pb) == 0 and len(wu) == 0


# -- document codec oracle ------------------------------------------------------------
#
# The canonical text as the codec first defined it: the whole document as a
# dict tree, written by json.dumps(sort_keys=True, indent=2), and the tower
# section read back by resolving each reference through a fresh ElementId.
# document.serialize and document.parse must agree with these byte for byte
# and error for error.


def _reference_jkey(v):
    if not isinstance(v, (str, int)) or isinstance(v, bool):
        from hyperstruct.errors import SchemaError

        raise SchemaError(f"identifiers and states must be strings or integers, got {v!r}")
    return (isinstance(v, str), v)


def reference_h_to_json(h: Hyperstructure) -> dict:
    from hyperstruct.core import IDENTITY_PROPERTY

    _jkey = _reference_jkey
    levels = [sorted((e.id for e in lvl), key=_jkey) for lvl in h.levels]
    omega = []
    for i, table in enumerate(h.omegas):
        entries = []
        for s, tokens in table.items():
            kept = sorted(t for t in tokens if t != IDENTITY_PROPERTY)
            if not kept:
                continue
            entries.append({"support": sorted((e.id for e in s.members), key=_jkey), "properties": kept})
        entries.sort(key=lambda e: [_jkey(x) for x in e["support"]])
        omega.append(entries)
    bonds = []
    for b in sorted(h.bonds, key=lambda b: (b.id.level, _jkey(b.id.id))):
        bonds.append(
            {
                "id": b.id.id,
                "level": b.id.level,
                "support": sorted((e.id for e in b.support.members), key=_jkey),
                "property": b.property,
                "identity": b.identity,
            }
        )
    out = {"order": h.order, "levels": levels, "omega": omega, "bonds": bonds}
    if h.fusion_log:
        out["fusion_log"] = [
            {"k": r.k, "a": [r.a.level, r.a.id], "b": [r.b.level, r.b.id], "result": [r.result.level, r.result.id]}
            for r in h.fusion_log
        ]
    return out


def reference_to_json_obj(doc) -> dict:
    from hyperstruct import catelem, topology
    from hyperstruct import document as d

    out: dict = {"format": d.FORMAT}
    if doc.hyperstructure is not None:
        out["hyperstructure"] = reference_h_to_json(doc.hyperstructure)
    if doc.topology is not None:
        out["topology"] = topology._topology_to_json(doc.topology)
    if doc.states is not None:
        out["states"] = reference_states_to_json(doc.states)
    if doc.category is not None:
        out["category"] = catelem._category_to_json(doc.category)
    if doc.presheaf is not None:
        out["presheaf"] = catelem._presheaf_to_json(doc.presheaf)
    if doc.simplicial is not None:
        out["simplicial"] = catelem._simplicial_to_json(doc.simplicial)
    return out


def reference_serialize(doc) -> str:
    import json

    return json.dumps(reference_to_json_obj(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _reference_expect_obj(value, where: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    from hyperstruct.errors import SchemaError

    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    for k in value:
        if k not in allowed:
            raise SchemaError(f"{where}: unknown field {k!r}")
    for k in sorted(required):
        if k not in value:
            raise SchemaError(f"{where}: missing field {k!r}")
    return value


def _reference_expect_list(value, where: str) -> list:
    from hyperstruct.errors import SchemaError

    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return value


def _reference_scalar(value, where: str, noun: str = "identifiers"):
    """An identifier or a state as a document holds one: a JSON string or integer."""
    from hyperstruct.errors import SchemaError

    if type(value) is not str and type(value) is not int:  # JSON true and false read as bool
        raise SchemaError(f"{where}: {noun} must be strings or integers, got {value!r}")
    return value


def reference_h_from_json(value) -> Hyperstructure:
    from hyperstruct.core import IDENTITY_PROPERTY, Bond, FusionRecord, assemble
    from hyperstruct.errors import DanglingReference, ReservedProperty, SchemaError

    _expect_obj, _expect_list, _expect_id = _reference_expect_obj, _reference_expect_list, _reference_scalar
    obj = _expect_obj(value, "hyperstructure", {"order", "levels", "omega", "bonds", "fusion_log"}, {"order", "levels", "omega", "bonds"})
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise SchemaError("hyperstructure.order: expected a non-negative integer")
    raw_levels = _expect_list(obj["levels"], "hyperstructure.levels")
    if len(raw_levels) != order + 1:
        raise SchemaError(f"hyperstructure.levels: expected {order + 1} levels, got {len(raw_levels)}")
    levels = []
    for i, lvl in enumerate(raw_levels):
        ids = [_expect_id(r, f"levels[{i}]") for r in _expect_list(lvl, f"levels[{i}]")]
        elems = frozenset(ElementId(i, r) for r in ids)
        if len(elems) != len(ids):
            raise SchemaError(f"levels[{i}]: duplicate identifiers")
        levels.append(elems)

    def resolve(i: int, raw, where: str) -> ElementId:
        e = ElementId(i, _expect_id(raw, where))
        if i < 0 or i > order or e not in levels[i]:
            raise DanglingReference(f"{where}: no element {raw!r} at level {i}")
        return e

    raw_omega = _expect_list(obj["omega"], "hyperstructure.omega")
    if len(raw_omega) != order + 1:
        raise SchemaError(f"hyperstructure.omega: expected {order + 1} tables")
    omegas = []
    for i, entries in enumerate(raw_omega):
        table = {}
        for entry in _expect_list(entries, f"omega[{i}]"):
            e = _expect_obj(entry, f"omega[{i}]", {"support", "properties"}, {"support", "properties"})
            members = frozenset(resolve(i, r, f"omega[{i}].support") for r in _expect_list(e["support"], f"omega[{i}].support"))
            tokens = []
            for t in _expect_list(e["properties"], f"omega[{i}].properties"):
                if not isinstance(t, str):
                    raise SchemaError(f"omega[{i}]: property tokens must be strings")
                if t == IDENTITY_PROPERTY:
                    raise ReservedProperty(f"omega[{i}]: {IDENTITY_PROPERTY!r} is reserved")
                tokens.append(t)
            s = Support(i, members)
            table[s] = table.get(s, frozenset()) | frozenset(tokens)
        omegas.append(table)

    bonds = []
    for k, entry in enumerate(_expect_list(obj["bonds"], "hyperstructure.bonds")):
        e = _expect_obj(entry, f"bonds[{k}]", {"id", "level", "support", "property", "identity"}, {"id", "level", "support", "property"})
        lvl = e["level"]
        if not isinstance(lvl, int) or isinstance(lvl, bool) or not 1 <= lvl <= order:
            raise SchemaError(f"bonds[{k}]: level must be an integer in 1..{order}")
        eid = resolve(lvl, e["id"], f"bonds[{k}].id")
        members = frozenset(resolve(lvl - 1, r, f"bonds[{k}].support") for r in _expect_list(e["support"], f"bonds[{k}].support"))
        prop = e["property"]
        if not isinstance(prop, str):
            raise SchemaError(f"bonds[{k}]: property must be a string")
        identity = e.get("identity", False)
        if not isinstance(identity, bool):
            raise SchemaError(f"bonds[{k}]: identity must be a boolean")
        if prop == IDENTITY_PROPERTY and not identity:
            raise ReservedProperty(f"bonds[{k}]: {IDENTITY_PROPERTY!r} is reserved for identity bonds")
        bonds.append(Bond(id=eid, support=Support(lvl - 1, members), property=prop, identity=identity))

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

    bonds.sort(key=lambda b: b.key)
    for b in bonds:
        if b.identity:
            table = omegas[b.support.level]
            table[b.support] = table.get(b.support, frozenset()) | {b.property}
    return assemble(levels, omegas, bonds, tuple(fusion_log))


def reference_parse(text: str):
    """document.parse with the tower section read by reference_h_from_json and
    the states section by reference_states_from_json."""
    import json

    from hyperstruct import catelem, topology
    from hyperstruct import document as d
    from hyperstruct.errors import ParseError, SchemaError

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    obj = _reference_expect_obj(data, "document", d.SECTIONS, {"format"})
    if obj["format"] != d.FORMAT:
        raise SchemaError(f"unsupported format {obj['format']!r}; expected {d.FORMAT!r}")
    doc = {}  # the sections read so far, made into a Document at the end
    if "hyperstructure" in obj:
        doc["hyperstructure"] = reference_h_from_json(obj["hyperstructure"])
    if "topology" in obj:
        doc["topology"] = topology._topology_from_json(obj["topology"], doc.get("hyperstructure"))
    if "states" in obj:
        doc["states"] = reference_states_from_json(obj["states"], doc.get("hyperstructure"))
    if "category" in obj:
        doc["category"] = catelem._category_from_json(obj["category"])
    if "presheaf" in obj:
        doc["presheaf"] = catelem._presheaf_from_json(obj["presheaf"], doc.get("category"))
    if "simplicial" in obj:
        doc["simplicial"] = catelem._simplicial_from_json(obj["simplicial"])
    return d.Document(**doc)


# The states section as the codec first wrote and read it: a dict tree, and
# each [id, state] pair resolved through a fresh ElementId and has_element. A
# key repeated in a pair list or an op table is refused once its row is read.


def _pairs_to_json(mapping: dict) -> list:
    return [[e.id, v] for e, v in sorted(mapping.items(), key=lambda kv: kv[0].key)]


def _reference_connector_to_json(c) -> dict:
    if c.kind != "table":
        return {"kind": c.kind}
    entries = [[list(k), v] for k, v in (c.table or {}).items()]
    return {"kind": "table", "entries": sorted(entries, key=lambda e: [_reference_jkey(x) for x in e[0]])}


def _reference_co_connector_to_json(c) -> dict:
    if c.kind == "identity":
        return {"kind": "identity"}
    if c.kind == "table":
        entries = [[k, v] for k, v in (c.table or {}).items()]
        return {"kind": "table", "entries": sorted(entries, key=lambda e: _reference_jkey(e[0]))}
    entries = [[[p.id, ch.id], v] for (p, ch), v in (c.table or {}).items()]
    return {"kind": "per_child", "entries": sorted(entries, key=lambda e: [_reference_jkey(e[0][0]), _reference_jkey(e[0][1])])}


def reference_states_to_json(s) -> dict:
    from hyperstruct.states import Marker

    _jkey = _reference_jkey
    _connector_to_json, _co_connector_to_json = _reference_connector_to_json, _reference_co_connector_to_json
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


def _reference_state(value, where: str):
    return _reference_scalar(value, where, "states")


def _reference_state_from_json(value, where: str):
    """A state, or in an assignment a {"marker": name} object."""
    from hyperstruct.errors import SchemaError
    from hyperstruct.states import CONFLICT, UNASSIGNED

    if not isinstance(value, dict):
        return _reference_state(value, where)
    name = _reference_expect_obj(value, where, {"marker"}, {"marker"})["marker"]
    for m in (UNASSIGNED, CONFLICT):
        if m.name == name:
            return m
    raise SchemaError(f"{where}: unknown marker {name!r}")


def _reference_connector_from_json(value, where: str):
    from hyperstruct.errors import SchemaError
    from hyperstruct.states import Connector

    obj = _reference_expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind in ("product", "sum", "union"):
        if "entries" in obj:
            raise SchemaError(f"{where}: built-in connectors take no entries")
        return Connector(kind=kind)
    if kind != "table":
        raise SchemaError(f"{where}: unknown connector kind {kind!r}")
    table = {}
    for e in _reference_expect_list(obj.get("entries", []), f"{where}.entries"):
        if len(_reference_expect_list(e, f"{where}.entries")) != 2:
            raise SchemaError(f"{where}.entries: expected [multiset, state]")
        states = [_reference_state(x, where) for x in _reference_expect_list(e[0], where)]
        key = tuple(sorted(states, key=_reference_jkey))
        state = _reference_state(e[1], where)
        if key in table:
            raise SchemaError(f"{where}.entries: duplicate entry for {key!r}")
        table[key] = state
    return Connector(kind="table", table=table)


def _reference_co_connector_from_json(value, where: str, h: Hyperstructure, transition: int):
    from hyperstruct.errors import DanglingReference, SchemaError
    from hyperstruct.states import CoConnector

    obj = _reference_expect_obj(value, where, {"kind", "entries"}, {"kind"})
    kind = obj["kind"]
    if kind == "identity":
        if "entries" in obj:
            raise SchemaError(f"{where}: identity co-connectors take no entries")
        return CoConnector(kind="identity")
    if kind not in ("table", "per_child"):
        raise SchemaError(f"{where}: unknown co-connector kind {kind!r}")
    shape = "[state, state]" if kind == "table" else "[[parent, child], state]"
    table = {}
    for e in _reference_expect_list(obj.get("entries", []), f"{where}.entries"):
        if len(_reference_expect_list(e, f"{where}.entries")) != 2:
            raise SchemaError(f"{where}.entries: expected {shape}")
        if kind == "table":
            image = _reference_state(e[1], where)  # the image is checked first
            key = _reference_state(e[0], where)
        else:
            if not isinstance(e[0], list) or len(e[0]) != 2:
                raise SchemaError(f"{where}.entries: expected {shape}")
            upper = h.order - transition
            parent = ElementId(upper, _reference_scalar(e[0][0], where))
            child = ElementId(upper - 1, _reference_scalar(e[0][1], where))
            for el in (parent, child):
                if not h.has_element(el):
                    raise DanglingReference(f"{where}: no element {el!r}")
            key, image = (parent, child), _reference_state(e[1], where)
        if key in table:
            raise SchemaError(f"{where}.entries: duplicate entry for {key!r}")
        table[key] = image
    return CoConnector(kind=kind, table=table)


def reference_states_from_json(value, h: Hyperstructure | None):
    from hyperstruct.document import StatesSection
    from hyperstruct.errors import DanglingReference, SchemaError
    from hyperstruct.states import LambdaAssignment, SpaceOp, state_tower

    _expect_obj, _expect_list, _expect_id = _reference_expect_obj, _reference_expect_list, _reference_scalar
    _expect_state, _connector_from_json, _co_connector_from_json = (
        _reference_state,
        _reference_connector_from_json,
        _reference_co_connector_from_json,
    )

    if h is None:
        raise DanglingReference("states: requires a hyperstructure section")
    obj = _expect_obj(value, "states", {"spaces", "base", "top", "connectors", "co_connectors", "assignment"})
    s = {}  # the fields read so far, made into a StatesSection at the end
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
                    result = _expect_state(trip[2], "op")
                    key = (_expect_state(trip[0], "op"), _expect_state(trip[1], "op"))
                    if key in table:
                        raise SchemaError(f"states.spaces[{k}].op.table: duplicate entry for {key!r}")
                    table[key] = result
                ops.append(SpaceOp(unit=_expect_state(o["unit"], "op"), table=table))
        s["tower"] = state_tower(spaces, ops)

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
            state = _expect_state(pair[1], f"states.{name}")
            if el in out:
                raise SchemaError(f"states.{name}: duplicate entry for {el!r}")
            out[el] = state
        return out

    s["base"] = read_pairs("base", 0)
    s["top"] = read_pairs("top", h.order)
    if obj.get("connectors") is not None:
        s["connectors"] = tuple(
            _connector_from_json(c, f"states.connectors[{k}]")
            for k, c in enumerate(_expect_list(obj["connectors"], "states.connectors"))
        )
    if obj.get("co_connectors") is not None:
        s["co_connectors"] = tuple(
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
                state = _reference_state_from_json(pair[1], f"states.assignment[{i}]")
                if el in level:
                    raise SchemaError(f"states.assignment[{i}]: duplicate entry for {el!r}")
                level[el] = state
            per_level.append(level)
        s["assignment"] = LambdaAssignment(per_level=tuple(per_level))
    return StatesSection(**s)


# A document that uses every keyed list of every section, and its rows.

_CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def every_section_document() -> dict:
    """A document whose keyed lists all hold a row: the graded triangle with its
    topology, a fusion record and a states section using every table, and the
    square category with its presheaf."""
    obj = json.loads((_CORPUS / "graded_triangle_site.json").read_text(encoding="utf-8"))
    obj.update(json.loads((_CORPUS / "square_category.json").read_text(encoding="utf-8")))
    obj["hyperstructure"]["fusion_log"] = [{"k": 0, "a": [1, "{v0,v1}"], "b": [1, "{v0,v2}"], "result": [2, "{v0,v1,v2}"]}]
    obj["states"].update(
        base=[["v0", 2], ["v1", 3]],
        top=[["{v0,v1,v2}", 1]],
        connectors=[{"kind": "table", "entries": [[[2, 4], 8]]}, {"kind": "product"}],
        co_connectors=[{"kind": "table", "entries": [[1, 2]]}, {"kind": "per_child", "entries": [[["{v0,v1}", "v0"], 1]]}],
        assignment=[[["v0", 1]], [["{v0,v1}", 2]], [["{v0,v1,v2}", {"marker": "unassigned"}]]],
    )
    return obj


def at_path(obj, path: tuple):
    for step in path:
        obj = obj[step]
    return obj


#: Each fixed-length row of a document: its name, the path to what holds it
#: and its key there, where the reader says a row that is not a list sits,
#: the message for a row that is too short and, for a keyed list, the message
#: for a repeat of its first row.
KEYED_ROWS = [
    ("topology", ("topology",), 0, "topology[0]", "topology[0]: expected [[level, id], sieves]", "topology[7]: duplicate entry for 0:v0"),
    ("topology-key", ("topology", 0), 0, "topology[0].key", "topology[0]: key must be [level, id]", None),
    ("fusion-ref", ("hyperstructure", "fusion_log", 0), "a", "fusion_log[0].a", "fusion_log[0].a: expected [level, id]", None),
    ("identities", ("category", "identities"), 0, "category.identities", "category.identities: expected [object, morphism]", "category.identities: duplicate entry for object '00'"),
    ("composition", ("category", "composition"), 0, "category.composition", "category.composition: expected [g, f, gf]", "category.composition: duplicate entry for ('00->00', '00->00')"),
    ("on_objects", ("presheaf", "on_objects"), 0, "presheaf.on_objects", "presheaf.on_objects: expected [object, elements]", "presheaf.on_objects: duplicate entry for object '00'"),
    ("on_morphisms", ("presheaf", "on_morphisms"), 0, "presheaf.on_morphisms", "presheaf.on_morphisms: expected [morphism, table]", "presheaf.on_morphisms: duplicate entry for morphism '00->00'"),
    ("table-from", ("presheaf", "on_morphisms", 0, 1), 0, "presheaf.on_morphisms", "presheaf.on_morphisms: expected [from, to]", "presheaf.on_morphisms: duplicate entry for 0 in the table of '00->00'"),
    ("op-table", ("states", "spaces", 0, "op", "table"), 0, "states.spaces[0].op.table", "states.spaces[0].op.table: expected [a, b, result]", "states.spaces[0].op.table: duplicate entry for (0, 0)"),
    ("base", ("states", "base"), 0, "states.base", "states.base: expected [id, state]", "states.base: duplicate entry for 0:v0"),
    ("top", ("states", "top"), 0, "states.top", "states.top: expected [id, state]", "states.top: duplicate entry for 2:{v0,v1,v2}"),
    ("connector", ("states", "connectors", 0, "entries"), 0, "states.connectors[0].entries", "states.connectors[0].entries: expected [multiset, state]", "states.connectors[0].entries: duplicate entry for (2, 4)"),
    ("co-table", ("states", "co_connectors", 0, "entries"), 0, "states.co_connectors[0].entries", "states.co_connectors[0].entries: expected [state, state]", "states.co_connectors[0].entries: duplicate entry for 1"),
    ("per-child", ("states", "co_connectors", 1, "entries"), 0, "states.co_connectors[1].entries", "states.co_connectors[1].entries: expected [[parent, child], state]", "states.co_connectors[1].entries: duplicate entry for (1:{v0,v1}, 0:v0)"),
    ("assignment", ("states", "assignment", 2), 0, "states.assignment[2]", "states.assignment[2]: expected [id, state]", "states.assignment[2]: duplicate entry for 2:{v0,v1,v2}"),
]
