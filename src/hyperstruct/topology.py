"""Sieves and Grothendieck topologies over a tower's refinement order.

Bonds at one level are preordered by support inclusion; level-0 elements
join in through the singleton embedding (each refines only itself), which
lets covering chains run all the way to the bottom. Sieves are downward
closed bond families rooted at an element, a topology assigns sieve
collections satisfying the maximality, stability and transitivity axioms,
and a site is a tower paired with a topology that satisfies them.

Every consumer of the preorder (refines, the sieve functions, the axiom
checker, descent in states and refinement_category in catelem) reads one
bitmask view per level, cached on the tower (towers are immutable), so
sweeping many candidate topologies over one tower pays the setup cost once.
A level's view holds each element's support over the level below (its own
position at level 0) and each element's ideal, every one both as a mask and
as the ascending list of its positions, so views are built bottom-up. The
masks carry the set algebra of the axioms; the lists spare the consumers
that walk members a bit-by-bit decomposition: maximal_topology builds each
family from its ideal list, the stability axiom walks the ideals, and
descent reads boundary states through the support lists. An element lies
under exactly the elements whose supports hold every member of its own, so
its upper set is the AND of one mask per support member, and the view's
ideals are the transpose of those upper sets: a view costs the total support
size plus one step per refining pair, and never compares two supports. An
element above level 0 without a bond record leaves its level and those above
it without a view: their consumers raise NotABond. An exhaustive
transitivity sweep enumerates the sieves on a root by branching, at a cost
proportional to the number of sieves rather than to the 2^|ideal| subsets
of the root's ideal.

Every axiom is decided on masks. The only sieve on a root that holds the
root is its maximal sieve, and a candidate covers locally over it only when
the candidate is already listed; so transitivity sweeps a root only over
its other sieves, and a root whose collection holds no other sieve is not
swept at all (a sampled check draws that root's share of the stream just
before the next root that samples, so later roots see the same stream, and
a check in which no root samples draws nothing). The checker's report is
lazy: reading its verdict stops at the first violation, and the axioms' witness text is written from
the bits only when the findings are read. The level's view keeps each
sieve's text once written, so later checks on the same tower reuse it.

The view also keeps a memo from families to masks, keyed by the family's
frozenset value. maximal_topology records each maximal sieve it builds
there, at most one family per element, and mask_of reads it first, so
descent over a site, and a check of any topology listing those families,
turn each family (or an equal one built elsewhere) into its mask with one
lookup. Nothing else writes the memo; like the texts, it lives as long as
the tower.

maximal_topology also keeps the mapping it built in the tower's instance
dict and hands out a copy of it on every call. The maximal sieves form a
Grothendieck topology on any tower (the trivial one), so make_site does not
sweep a mapping whose collections are the very frozensets kept there: it
recognizes them by identity, and sweeps every other mapping, however equal.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from operator import is_, itemgetter

from .core import ElementId, Hyperstructure, _key_sorted, _new, sorted_elements, value_type
from .document import _expect_id, _expect_int, _expect_list, _expect_row, _jkey, _refuse_repeat
from .errors import DanglingReference, MixedLevels, NotATopology, NotRefinement, SchemaError, SweepTooLarge, UnknownElement
from .report import CheckReport, Finding

#: Transitivity sweeps are exhaustive by default up to this many bonds per
#: level. An exhaustive sweep, and all_sieves_on, refuse a root whose ideal
#: has more members than this.
EXHAUSTIVE_CAP = 16
SAMPLE_SIZE = 64

_raw_id = itemgetter(1)  # an ElementId's raw id, which orders the elements of one level


class Sieve(value_type("Sieve", "root members")):
    """A downward-closed family of same-level elements (the frozenset
    members) under a root ElementId."""

    __slots__ = ()

    @property
    def key(self):
        return (self.root.key, tuple(e.key for e in sorted_elements(self.members)))

    def __repr__(self):
        ms = ",".join(str(e.id) for e in sorted_elements(self.members))
        return f"Sieve({self.root!r}: {{{ms}}})"


TopologyAssignment = Mapping[ElementId, frozenset[Sieve]]


def _position(h: Hyperstructure, e: ElementId) -> tuple[_LevelOrder, int]:
    """e's level order and e's bit in it."""
    if not h.has_element(e):
        raise UnknownElement(f"no element {e!r}")
    order = _level_order(h, e.level)
    return order, order.index[e]


def refines(h: Hyperstructure, finer: ElementId, coarser: ElementId) -> bool:
    """finer <= coarser in the refinement preorder (support inclusion)."""
    _, j = _position(h, finer)
    order, i = _position(h, coarser)
    return finer.level == coarser.level and order.below[i] >> j & 1 == 1


def maximal_sieve(h: Hyperstructure, b: ElementId) -> Sieve:
    """All same-level elements refining b."""
    order, i = _position(h, b)
    return Sieve(root=b, members=order.unmask(order.below[i]))


def is_sieve(h: Hyperstructure, candidates: Iterable[ElementId], root: ElementId) -> bool:
    """Every member refines the root and the family is downward closed."""
    cs = frozenset(candidates)
    levels = {e.level for e in cs} | {root.level}
    if len(levels) != 1:
        raise MixedLevels(f"candidates span levels {sorted(levels)}")
    order, i = _position(h, root)
    m = order.mask_of(cs)
    return not m & ~order.below[i] and order.is_downset(m)


def pullback_sieve(h: Hyperstructure, sieve: Sieve, finer_root: ElementId) -> Sieve:
    """Restrict a sieve along a refinement of its root."""
    order, i = _position(h, finer_root)
    _, k = _position(h, sieve.root)
    if finer_root.level != sieve.root.level or not order.below[k] >> i & 1:
        raise NotRefinement(f"{finer_root!r} does not refine {sieve.root!r}")
    m = order.mask_of([s for s in sieve.members if s.level == finer_root.level])
    return Sieve(root=finer_root, members=order.unmask(m & order.below[i]))


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _LevelOrder:
    """Bitmask view of one level's refinement preorder.

    Bit j stands for elements[j]; the level is sorted by key, so ascending
    bits list a family in sorted_elements order. support[j] is the mask that
    orders elements[j]: its bond's boundary over the level below's bits, or
    its own bit at level 0. below[i] is the mask of elements refining
    elements[i], those whose support lies under support[i]: element j is
    under the AND of containing[m] over the members m of its support, and
    below is that relation transposed. An empty support is under every
    element of the level.

    members[j] and ideals[i] are the same sets as support[j] and below[i],
    as ascending position lists, built with them: so the order they list
    never depends on the hash seed. maximal_topology, the stability axiom
    and check_amalgamation read them; the sieve functions, which take and
    return arbitrary families, decompose masks with unmask.

    masks maps each maximal sieve's family that maximal_topology built (a
    frozenset of level elements) to its mask, so it holds at most one
    family per element. It is keyed by value, so mask_of finds an equal
    family built elsewhere with one lookup, and like texts it lives as long
    as the tower. texts holds the witness text of each sieve written so
    far, keyed by (root bit, mask), so every check on this level writes a
    sieve once; the element texts that witnesses and findings repeat are
    tabled when the first of them is written.
    """

    __slots__ = ("elements", "index", "support", "members", "below", "ideals", "downsets", "masks", "texts", "_names")

    def __init__(self, h: Hyperstructure, level: int, lower: _LevelOrder | None):
        self.elements = _key_sorted(list(h.elements(level)), _raw_id)
        n = len(self.elements)
        self.index = dict(zip(self.elements, range(n)))
        self.downsets: dict[int, list[int]] = {}
        self.masks: dict[frozenset[ElementId], int] = {}
        self.texts: dict[tuple[int, int], str] = {}
        self._names: tuple[list[str], list[str]] | None = None
        if lower is None:  # each level-0 element refines only itself
            self.support = self.below = [1 << j for j in range(n)]
            self.members = self.ideals = [[j] for j in range(n)]
            return
        # support[j] and members[j], read once from the level below's index (a
        # miss asks h.bond or mask_of, which raise); containing[m] = mask of
        # elements whose support holds bit m
        bonds, index = h.bond_index, lower.index
        self.support, self.members = support, members = [], []
        containing = [0] * len(lower.elements)
        empty = 0
        for j, e in enumerate(self.elements):
            b = bonds.get(e) or h.bond(e)
            try:
                bits = sorted(map(index.__getitem__, b.support.members))
            except KeyError:
                lower.mask_of(b.support.members)
                raise
            mask, bit = 0, 1 << j
            for m in bits:
                mask |= 1 << m
                containing[m] |= bit
            if not bits:
                empty |= bit
            support.append(mask)
            members.append(bits)
        self.below = below = [empty] * n
        self.ideals = ideals = [[] for _ in range(n)]
        for j, bits in enumerate(members):
            if not bits:
                continue
            above = containing[bits[0]]
            for m in bits[1:]:
                above &= containing[m]
            bit = 1 << j
            if above == bit:  # j lies under itself, and most elements under nothing else
                below[j] |= bit
                ideals[j].append(j)
                continue
            for i in _bit_indices(above):  # j ascends, so every ideal list does too
                below[i] |= bit
                ideals[i].append(j)
        if empty:  # an empty support lies under every element, out of the loop's sight
            self.ideals = [_bit_indices(m) for m in below]

    def mask_of(self, members: Iterable[ElementId]) -> int:
        """The mask of members; UnknownElement names the first (sorted) member the level lacks.

        A frozenset is looked up in masks first, once masks holds anything;
        a miss is not stored.
        """
        if type(members) is frozenset and self.masks:
            got = self.masks.get(members)
            if got is not None:
                return got
        m = 0
        try:
            for e in members:
                m |= 1 << self.index[e]
        except KeyError:
            stray = next(e for e in sorted_elements(members) if e not in self.index)
            raise UnknownElement(f"no element {stray!r}") from None
        return m

    def unmask(self, mask: int) -> frozenset[ElementId]:
        return frozenset(map(self.elements.__getitem__, _bit_indices(mask)))

    def names(self) -> tuple[list[str], list[str]]:
        """Each element's repr and its raw id as text, tabled on first use."""
        if self._names is None:
            self._names = ([repr(e) for e in self.elements], [str(e.id) for e in self.elements])
        return self._names

    def sieve_text(self, i: int, mask: int) -> str:
        """repr(Sieve(elements[i], unmask(mask))), written from the bits on first use."""
        got = self.texts.get((i, mask))
        if got is None:
            reprs, ids = self.names()
            got = self.texts[i, mask] = f"Sieve({reprs[i]}: {{{','.join([ids[j] for j in _bit_indices(mask)])}}})"
        return got

    def is_downset(self, mask: int) -> bool:
        """Every member's ideal lies in mask (each ideal holds its own member)."""
        below, rest = self.below, mask
        while rest:
            low = rest & -rest
            if below[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def downsets_below(self, i: int) -> list[int]:
        """All downward-closed subsets of {j : j <= i}, ascending, memoized per root.

        Branches on the highest undecided element y of the ideal: either y
        and everything above it are out, or y and everything below it are
        in. Both branches hold at least one downset, so the cost is
        proportional to the number of downsets, not to 2^|ideal|; taking
        the "out" branch first lists them in ascending order.
        """
        got = self.downsets.get(i)
        if got is not None:
            return got
        below = self.below
        ideal = below[i]
        above = dict.fromkeys(_bit_indices(ideal), 0)  # above[y] = mask of ideal members over y
        for z in above:
            for y in _bit_indices(below[z]):
                above[y] |= 1 << z
        out = []
        stack = [(0, ideal)]
        while stack:
            chosen, free = stack.pop()
            if not free:
                out.append(chosen)
                continue
            y = free.bit_length() - 1
            stack.append((chosen | below[y], free & ~below[y]))
            stack.append((chosen, free & ~above[y]))
        self.downsets[i] = out
        return out


def _level_order(h: Hyperstructure, level: int) -> _LevelOrder:
    orders = h.refinement_orders
    if level not in orders:
        h.check_level(level)
        for i in range(len(orders), level + 1):  # built bottom-up, so levels 0..len-1 are cached
            orders[i] = _LevelOrder(h, i, orders.get(i - 1))
    return orders[level]


def all_sieves_on(h: Hyperstructure, b: ElementId) -> list[Sieve]:
    """Every sieve on b: one per downward-closed family of b's ideal.

    A root over n unrelated bonds has 2^n + 1 of them, so a root whose ideal
    has more than EXHAUSTIVE_CAP members raises SweepTooLarge before any is
    listed.
    """
    order, i = _position(h, b)
    size = order.below[i].bit_count()
    if size > EXHAUSTIVE_CAP:
        raise SweepTooLarge(f"listing the sieves on {b!r} would enumerate the subsets of a {size}-element ideal; the cap is {EXHAUSTIVE_CAP}")
    return [Sieve(root=b, members=order.unmask(m)) for m in order.downsets_below(i)]


def _sampled_masks(order: _LevelOrder, i: int, rng: random.Random, count: int) -> list[int]:
    ideal = order.below[i]
    bits = _bit_indices(ideal)
    seen = {0, ideal}
    for _ in range(count):
        closure = 0
        for j in bits:
            if rng.random() < 0.5:
                closure |= order.below[j]
        seen.add(closure)
    return sorted(seen)


def _refuse_above_cap(order: _LevelOrder) -> None:
    """Raise SweepTooLarge at the level's first root whose ideal has more than EXHAUSTIVE_CAP members."""
    for i, b in enumerate(order.elements):
        size = order.below[i].bit_count()
        if size > EXHAUSTIVE_CAP:
            raise SweepTooLarge(
                f"exhaustive sweep at {b!r} would enumerate the subsets of a {size}-element ideal; "
                f"the cap is {EXHAUSTIVE_CAP}, use a sampled check"
            )


def is_grothendieck_topology(
    h: Hyperstructure,
    topology: TopologyAssignment,
    level: int,
    exhaustive: bool | None = None,
    seed: int = 0,
) -> CheckReport:
    """Check the three axioms for one level's sieve collections.

    Transitivity quantifies candidate sieves over all downward-closed
    families, which is exponential; above EXHAUSTIVE_CAP bonds the sweep
    switches to seeded sampling and says so in the report notes. An
    explicitly exhaustive check raises SweepTooLarge when some root's ideal
    has more than EXHAUSTIVE_CAP members. Each violated axiom is reported
    with a witness.

    The collections are read into masks before this returns, so changing
    the mapping afterwards changes nothing in the report. The axiom
    violations are found as the report is read: `passed` stops at the
    first, and the witnesses of the rest are written when the findings are.
    """
    order = _level_order(h, level)
    elements = order.elements
    name = f"grothendieck-topology level {level}"
    notes: list[str] = []

    if exhaustive is None:
        exhaustive = len(elements) <= EXHAUSTIVE_CAP
    if exhaustive:
        _refuse_above_cap(order)
    else:
        notes.append(f"sampled: seed={seed} size={SAMPLE_SIZE}")

    undefined = [Finding("undefined", f"no sieve collection at {b!r}") for b in elements if b not in topology]
    if undefined:
        return CheckReport(name, undefined, notes)

    # convert each collection to a set of masks, validating as we go
    invalid: list[Finding] = []
    masks: list[set[int]] = []
    below = order.below
    for i, b in enumerate(elements):
        got = set()
        for s in topology[b]:
            if s.root != b:
                invalid.append(Finding("misrooted", f"sieve rooted at {s.root!r} listed under {b!r}"))
                continue
            try:
                m = order.mask_of(s.members)
            except UnknownElement:
                stray = next(e for e in sorted_elements(s.members) if e not in order.index)
                invalid.append(Finding("not-a-sieve", f"family under {b!r} names {stray!r}, not a level-{level} element: {s!r}"))
                continue
            if m != below[i] and (m & ~below[i] or not order.is_downset(m)):
                invalid.append(Finding("not-a-sieve", f"family under {b!r} is not downward closed: {s!r}"))
                continue
            got.add(m)
        masks.append(got)
    rng = None if exhaustive else random.Random(seed)
    return CheckReport(name, _axiom_violations(order, masks, invalid, rng), notes)


def _axiom_violations(order: _LevelOrder, masks: list[set[int]], invalid: list[Finding], rng: random.Random | None):
    """Yield the invalid families, then every axiom violation, cheapest axioms first.

    Candidate sieves are enumerated when rng is None and sampled from it
    otherwise, root by root in level order either way. Witnesses come from
    the order's text memo, and nothing is written until a violation is found.
    """
    yield from invalid
    below, ideals, text = order.below, order.ideals, order.sieve_text

    # (i) maximality
    for i, sieves in enumerate(masks):
        if below[i] not in sieves:
            reprs, ids = order.names()
            yield Finding("maximality", f"maximal sieve on {reprs[i]} missing from J({ids[i]})")

    # (ii) stability under pullback along every refinement
    for i, sieves in enumerate(masks):
        for j in ideals[i]:
            if j == i:
                continue
            below_j, sieves_j = below[j], masks[j]
            for s in sieves:
                if s & below_j not in sieves_j:
                    reprs, ids = order.names()
                    yield Finding("stability", f"pullback of {text(i, s)} along {reprs[j]} missing from J({ids[j]})")

    # (iii) transitivity: locally covering families must be covering.
    # r covers locally at j when r's pullback along j is in J(j); it covers
    # locally over s when that holds at every member of s. The only sieve
    # in J(i) holding i is the maximal one, and r covers locally there only
    # when r itself is in J(i), so only the other sieves can yield a finding.
    # A root with no other sieve is not swept, but a sampled check owes the
    # stream the 64 bits of each coin _sampled_masks would have tossed there.
    # The debt is drawn in one call before the next root that samples (whole
    # 32-bit words, so the stream moves as under separate draws), and never
    # if no such root follows.
    owed = 0
    for i, sieves in enumerate(masks):
        if len(sieves) == (below[i] in sieves):  # below[i] is the one valid sieve holding i, so no other is listed
            owed += 64 * SAMPLE_SIZE * below[i].bit_count()
            continue
        others = [s for s in sieves if not s >> i & 1]
        if rng is None:
            candidates = order.downsets_below(i)
        else:
            rng.getrandbits(owed)
            owed = 0
            candidates = _sampled_masks(order, i, rng, SAMPLE_SIZE)
        covered = 0
        for s in others:
            covered |= s
        members = _bit_indices(covered)
        for r in candidates:
            if r in sieves:
                continue
            local = 0
            for j in members:
                if r & below[j] in masks[j]:
                    local |= 1 << j
            head = None  # r's part of the message, written at r's first finding
            for s in others:
                if not s & ~local:
                    if head is None:
                        head = f"{text(i, r)} covers locally over "
                        ids = order.names()[1]
                    yield Finding("transitivity", f"{head}{text(i, s)} but is missing from J({ids[i]})")


_MAXIMAL = "_maximal_topology"  # the tower's instance-dict key for the mapping maximal_topology built


def maximal_topology(h: Hyperstructure) -> dict[ElementId, frozenset[Sieve]]:
    """The topology whose only covering of each element is its maximal sieve.

    Each family built is recorded in its level order's mask memo, so
    descent reads it back with one lookup. The first call on a tower keeps
    the mapping on the tower, and every call returns a new dict holding the
    kept collections: editing it never reaches the kept one, and make_site
    recognizes those collections without sweeping them.
    """
    kept = h.__dict__.get(_MAXIMAL)
    if kept is None:
        kept = {}
        for o in (_level_order(h, i) for i in range(h.order + 1)):
            masks, element = o.masks, o.elements.__getitem__
            for e, m, ideal in zip(o.elements, o.below, o.ideals):
                family = frozenset(map(element, ideal))
                masks[family] = m
                kept[e] = frozenset((_new(Sieve, (e, family)),))
        h.__dict__[_MAXIMAL] = kept
    return dict(kept)


class CoveringChain(value_type("CoveringChain", "chain families")):
    """A boundary-linked chain of elements with per-level covering families:
    a tuple of ElementIds, one per level, and a tuple of frozensets of them."""

    __slots__ = ()


def check_covering_chain(h: Hyperstructure, topology: TopologyAssignment, chain: CoveringChain) -> CheckReport:
    """Verify chain linkage, family membership in J, and inter-level linkage."""
    findings: list[Finding] = []
    n = h.order
    if len(chain.chain) != n + 1 or len(chain.families) != n + 1:
        findings.append(Finding("shape", f"chain must span levels 0..{n}"))
        return CheckReport("covering-chain", findings)
    for i, e in enumerate(chain.chain):
        if e.level != i or not h.has_element(e):
            findings.append(Finding("shape", f"chain entry {e!r} is not a level-{i} element"))
    if findings:
        return CheckReport("covering-chain", findings)

    for i in range(n):
        upper = chain.chain[i + 1]
        if chain.chain[i] not in h.bond(upper).support.members:
            findings.append(Finding("link", f"({i},{i + 1}): {chain.chain[i]!r} not in the boundary of {upper!r}"))

    for i, family in enumerate(chain.families):
        root = chain.chain[i]
        sieves = topology.get(root)
        if sieves is None:
            findings.append(Finding("family", f"no sieve collection at {root!r}"))
            continue
        if not family:
            findings.append(Finding("family", f"level {i}: family not in J (empty family)"))
            continue
        if not any(family <= s.members for s in sieves):
            findings.append(Finding("family", f"level {i}: family not contained in any sieve of J({root.id})"))

    for i in range(n):
        uppers = chain.families[i + 1]
        for f in chain.families[i]:
            if not any(f in h.bond(g).support.members for g in uppers if h.is_bond(g)):
                findings.append(Finding("linkage", f"level {i}: {f!r} lies in no boundary of the level-{i + 1} family"))
    return CheckReport("covering-chain", findings)


class Site(value_type("Site", "h topology")):
    """A tower together with a topology that satisfies every level's axioms.

    Build one with make_site, which either checks the axioms level by level
    or recognizes the tower's own maximal topology, where they always hold.
    The descent check reads the refinement orders that make_site builds. A
    tower they cannot be built for (an element above level 0 without a bond
    record) raises NotABond there, as it does in every other consumer of the
    order. Its fields are the tower h and the topology, a mapping from
    each element to its frozenset of Sieves.
    """

    __slots__ = ()


def make_site(h: Hyperstructure, topology: TopologyAssignment, exhaustive: bool | None = None, seed: int = 0) -> Site:
    """The site of h under topology, whose mapping it copies.

    Each level, from 0 up, is checked by is_grothendieck_topology with
    exhaustive and seed, and the first level that fails raises NotATopology
    carrying that level's report. The one mapping not checked is h's own
    maximal topology: when topology has the keys maximal_topology(h) gave
    and holds, at each of them, the very frozenset that call built, the
    axioms hold (the maximal sieves are the trivial topology), so no level
    is swept. Any other mapping is swept, even an equal one rebuilt value by
    value. Either way an exhaustive check raises SweepTooLarge at the first
    root, level by level, whose ideal has more than EXHAUSTIVE_CAP members,
    and a tower whose refinement orders cannot be built raises NotABond.
    """
    kept = h.__dict__.get(_MAXIMAL)
    if kept is not None and topology.keys() == kept.keys() and all(map(is_, map(topology.__getitem__, kept), kept.values())):
        if exhaustive:
            for i in range(h.order + 1):
                _refuse_above_cap(_level_order(h, i))
    else:
        for i in range(h.order + 1):
            rep = is_grothendieck_topology(h, topology, i, exhaustive=exhaustive, seed=seed)
            if not rep.passed:
                raise NotATopology(f"axioms fail at level {i}", report=rep)
    return Site(h=h, topology=dict(topology))


# -- the topology section of a document ----------------------------------------------


def _topology_to_json(topology: dict[ElementId, frozenset[Sieve]]) -> list:
    out = []
    for e in sorted(topology, key=lambda e: (_expect_int(e.level, "topology"), _jkey(e.id))):
        sieves = sorted(
            (sorted((m.id for m in s.members), key=_jkey) for s in topology[e]),
            key=lambda ms: [_jkey(m) for m in ms],
        )
        out.append([[e.level, e.id], sieves])
    return out


def _topology_from_json(value, h: Hyperstructure | None) -> dict[ElementId, frozenset[Sieve]]:
    if h is None:
        raise DanglingReference("topology: requires a hyperstructure section")
    out: dict[ElementId, frozenset[Sieve]] = {}
    for k, entry in enumerate(_expect_list(value, "topology")):
        where = f"topology[{k}]"
        pair = _expect_row(entry, where, 2, "[[level, id], sieves]")
        key = _expect_list(pair[0], f"{where}.key")
        if len(key) != 2 or not isinstance(key[0], int) or isinstance(key[0], bool):
            raise SchemaError(f"{where}: key must be [level, id]")
        lvl, raw = key
        elements = h.element_index[lvl] if 0 <= lvl <= h.order else {}
        root = elements.get(_expect_id(raw, f"{where}.key"))
        if root is None:
            raise DanglingReference(f"{where}: no element {raw!r} at level {lvl}")
        sieves = []
        for ms in _expect_list(pair[1], f"{where}.sieves"):
            members = []
            for m in _expect_list(ms, f"{where}.sieve"):
                e = elements.get(_expect_id(m, f"{where}.sieve"))
                if e is None:
                    raise DanglingReference(f"{where}: sieve member {m!r} missing at level {lvl}")
                members.append(e)
            sieves.append(Sieve(root=root, members=frozenset(members)))
        _refuse_repeat(out, root, where)
        out[root] = frozenset(sieves)
    return out
