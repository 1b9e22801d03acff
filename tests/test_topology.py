import hashlib
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NaiveStructures,
    all_posets_up_to_iso,
    mixed_id_tower,
    naive_check,
    naive_is_topology,
    naive_leq,
    poset_as_supports,
    random_tower,
    reference_is_grothendieck_topology,
    tower_from_supports,
)
from hyperstruct.catelem import poset_category, refinement_category
from hyperstruct.core import (
    IDENTITY_PROPERTY,
    BondSpec,
    ElementId,
    Support,
    add_bond,
    add_bonds,
    assign_property,
    identity_bond,
    new_hyperstructure,
    sorted_elements,
)
from hyperstruct.document import Document, parse, serialize
from hyperstruct.errors import (
    LevelOutOfRange,
    MixedLevels,
    NotABond,
    NotATopology,
    NotRefinement,
    SweepTooLarge,
    UnknownElement,
)
from hyperstruct.installers import from_simplicial_complex, make_brunnian_tower
from hyperstruct.topology import (
    EXHAUSTIVE_CAP,
    SAMPLE_SIZE,
    CoveringChain,
    Sieve,
    all_sieves_on,
    check_covering_chain,
    is_grothendieck_topology,
    is_sieve,
    make_site,
    maximal_sieve,
    maximal_topology,
    pullback_sieve,
    refines,
)
from hyperstruct.topology import _bit_indices, _level_order, _LevelOrder, _sampled_masks

FULL_TRIANGLE = [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]]


def graded_triangle():
    return from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=True)


class TestMaximalSieve:
    def test_only_bond_is_its_own_cover(self):
        h = new_hyperstructure(["a", "b"])
        s = h.support_at(0, ["a", "b"])
        h = assign_property(h, 0, s, "p")
        h, b = add_bond(h, 0, s, "p", "b")
        assert maximal_sieve(h, b).members == frozenset({b})

    def test_edge_level_of_graded_triangle(self):
        # the 2-simplex bond's maximal sieve lives at its own level, not the
        # edge level; on an edge it collects exactly the bonds under it
        t = graded_triangle()
        top = t.element(2, "{v0,v1,v2}")
        assert maximal_sieve(t, top).members == frozenset({top})
        e01 = t.element(1, "{v0,v1}")
        got = maximal_sieve(t, e01).members
        assert got == frozenset({e01})
        # add a sub-bond below the edge and the sieve picks it up
        sv0 = t.support_at(0, ["v0"])
        t2 = assign_property(t, 0, sv0, "sub")
        t2, small = add_bond(t2, 0, sv0, "sub", "small")
        assert maximal_sieve(t2, e01).members == frozenset({e01, small})

    def test_downward_closed_by_construction(self):
        rng = random.Random(4)
        for _ in range(10):
            h = random_tower(rng, max_order=2, max_per_level=8)
            for i in range(1, h.order + 1):
                for b in h.bonds_at(i):
                    assert is_sieve(h, maximal_sieve(h, b.id).members, b.id)


class TestIsSieve:
    def test_empty_family(self):
        h = new_hyperstructure(["a"])
        s = h.support_at(0, ["a"])
        h = assign_property(h, 0, s, "p")
        h, b = add_bond(h, 0, s, "p", "b")
        assert is_sieve(h, [], b)

    def test_missing_finer_bond(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        big = h.element(1, "b1")
        small = h.element(1, "b0")
        assert not is_sieve(h, [big], big)
        assert is_sieve(h, [big, small], big)

    def test_mixed_levels_rejected(self):
        t = graded_triangle()
        with pytest.raises(MixedLevels):
            is_sieve(t, [t.element(1, "{v0,v1}")], t.element(2, "{v0,v1,v2}"))

    def test_agrees_with_enumeration_on_four_bond_poset(self):
        supports = [frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"}), frozenset({"x", "y", "z"})]
        h = tower_from_supports(supports)
        bonds = [b.id for b in h.bonds_at(1)]
        root = h.element(1, "b3")
        from helpers import naive_all_sieves, naive_leq

        naive = set(naive_all_sieves(h, root))
        for r in range(len(bonds) + 1):
            for chosen in combinations(bonds, r):
                cs = frozenset(chosen)
                rooted = all(naive_leq(h, e, root) for e in cs)
                assert is_sieve(h, cs, root) == (cs in naive and rooted) or not rooted
                if rooted:
                    assert is_sieve(h, cs, root) == (cs in naive)


class TestPullbackSieve:
    def test_identity_refinement(self):
        t = graded_triangle()
        e01 = t.element(1, "{v0,v1}")
        s = maximal_sieve(t, e01)
        assert pullback_sieve(t, s, e01) == s

    def test_pullback_of_maximal_is_maximal(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"x", "y", "z"})]
        h = tower_from_supports(supports)
        big, mid, small = h.element(1, "b2"), h.element(1, "b1"), h.element(1, "b0")
        assert pullback_sieve(h, maximal_sieve(h, big), mid) == maximal_sieve(h, mid)

    def test_pullback_of_empty(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        big, small = h.element(1, "b1"), h.element(1, "b0")
        assert pullback_sieve(h, Sieve(big, frozenset()), small).members == frozenset()

    def test_not_refinement(self):
        supports = [frozenset({"x"}), frozenset({"y"})]
        h = tower_from_supports(supports)
        with pytest.raises(NotRefinement):
            pullback_sieve(h, maximal_sieve(h, h.element(1, "b0")), h.element(1, "b1"))

    def test_functoriality(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"x", "y", "z"})]
        h = tower_from_supports(supports)
        b0, b1, b2 = (h.element(1, f"b{i}") for i in range(3))
        for sieve in all_sieves_on(h, b2):
            assert pullback_sieve(h, pullback_sieve(h, sieve, b1), b0) == pullback_sieve(h, sieve, b0)
            assert is_sieve(h, pullback_sieve(h, sieve, b1).members, b1)


class TestMaximalTopology:
    """maximal_topology against maximal sieves collected by helpers.naive_leq."""

    @staticmethod
    def assert_matches_maximal_sieves(h):
        j = maximal_topology(h)
        assert set(j) == {e for level in h.levels for e in level}
        for e, sieves in j.items():
            assert sieves == frozenset({Sieve(e, frozenset(a for a in h.levels[e.level] if naive_leq(h, a, e)))})

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_towers(self, seed):
        self.assert_matches_maximal_sieves(random_tower(random.Random(seed), max_order=3, max_per_level=10))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    def test_brunnian_towers(self, branching):
        self.assert_matches_maximal_sieves(make_brunnian_tower(branching))


class TestGrothendieckAxioms:
    def test_maximal_topology_passes(self):
        rng = random.Random(41)
        for _ in range(10):
            h = random_tower(rng, max_order=2, max_per_level=6)
            j = maximal_topology(h)
            for i in range(h.order + 1):
                assert is_grothendieck_topology(h, j, i).passed

    def test_empty_collection_fails_maximality(self):
        supports = [frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        b = h.element(1, "b0")
        j = maximal_topology(h)
        j[b] = frozenset()
        rep = is_grothendieck_topology(h, j, 1)
        assert not rep.passed and "maximality" in rep.codes

    def test_everything_topology_passes(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"y"})]
        h = tower_from_supports(supports)
        j = maximal_topology(h)
        for b in h.elements(1):
            j[b] = frozenset(all_sieves_on(h, b))
        assert is_grothendieck_topology(h, j, 1).passed

    def test_stability_violation_detected(self):
        supports = [frozenset({"x"}), frozenset({"x", "y"}), frozenset({"x", "y", "z"})]
        h = tower_from_supports(supports)
        b0, b1, b2 = (h.element(1, f"b{i}") for i in range(3))
        j = maximal_topology(h)
        # {b0} is a sieve on b2, but its pullback along b1 <= b2 is missing
        # from J(b1), which only holds the maximal sieve {b0, b1}
        j[b2] = j[b2] | {Sieve(b2, frozenset({b0}))}
        rep = is_grothendieck_topology(h, j, 1)
        assert not rep.passed and "stability" in rep.codes

    def test_stability_is_checked_for_a_maximal_sieve(self):
        # J(b1) holds only its maximal sieve {b0, b1}, whose pullback along
        # b0 <= b1 is {b0}: that is J(b0)'s maximal sieve, which J(b0) lacks.
        # So the maximal sieve on b1 is stable along b0 only where maximality
        # holds at b0, and both axioms must report it.
        h = tower_from_supports([frozenset({"x"}), frozenset({"x", "y"})])
        b0, b1 = h.element(1, "b0"), h.element(1, "b1")
        j = maximal_topology(h)
        j[b0] = frozenset({Sieve(b0, frozenset())})
        rep = is_grothendieck_topology(h, j, 1)
        assert [f.message for f in rep.findings] == [
            "maximal sieve on 1:b0 missing from J(b0)",
            "pullback of Sieve(1:b1: {b0,b1}) along 1:b0 missing from J(b0)",
            "Sieve(1:b0: {b0}) covers locally over Sieve(1:b0: {}) but is missing from J(b0)",
        ]
        members_of = {b: {s.members for s in j[b]} for b in (b0, b1)}
        assert naive_check(NaiveStructures(h, 1), members_of) is False
        assert naive_is_topology(h, j, 1) is False


class TestMaskMemo:
    """The level order's memo gives mask_of the plain member loop's answer, and only maximal_topology fills it."""

    @staticmethod
    def plain_mask(order, members) -> int:
        return sum(1 << order.index[e] for e in members)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_hit_miss_and_equal_twins(self, seed, data):
        rng = random.Random(seed)
        h = random_tower(rng) if seed % 2 else mixed_id_tower(rng)
        order = _level_order(h, data.draw(st.integers(0, h.order)))
        maximal_topology(h)
        stored = dict(order.masks)
        assert 0 < len(stored) <= len(order.elements)  # one family per element; equal ideals share one
        for _ in range(8):
            family = frozenset(data.draw(st.lists(st.sampled_from(order.elements), max_size=6)))
            want = self.plain_mask(order, family)
            assert order.mask_of(family) == want  # a hit only if family is some element's ideal
            twin = frozenset(list(family))  # equal, but another object
            assert twin is not family and order.mask_of(twin) == want
            assert order.mask_of(list(family)) == want and order.mask_of(set(family)) == want
        assert order.masks == stored  # a miss is not stored
        for m in order.below:
            family = frozenset(list(order.unmask(m)))  # built outside maximal_topology
            assert family in order.masks and order.mask_of(family) == m == self.plain_mask(order, family)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_a_stray_member_is_named_and_not_stored(self, seed, data):
        rng = random.Random(seed)
        h = random_tower(rng) if seed % 2 else mixed_id_tower(rng)
        level = data.draw(st.integers(0, h.order))
        order = _level_order(h, level)
        maximal_topology(h)
        members = data.draw(st.lists(st.sampled_from(order.elements), max_size=4))
        strays = data.draw(
            st.lists(st.sampled_from([ElementId(level, "ghost"), ElementId(level, 99), ElementId(level + 1, "x0")]), min_size=1)
        )
        family = frozenset(members + strays)
        first = next(e for e in sorted_elements(family) if e not in order.index)
        before = dict(order.masks)
        for candidates in (family, frozenset(list(family)), list(family)):
            with pytest.raises(UnknownElement) as exc:
                order.mask_of(candidates)
            assert str(exc.value) == f"no element {first!r}"
        assert order.masks == before and family not in order.masks

    def test_reads_and_checks_leave_the_memo_as_it_was(self):
        h = tower_from_supports([frozenset({"x"}), frozenset({"x", "y"}), frozenset({"y"})])
        order = _level_order(h, 1)
        assert order.masks == {}
        b1 = h.element(1, "b1")
        every = {e: frozenset(all_sieves_on(h, e)) for e in order.elements}
        assert len(every[b1]) == 5
        for _ in range(2):  # before and after maximal_topology fills the memo
            before = dict(order.masks)
            assert is_grothendieck_topology(h, every, 1).passed
            for s in every[b1]:
                assert is_sieve(h, s.members, b1)
                for e in order.elements:
                    if refines(h, e, b1):
                        pullback_sieve(h, s, e)
            maximal_sieve(h, b1)
            assert order.masks == before
            maximal_topology(h)
        assert len(order.masks) == len(order.elements)

    def test_consumers_read_the_families_maximal_topology_wrote(self):
        h = graded_triangle()
        j = maximal_topology(h)
        for i in range(h.order + 1):
            order = _level_order(h, i)
            for e in order.elements:
                (s,) = j[e]
                assert order.masks[s.members] == order.below[order.index[e]]
        make_site(h, j)  # reads every family back with one lookup each
        b = h.element(2, "{v0,v1,v2}")
        (top,) = j[b]
        assert pullback_sieve(h, top, b) == top
        assert is_sieve(h, top.members, b)


def brute_force_posets_up_to_iso(n):
    """Filter all 2^(n(n-1)) relations on range(n) for strict orders, keeping the first of each class."""
    from itertools import permutations

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(permutations(range(n)))
    seen, out = set(), []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any((b, a) in rel for (a, b) in rel):
            continue
        if any(b == c and (a, d) not in rel for (a, b) in rel for (c, d) in rel):
            continue
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(frozenset(rel))
    return out


class TestPosetRepresentatives:
    @pytest.mark.parametrize("n", range(5))
    def test_match_the_brute_force(self, n):
        assert all_posets_up_to_iso(n) == brute_force_posets_up_to_iso(n)

    def test_five_points_match_the_recorded_brute_force(self):
        # sha256 of the brute force's 63 representatives on five points,
        # recorded from it (it takes seconds at n = 5)
        reps = all_posets_up_to_iso(5)
        assert len(reps) == 63
        digest = hashlib.sha256(repr([sorted(r) for r in reps]).encode()).hexdigest()
        assert digest == "00816566f4c5be3c917ef788bf244bdf2b5aab79a20f027199b038f07ecd9dfd"


class TestOracleSweep:
    def test_small_posets_all_j_assignments(self):
        # every poset shape with up to 3 bonds, every J with <= 2 sieves/bond
        total = 0
        for n in range(1, 4):
            for rel in all_posets_up_to_iso(n):
                h = tower_from_supports(poset_as_supports(n, rel))
                bonds = [b.id for b in h.bonds_at(1)]
                per_bond = []
                for b in bonds:
                    sieves = all_sieves_on(h, b)
                    options = [frozenset()]
                    options += [frozenset({s}) for s in sieves]
                    options += [frozenset({s, t}) for s, t in combinations(sieves, 2)]
                    per_bond.append(options)
                from itertools import product

                for choice in product(*per_bond):
                    j = dict(zip(bonds, choice))
                    got = is_grothendieck_topology(h, j, 1).passed
                    want = naive_is_topology(h, j, 1)
                    assert got == want
                    total += 1
        assert total == 4 + 44 + 936  # one poset shape per iso class


class TestCoveringChain:
    def test_order_one_chain_passes(self):
        supports = [frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        b1 = h.element(1, "b0")
        x = h.element(0, "x")
        j = maximal_topology(h)
        chain = CoveringChain(
            chain=(x, b1),
            families=(maximal_sieve(h, x).members, maximal_sieve(h, b1).members),
        )
        assert check_covering_chain(h, j, chain).passed

    def test_broken_boundary_link(self):
        supports = [frozenset({"x", "y"}), frozenset({"z"})]
        h = tower_from_supports(supports)
        b0 = h.element(1, "b1")  # binds z only
        x = h.element(0, "x")
        j = maximal_topology(h)
        chain = CoveringChain(chain=(x, b0), families=(frozenset({x}), frozenset({b0})))
        rep = check_covering_chain(h, j, chain)
        assert not rep.passed
        assert any("(0,1)" in f.message for f in rep.findings)

    def test_empty_family_fails(self):
        supports = [frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        b1 = h.element(1, "b0")
        x = h.element(0, "x")
        j = maximal_topology(h)
        chain = CoveringChain(chain=(x, b1), families=(frozenset(), maximal_sieve(h, b1).members))
        rep = check_covering_chain(h, j, chain)
        assert not rep.passed
        assert any("family not in J" in f.message for f in rep.findings)


    @pytest.mark.parametrize(
        "chain, drop_root, findings",
        [
            ((("x",), ("x",)), False, ["shape: chain must span levels 0..1"]),
            ((("b0", "x"), ("x", "b0")), False, ["shape: chain entry 0:x is not a level-1 element", "shape: chain entry 1:b0 is not a level-0 element"]),
            ((("x", "b0"), ("x", "b0")), True, ["family: no sieve collection at 0:x"]),
            ((("x", "b0"), ("xy", "b0")), False, ["family: level 0: family not contained in any sieve of J(x)"]),
        ],
        ids=["too-short", "entries-at-other-levels", "root-without-sieves", "family-in-no-sieve"],
    )
    def test_shape_and_family_findings(self, chain, drop_root, findings):
        h = tower_from_supports([frozenset({"x", "y"})])
        named = {"x": h.element(0, "x"), "b0": h.element(1, "b0")}
        families = {"x": frozenset({named["x"]}), "xy": h.elements(0), "b0": frozenset({named["b0"]})}
        j = {e: sieves for e, sieves in maximal_topology(h).items() if not (drop_root and e == named["x"])}
        rep = check_covering_chain(h, j, CoveringChain(tuple(named[e] for e in chain[0]), tuple(families[f] for f in chain[1])))
        assert rep.lines() == ["covering-chain: FAIL", *findings]


class TestForeignMembers:
    """A listed family naming something outside the level is a finding, not a KeyError."""

    @staticmethod
    def check_with_member(member_of):
        h = tower_from_supports([frozenset({"x", "y"}), frozenset({"x"})])
        b0 = h.element(1, "b0")
        j = maximal_topology(h)
        j[b0] = j[b0] | {Sieve(b0, frozenset({member_of(h)}))}
        return h, j, is_grothendieck_topology(h, j, 1)

    def test_unknown_element(self):
        h, j, rep = self.check_with_member(lambda h: ElementId(1, "zzz"))
        assert not rep.passed
        assert rep.lines()[1:] == ["not-a-sieve: family under 1:b0 names 1:zzz, not a level-1 element: Sieve(1:b0: {zzz})"]
        with pytest.raises(NotATopology):
            make_site(h, j)

    def test_element_of_another_level(self):
        h, j, rep = self.check_with_member(lambda h: h.element(0, "x"))
        assert not rep.passed
        assert rep.lines()[1:] == ["not-a-sieve: family under 1:b0 names 0:x, not a level-1 element: Sieve(1:b0: {x})"]


class TestSite:
    def test_maximal_site_on_valid_towers(self):
        rng = random.Random(19)
        for _ in range(5):
            h = random_tower(rng, max_order=2, max_per_level=6)
            site = make_site(h, maximal_topology(h))
            assert site.h == h

    def test_failing_topology_raises_with_report(self):
        supports = [frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        j = maximal_topology(h)
        j[h.element(1, "b0")] = frozenset()
        with pytest.raises(NotATopology) as exc:
            make_site(h, j)
        assert exc.value.report is not None and not exc.value.report.passed

    def test_exhaustive_refuses_an_ideal_above_the_cap(self):
        def chain(n):  # nested supports: bond b_k's ideal holds b_0..b_k
            return tower_from_supports([frozenset(f"v{i}" for i in range(k + 1)) for k in range(n)])

        at_cap, above = chain(EXHAUSTIVE_CAP), chain(EXHAUSTIVE_CAP + 1)
        assert is_grothendieck_topology(at_cap, maximal_topology(at_cap), 1, exhaustive=True).passed
        with pytest.raises(SweepTooLarge, match=rf"1:b{EXHAUSTIVE_CAP}\b.*{EXHAUSTIVE_CAP + 1}-element ideal"):
            is_grothendieck_topology(above, maximal_topology(above), 1, exhaustive=True)
        # the default sweep samples that level, and level 0 stays exhaustive
        assert is_grothendieck_topology(above, maximal_topology(above), 1).passed
        assert is_grothendieck_topology(above, maximal_topology(above), 0, exhaustive=True).passed

    def test_sampled_mode_notes_seed(self):
        supports = [frozenset({"x", "y"})]
        h = tower_from_supports(supports)
        rep = is_grothendieck_topology(h, maximal_topology(h), 1, exhaustive=False, seed=7)
        assert rep.passed
        assert any("sampled" in n for n in rep.notes)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 70) - 1))
def test_bit_indices_match_a_full_scan(mask):
    # sampled sieves draw one coin per listed bit, so the order fixes the draws
    assert _bit_indices(mask) == [j for j in range(mask.bit_length()) if mask >> j & 1]


def dense_hypergraph_tower(rng: random.Random):
    """An order-2 tower with at least 40 bonds per upper level over at most 12 vertices.

    Supports are drawn fresh, repeated under a new id, or nested inside an
    earlier one, and each upper level also holds identity bonds, so ties,
    chains and incomparable pairs all occur.
    """
    h = new_hyperstructure([f"v{k}" for k in range(rng.randint(4, 12))])
    for level in (0, 1):
        current = sorted_elements(h.elements(level))
        supports: list[list[ElementId]] = []
        for _ in range(rng.randint(40, 56)):
            pick = rng.random()
            if supports and pick < 0.2:
                members = rng.choice(supports)
            elif supports and pick < 0.5:
                outer = rng.choice(supports)
                members = rng.sample(outer, rng.randint(1, len(outer)))
            else:
                members = rng.sample(current, rng.randint(1, min(5, len(current))))
            supports.append(members)
        specs = [BondSpec(level, Support.of(ms), "p", f"e{level}_{j}") for j, ms in enumerate(supports)]
        specs += [BondSpec(level, Support.of([x]), IDENTITY_PROPERTY, f"id{level}_{x.id}", True) for x in rng.sample(current, 3)]
        h = add_bonds(h, specs, order=level + 1)
    return h


class TestLevelOrder:
    """The cached mask view against oracles that compare supports directly."""

    @staticmethod
    def assert_matches_oracles(h, rng):
        for level in range(h.order + 1):
            order = _level_order(h, level)
            elements = order.elements
            assert elements == sorted_elements(h.elements(level))

            def indices(m: int) -> list[int]:  # the positions of m's set bits, read off the level's elements
                return [j for j in range(len(elements)) if m >> j & 1]

            below = [sum(1 << j for j, e in enumerate(elements) if naive_leq(h, e, b)) for b in elements]
            assert order.below == below
            assert order.ideals == [indices(m) for m in below]
            if level:  # supports as masks and as ascending positions over the level below's sorted elements
                lower = sorted_elements(h.elements(level - 1))
                assert order.support == [sum(1 << lower.index(m) for m in h.bond(b).support.members) for b in elements]
                assert order.members == [sorted(lower.index(m) for m in h.bond(b).support.members) for b in elements]
            else:
                assert order.members == [[j] for j in range(len(elements))]
            for i, b in enumerate(elements):
                ideal = indices(below[i])
                if len(ideal) <= 10:
                    # every subset k of the ideal as a mask, with the OR of its members' ideals,
                    # each built from k minus its lowest member; k is a downset iff that OR lies in it
                    n = 1 << len(ideal)
                    subsets, closures = [0] * n, [0] * n
                    for k in range(1, n):
                        low = k & -k
                        j = ideal[low.bit_length() - 1]
                        subsets[k] = subsets[k ^ low] | 1 << j
                        closures[k] = closures[k ^ low] | below[j]
                    brute = [m for m, c in zip(subsets, closures) if c & ~m == 0]
                    assert order.downsets_below(i) == sorted(brute)
                # witness text and the downset test for sieves and for arbitrary families of the level
                families = [below[i], 0, rng.getrandbits(len(elements))]
                for m in families:
                    assert order.sieve_text(i, m) == repr(Sieve(b, frozenset(elements[j] for j in indices(m))))
                    assert order.is_downset(m) == all(below[j] & ~m == 0 for j in indices(m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches_oracles(random_tower(rng, max_order=3, max_per_level=10), rng)
        self.assert_matches_oracles(dense_hypergraph_tower(rng), rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mixed_id_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches_oracles(mixed_id_tower(rng), rng)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    def test_brunnian_towers(self, branching):
        self.assert_matches_oracles(make_brunnian_tower(branching), random.Random(len(branching)))

    def test_ties_share_their_ideal(self):
        # two bonds on one support refine each other, and so do an identity
        # bond and a singleton bond on the same element
        h = tower_from_supports([frozenset({"x"}), frozenset({"x", "y"}), frozenset({"x", "y"})])
        h, ident = identity_bond(h, 0, h.element(0, "x"))
        order = _level_order(h, 1)
        idx = {e.id: order.index[e] for e in order.elements}
        assert order.below[idx["b1"]] == order.below[idx["b2"]]
        assert order.below[order.index[ident]] == order.below[idx["b0"]] == 1 << idx["b0"] | 1 << order.index[ident]
        assert len(order.downsets_below(idx["b1"])) == 3  # {}, the tied pair below, everything

    def test_empty_support_from_a_document(self):
        # validate flags a bond with an empty support, but parse keeps it and
        # topology-check still orders it: it refines every bond of its level
        obj = json.loads(serialize(Document(hyperstructure=tower_from_supports([frozenset({"x"}), frozenset({"y"})]))))
        obj["hyperstructure"]["bonds"][0]["support"] = []
        h = parse(json.dumps(obj)).hyperstructure
        self.assert_matches_oracles(h, random.Random(0))
        order = _level_order(h, 1)
        assert order.below == [0b01, 0b11] and order.ideals == [[0], [0, 1]] and order.members == [[], [1]]
        # the site pipeline reads those lists: the maximal topology and the checker agree with the oracles
        TestMaximalTopology.assert_matches_maximal_sieves(h)
        j = maximal_topology(h)
        make_site(h, j)
        b0, b1 = order.elements
        j_without = {**j, b1: frozenset({Sieve(b1, frozenset({b0}))})}  # b1's collection lacks its maximal sieve
        for topology in (j, j_without):
            for level in range(h.order + 1):
                rep = is_grothendieck_topology(h, topology, level)
                assert rep.render() == reference_is_grothendieck_topology(h, topology, level)
        assert not is_grothendieck_topology(h, j_without, 1).passed


def identity_tower(order: int):
    """One base element under `order` stacked identity bonds: one element per level."""
    h = new_hyperstructure(["x"])
    specs, below = [], ElementId(0, "x")
    for i in range(order):
        specs.append(BondSpec(i, Support(i, frozenset({below})), IDENTITY_PROPERTY, f"e{i}", True))
        below = ElementId(i + 1, f"e{i}")
    return add_bonds(h, specs)


class TestOrderConsumersMatchNaive:
    """refines, the sieve functions and refinement_category read the level order;
    their naive forms here compare supports through helpers.naive_leq."""

    @staticmethod
    def assert_matches(h, rng):
        for level in range(h.order + 1):
            elements = sorted_elements(h.elements(level))
            leq = {(a, b): naive_leq(h, a, b) for a in elements for b in elements}
            elsewhere = [e for i in range(h.order + 1) if i != level for e in h.levels[i]]
            assert refinement_category(h, level) == poset_category(elements, lambda a, b: leq[a, b])
            for b in elements:
                assert [refines(h, a, b) for a in elements] == [leq[a, b] for a in elements]
                assert maximal_sieve(h, b) == Sieve(b, frozenset(a for a in elements if leq[a, b]))
                if elsewhere:
                    assert not refines(h, rng.choice(elsewhere), b)
                for _ in range(4):
                    cs = frozenset(a for a in elements if rng.random() < 0.4)
                    closed = all(f in cs for e in cs for f in elements if leq[f, e])
                    assert is_sieve(h, cs, b) == (all(leq[e, b] for e in cs) and closed)
                    a = rng.choice(elements)
                    sieve = Sieve(b, cs | frozenset(rng.sample(elsewhere, min(2, len(elsewhere)))))
                    if leq[a, b]:
                        assert pullback_sieve(h, sieve, a) == Sieve(a, frozenset(s for s in cs if leq[s, a]))
                    else:
                        with pytest.raises(NotRefinement):
                            pullback_sieve(h, sieve, a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(random_tower(rng, max_order=3, max_per_level=10), rng)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mixed_id_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(mixed_id_tower(rng), rng)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    def test_brunnian_towers(self, branching):
        self.assert_matches(make_brunnian_tower(branching), random.Random(len(branching)))


class TestAllSievesOnCap:
    """A root over n unrelated bonds has 2^n + 1 sieves, so all_sieves_on is bounded like the exhaustive sweep."""

    @staticmethod
    def star(n):
        """Bonds b0..b(n-1) over one vertex each, and b<n> over all n vertices."""
        return tower_from_supports([frozenset({f"v{i}"}) for i in range(n)] + [frozenset(f"v{i}" for i in range(n))])

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_count_below_the_cap(self, n):
        h = self.star(n)
        assert len(all_sieves_on(h, h.element(1, f"b{n}"))) == 2**n + 1

    def test_a_root_at_the_cap_is_listed(self):
        n = EXHAUSTIVE_CAP - 1  # the root's ideal holds n + 1 = EXHAUSTIVE_CAP bonds
        h = self.star(n)
        assert len(all_sieves_on(h, h.element(1, f"b{n}"))) == 2**n + 1

    def test_a_root_over_17_bonds_is_refused_at_once(self):
        h = self.star(17)
        with pytest.raises(SweepTooLarge, match=rf"1:b17\b.*18-element ideal; the cap is {EXHAUSTIVE_CAP}"):
            all_sieves_on(h, h.element(1, "b17"))
        assert _level_order(h, 1).downsets == {}  # nothing was listed or memoized
        assert len(all_sieves_on(h, h.element(1, "b0"))) == 2  # roots with small ideals still list


class TestOrderErrors:
    """Error classes of the order consumers on elements and towers they cannot order."""

    def test_unknown_elements(self):
        h = tower_from_supports([frozenset({"x"}), frozenset({"x", "y"})])
        b0, b1 = h.element(1, "b0"), h.element(1, "b1")
        ghost, ghost_root, ghost_high = ElementId(1, "nope"), ElementId(0, "nope"), ElementId(5, "b0")
        for e in (ghost, ghost_root, ghost_high):
            with pytest.raises(UnknownElement):
                refines(h, e, b1)
            with pytest.raises(UnknownElement):
                refines(h, b1, e)
            with pytest.raises(UnknownElement):
                maximal_sieve(h, e)
            with pytest.raises(UnknownElement):
                is_sieve(h, [], e)
            with pytest.raises(UnknownElement):
                all_sieves_on(h, e)
            with pytest.raises(UnknownElement):
                pullback_sieve(h, maximal_sieve(h, b1), e)
            with pytest.raises(UnknownElement):
                pullback_sieve(h, Sieve(e, frozenset()), b0)
        with pytest.raises(UnknownElement):
            is_sieve(h, [b0, ghost], b1)
        with pytest.raises(UnknownElement):
            pullback_sieve(h, Sieve(b1, frozenset({b0, ghost})), b0)
        with pytest.raises(LevelOutOfRange):
            refinement_category(h, 2)

    def test_element_without_a_bond_record(self):
        # parse keeps a level-1 element whose bond record is gone (validate
        # flags it); no order can be built for its level or the ones above
        h = graded_triangle()
        obj = json.loads(serialize(Document(hyperstructure=h)))
        bonds = obj["hyperstructure"]["bonds"]
        bonds.remove(next(b for b in bonds if b["id"] == "{v0,v1}"))
        h = parse(json.dumps(obj)).hyperstructure
        e12, top, v0 = h.element(1, "{v1,v2}"), h.element(2, "{v0,v1,v2}"), h.element(0, "v0")
        calls = [
            lambda: refines(h, e12, e12),
            lambda: maximal_sieve(h, top),
            lambda: is_sieve(h, [], e12),
            lambda: pullback_sieve(h, Sieve(top, frozenset()), top),
            lambda: refinement_category(h, 2),
            lambda: maximal_topology(h),
            lambda: is_grothendieck_topology(h, {}, 1),
        ]
        for call in calls:
            with pytest.raises(NotABond, match=re.escape("1:{v0,v1} has no bond record")):
                call()
        assert refines(h, v0, v0) and maximal_sieve(h, v0) == Sieve(v0, frozenset({v0}))

    @pytest.mark.parametrize("strays, first", [(["zz", 7, "aa"], "0:7"), (["zz", "aa"], "0:aa"), ([12, 7], "0:7")])
    def test_support_member_missing_below(self, strays, first):
        # a hand-built registry whose bond binds elements the level below
        # lacks; the order names the first of them in key order
        h = tower_from_supports([frozenset({"x"}), frozenset({"x", "y"})])
        b0, b1 = h.element(1, "b0"), h.element(1, "b1")
        ghosts = frozenset(ElementId(0, r) for r in strays)
        h = h._replace(bonds=tuple(b._replace(support=Support(0, b.support.members | ghosts)) if b.id == b1 else b for b in h.bonds))
        calls = [
            lambda: refines(h, b0, b1),
            lambda: maximal_sieve(h, b0),
            lambda: maximal_topology(h),
            lambda: is_grothendieck_topology(h, {}, 1),
            lambda: refinement_category(h, 1),
        ]
        for call in calls:
            with pytest.raises(UnknownElement, match=f"^no element {re.escape(first)}$"):
                call()

    def test_deep_tower_builds_its_orders_without_recursing(self):
        h = identity_tower(1500)
        rep = is_grothendieck_topology(h, {}, h.order)
        assert not rep.passed
        assert rep.findings[0].message == "no sieve collection at 1500:e1499"
        assert maximal_sieve(h, ElementId(1500, "e1499")).members == frozenset({ElementId(1500, "e1499")})


GOLDEN_TOWER = [(5, [0]), ("a", [0, 1]), ("t", [0, 1]), (7, [0, 1, "x"]), ("z", ["y"]), (12, [1])]
GOLDEN_EXHAUSTIVE = """\
grothendieck-topology level 1: FAIL
maximality: maximal sieve on 1:7 missing from J(7)
not-a-sieve: family under 1:z is not downward closed: Sieve(1:z: {a})
stability: pullback of Sieve(1:7: {5,12}) along 1:a missing from J(a)
stability: pullback of Sieve(1:a: {}) along 1:12 missing from J(12)
stability: pullback of Sieve(1:a: {}) along 1:5 missing from J(5)
stability: pullback of Sieve(1:a: {}) along 1:t missing from J(t)
stability: pullback of Sieve(1:t: {5,12}) along 1:a missing from J(a)
transitivity: Sieve(1:7: {5,12,a,t}) covers locally over Sieve(1:7: {5,12}) but is missing from J(7)
transitivity: Sieve(1:7: {5,7,12,a,t}) covers locally over Sieve(1:7: {5,12}) but is missing from J(7)
transitivity: Sieve(1:a: {12}) covers locally over Sieve(1:a: {}) but is missing from J(a)
transitivity: Sieve(1:a: {5,12}) covers locally over Sieve(1:a: {}) but is missing from J(a)
transitivity: Sieve(1:a: {5}) covers locally over Sieve(1:a: {}) but is missing from J(a)"""
GOLDEN_SAMPLED = """\
grothendieck-topology level 1: FAIL
note: sampled: seed=3 size=64
maximality: maximal sieve on 1:7 missing from J(7)
not-a-sieve: family under 1:z is not downward closed: Sieve(1:z: {a})
stability: pullback of Sieve(1:7: {5,12}) along 1:a missing from J(a)
stability: pullback of Sieve(1:a: {}) along 1:12 missing from J(12)
stability: pullback of Sieve(1:a: {}) along 1:5 missing from J(5)
stability: pullback of Sieve(1:a: {}) along 1:t missing from J(t)
stability: pullback of Sieve(1:t: {5,12}) along 1:a missing from J(a)
transitivity: Sieve(1:7: {5,12,a,t}) covers locally over Sieve(1:7: {5,12}) but is missing from J(7)
transitivity: Sieve(1:7: {5,7,12,a,t}) covers locally over Sieve(1:7: {5,12}) but is missing from J(7)
transitivity: Sieve(1:a: {12}) covers locally over Sieve(1:a: {}) but is missing from J(a)
transitivity: Sieve(1:a: {5,12}) covers locally over Sieve(1:a: {}) but is missing from J(a)"""


def test_golden_report():
    """Full report text on a damaged topology that raises every witness-bearing code."""
    h = new_hyperstructure([0, 1, "x", "y"])
    h = add_bonds(h, [BondSpec(0, h.support_at(0, s), "p", raw) for raw, s in GOLDEN_TOWER], order=1)
    e = {raw: h.element(1, raw) for raw, _ in GOLDEN_TOWER}

    def sieve(root, *members):
        return Sieve(e[root], frozenset(e[m] for m in members))

    j = maximal_topology(h)
    j[e["a"]] = frozenset({sieve("a", 5, "a", "t", 12), sieve("a")})  # the empty sieve does not pull back
    j[e[7]] = frozenset({sieve(7, 5, 12)})  # maximal sieve missing
    j[e["z"]] = frozenset({sieve("z", "z"), sieve("z", "a")})  # {a} is not under z
    j[e["t"]] = frozenset({sieve("t", 5, "a", "t", 12), sieve("t", 5, 12)})
    assert is_grothendieck_topology(h, j, 1).render() == GOLDEN_EXHAUSTIVE
    assert is_grothendieck_topology(h, j, 1, exhaustive=False, seed=3).render() == GOLDEN_SAMPLED


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 70))
def test_vacuous_root_draw_leaves_the_sampled_stream(seed, count):
    # a vacuous root skips _sampled_masks but draws 64 bits per coin it
    # would have tossed, so the roots after it see the same stream
    rng = random.Random(seed)
    h = random_tower(rng, max_order=2, max_per_level=12) if seed % 2 else mixed_id_tower(rng)
    level = rng.randint(0, h.order)
    order = _level_order(h, level)
    i = rng.randrange(len(order.elements))
    sampled, skip = random.Random(seed), random.Random(seed)
    _sampled_masks(order, i, sampled, count)
    skip.getrandbits(64 * count * order.below[i].bit_count())
    assert sampled.random() == skip.random()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6))
def test_merged_vacuous_draws_leave_the_sampled_stream(seed, skips):
    # several vacuous roots' draws taken in one call leave the stream as
    # drawing each root's share does, so the next sampled root sees the same
    rng = random.Random(seed)
    h = random_tower(rng, max_order=2, max_per_level=12) if seed % 2 else mixed_id_tower(rng)
    order = _level_order(h, rng.randint(0, h.order))
    shares = [64 * SAMPLE_SIZE * order.below[rng.randrange(len(order.elements))].bit_count() for _ in range(skips)]
    separate, merged = random.Random(seed), random.Random(seed)
    for bits in shares:
        separate.getrandbits(bits)
    merged.getrandbits(sum(shares))
    i = rng.randrange(len(order.elements))
    assert _sampled_masks(order, i, separate, SAMPLE_SIZE) == _sampled_masks(order, i, merged, SAMPLE_SIZE)


def test_a_check_where_no_root_samples_draws_nothing(monkeypatch):
    class Undrawable(random.Random):
        def random(self):
            raise AssertionError("drew a coin")

        def getrandbits(self, k):
            raise AssertionError(f"drew {k} bits")

    h = make_brunnian_tower([3, 3, 3])
    monkeypatch.setattr(random, "Random", Undrawable)
    make_site(h, maximal_topology(h), exhaustive=False)  # no root of a maximal topology samples


def random_topology(h, level, rng):
    """Per root: the maximal sieve alone, with other sieves, other sieves only, or none.

    A few roots also list a misrooted or a non-downward-closed family, and a
    few are left out, so every finding code turns up.
    """
    order = _level_order(h, level)
    topo = {}
    for i, b in enumerate(order.elements):
        sieves = all_sieves_on(h, b)
        maximal = Sieve(b, order.unmask(order.below[i]))
        others = [s for s in sieves if s != maximal]
        pick = rng.random()
        if pick < 0.03:
            continue
        if pick < 0.4 or not others:
            chosen = {maximal}
        elif pick < 0.7:
            chosen = {maximal, *rng.sample(others, min(len(others), rng.randint(1, 2)))}
        elif pick < 0.9:
            chosen = set(rng.sample(others, min(len(others), rng.randint(1, 2))))
        else:
            chosen = set()
        if rng.random() < 0.05:
            chosen.add(Sieve(rng.choice(order.elements), frozenset()))
        if rng.random() < 0.05:
            chosen.add(Sieve(b, frozenset({rng.choice(order.elements)})))
        topo[b] = frozenset(chosen)
    return topo


class TestLazyReportMatchesReference:
    """The verdict-first checker writes the eager reference checker's text byte for byte."""

    @staticmethod
    def assert_matches(h, rng):
        for level in range(h.order + 1):
            topo = random_topology(h, level, rng)
            modes = [{}, {"exhaustive": True}] + [{"exhaustive": False, "seed": seed} for seed in (0, 3, rng.randrange(1000))]
            for kw in modes:
                want = reference_is_grothendieck_topology(h, topo, level, **kw)
                assert is_grothendieck_topology(h, topo, level, **kw).render() == want
                rep = is_grothendieck_topology(h, topo, level, **kw)
                passed = rep.passed
                saved = dict(topo)
                topo.clear()  # the report was taken from a snapshot
                try:
                    assert rep.render() == want
                    assert passed == rep.passed == (not rep.findings)
                finally:
                    topo.update(saved)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(random_tower(rng, max_order=2, max_per_level=10), rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mixed_id_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(mixed_id_tower(rng), rng)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_checks_sharing_a_tower(self, seed):
        """Candidates checked on one tower share its witness memo; however their reports are read, each matches."""
        rng = random.Random(seed)
        h = random_tower(rng, max_order=2, max_per_level=10) if seed % 2 else mixed_id_tower(rng)
        level = rng.randint(0, h.order)
        modes = [{"exhaustive": True}, {}] + [{"exhaustive": False, "seed": s} for s in (0, rng.randrange(1000))]
        checks = []
        for _ in range(4):
            topo = random_topology(h, level, rng)
            checks += [(topo, kw, is_grothendieck_topology(h, topo, level, **kw)) for kw in modes]
        checks.reverse()
        verdicts = [rep.passed for _, _, rep in checks]
        for (topo, kw, rep), passed in zip(checks, verdicts):
            assert rep.render() == reference_is_grothendieck_topology(h, topo, level, **kw)
            assert passed == rep.passed == (not rep.findings)


def test_witness_text_written_only_when_read(monkeypatch):
    calls = []
    sieve_text = _LevelOrder.sieve_text

    def counted(self, i, mask):
        calls.append((i, mask))
        return sieve_text(self, i, mask)

    monkeypatch.setattr(_LevelOrder, "sieve_text", counted)
    h = new_hyperstructure([0, 1, "x", "y"])
    h = add_bonds(h, [BondSpec(0, h.support_at(0, s), "p", raw) for raw, s in GOLDEN_TOWER], order=1)
    e = {raw: h.element(1, raw) for raw, _ in GOLDEN_TOWER}
    j = maximal_topology(h)
    j[e["a"]] = frozenset({Sieve(e["a"], frozenset())})  # fails maximality first, then many witnessed axioms
    j[e["t"]] = j[e["t"]] | {Sieve(e["t"], frozenset({e[5], e[12]}))}

    make_site(h, maximal_topology(h))
    order = _level_order(h, 1)
    assert calls == [] and order.texts == {} and order._names is None  # checks that pass write nothing
    rep = is_grothendieck_topology(h, j, 1)
    assert not rep.passed and calls == []
    assert repr(rep).startswith("CheckReport(name='grothendieck-topology level 1', passed=False, findings=(Finding(")
    text = rep.render()
    assert {"maximality", "stability", "transitivity"} <= rep.codes
    read_first = len(calls)
    written = dict(order.texts)
    assert len(written) == len(set(calls)) > 0
    calls.clear()
    assert is_grothendieck_topology(h, j, 1).render() == text
    assert len(calls) == read_first > 0
    assert order.texts == written  # a later check on the tower reuses every witness
