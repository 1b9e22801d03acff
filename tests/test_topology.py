import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_posets_up_to_iso,
    naive_is_topology,
    poset_as_supports,
    random_tower,
    tower_from_supports,
)
from hyperstruct.core import add_bond, assign_property, new_hyperstructure
from hyperstruct.errors import MixedLevels, NotATopology, NotRefinement, SweepTooLarge
from hyperstruct.installers import from_simplicial_complex, make_brunnian_tower
from hyperstruct.topology import (
    EXHAUSTIVE_CAP,
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
)
from hyperstruct.topology import _bit_indices

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
    """maximal_topology reads the cached level order; maximal_sieve scans supports."""

    @staticmethod
    def assert_matches_maximal_sieves(h):
        j = maximal_topology(h)
        assert set(j) == {e for level in h.levels for e in level}
        for e, sieves in j.items():
            assert sieves == frozenset({maximal_sieve(h, e)})

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
