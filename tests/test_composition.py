import random
from itertools import permutations

import pytest

from helpers import random_tower
from hyperstruct import composition, core
from hyperstruct.assignments import TENSOR_PAIRS, UNION, Combiner
from hyperstruct.composition import (
    combine_tokens,
    composable,
    compose,
    compose_cross,
    disjoint_union,
    fuse,
    union_token,
)
from hyperstruct.core import (
    DANGLING_FUSION,
    ElementId,
    FusionRecord,
    Hyperstructure,
    Support,
    add_bond,
    add_bonds,
    assign_property,
    boundary,
    identity_bond,
    iterated_boundary,
    new_hyperstructure,
    sorted_elements,
    validate,
)
from hyperstruct.errors import CombinerUndefined, DuplicateId, LevelOutOfRange, NotComposable, NotGluable
from hyperstruct.installers import make_brunnian_tower


def chain_tower():
    """x-y and y-z bonds, the running overlap example."""
    h = new_hyperstructure(["x", "y", "z"])
    sxy = h.support_at(0, ["x", "y"])
    syz = h.support_at(0, ["y", "z"])
    h = assign_property(h, 0, sxy, "p")
    h = assign_property(h, 0, syz, "q")
    h, a = add_bond(h, 0, sxy, "p", "a")
    h, b = add_bond(h, 0, syz, "q", "b")
    return h, a, b


class TestComposable:
    def test_overlap_weak_not_strict(self):
        h, a, b = chain_tower()
        assert composable(h, a, b, 0, "weak")
        assert not composable(h, a, b, 0, "strict")

    def test_same_bond_both_modes(self):
        h, a, _ = chain_tower()
        assert composable(h, a, a, 0, "weak")
        assert composable(h, a, a, 0, "strict")

    def test_disjoint_supports_neither_mode(self):
        h = new_hyperstructure(["x", "y", "u", "v"])
        s1 = h.support_at(0, ["x", "y"])
        s2 = h.support_at(0, ["u", "v"])
        h = assign_property(h, 0, s1, "p")
        h = assign_property(h, 0, s2, "p")
        h, a = add_bond(h, 0, s1, "p", "a")
        h, b = add_bond(h, 0, s2, "p", "b")
        assert not composable(h, a, b, 0, "weak")
        assert not composable(h, a, b, 0, "strict")

    def test_probe_level_must_be_below(self):
        h, a, b = chain_tower()
        with pytest.raises(LevelOutOfRange):
            composable(h, a, b, 1, "weak")

    def test_weak_mode_is_symmetric(self):
        rng = random.Random(13)
        for _ in range(15):
            h = random_tower(rng, max_order=2, max_per_level=8)
            bonds = [b.id for i in range(1, h.order + 1) for b in h.bonds_at(i)]
            for a in bonds:
                for b in bonds:
                    for p in range(min(a.level, b.level)):
                        assert composable(h, a, b, p, "weak") == composable(h, b, a, p, "weak")


class TestCompose:
    def test_union_of_supports(self):
        h, a, b = chain_tower()
        h2, c = compose(h, a, b, 0, "weak", UNION, "c")
        assert boundary(h2, c).raw_ids() == ["x", "y", "z"]
        assert h2.bond(c).property == "p∪q"

    def test_identity_absorption(self):
        h, a, _ = chain_tower()
        h, iy = identity_bond(h, 0, h.element(0, "y"))
        h2, c = compose(h, a, iy, 0, "weak", None, "c")
        assert boundary(h2, c).members == boundary(h2, a).members

    def test_strict_disjoint_rejected(self):
        h = new_hyperstructure(["x", "y", "u", "v"])
        s1, s2 = h.support_at(0, ["x", "y"]), h.support_at(0, ["u", "v"])
        h = assign_property(h, 0, s1, "p")
        h = assign_property(h, 0, s2, "p")
        h, a = add_bond(h, 0, s1, "p", "a")
        h, b = add_bond(h, 0, s2, "p", "b")
        with pytest.raises(NotComposable):
            compose(h, a, b, 0, "strict", None, "c")

    def test_operands_unchanged(self):
        h, a, b = chain_tower()
        before = {e: boundary(h, e).members for e in (a, b)}
        h2, _ = compose(h, a, b, 0, "weak", None, "c")
        for e, members in before.items():
            assert boundary(h2, e).members == members
        assert len(h.bonds) == 2  # the input value is untouched

    def test_tensor_combiner_property(self):
        h, a, b = chain_tower()
        h2, c = compose(h, a, b, 0, "weak", TENSOR_PAIRS, "c")
        assert h2.bond(c).property == "p⊗q"

    def test_result_validates(self):
        h, a, b = chain_tower()
        h2, _ = compose(h, a, b, 0, "weak", None, "c")
        assert validate(h2).passed


class TestComposeCross:
    def test_equal_levels_degenerates_to_compose(self):
        h, a, b = chain_tower()
        h2, c = compose_cross(h, a, b, 0, "weak", None, "c")
        h3, d = compose(h, a, b, 0, "weak", None, "c")
        assert h2.bond(c).support == h3.bond(d).support
        assert h2.bond(c).property == h3.bond(d).property

    def test_lift_by_identities(self):
        # level-2 bond composed with a level-1 bond sharing a base element
        h = new_hyperstructure(["a", "b", "c"])
        sab, sbc = h.support_at(0, ["a", "b"]), h.support_at(0, ["b", "c"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, sbc, "p")
        h, b1 = add_bond(h, 0, sab, "p", "b1")
        h, b1x = add_bond(h, 0, sbc, "p", "b1x")
        s2 = Support.of([b1, b1x])
        h = assign_property(h, 1, s2, "q")
        h, a2 = add_bond(h, 1, s2, "q", "a2")
        h, low = (h, b1)  # level-1 operand with b in its boundary
        h2, c = compose_cross(h, a2, low, 0, "weak", None, "c")
        assert c.level == 2
        assert iterated_boundary(h2, c, 0).raw_ids() == ["a", "b", "c"]
        assert validate(h2).passed

    def test_probe_at_or_above_lower_level_rejected(self):
        h = new_hyperstructure(["a", "b", "c"])
        sab, sbc = h.support_at(0, ["a", "b"]), h.support_at(0, ["b", "c"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, sbc, "p")
        h, b1 = add_bond(h, 0, sab, "p", "b1")
        h, b1x = add_bond(h, 0, sbc, "p", "b1x")
        s2 = Support.of([b1, b1x])
        h = assign_property(h, 1, s2, "q")
        h, a2 = add_bond(h, 1, s2, "q", "a2")
        with pytest.raises(LevelOutOfRange):
            compose_cross(h, a2, b1, 1, "weak", None, "c")

    def test_one_construction_per_composite(self, monkeypatch):
        """Lifting across two levels and gluing is one add_bonds call, and a
        refused pair builds nothing."""
        h = make_brunnian_tower([2, 2, 2])
        top, low = sorted_elements(h.levels[3])[0], sorted_elements(h.levels[1])[0]
        calls = []
        monkeypatch.setattr(composition, "add_bonds", lambda h, specs: calls.append(specs) or add_bonds(h, specs))
        h2, c = compose_cross(h, top, low, 0, "weak", None, "c")
        assert [len(specs) for specs in calls] == [3]  # two identity bonds and the composite
        assert c == ElementId(3, "c") and iterated_boundary(h2, c, 1).members == iterated_boundary(h, top, 1).members | {low}
        calls.clear()
        with pytest.raises(NotComposable):
            compose_cross(h, top, low, 0, "strict", None, "c")
        assert calls == []

    def test_identity_bond_reused_without_a_build(self, monkeypatch):
        """identity_bond adds an element's identity bond once and then finds it."""
        h = make_brunnian_tower([2, 2])
        low = sorted_elements(h.levels[1])[0]
        calls = []
        monkeypatch.setattr(core, "add_bonds", lambda h, specs: calls.append(specs) or add_bonds(h, specs))
        h2, lifted = identity_bond(h, 1, low)
        assert len(calls) == 1
        assert identity_bond(h2, 1, low) == (h2, lifted)
        assert len(calls) == 1


class TestFuse:
    def test_shared_base_element(self):
        h, a, b = chain_tower()
        h2, c = fuse(h, a, b, 0, None, "c")
        assert boundary(h2, c).raw_ids() == ["x", "y", "z"]
        assert h2.fusion_log[-1].k == 0

    def test_self_fuse_keeps_support(self):
        h, a, _ = chain_tower()
        h2, c = fuse(h, a, a, 0, None, "c")
        assert boundary(h2, c).members == boundary(h2, a).members

    def test_not_gluable(self):
        h = new_hyperstructure(["x", "y", "u", "v"])
        s1, s2 = h.support_at(0, ["x", "y"]), h.support_at(0, ["u", "v"])
        h = assign_property(h, 0, s1, "p")
        h = assign_property(h, 0, s2, "p")
        h, a = add_bond(h, 0, s1, "p", "a")
        h, b = add_bond(h, 0, s2, "p", "b")
        with pytest.raises(NotGluable, match=r"^1:a and 1:b share nothing at level 0$"):
            fuse(h, a, b, 0, None, "c")

    def test_walks_each_operand_once(self, monkeypatch):
        h = make_brunnian_tower([2, 2])
        a, b = sorted_elements(h.levels[2])[0], sorted_elements(h.levels[1])[0]
        calls = []
        monkeypatch.setattr(composition, "iterated_boundary", lambda *args: calls.append(args[1:]) or iterated_boundary(*args))
        fuse(h, a, b, 0, None, "c")
        assert len(calls) == 2

    def test_gluing_check_comes_before_lifting(self):
        """compose_cross decides on the pair as given before it builds the
        lift, so a pair that does not glue is refused as such even when
        another bond holds the id its lift would take; a pair that glues
        still meets the taken id when the lift is added."""
        h = new_hyperstructure(["x", "y", "u", "v"])
        s1, s2 = h.support_at(0, ["x", "y"]), h.support_at(0, ["u", "v"])
        h = assign_property(h, 0, s1, "p")
        h = assign_property(h, 0, s2, "p")
        h, a = add_bond(h, 0, s1, "p", "a")
        h, b = add_bond(h, 0, s2, "p", "b")
        s = Support.of([a])
        h = assign_property(h, 1, s, "q")
        h, top = add_bond(h, 1, s, "q", "top")
        h, _ = add_bond(h, 1, s, "q", "id:b")  # the id lifting b would take
        with pytest.raises(NotComposable, match=r"^2:top and 1:b are not weak-compatible at level 0$"):
            compose_cross(h, top, b, 0, "weak", None, "c")
        with pytest.raises(NotGluable, match=r"^2:top and 1:b share nothing at level 0$"):
            fuse(h, top, b, 0, None, "c")
        h, _ = add_bond(h, 1, s, "q", "id:a")  # top and a glue, and a's lift id is taken
        taken = "^element 'id:a' already present at level 2$"
        with pytest.raises(DuplicateId, match=taken):
            compose_cross(h, top, a, 0, "weak", None, "c")
        with pytest.raises(DuplicateId, match=taken):
            fuse(h, top, a, 0, None, "c")

    def test_cross_level_fuse(self):
        h = new_hyperstructure(["a", "b", "c"])
        sab, sbc = h.support_at(0, ["a", "b"]), h.support_at(0, ["b", "c"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, sbc, "p")
        h, b1 = add_bond(h, 0, sab, "p", "b1")
        h, b1x = add_bond(h, 0, sbc, "p", "b1x")
        s2 = Support.of([b1, b1x])
        h = assign_property(h, 1, s2, "q")
        h, a2 = add_bond(h, 1, s2, "q", "a2")
        h2, c = fuse(h, a2, b1x, 0, None, "glued")
        rec = h2.fusion_log[-1]
        assert (rec.k, rec.m, rec.n) == (0, 2, 1)
        assert c.level == 2


    def test_validate_flags_a_dangling_record(self):
        h, a, b = chain_tower()
        h2, c = fuse(h, a, b, 0, None, "c")
        ghost = ElementId(1, "ghost")
        broken = h2._replace(fusion_log=h2.fusion_log + (FusionRecord(k=0, m=1, n=1, a=a, b=ghost, result=c),))
        rep = validate(broken)
        assert rep.codes == {DANGLING_FUSION}
        assert validate(h2).passed


class TestDisjointUnion:
    def test_fusion_logs_carried_with_prefixes(self):
        h, a, b = chain_tower()
        h1, c = fuse(h, a, b, 0, None, "c")
        h2, d = fuse(h, b, a, 0, None, "d")
        u = disjoint_union(h1, h2)

        def tagged(e, tag):
            return ElementId(e.level, f"{tag}:{e.id}")

        assert u.fusion_log == (
            FusionRecord(k=0, m=1, n=1, a=tagged(a, 1), b=tagged(b, 1), result=tagged(c, 1)),
            FusionRecord(k=0, m=1, n=1, a=tagged(b, 2), b=tagged(a, 2), result=tagged(d, 2)),
        )
        assert validate(u).passed

    def test_cardinality_additivity(self):
        rng = random.Random(31)
        for _ in range(10):
            h1 = random_tower(rng, max_order=2, max_per_level=6)
            h2 = random_tower(rng, max_order=2, max_per_level=6)
            u = disjoint_union(h1, h2)
            order = max(h1.order, h2.order)
            for i in range(order + 1):
                n1 = len(h1.elements(i)) if i <= h1.order else len(h1.elements(h1.order))
                # identity padding keeps cardinalities: each padded level
                # mirrors the one below it
                if i <= h1.order and i <= h2.order:
                    assert len(u.elements(i)) == len(h1.elements(i)) + len(h2.elements(i))

    def test_union_with_empty_is_isomorphic(self):
        h, a, b = chain_tower()
        u = disjoint_union(h, Hyperstructure.empty(order=h.order))
        def strip(raw):
            return raw[2:] if isinstance(raw, str) and raw.startswith("1:") else raw
        assert {strip(e.id) for e in u.elements(0)} == {e.id for e in h.elements(0)}
        assert {strip(e.id) for e in u.elements(1)} == {e.id for e in h.elements(1)}
        assert {
            (strip(bd.id.id), frozenset(strip(m.id) for m in bd.support.members), bd.property)
            for bd in u.bonds
        } == {(bd.id.id, frozenset(m.id for m in bd.support.members), bd.property) for bd in h.bonds}

    def test_union_validates(self):
        rng = random.Random(8)
        for _ in range(10):
            h1 = random_tower(rng, max_order=2, max_per_level=6)
            h2 = random_tower(rng, max_order=2, max_per_level=6)
            assert validate(disjoint_union(h1, h2)).passed

    def test_unequal_orders_padded(self):
        h1, a, b = chain_tower()           # order 1
        h2 = new_hyperstructure(["solo"])  # order 0
        u = disjoint_union(h1, h2)
        assert u.order == 1
        assert validate(u).passed
        # the padded half lifted its base element by an identity bond
        assert any(bd.identity and bd.support.raw_ids() == ["2:solo"] for bd in u.bonds)


# -- algebra of strict composition ------------------------------------------------------


def strict_triples(h):
    bonds = [b.id for i in range(1, h.order + 1) for b in h.bonds_at(i)]
    for a in bonds:
        for b in bonds:
            for c in bonds:
                levels = {a.level, b.level, c.level}
                if len(levels) != 1:
                    continue
                for p in range(min(levels)):
                    if (
                        composable(h, a, b, p, "strict")
                        and composable(h, b, c, p, "strict")
                        and composable(h, a, c, p, "strict")
                    ):
                        yield a, b, c, p


def compose_key(h, x, y, p):
    h2, e = compose(h, x, y, p, "strict", UNION, "tmp-key")
    bond = h2.bond(e)
    return (bond.support.members, bond.property)


class TestStrictAlgebra:
    def test_associative_and_commutative_up_to_support_property(self):
        rng = random.Random(17)
        towers = [random_tower(rng, max_order=2, max_per_level=8) for _ in range(12)]
        checked = 0
        for h in towers:
            total_bonds = sum(len(h.bonds_at(i)) for i in range(1, h.order + 1))
            if total_bonds > 8:
                continue
            for a, b, c, p in strict_triples(h):
                # commutativity
                assert compose_key(h, a, b, p) == compose_key(h, b, a, p)
                # associativity
                h_ab, ab = compose(h, a, b, p, "strict", UNION, "t-ab")
                h_bc, bc = compose(h, b, c, p, "strict", UNION, "t-bc")
                left = compose_key(h_ab, ab, c, p)
                right = compose_key(h_bc, a, bc, p)
                assert left == right
                checked += 1
        assert checked > 0

    def test_iterated_boundary_of_composite_is_union(self):
        rng = random.Random(23)
        for _ in range(10):
            h = random_tower(rng, max_order=2, max_per_level=8)
            bonds = [b.id for i in range(1, h.order + 1) for b in h.bonds_at(i)]
            for a in bonds:
                for b in bonds:
                    if a.level != b.level:
                        continue
                    for p in range(a.level):
                        if not composable(h, a, b, p, "weak"):
                            continue
                        h2, c = compose(h, a, b, p, "weak", UNION, "u!")
                        assert (
                            h2.bond(c).support.members
                            == h2.bond(a).support.members | h2.bond(b).support.members
                        )
                        for q in range(c.level):
                            assert (
                                iterated_boundary(h2, c, q).members
                                == iterated_boundary(h2, a, q).members | iterated_boundary(h2, b, q).members
                            )
                        break  # one probe level suffices per pair


def test_union_token_flattening():
    for parts in permutations(["p", "q", "r"]):
        t = parts[0]
        for nxt in parts[1:]:
            t = union_token(t, nxt)
        assert t == "p∪q∪r"
    assert union_token("p", "p") == "p"


def pairing(*tokens: str) -> Combiner:
    """A table combiner that gives tokens for the parts {p} and {q}."""
    return Combiner(name="pairing", kind="table", table={(frozenset({"p"}), frozenset({"q"}), frozenset()): frozenset(tokens)})


@pytest.mark.parametrize(
    "combiner, outcome",
    [
        (None, "p∪q"),
        (TENSOR_PAIRS, "p⊗q"),
        (pairing("pq"), "pq"),
        ("union", "not a combiner: 'union'"),
        (pairing(), "table combiner returned 0 tokens for a bond property"),
        (pairing("x", "y"), "table combiner returned 2 tokens for a bond property"),
        (Combiner(name="odd", kind="odd"), "unknown combiner kind 'odd'"),
    ],
    ids=["none", "tensor-pairs", "one-token-table", "not-a-combiner", "no-token-table", "two-token-table", "unknown-kind"],
)
def test_combine_tokens_gives_one_token_or_refuses(combiner, outcome):
    try:
        got = combine_tokens(combiner, "p", "q")
    except CombinerUndefined as e:
        got = str(e)
    assert got == outcome
