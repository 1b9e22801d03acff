import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_pullback_holds, oracle_pushout_holds
from hyperstruct.assignments import (
    Combiner,
    DISJOINT_UNION,
    InducedMaps,
    TENSOR_PAIRS,
    UNION,
    check_pullback,
    check_pushout,
    check_tensor,
    combine_phi,
    emergent,
    pair_token,
    pushout_classes,
)
from hyperstruct.core import ElementId, Support, new_hyperstructure
from hyperstruct.errors import CombinerUndefined, MissingInducedMap, MixedLevels, NotDisjoint

BASE = new_hyperstructure(["a", "b", "c"])
EMPTY = Support.empty(0)


def sup(*ids):
    return BASE.support_at(0, ids)


def element_set_omega():
    """omega(S) = the raw ids of S, with inclusion-induced identity maps."""
    omega = {EMPTY: frozenset()}
    supports = [EMPTY]
    for r in range(1, 4):
        for c in combinations("abc", r):
            s = sup(*c)
            omega[s] = frozenset(c)
            supports.append(s)
    maps = {}
    for a in supports:
        for b in supports:
            if a.issubset(b) and a != b:
                maps[(a, b)] = {t: t for t in omega[a]}
    return omega, InducedMaps("covariant", maps)


class TestCheckPushout:
    def test_element_sets_always_push_out(self):
        omega, maps = element_set_omega()
        for c1 in combinations("abc", 2):
            for c2 in combinations("abc", 2):
                assert check_pushout(omega, maps, sup(*c1), sup(*c2)).passed

    def test_skill_union_gains_a_joint_product(self):
        omega = {
            sup("a"): frozenset({"a-skill"}),
            sup("b"): frozenset({"b-skill"}),
            EMPTY: frozenset(),
            sup("a", "b"): frozenset({"a-skill", "b-skill", "joint-product"}),
        }
        maps = InducedMaps(
            "covariant",
            {
                (EMPTY, sup("a")): {},
                (EMPTY, sup("b")): {},
                (EMPTY, sup("a", "b")): {},
                (sup("a"), sup("a", "b")): {"a-skill": "a-skill"},
                (sup("b"), sup("a", "b")): {"b-skill": "b-skill"},
            },
        )
        rep = check_pushout(omega, maps, sup("a"), sup("b"))
        assert not rep.passed
        assert any("joint-product" in f.message and "no preimage" in f.message for f in rep.findings)

    def test_equal_supports_always_pass(self):
        omega, maps = element_set_omega()
        s = sup("a", "b")
        assert check_pushout(omega, maps, s, s).passed

    def test_missing_map(self):
        omega = {sup("a"): frozenset({"t"}), sup("b"): frozenset({"u"}), EMPTY: frozenset(), sup("a", "b"): frozenset({"t", "u"})}
        maps = InducedMaps("covariant", {})
        with pytest.raises(MissingInducedMap):
            check_pushout(omega, maps, sup("a"), sup("b"))

    def test_stray_codomain_rejected(self):
        omega = {
            sup("a"): frozenset({"t"}),
            sup("b"): frozenset({"u"}),
            EMPTY: frozenset({"z"}),
            sup("a", "b"): frozenset({"t", "u"}),
        }
        maps = InducedMaps(
            "covariant",
            {
                (EMPTY, sup("a")): {"z": "not-a-token"},
                (EMPTY, sup("b")): {"z": "u"},
                (EMPTY, sup("a", "b")): {"z": "t"},
                (sup("a"), sup("a", "b")): {"t": "t"},
                (sup("b"), sup("a", "b")): {"u": "u"},
            },
        )
        with pytest.raises(MissingInducedMap, match="outside"):
            check_pushout(omega, maps, sup("a"), sup("b"))

    def test_comparison_map_leaving_the_union(self):
        omega = {sup("a"): frozenset({"t"}), sup("b"): frozenset({"u"}), sup("a", "b"): frozenset({"t", "u"})}
        maps = InducedMaps(
            "covariant",
            {(EMPTY, sup("a")): {}, (EMPTY, sup("b")): {}, (sup("a"), sup("a", "b")): {"t": "stray"}, (sup("b"), sup("a", "b")): {"u": "u"}},
        )
        assert check_pushout(omega, maps, sup("a"), sup("b")).lines() == [
            "pushout: FAIL",
            "note: pushout size 2, union size 2",
            "no-preimage: token 't' at the union has no preimage in the pushout",
            "outside-union: comparison map hits 'stray' outside the union's tokens",
        ]


class TestCheckPullback:
    def test_constant_omega(self):
        star = frozenset({"*"})
        omega = {s: star for s in (sup("a"), sup("b"), sup("a", "b"))}
        omega[EMPTY] = star
        supports = [EMPTY, sup("a"), sup("b"), sup("a", "b")]
        maps = InducedMaps(
            "contravariant",
            {(x, y): {"*": "*"} for x in supports for y in supports if x.issubset(y) and x != y},
        )
        assert check_pullback(omega, maps, sup("a"), sup("b")).passed

    def test_collective_skills_fail(self):
        omega = {
            sup("a"): frozenset({"team1"}),
            sup("b"): frozenset({"team2"}),
            EMPTY: frozenset({"basic"}),
            sup("a", "b"): frozenset({"team1", "team2", "mega"}),
        }
        maps = InducedMaps(
            "contravariant",
            {
                (EMPTY, sup("a")): {"team1": "basic"},
                (EMPTY, sup("b")): {"team2": "basic"},
                (EMPTY, sup("a", "b")): {t: "basic" for t in ("team1", "team2", "mega")},
                (sup("a"), sup("a", "b")): {t: "team1" for t in ("team1", "team2", "mega")},
                (sup("b"), sup("a", "b")): {t: "team2" for t in ("team1", "team2", "mega")},
            },
        )
        rep = check_pullback(omega, maps, sup("a"), sup("b"))
        assert not rep.passed

    def test_disjoint_supports_give_product(self):
        # omega(empty) a one-point set makes the pullback a cartesian product
        w1 = frozenset({"x1", "x2"})
        w2 = frozenset({"y1", "y2", "y3"})
        union_tokens = frozenset(f"{x}.{y}" for x in w1 for y in w2)
        omega = {sup("a"): w1, sup("b"): w2, EMPTY: frozenset({"*"}), sup("a", "b"): union_tokens}
        maps = InducedMaps(
            "contravariant",
            {
                (EMPTY, sup("a")): {x: "*" for x in w1},
                (EMPTY, sup("b")): {y: "*" for y in w2},
                (EMPTY, sup("a", "b")): {t: "*" for t in union_tokens},
                (sup("a"), sup("a", "b")): {t: t.split(".")[0] for t in union_tokens},
                (sup("b"), sup("a", "b")): {t: t.split(".")[1] for t in union_tokens},
            },
        )
        assert check_pullback(omega, maps, sup("a"), sup("b")).passed
        # drop one pair and the cardinality breaks
        omega[sup("a", "b")] = union_tokens - {"x1.y1"}
        maps2 = InducedMaps(
            "contravariant",
            {
                **{k: v for k, v in maps.restrictions.items()},
                (sup("a"), sup("a", "b")): {t: t.split(".")[0] for t in omega[sup("a", "b")]},
                (sup("b"), sup("a", "b")): {t: t.split(".")[1] for t in omega[sup("a", "b")]},
                (EMPTY, sup("a", "b")): {t: "*" for t in omega[sup("a", "b")]},
            },
        )
        assert not check_pullback(omega, maps2, sup("a"), sup("b")).passed


def random_pushout_instance(rng):
    sizes = [rng.randint(0, 3) for _ in range(4)]
    w12 = frozenset(f"z{i}" for i in range(sizes[0]))
    w1 = frozenset(f"x{i}" for i in range(sizes[1])) | (w12 if rng.random() < 0.5 else frozenset())
    w2 = frozenset(f"y{i}" for i in range(sizes[2]))
    wu = frozenset(f"u{i}" for i in range(sizes[3]))
    f1 = {z: rng.choice(sorted(w1)) for z in w12} if w1 else None
    f2 = {z: rng.choice(sorted(w2)) for z in w12} if w2 else None
    if w12 and (f1 is None or f2 is None):
        return None
    u1 = {x: rng.choice(sorted(wu)) for x in w1} if (wu or not w1) else None
    u2 = {y: rng.choice(sorted(wu)) for y in w2} if (wu or not w2) else None
    if u1 is None or u2 is None:
        return None
    return w1, w2, w12, f1 or {}, f2 or {}, u1, u2, wu


class TestOracleAgreement:
    def test_pushout_matches_function_enumeration(self):
        rng = random.Random(123)
        checked = 0
        while checked < 60:
            inst = random_pushout_instance(rng)
            if inst is None:
                continue
            w1, w2, w12, f1, f2, u1, u2, wu = inst
            s1, s2 = sup("a"), sup("b")
            omega = {s1: w1, s2: w2, EMPTY: w12, sup("a", "b"): wu}
            maps = InducedMaps(
                "covariant",
                {(EMPTY, s1): f1, (EMPTY, s2): f2, (s1, sup("a", "b")): u1, (s2, sup("a", "b")): u2, (EMPTY, sup("a", "b")): {z: u1[f1[z]] for z in w12}},
            )
            got = check_pushout(omega, maps, s1, s2).passed
            want = oracle_pushout_holds(w1, w2, w12, f1, f2, u1, u2, wu)
            assert got == want, inst
            checked += 1

    def test_pullback_matches_function_enumeration(self):
        rng = random.Random(321)
        checked = 0
        while checked < 60:
            n1, n2, n12, nu = (rng.randint(0, 3) for _ in range(4))
            w1 = frozenset(f"x{i}" for i in range(n1))
            w2 = frozenset(f"y{i}" for i in range(n2))
            w12 = frozenset(f"z{i}" for i in range(max(n12, 1)))
            wu = frozenset(f"u{i}" for i in range(nu))
            r1 = {x: rng.choice(sorted(w12)) for x in w1}
            r2 = {y: rng.choice(sorted(w12)) for y in w2}
            if (w1 and not w12) or (w2 and not w12):
                continue
            p1 = {t: rng.choice(sorted(w1)) for t in wu} if w1 or not wu else None
            p2 = {t: rng.choice(sorted(w2)) for t in wu} if w2 or not wu else None
            if p1 is None or p2 is None:
                continue
            s1, s2 = sup("a"), sup("b")
            omega = {s1: w1, s2: w2, EMPTY: w12, sup("a", "b"): wu}
            maps = InducedMaps(
                "contravariant",
                {(EMPTY, s1): r1, (EMPTY, s2): r2, (s1, sup("a", "b")): p1, (s2, sup("a", "b")): p2, (EMPTY, sup("a", "b")): {t: r1[p1[t]] for t in wu}},
            )
            got = check_pullback(omega, maps, s1, s2).passed
            want = oracle_pullback_holds(w1, w2, w12, r1, r2, p1, p2, wu)
            assert got == want
            checked += 1


class TestCombinePhi:
    def test_union(self):
        assert combine_phi(UNION, {"p"}, {"q"}, frozenset()) == {"p", "q"}

    def test_tensor_pairs(self):
        assert combine_phi(TENSOR_PAIRS, {"p"}, {"q"}, frozenset()) == {"p⊗q"}

    def test_disjoint_union_tags(self):
        assert combine_phi(DISJOINT_UNION, {"p"}, {"p"}, frozenset()) == {"p#1", "p#2"}

    def test_table_combiner(self):
        # a 2x2 pairing table over disjoint supports: the entry decides
        table = {
            (frozenset({a}), frozenset({b}), frozenset()): frozenset({f"{a}.{b}"})
            for a in ("w1", "w1x")
            for b in ("w2", "w2x")
        }
        c = Combiner(name="pairing", kind="table", table=table)
        assert combine_phi(c, {"w1"}, {"w2"}, frozenset()) == {"w1.w2"}
        assert combine_phi(c, {"w1x"}, {"w2x"}, frozenset()) == {"w1x.w2x"}
        with pytest.raises(CombinerUndefined):
            combine_phi(c, {"other"}, {"w2"}, frozenset())

    @settings(max_examples=60, deadline=None)
    @given(
        st.frozensets(st.sampled_from("pqrs"), max_size=4),
        st.frozensets(st.sampled_from("pqrs"), max_size=4),
        st.frozensets(st.sampled_from("pqrs"), max_size=4),
    )
    def test_union_commutative_associative(self, w1, w2, w3):
        assert combine_phi(UNION, w1, w2, frozenset()) == combine_phi(UNION, w2, w1, frozenset())
        left = combine_phi(UNION, combine_phi(UNION, w1, w2, frozenset()), w3, frozenset())
        right = combine_phi(UNION, w1, combine_phi(UNION, w2, w3, frozenset()), frozenset())
        assert left == right


class TestEmergent:
    def test_joint_product_is_emergent(self):
        omega = {
            sup("a"): frozenset({"a-skill"}),
            sup("b"): frozenset({"b-skill"}),
            sup("a", "b"): frozenset({"a-skill", "b-skill", "joint-product"}),
        }
        assert emergent(omega, sup("a"), sup("b"), UNION) == {"joint-product"}

    def test_no_emergence_when_union_is_sum_of_parts(self):
        omega = {
            sup("a"): frozenset({"p"}),
            sup("b"): frozenset({"q"}),
            sup("a", "b"): frozenset({"p", "q"}),
        }
        assert emergent(omega, sup("a"), sup("b"), UNION) == frozenset()

    def test_empty_union_value(self):
        omega = {sup("a"): frozenset({"p"}), sup("b"): frozenset({"q"})}
        assert emergent(omega, sup("a"), sup("b"), UNION) == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(
        st.frozensets(st.sampled_from("pqrs"), max_size=4),
        st.frozensets(st.sampled_from("pqrs"), max_size=4),
    )
    def test_union_combiner_never_invents_emergence(self, w1, w2):
        omega = {sup("a"): w1, sup("b"): w2, sup("a", "b"): w1 | w2}
        assert emergent(omega, sup("a"), sup("b"), UNION) == frozenset()


class TestCheckTensor:
    def test_pair_named_product_passes(self):
        w1 = frozenset({"p", "q"})
        w2 = frozenset({"x", "y", "z"})
        omega = {
            sup("a"): w1,
            sup("b"): w2,
            sup("a", "b"): frozenset(pair_token(a, b) for a in w1 for b in w2),
        }
        rep = check_tensor(omega, sup("a"), sup("b"))
        assert rep.passed

    def test_cardinality_mismatch(self):
        w1 = frozenset({"p", "q"})
        w2 = frozenset({"x", "y", "z"})
        tokens = sorted(pair_token(a, b) for a in w1 for b in w2)[:5]
        omega = {sup("a"): w1, sup("b"): w2, sup("a", "b"): frozenset(tokens)}
        rep = check_tensor(omega, sup("a"), sup("b"))
        assert not rep.passed and "cardinality" in rep.codes

    def test_empty_factor(self):
        omega = {sup("a"): frozenset(), sup("b"): frozenset({"x"}), sup("a", "b"): frozenset()}
        assert check_tensor(omega, sup("a"), sup("b")).passed
        omega[sup("a", "b")] = frozenset({"ghost"})
        assert not check_tensor(omega, sup("a"), sup("b")).passed

    def test_overlapping_supports_rejected(self):
        with pytest.raises(NotDisjoint):
            check_tensor({}, sup("a", "b"), sup("b", "c"))


AT_LEVEL_1 = Support(1, frozenset({ElementId(1, "x")}))
AB = sup("a", "b")
ONE_TOKEN = {sup("a"): frozenset({"t"}), sup("b"): frozenset({"u"}), EMPTY: frozenset({"z"}), AB: frozenset({"t", "u"})}
ONE_TOKEN_MAPS = {(EMPTY, sup("a")): {"z": "t"}, (EMPTY, sup("b")): {"z": "u"}, (sup("a"), AB): {"t": "t"}, (sup("b"), AB): {"u": "u"}}


def one_token_pushout(inclusion: tuple, table: dict):
    """check_pushout of {a} and {b} over ONE_TOKEN, the map along one inclusion replaced by table."""
    return check_pushout(ONE_TOKEN, InducedMaps("covariant", {**ONE_TOKEN_MAPS, inclusion: table}), sup("a"), sup("b"))


class TestRefusals:
    """Each refusal of the assignment checks, raised with its message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: check_pushout({}, InducedMaps("contravariant", {}), sup("a"), sup("b")), MissingInducedMap, "pushout checks need covariant maps"),
            (lambda: check_pullback({}, InducedMaps("covariant", {}), sup("a"), sup("b")), MissingInducedMap, "pullback checks need contravariant maps"),
            (lambda: check_pushout({}, InducedMaps("covariant", {}), sup("a"), AT_LEVEL_1), MixedLevels, "intersection across levels"),
            (lambda: check_pullback({}, InducedMaps("contravariant", {}), sup("a"), AT_LEVEL_1), MixedLevels, "intersection across levels"),
            (lambda: check_tensor({}, sup("a"), AT_LEVEL_1), MixedLevels, "union across levels"),
            (lambda: emergent({}, sup("a"), AT_LEVEL_1, UNION), MixedLevels, "union across levels"),
            (lambda: one_token_pushout((EMPTY, sup("a")), {}), MissingInducedMap, "induced map for {} ⊆ {a} undefined at 'z'"),
            (lambda: one_token_pushout((sup("a"), AB), {}), MissingInducedMap, "induced map for {a} ⊆ {a,b} undefined at 't'"),
            (lambda: pushout_classes({"t"}, {"u"}, {"z"}, {"z": "t"}, {}), MissingInducedMap, "overlap token 'z' missing from an induced map"),
            (lambda: combine_phi(Combiner(name="pairing", kind="table"), {"p"}, {"q"}, frozenset()), CombinerUndefined, "combiner 'pairing' has no table"),
            (lambda: combine_phi(Combiner(name="odd", kind="odd"), {"p"}, {"q"}, frozenset()), CombinerUndefined, "unknown combiner kind 'odd'"),
        ],
        ids=[
            "pushout-variance",
            "pullback-variance",
            "pushout-across-levels",
            "pullback-across-levels",
            "tensor-across-levels",
            "emergent-across-levels",
            "overlap-map-not-total",
            "union-map-not-total",
            "pushout-classes-map-not-total",
            "table-combiner-without-table",
            "unknown-combiner-kind",
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
