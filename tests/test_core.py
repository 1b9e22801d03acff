import os
import random
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_iterated_boundary, random_tower
from hyperstruct.core import (
    IDENTITY_PROPERTY,
    Bond,
    BondSpec,
    ElementId,
    Support,
    _check_spec,
    add_bond,
    add_bonds,
    assign_property,
    boundary,
    gamma,
    identity_bond,
    iterated_boundary,
    new_hyperstructure,
    sorted_elements,
    validate,
)
from hyperstruct.errors import (
    DuplicateId,
    EmptyBase,
    EmptySupport,
    LevelOutOfRange,
    MixedLevels,
    NotABond,
    PropertyNotAssigned,
    ReservedProperty,
    UnknownElement,
)
from hyperstruct import core
from hyperstruct.installers import from_hypergraph, from_simplicial_complex, make_brunnian_tower

FULL_TRIANGLE = [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]]


def build_linked_pair():
    h = new_hyperstructure(["a", "b"])
    s = h.support_at(0, ["a", "b"])
    h = assign_property(h, 0, s, "linked")
    return h, s


class TestConstruction:
    def test_minimal_tower(self):
        h = new_hyperstructure(["a", "b"])
        assert h.order == 0
        assert {e.id for e in h.elements(0)} == {"a", "b"}
        assert not h.bonds

    def test_three_elements(self):
        assert len(new_hyperstructure(["v0", "v1", "v2"]).elements(0)) == 3

    def test_empty_base_rejected(self):
        with pytest.raises(EmptyBase):
            new_hyperstructure([])

    def test_duplicate_base_rejected(self):
        with pytest.raises(DuplicateId):
            new_hyperstructure(["a", "a"])

    @pytest.mark.parametrize("level", [-1, 1, 99])
    @pytest.mark.parametrize("ids", [[], ["a"]])
    def test_support_at_checks_the_level_first(self, level, ids):
        # an empty support used to come back at any level
        with pytest.raises(LevelOutOfRange, match=f"level {level} outside 0..0"):
            new_hyperstructure(["a", "b"]).support_at(level, ids)


A0, A1 = ElementId(0, "a"), ElementId(1, "a")


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda h: Support.of([]), EmptySupport, "cannot infer a level for an empty support"),
            (lambda h: Support.of([A0, A1]), MixedLevels, "support members span levels [0, 1]"),
            (lambda h: Support.of([A0]).union(Support.of([A1])), MixedLevels, "union across levels"),
            (lambda h: Support.of([A0]).intersection(Support.of([A1])), MixedLevels, "intersection across levels"),
            (lambda h: h.element(0, "z"), UnknownElement, "no element 'z' at level 0"),
            (lambda h: h.bond(A1), UnknownElement, "no element 1:a"),
            (lambda h: iterated_boundary(h, A1, 0), UnknownElement, "no element 1:a"),
        ],
        ids=["empty-support", "support-across-levels", "union-across-levels", "intersection-across-levels", "element", "bond", "iterated-boundary"],
    )
    def test_refused(self, call, error, message):
        h, _ = build_linked_pair()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(h)


class TestAssignProperty:
    def test_adds_token(self):
        h, s = build_linked_pair()
        assert "linked" in h.omega(0, s)

    def test_idempotent(self):
        h, s = build_linked_pair()
        assert assign_property(h, 0, s, "linked") == h

    def test_unknown_element(self):
        h = new_hyperstructure(["a"])
        with pytest.raises(UnknownElement):
            assign_property(h, 0, Support.of([ElementId(0, "z")]), "w")

    def test_level_out_of_range(self):
        h, s = build_linked_pair()
        with pytest.raises(LevelOutOfRange):
            assign_property(h, 3, s, "w")

    def test_reserved_token_rejected(self):
        h, s = build_linked_pair()
        with pytest.raises(ReservedProperty):
            assign_property(h, 0, s, "id")


class TestAddBond:
    def test_bond_registers_and_grows(self):
        h, s = build_linked_pair()
        h, e1 = add_bond(h, 0, s, "linked", "e1")
        assert h.order == 1
        assert e1 == ElementId(1, "e1")
        assert boundary(h, e1).members == s.members

    def test_singleton_support_is_legal(self):
        h = new_hyperstructure(["a"])
        s = h.support_at(0, ["a"])
        h = assign_property(h, 0, s, "self")
        h, e = add_bond(h, 0, s, "self", "loop")
        assert boundary(h, e).raw_ids() == ["a"]

    def test_property_must_be_assigned(self):
        h, s = build_linked_pair()
        with pytest.raises(PropertyNotAssigned):
            add_bond(h, 0, s, "nope", "e1")

    def test_duplicate_bond_id(self):
        h, s = build_linked_pair()
        h, _ = add_bond(h, 0, s, "linked", "e1")
        h = assign_property(h, 0, s, "other")
        with pytest.raises(DuplicateId):
            add_bond(h, 0, s, "other", "e1")

    def test_empty_support_rejected(self):
        h, _ = build_linked_pair()
        with pytest.raises(EmptySupport):
            add_bond(h, 0, Support.empty(0), "linked", "e1")



@st.composite
def faulty_specs(draw):
    """A spec for the tower below that may break several of _check_spec's rules at once."""
    level = draw(st.integers(-1, 3))
    support_level = draw(st.sampled_from([level, level, 0, 1, 5]))
    pool = [ElementId(0, r) for r in ("a", "b", 1, "ghost", 7)] + [ElementId(1, r) for r in ("e", "ghost")] + [ElementId(4, "x")]
    members = frozenset(draw(st.lists(st.sampled_from(pool), max_size=4)))
    token = draw(st.sampled_from(["p", IDENTITY_PROPERTY]))
    return BondSpec(level, Support(support_level, members), token, draw(st.sampled_from(["new", "e", 3])), draw(st.booleans()))


def two_level_tower():
    h = new_hyperstructure(["a", "b", 1])
    return add_bonds(h, [BondSpec(0, Support.of([ElementId(0, "a"), ElementId(0, 1)]), "p", "e")])


def _outcome(fn, *args):
    try:
        fn(*args)
        return None
    except Exception as e:  # the comparison covers whatever either side raises
        return (type(e), str(e))


class TestAddBondsChecks:
    @settings(max_examples=300, deadline=None)
    @given(faulty_specs())
    def test_the_fault_is_the_one_check_spec_names(self, spec):
        # add_bonds accepts a spec after one subset test and asks _check_spec only to name a fault
        h = two_level_tower()
        want = _outcome(_check_spec, [set(level) for level in h.levels], spec.level, spec.support, spec.token, spec.identity)
        got = _outcome(add_bonds, h, [spec])
        if want is None:
            assert got is None or got[0] is DuplicateId
        else:
            assert got == want

    def test_a_stray_member_is_named_in_sorted_order_whatever_the_hash_seed(self):
        # 0:x, 0:y and 0:z all miss from the tower; _check_spec and assign_property name the first
        # in sorted_elements order, and so does iterated_boundary for the level-1 elements of a
        # triangle whose bond records were dropped
        root = Path(__file__).resolve().parent.parent
        code = (
            "from hyperstruct.core import ElementId, Support, add_bond, assign_property, iterated_boundary, new_hyperstructure\n"
            "from hyperstruct.document import parse\n"
            "def show(f, *args):\n"
            "    try:\n"
            "        f(*args)\n"
            "    except Exception as e:\n"
            "        print(type(e).__name__, e)\n"
            "h = new_hyperstructure(['a'])\n"
            "stray = Support(0, frozenset(ElementId(0, r) for r in 'xyz'))\n"
            "show(add_bond, h, 0, stray, 'p', 'b')\n"
            "show(assign_property, h, 0, stray, 'p')\n"
            f"t = parse(open({str(root / 'corpus' / 'graded_triangle_site.json')!r}).read()).hyperstructure\n"
            "t = t._replace(bonds=tuple(b for b in t.bonds if b.id.level != 1))\n"
            "show(iterated_boundary, t, t.element(2, '{v0,v1,v2}'), 0)\n"
        )
        src = str(root / "src")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            runs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60).stdout)
        want = b"UnknownElement support member 0:x not in the tower\n" * 2 + b"NotABond 1:{v0,v1} has no bond record\n"
        assert runs == [want] * 2

    def test_check_spec_runs_only_for_a_refused_run(self, monkeypatch):
        """A run that passes the whole-run check never asks _check_spec; a
        refused one asks it spec by spec up to the first fault."""
        calls = []
        monkeypatch.setattr(core, "_check_spec", lambda *args: calls.append(args) or _check_spec(*args))
        rng = random.Random(7)
        vertices = [f"v{j}" for j in range(200)]
        edges = set()
        while len(edges) < 400:
            edges.add(frozenset(rng.sample(vertices, rng.randint(2, 4))))
        h = from_hypergraph(vertices, sorted(map(sorted, edges)))
        assert len(h.bonds) == 400
        make_brunnian_tower([3, 3])
        assert calls == []
        h = new_hyperstructure(["a", "b", "c"])
        specs = [BondSpec(0, h.support_at(0, [r]), "p", f"e{r}") for r in "abc"]
        specs[2] = specs[2]._replace(support=Support(0, frozenset()))
        specs.append(BondSpec(0, h.support_at(0, ["a"]), "p", "ea"))  # a second fault, after the first
        with pytest.raises(EmptySupport, match="a bond must bind a nonempty support"):
            add_bonds(h, specs)
        assert len(calls) <= 3


class TestIdentityBond:
    def test_boundary_is_singleton(self):
        h = new_hyperstructure(["a", "b"])
        a = h.element(0, "a")
        h, ia = identity_bond(h, 0, a)
        assert boundary(h, ia).members == frozenset({a})

    def test_idempotent_per_element(self):
        h = new_hyperstructure(["a"])
        h, i1 = identity_bond(h, 0, h.element(0, "a"))
        h2, i2 = identity_bond(h, 0, h.element(0, "a"))
        assert i1 == i2 and h2 == h

    def test_unknown_element(self):
        h = new_hyperstructure(["a"])
        with pytest.raises(UnknownElement):
            identity_bond(h, 0, ElementId(0, "z"))

    def test_exhaustive_identity_law(self):
        # every element of a random tower keeps the singleton law
        rng = random.Random(7)
        h = random_tower(rng)
        for i in range(h.order + 1):
            for x in sorted(h.elements(i), key=lambda e: e.key):
                h2, ix = identity_bond(h, i, x)
                assert boundary(h2, ix).members == frozenset({x})


class TestBoundary:
    def test_level0_has_no_boundary(self):
        h = new_hyperstructure(["a"])
        with pytest.raises(NotABond):
            boundary(h, h.element(0, "a"))

    def test_iterated_boundary_identity_case(self):
        h, s = build_linked_pair()
        h, e1 = add_bond(h, 0, s, "linked", "e1")
        assert iterated_boundary(h, e1, 1).members == frozenset({e1})

    def test_graded_triangle_unfolds_to_vertices(self):
        t = from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=True)
        top = t.element(2, "{v0,v1,v2}")
        assert iterated_boundary(t, top, 0).raw_ids() == ["v0", "v1", "v2"]

    def test_two_level_union_of_supports(self):
        h = new_hyperstructure(["a", "b", "c"])
        sab = h.support_at(0, ["a", "b"])
        sbc = h.support_at(0, ["b", "c"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, sbc, "p")
        h, b1 = add_bond(h, 0, sab, "p", "b1")
        h, b1p = add_bond(h, 0, sbc, "p", "b1x")
        s2 = Support.of([b1, b1p])
        h = assign_property(h, 1, s2, "q")
        h, b2 = add_bond(h, 1, s2, "q", "b2")
        assert iterated_boundary(h, b2, 0).raw_ids() == ["a", "b", "c"]

    def test_out_of_range(self):
        h, s = build_linked_pair()
        h, e1 = add_bond(h, 0, s, "linked", "e1")
        with pytest.raises(LevelOutOfRange):
            iterated_boundary(h, e1, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_matches_naive_recursion(self, seed):
        h = random_tower(random.Random(seed), max_order=3, max_per_level=12)
        for i in range(1, h.order + 1):
            for b in h.bonds_at(i):
                for p in range(0, i + 1):
                    got = iterated_boundary(h, b.id, p).members
                    assert got == naive_iterated_boundary(h, b.id, p)


class TestGamma:
    def test_empty(self):
        h = new_hyperstructure(["a"])
        assert gamma(h, 0) == ()

    def test_two_tokens_one_support(self):
        h = new_hyperstructure(["a", "b"])
        s = h.support_at(0, ["a", "b"])
        h = assign_property(h, 0, s, "p")
        h = assign_property(h, 0, s, "q")
        assert gamma(h, 0) == ((s, "p"), (s, "q"))

    def test_cardinality_is_token_total(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_tower(rng)
            for i in range(h.order + 1):
                expected = sum(len(tokens) for tokens in h.omegas[i].values())
                assert len(gamma(h, i)) == expected


# -- validator and mutation harness -------------------------------------------------

MUTATIONS = ["dangling-support", "duplicate-bond", "property-not-assigned", "identity-law", "non-bond-element"]
#: Faults only a tower built by hand can have, not a parsed document; a kind
#: named code/variant is one of several ways to break that code's class.
HAND_BUILT_MUTATIONS = [
    "malformed-tower",
    "level-mismatch/bond-binds-its-own-level",
    "level-mismatch/record-not-listed",
    "level-mismatch/element-at-another-level",
    "level-mismatch/omega-key-at-another-level",
    "dangling-support/omega",
]


def ensure_mutable(h):
    """Guarantee a plain bond over two base elements so every class applies."""
    if len(h.elements(0)) < 2:
        levels = list(h.levels)
        levels[0] = levels[0] | {ElementId(0, "m0"), ElementId(0, "m1")}
        h = h._replace(levels=tuple(levels))
    base = sorted(h.elements(0), key=lambda e: e.key)
    s = Support.of(base[:2])
    h = assign_property(h, 0, s, "mut")
    h, _ = add_bond(h, 0, s, "mut", "mutation-target")
    return h


def plain_bonds(h):
    return [b for b in h.bonds if not b.identity]


def inject(h, kind: str, rng: random.Random):
    """Break exactly one invariant class; returns the mutated tower."""
    target = rng.choice(plain_bonds(h))
    if kind == "dangling-support":
        ghost = ElementId(target.support.level, "ghost!")
        bad = Bond(target.id, Support(target.support.level, target.support.members | {ghost}), target.property)
        return h._replace(bonds=tuple(bad if b is target else b for b in h.bonds))
    if kind == "duplicate-bond":
        pool = sorted(h.elements(target.support.level), key=lambda e: e.key)
        other = Support(target.support.level, target.support.members | frozenset(pool[-1:]))
        if other.members == target.support.members:
            other = Support(target.support.level, frozenset(pool[:1]))
        extra = Bond(target.id, other, target.property)
        h2 = h._replace(bonds=h.bonds + (extra,))
        table = dict(h2.omegas[other.level])
        table[other] = table.get(other, frozenset()) | {target.property}
        tables = list(h2.omegas)
        tables[other.level] = table
        return h2._replace(omegas=tuple(tables))
    if kind == "property-not-assigned":
        bad = Bond(target.id, target.support, "never-assigned")
        return h._replace(bonds=tuple(bad if b is target else b for b in h.bonds))
    if kind == "identity-law":
        victim = next(b for b in h.bonds if not b.identity and len(b.support.members) >= 2)
        bad = Bond(victim.id, victim.support, victim.property, identity=True)
        return h._replace(bonds=tuple(bad if b is victim else b for b in h.bonds))
    if kind == "non-bond-element":
        lvl = target.id.level
        levels = list(h.levels)
        levels[lvl] = levels[lvl] | {ElementId(lvl, "orphan!")}
        return h._replace(levels=tuple(levels))
    if kind == "malformed-tower":
        return h._replace(omegas=h.omegas[:-1])
    if kind == "level-mismatch/bond-binds-its-own-level":
        bad = Bond(target.id, Support(target.id.level, frozenset({target.id})), target.property)
        return h._replace(bonds=tuple(bad if b is target else b for b in h.bonds))
    if kind == "level-mismatch/record-not-listed":
        return h._replace(bonds=h.bonds + (target._replace(id=ElementId(target.id.level, "unlisted!")),))
    if kind == "level-mismatch/element-at-another-level":
        return h._replace(levels=(h.levels[0] | {target.id},) + h.levels[1:])
    tables = list(h.omegas)
    if kind == "level-mismatch/omega-key-at-another-level":
        tables[0] = {**tables[0], Support(target.id.level, frozenset({target.id})): frozenset({"mut"})}
    elif kind == "dangling-support/omega":
        tables[0] = {**tables[0], Support(0, frozenset({ElementId(0, "ghost!")})): frozenset({"mut"})}
    else:
        raise AssertionError(kind)
    return h._replace(omegas=tuple(tables))


class TestValidate:
    def test_constructed_towers_are_valid(self):
        rng = random.Random(3)
        for _ in range(25):
            assert validate(random_tower(rng)).passed

    def test_bond_binding_two_collections(self):
        h, s = build_linked_pair()
        h, e1 = add_bond(h, 0, s, "linked", "e1")
        sa = Support.of([h.element(0, "a")])
        h2 = h._replace(bonds=h.bonds + (Bond(e1, sa, "linked"),))
        rep = validate(h2)
        assert not rep.passed
        assert any("binds two collections" in f.message for f in rep.findings)

    @pytest.mark.parametrize("kind", MUTATIONS + HAND_BUILT_MUTATIONS)
    def test_mutations_detected_exactly(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()))
        for _ in range(20):
            h = ensure_mutable(random_tower(rng, max_order=2, max_per_level=8))
            mutated = inject(h, kind, rng)
            rep = validate(mutated)
            assert rep.codes == {kind.split("/")[0]}, (kind, rep.lines())


class TestImmutability:
    def test_operations_share_nothing_observable(self):
        h, s = build_linked_pair()
        h2, e1 = add_bond(h, 0, s, "linked", "e1")
        assert h.order == 0 and not h.bonds
        assert h2.order == 1
        h3 = assign_property(h2, 0, s, "second")
        assert "second" not in h2.omega(0, s)
        assert "second" in h3.omega(0, s)


@st.composite
def element_lists(draw):
    """ElementIds over up to four levels, each level's ids all str, all int, or mixed; repeats allowed."""
    ids = {
        "str": st.text(alphabet="ab1", max_size=2),
        "int": st.integers(-3, 12),
        "mixed": st.one_of(st.text(alphabet="ab1", max_size=2), st.integers(-3, 12)),
    }
    out = []
    for level in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(ids)))
        out += [ElementId(level, r) for r in draw(st.lists(ids[kind], max_size=8))]
    return draw(st.permutations(out))


class TestSortedElements:
    @settings(max_examples=200, deadline=None)
    @given(element_lists())
    def test_tuple_order_is_key_order(self, xs):
        want = sorted(xs, key=lambda e: e.key)
        assert sorted_elements(xs) == want
        assert sorted_elements(iter(xs)) == want  # the fallback sorts what the first sort read

    def test_a_level_mixing_str_and_int_ids_puts_ints_first(self):
        xs = [ElementId(1, "b"), ElementId(0, "a"), ElementId(1, 10), ElementId(0, 2), ElementId(1, "a"), ElementId(1, 9)]
        assert [repr(e) for e in sorted_elements(xs)] == ["0:2", "0:a", "1:9", "1:10", "1:a", "1:b"]
