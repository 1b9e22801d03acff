import json
import random
import re
from enum import IntEnum
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mixed_id_tower, random_tower, reference_check_amalgamation, reference_globalize
from hyperstruct.core import ElementId, Support, add_bond, assign_property, new_hyperstructure
from hyperstruct.document import Document, StatesSection, serialize
from hyperstruct.errors import (
    CoConnectorUndefined,
    ConnectorUndefined,
    InvalidStateTower,
    MissingState,
    NotABond,
    OperationMissing,
    SchemaError,
    UnknownElement,
)
from hyperstruct.installers import from_simplicial_complex
from hyperstruct.states import (
    BROADCAST,
    CONFLICT,
    CoConnector,
    Connector,
    LambdaAssignment,
    PRODUCT,
    SUM,
    UNASSIGNED,
    UNION_FOLD,
    SpaceOp,
    check_amalgamation,
    check_tensor_pairing,
    globalize,
    localize,
    state_tower,
    validate_lambda,
)
from hyperstruct.topology import Sieve, Site, all_sieves_on, make_site, maximal_topology

FULL_TRIANGLE = [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]]

# hand-folded expectations for the dimension toy: 2*2 per edge, then 4*4*4
EDGE_STATE = 4
TOP_STATE = 64


def graded_triangle():
    return from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=True)


def saturating_powers_of_two():
    """{1..64} powers plus an absorbing overflow 0; total, associative, unital."""
    tokens = frozenset({1, 2, 4, 8, 16, 32, 64, 0})

    def times(a, b):
        if a == 0 or b == 0:
            return 0
        p = a * b
        return p if p <= 64 else 0

    return SpaceOp(unit=1, table={(a, b): times(a, b) for a in tokens for b in tokens}), tokens


class TestStateTower:
    def test_valid_op_accepted(self):
        op, tokens = saturating_powers_of_two()
        t = state_tower([tokens, tokens], [op, None])
        assert t.ops[0] is op and t.ops[1] is None

    def test_non_total_rejected(self):
        bad = SpaceOp(unit="e", table={("e", "e"): "e"})
        with pytest.raises(InvalidStateTower):
            state_tower([frozenset({"e", "x"})], [bad])

    def test_non_associative_rejected(self):
        toks = frozenset({"e", "a", "b"})
        table = {}
        for x in toks:
            table[("e", x)] = x
            table[(x, "e")] = x
        # a*a = b, a*b = a, b*a = e, b*b = a: (a*a)*a = b*a = e, a*(a*a) = a*b = a
        table.update({("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "e", ("b", "b"): "a"})
        with pytest.raises(InvalidStateTower):
            state_tower([toks], [SpaceOp(unit="e", table=table)])

    def test_unit_law_rejected(self):
        toks = frozenset({"e", "a"})
        table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "e", ("a", "a"): "a"}
        with pytest.raises(InvalidStateTower):
            state_tower([toks], [SpaceOp(unit="e", table=table)])


V0, E01 = ElementId(0, "v0"), ElementId(1, "{v0,v1}")


class TestRefusals:
    """The state types' own guards, on values only a library caller can build."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: SpaceOp(unit=1, table={(1, 1): 1}).apply(1, 2), OperationMissing, "operation undefined at (1, 2)"),
            (lambda: state_tower([{1}, {2}], [None]), InvalidStateTower, "2 spaces but 1 operations"),
            (lambda: Connector(kind="mean").apply([1]), ConnectorUndefined, "unknown connector kind 'mean'"),
            (lambda: CoConnector(kind="split").apply(1, E01, V0), CoConnectorUndefined, "unknown co-connector kind 'split'"),
            (lambda: globalize(graded_triangle(), {E01: 2}, [PRODUCT, PRODUCT]), UnknownElement, "1:{v0,v1} is not a level-0 element"),
        ],
        ids=["operation-undefined", "ops-for-other-spaces", "connector-kind", "co-connector-kind", "base-key-at-level-1"],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_ops_default_to_none(self):
        assert state_tower([{1}, {2}]).ops == (None, None)

    def test_get_past_the_last_level_is_the_default(self):
        assert LambdaAssignment(per_level=({V0: 1},)).get(E01, "none") == "none"


class TestGlobalize:
    def test_dimension_toy(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        assert all(v == EDGE_STATE for v in lam.per_level[1].values())
        assert list(lam.per_level[2].values()) == [TOP_STATE]

    def test_union_over_one_point_space(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": "s", "v1": "s", "v2": "s"}, [UNION_FOLD, UNION_FOLD])
        for level in lam.per_level:
            assert set(level.values()) == {"s"}

    def test_identity_bond_coerces_singleton(self):
        h = new_hyperstructure(["a"])
        from hyperstruct.core import identity_bond

        h, ia = identity_bond(h, 0, h.element(0, "a"))
        lam = globalize(h, {"a": 7}, [SUM])
        assert lam.per_level[1][ia] == 7

    def test_missing_base_state(self):
        t = graded_triangle()
        with pytest.raises(MissingState, match="^base state missing for 0:v2$"):
            globalize(t, {"v0": 2, "v1": 2}, [PRODUCT, PRODUCT])
        # three keys, but two name one element: the first element without a state is named
        with pytest.raises(MissingState, match="^base state missing for 0:v0$"):
            globalize(t, {"v1": 2, t.element(0, "v1"): 2, "v2": 2}, [PRODUCT, PRODUCT])

    def test_table_connector_missing_entry_names_bond(self):
        t = graded_triangle()
        delta = Connector(kind="table", table={(2, 2): 4})
        with pytest.raises(ConnectorUndefined) as exc:
            globalize(t, {"v0": 2, "v1": 2, "v2": 3}, [delta, delta])
        assert "bond" in str(exc.value)

    def test_connector_error_names_the_bond(self):
        t = graded_triangle()
        with pytest.raises(ConnectorUndefined) as exc:
            globalize(t, {"v0": 2, "v1": "x", "v2": 3}, [SUM, SUM])
        assert str(exc.value) == "sum connector needs integer states, got 'x' at bond 1:{v0,v1}"
        with pytest.raises(ConnectorUndefined) as exc:
            SUM.apply([2, "x"])
        assert str(exc.value) == "sum connector needs integer states, got 'x'"
        # every value is checked before any is folded: the first bad one in input order is named, a bool included
        for connector, values, bad in ((SUM, [1, "b", "a", 2.5, False], "'b'"), (PRODUCT, [1, True, 2], "True")):
            with pytest.raises(ConnectorUndefined) as exc:
                connector.apply(values, at=ElementId(1, "e"))
            assert str(exc.value) == f"{connector.kind} connector needs integer states, got {bad} at bond 1:e"

    def test_int_enum_states_fold_as_ints(self):
        class Weight(IntEnum):
            LOW = 2
            HIGH = 5

        assert SUM.apply([Weight.LOW, Weight.HIGH, 3]) == 10
        assert PRODUCT.apply([Weight.LOW, Weight.HIGH, 3]) == 30
        assert type(SUM.apply([Weight.HIGH])) is int
        assert type(PRODUCT.apply([Weight.HIGH])) is int

    def test_permutation_invariance(self):
        rng = random.Random(6)
        for _ in range(10):
            h = random_tower(rng, max_order=2, max_per_level=6)
            base = {e: rng.randint(1, 3) for e in h.elements(0)}
            lam1 = globalize(h, base, [PRODUCT] * h.order)
            shuffled = dict(reversed(list(base.items())))
            lam2 = globalize(h, shuffled, [PRODUCT] * h.order)
            assert lam1 == lam2


class TestGlobalizeMatchesSortedFold:
    """globalize folds each boundary in stored order and re-reads it sorted
    only on a fault, so every connector kind must raise what a sorted fold raises."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_bad_values_and_missing_states(self, seed, data):
        rng = random.Random(seed)
        h = random_tower(rng, max_order=3, max_per_level=8) if seed % 2 else mixed_id_tower(rng)
        # an element above level 0 without its bond record has no state, so the bonds over it miss one
        dropped = data.draw(st.sets(st.sampled_from([b.id for b in h.bonds] or [None]), max_size=2))
        h = h._replace(bonds=tuple(b for b in h.bonds if b.id not in dropped))
        value = st.one_of(st.integers(-3, 5), st.sampled_from(["s", "t", True, False, 2.5, None]))
        bad = data.draw(st.floats(0, 1))
        base = {e.id: data.draw(value) if data.draw(st.floats(0, 1)) < bad else 1 for e in h.elements(0)}
        table = Connector(kind="table", table={(1,): 1, (1, 1): 2})
        for connector in (SUM, PRODUCT, UNION_FOLD, table):
            connectors = [connector] * h.order
            got = _outcome(lambda: globalize(h, base, connectors))
            assert got == _outcome(lambda: reference_globalize(h, base, connectors))

    def test_the_first_sorted_bad_value_is_named(self):
        h = new_hyperstructure(["a", "b", "c", "d"])
        h = assign_property(h, 0, Support.of(h.elements(0)), "p")
        h, _ = add_bond(h, 0, Support.of(h.elements(0)), "p", "e")
        for connector in (SUM, PRODUCT):
            with pytest.raises(ConnectorUndefined) as exc:
                globalize(h, {"a": 1, "b": 2, "c": "z", "d": "y"}, [connector])
            assert str(exc.value) == f"{connector.kind} connector needs integer states, got 'z' at bond 1:e"


class TestAmalgamation:
    def test_globalize_output_passes_maximal_site(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        site = make_site(t, maximal_topology(t))
        rep = check_amalgamation(site, lam, [PRODUCT, PRODUCT])
        assert rep.passed
        assert any("levelwise" in n for n in rep.notes)
        rep = check_amalgamation(site, lam, [PRODUCT])
        assert [(f.code, f.message) for f in rep.findings] == [("shape", "need 2 connectors, got 1")]

    def test_perturbed_top_bond_is_witnessed(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        top = t.element(2, "{v0,v1,v2}")
        levels = list(lam.per_level)
        levels[2] = {top: 63}
        bad = LambdaAssignment(per_level=tuple(levels))
        site = make_site(t, maximal_topology(t))
        rep = check_amalgamation(site, bad, [PRODUCT, PRODUCT])
        assert not rep.passed
        assert any("{v0,v1,v2}" in f.message for f in rep.findings)

    def test_regression_over_random_sites(self):
        rng = random.Random(77)
        for _ in range(15):
            h = random_tower(rng, max_order=3, max_per_level=8)
            base = {e: rng.randint(1, 3) for e in h.elements(0)}
            for delta in (PRODUCT, SUM, UNION_FOLD):
                lam = globalize(h, base, [delta] * h.order)
                site = make_site(h, maximal_topology(h))
                assert check_amalgamation(site, lam, [delta] * h.order).passed

    def test_partitioned_family_checked_stagewise(self):
        # two disjoint edges under one spanning bond: the family of the two
        # edge bonds partitions the top boundary
        h = new_hyperstructure(["a", "b", "c", "d"])
        sab, scd = h.support_at(0, ["a", "b"]), h.support_at(0, ["c", "d"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, scd, "p")
        h, e1 = add_bond(h, 0, sab, "p", "e1")
        h, e2 = add_bond(h, 0, scd, "p", "e2")
        s2 = Support.of([e1, e2])
        h = assign_property(h, 1, s2, "q")
        h, top = add_bond(h, 1, s2, "q", "top")
        lam = globalize(h, {"a": 2, "b": 3, "c": 5, "d": 7}, [PRODUCT, PRODUCT])
        site = make_site(h, maximal_topology(h))
        assert check_amalgamation(site, lam, [PRODUCT, PRODUCT]).passed
        assert lam.per_level[2][top] == (2 * 3) * (5 * 7)

    def test_each_bond_costs_one_fold_on_a_maximal_site(self, monkeypatch):
        # a bond's maximal sieve is its one covering family, whose flat recompute is the one
        # fold; where the bond alone is the family, its stagewise fold is that value unchanged
        calls = []
        apply = Connector.apply
        monkeypatch.setattr(Connector, "apply", lambda self, values, at=None: calls.append(at) or apply(self, values, at))
        rng = random.Random(5)
        for h in [graded_triangle(), *(random_tower(rng, max_order=3, max_per_level=8) for _ in range(10))]:
            for delta in (PRODUCT, SUM, UNION_FOLD):
                lam = globalize(h, {e: rng.randint(1, 3) for e in h.elements(0)}, [delta] * h.order)
                site = make_site(h, maximal_topology(h))
                calls.clear()
                assert check_amalgamation(site, lam, [delta] * h.order).passed
                assert sorted(calls) == sorted(b.id for b in h.bonds)
        # a wrong state is still witnessed by both the flat and the stagewise recompute
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        top = t.element(2, "{v0,v1,v2}")
        bad = LambdaAssignment(per_level=(*lam.per_level[:2], {top: 63}))
        calls.clear()
        rep = check_amalgamation(make_site(t, maximal_topology(t)), bad, [PRODUCT, PRODUCT])
        assert len(calls) == 4
        sieve = "Sieve(2:{v0,v1,v2}: {{v0,v1,v2}})"
        assert [f.message for f in rep.findings] == [
            f"bond 2:{{v0,v1,v2}}: family {sieve} recomputes 64 != 63",
            f"bond 2:{{v0,v1,v2}}: stagewise fold over {sieve} gives 64 != 63",
        ]

    def test_element_without_bond_record_refused_like_make_site(self):
        # a level-1 element with no bond record has no place in the refinement
        # order, so a site cannot be made on it and a hand-built one is refused
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        levels = list(t.levels)
        levels[1] = levels[1] | {ElementId(1, "ghost")}
        h = t._replace(levels=tuple(levels))
        with pytest.raises(NotABond):
            make_site(h, maximal_topology(t))
        with pytest.raises(NotABond):
            check_amalgamation(Site(h=h, topology=maximal_topology(t)), lam, [PRODUCT, PRODUCT])


def _outcome(render):
    """Rendered text (or any result), or the error raised: both sides must raise the same first error."""
    try:
        return render()
    except (ConnectorUndefined, MissingState, KeyError, TypeError) as e:  # TypeError: a table key sorting a marker
        return type(e).__name__, str(e)


# odd count of "a" gives "a"; covers every sorted multiset of up to 4 tokens, but not "c"
PARITY = Connector(
    kind="table",
    table={ms: "a" if ms.count("a") % 2 else "b" for n in range(1, 5) for ms in combinations_with_replacement("ab", n)},
)


class TestAmalgamationMatchesReference:
    """Descent on support masks reports what the frozenset walk reports, byte for byte."""

    @staticmethod
    def assert_matches(h, rng):
        if h.order == 0:
            return
        # J(e): a random set of sieves on e, from none to all of them
        topo = {}
        for level in range(h.order + 1):
            for e in h.elements(level):
                sieves = all_sieves_on(h, e)
                topo[e] = frozenset(sieves if rng.random() < 0.5 else rng.sample(sieves, rng.randint(0, min(3, len(sieves)))))
        site = Site(h=h, topology=topo)
        for delta, tokens in ((SUM, (1, 2, 3)), (PRODUCT, (1, 2, 3)), (PARITY, ("a", "b"))):
            connectors = [delta] * h.order
            lam = globalize(h, {e: rng.choice(tokens) for e in h.elements(0)}, connectors)
            levels = [dict(level) for level in lam.per_level]
            for _ in range(rng.randint(0, 3)):  # tamper with a few states, now and then breaking the connector
                level = levels[rng.randrange(len(levels))]
                e = rng.choice(sorted(level, key=lambda x: x.key))
                level[e] = rng.choice([*tokens, "c", UNASSIGNED])
            if rng.random() < 0.3:  # drop a lower state: KeyError, once a covering family reads it
                level = levels[rng.randrange(len(levels) - 1)]
                if level:
                    del level[rng.choice(sorted(level, key=lambda x: x.key))]
            tampered = LambdaAssignment(per_level=tuple(levels))
            want = _outcome(lambda: reference_check_amalgamation(site, tampered, connectors))
            assert _outcome(lambda: check_amalgamation(site, tampered, connectors).render()) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(random_tower(rng, max_order=3, max_per_level=8), rng)

    def test_members_outside_the_level(self):
        # a bond of another level keeps its family from covering; a level-0
        # element is no bond and drops out of the family
        t = graded_triangle()
        connectors = [SUM, SUM]
        lam = globalize(t, {"v0": 1, "v1": 2, "v2": 3}, connectors)
        top = t.element(2, "{v0,v1,v2}")
        e01 = t.element(1, "{v0,v1}")
        j = maximal_topology(t)
        j[top] = j[top] | {Sieve(top, frozenset({top, e01}))}
        j[e01] = j[e01] | {Sieve(e01, frozenset({e01, t.element(0, "v0")}))}
        levels = [dict(level) for level in lam.per_level]
        levels[1][e01] = 7
        levels[2][top] = 9
        site, tampered = Site(h=t, topology=j), LambdaAssignment(per_level=tuple(levels))
        got = check_amalgamation(site, tampered, connectors).render()
        assert got == reference_check_amalgamation(site, tampered, connectors)
        assert "family Sieve(1:{v0,v1}: {v0,{v0,v1}}) recomputes" in got
        assert "{{v0,v1},{v0,v1,v2}}" not in got

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mixed_id_towers(self, seed):
        rng = random.Random(seed)
        self.assert_matches(mixed_id_tower(rng), rng)

    def test_missing_lower_state_raises_only_where_read(self):
        t = graded_triangle()
        connectors = [SUM, SUM]
        lam = globalize(t, {"v0": 1, "v1": 2, "v2": 3}, connectors)
        top, e01 = t.element(2, "{v0,v1,v2}"), t.element(1, "{v0,v1}")
        levels = [dict(level) for level in lam.per_level]
        del levels[1][e01]
        tampered = LambdaAssignment(per_level=tuple(levels))
        # no family covers the top bond, so e01's missing state is only a totality finding
        j = maximal_topology(t)
        j[top] = frozenset()
        site = Site(h=t, topology=j)
        got = check_amalgamation(site, tampered, connectors).render()
        assert got == reference_check_amalgamation(site, tampered, connectors)
        assert f"no state for {e01!r}" in got
        # the top bond's maximal sieve covers it and reads e01's state
        site = Site(h=t, topology=maximal_topology(t))
        with pytest.raises(KeyError) as err:
            reference_check_amalgamation(site, tampered, connectors)
        with pytest.raises(KeyError) as got_err:
            check_amalgamation(site, tampered, connectors)
        assert got_err.value.args == err.value.args == (e01,)


class TestStatesSectionOrder:
    """The states-section writer lists pairs in ElementId.key order and refuses other keys."""

    def test_mixed_str_int_level_lists_ints_first(self):
        h = new_hyperstructure([2, "a", 10, "b"])
        base = {ElementId(0, "b"): 1, ElementId(0, 2): 2, ElementId(0, "a"): 3, ElementId(0, 10): 4}
        text = serialize(Document(hyperstructure=h, states=StatesSection(base=base)))
        assert json.loads(text)["states"]["base"] == [[2, 2], [10, 4], ["a", 3], ["b", 1]]

    @pytest.mark.parametrize("base, kind", [({"a": 1}, "str"), ({ElementId(0, "a"): 1, (0, "b"): 2}, "tuple")])
    def test_a_key_that_is_not_an_element_id_is_refused(self, base, kind):
        h = new_hyperstructure([2, "a", 10, "b"])
        with pytest.raises(SchemaError, match=f"^states are keyed by elements, got {kind} "):
            serialize(Document(hyperstructure=h, states=StatesSection(base=base)))

    def test_a_key_without_an_int_level_is_refused(self):
        # None cannot be sorted against 0; the key is refused before the sort is tried
        h = new_hyperstructure([2, "a", 10, "b"])
        base = {ElementId(None, "a"): 1, ElementId(0, "b"): 2}
        with pytest.raises(SchemaError, match="^levels, k and the order must be integers, got None$"):
            serialize(Document(hyperstructure=h, states=StatesSection(base=base)))


class TestTensorPairing:
    def test_dimension_toy_numbers(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        op, tokens = saturating_powers_of_two()
        tower = state_tower([tokens] * 3, [op] * 3)
        assert check_tensor_pairing(t, tower, lam, 1).passed
        assert check_tensor_pairing(t, tower, lam, 2).passed

    def test_hand_violation_witnessed(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        op, tokens = saturating_powers_of_two()
        tower = state_tower([tokens] * 3, [op] * 3)
        levels = list(lam.per_level)
        e01 = t.element(1, "{v0,v1}")
        levels[1] = dict(levels[1])
        levels[1][e01] = 8
        bad = LambdaAssignment(per_level=tuple(levels))
        rep = check_tensor_pairing(t, tower, bad, 1)
        assert not rep.passed
        assert any("{v0,v1}" in f.message for f in rep.findings)

    def test_operation_missing(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        op, tokens = saturating_powers_of_two()
        tower = state_tower([tokens] * 3, [None, None, None])
        with pytest.raises(OperationMissing):
            check_tensor_pairing(t, tower, lam, 1)

    def test_level_0_has_nothing_to_pair(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        rep = check_tensor_pairing(t, state_tower([frozenset()] * 3), lam, 0)
        assert rep.passed and rep.notes == ("level 0 has no boundaries",)


class TestValidateLambda:
    def test_codomain_discipline(self):
        t = graded_triangle()
        lam = globalize(t, {"v0": 2, "v1": 2, "v2": 2}, [PRODUCT, PRODUCT])
        op, tokens = saturating_powers_of_two()
        tower = state_tower([tokens] * 3, [op] * 3)
        assert validate_lambda(t, tower, lam).passed
        narrow = state_tower([frozenset({64}), frozenset({4}), frozenset({2})], [None] * 3)
        assert validate_lambda(t, narrow, lam).passed
        wrong = state_tower([frozenset({1}), frozenset({4}), frozenset({2})], [None] * 3)
        rep = validate_lambda(t, wrong, lam)
        assert not rep.passed and "codomain" in rep.codes

    def test_assignment_of_another_order_is_a_shape_finding(self):
        t = graded_triangle()
        tower = state_tower([frozenset({1})] * 3)
        assert validate_lambda(t, tower, LambdaAssignment(per_level=({},))).lines() == [
            "lambda-codomains: FAIL",
            "shape: 1 assignment levels for an order-2 tower",
        ]

    def test_markers_lie_in_every_space(self):
        h = new_hyperstructure(["a", "b", "lonely"])
        sab = h.support_at(0, ["a", "b"])
        h, e1 = add_bond(assign_property(h, 0, sab, "p"), 0, sab, "p", "e1")
        lam = localize(h, {e1: "s"}, [BROADCAST])
        assert lam.per_level[0][h.element(0, "lonely")] is UNASSIGNED
        assert validate_lambda(h, state_tower([frozenset({"s"})] * 2), lam).passed


class TestLocalize:
    def test_broadcast_reaches_everything(self):
        t = graded_triangle()
        top = t.element(2, "{v0,v1,v2}")
        lam = localize(t, {top: "g"}, [BROADCAST, BROADCAST])
        for level in lam.per_level:
            assert set(level.values()) == {"g"}

    def test_two_disjoint_regions(self):
        h = new_hyperstructure(["a", "b", "c", "d"])
        sab, scd = h.support_at(0, ["a", "b"]), h.support_at(0, ["c", "d"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, scd, "p")
        h, e1 = add_bond(h, 0, sab, "p", "e1")
        h, e2 = add_bond(h, 0, scd, "p", "e2")
        lam = localize(h, {e1: "left", e2: "right"}, [BROADCAST])
        assert lam.per_level[0][h.element(0, "a")] == "left"
        assert lam.per_level[0][h.element(0, "d")] == "right"

    def test_missing_top_state_is_named(self):
        h = new_hyperstructure(["a", "b", "c"])
        for raw in ("e2", "e1", "e3"):
            s = h.support_at(0, ["a", "b", "c"])
            h = assign_property(h, 0, s, "p")
            h, _ = add_bond(h, 0, s, "p", raw)
        with pytest.raises(MissingState, match="^top state missing for 1:e1$"):
            localize(h, {"e2": "s", h.element(1, "e2"): "s", "e3": "t"}, [BROADCAST])

    def test_unreachable_marked(self):
        h = new_hyperstructure(["a", "b", "lonely"])
        sab = h.support_at(0, ["a", "b"])
        h = assign_property(h, 0, sab, "p")
        h, e1 = add_bond(h, 0, sab, "p", "e1")
        lam = localize(h, {e1: "s"}, [BROADCAST])
        assert lam.per_level[0][h.element(0, "lonely")] is UNASSIGNED

    def test_conflicting_parents_marked(self):
        h = new_hyperstructure(["a", "b", "c"])
        sab, sbc = h.support_at(0, ["a", "b"]), h.support_at(0, ["b", "c"])
        h = assign_property(h, 0, sab, "p")
        h = assign_property(h, 0, sbc, "p")
        h, e1 = add_bond(h, 0, sab, "p", "e1")
        h, e2 = add_bond(h, 0, sbc, "p", "e2")
        lam = localize(h, {e1: "left", e2: "right"}, [BROADCAST])
        assert lam.per_level[0][h.element(0, "b")] is CONFLICT

    def test_per_child_table_and_missing_entry(self):
        h = new_hyperstructure(["a", "b"])
        sab = h.support_at(0, ["a", "b"])
        h = assign_property(h, 0, sab, "p")
        h, e1 = add_bond(h, 0, sab, "p", "e1")
        a, b = h.element(0, "a"), h.element(0, "b")
        co = CoConnector(kind="per_child", table={(e1, a): "for-a", (e1, b): "for-b"})
        lam = localize(h, {e1: "s"}, [co])
        assert lam.per_level[0][a] == "for-a"
        co_partial = CoConnector(kind="per_child", table={(e1, a): "for-a"})
        with pytest.raises(CoConnectorUndefined):
            localize(h, {e1: "s"}, [co_partial])

    def test_round_trip_on_partitioned_tower(self):
        # boundaries partition, connector/co-connector tables invert each other
        h = new_hyperstructure(["a", "b"])
        sa, sb = h.support_at(0, ["a"]), h.support_at(0, ["b"])
        h = assign_property(h, 0, sa, "p")
        h = assign_property(h, 0, sb, "p")
        h, ea = add_bond(h, 0, sa, "p", "ea")
        h, eb = add_bond(h, 0, sb, "p", "eb")
        up = Connector(kind="table", table={(1,): 10, (2,): 20})
        down = CoConnector(kind="table", table={10: 1, 20: 2})
        base = {"a": 1, "b": 2}
        lam_up = globalize(h, base, [up])
        lam_down = localize(h, {ea: lam_up.per_level[1][ea], eb: lam_up.per_level[1][eb]}, [down])
        for raw, want in base.items():
            assert lam_down.per_level[0][h.element(0, raw)] == want
