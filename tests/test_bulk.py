"""The bulk constructor, the one-bond operations built on it and the per-level
indexes, against bond-by-bond references."""
import random
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    PROPS,
    chain_add_bonds,
    chain_brunnian_tower,
    chain_from_hypergraph,
    chain_from_relation,
    chain_from_simplicial_complex,
    naive_brunnian_order,
    random_tower,
    reference_add_bond,
    reference_compose,
    reference_compose_cross,
    reference_fuse,
    reference_identity_bond,
)
from hyperstruct.assignments import TENSOR_PAIRS
from hyperstruct.composition import _pad_to_order, compose, compose_cross, fuse
from hyperstruct.core import (
    BondSpec,
    ElementId,
    IDENTITY_PROPERTY,
    Support,
    add_bond,
    add_bonds,
    identity_bond,
    new_hyperstructure,
    sorted_elements,
)
from hyperstruct.document import Document, serialize
from hyperstruct.errors import DuplicateId, HyperstructError, PropertyNotAssigned, SchemaError, UnknownElement
from hyperstruct.installers import (
    brunnian_bond_ids,
    brunnian_order,
    from_hypergraph,
    from_relation,
    from_simplicial_complex,
    make_brunnian_tower,
)

# 1 and "1" share the canonical name {1}, so edges over them collide
RAW = st.one_of(st.integers(0, 4), st.sampled_from(["0", "1", "2", "a", "b"]))


def outcome(build, *args):
    """The tower and its document, or the error class the build raised."""
    try:
        h = build(*args)
    except HyperstructError as e:
        return type(e), None
    return h, serialize(Document(hyperstructure=h))


@st.composite
def hypergraphs(draw):
    vs = draw(st.lists(RAW, min_size=1, max_size=7, unique=True))
    edges = draw(st.lists(st.lists(st.sampled_from(vs), min_size=1, max_size=4), max_size=12))
    return vs, edges


@st.composite
def relations(draw):
    comps = draw(st.lists(st.lists(RAW, min_size=1, max_size=3), min_size=1, max_size=3))
    tuples = draw(st.lists(st.tuples(*(st.sampled_from(c) for c in comps)), max_size=8))
    return comps, tuples


@st.composite
def complexes(draw):
    vs = draw(st.lists(RAW, min_size=1, max_size=6, unique=True))
    tops = draw(st.lists(st.lists(st.sampled_from(vs), min_size=1, max_size=4, unique=True), max_size=4))
    closed = {frozenset({v}) for v in vs}
    for top in tops:
        closed |= {frozenset(c) for k in range(1, len(top) + 1) for c in combinations(top, k)}
    return vs, [list(s) for s in closed], draw(st.booleans())


@st.composite
def spec_lists(draw):
    """Specs over a small base, mostly valid; about one in three carries a fault.

    Specs often keep the level of the one before, so add_bonds sees runs at
    one level, and a later run may step back down. Some lists are given as
    a generator that raises after `cut` specs.
    """
    base = ["a", "b", "c", 1]
    order = draw(st.integers(0, 2))
    known = [[ElementId(0, r) for r in base]] + [[] for _ in range(order)]
    specs = []
    for n in range(draw(st.integers(0, 10))):
        levels = [i for i, elems in enumerate(known) if elems]
        if specs and specs[-1].level in levels and draw(st.booleans()):
            level = specs[-1].level
        else:
            level = draw(st.sampled_from(levels))
        members = set(draw(st.lists(st.sampled_from(known[level]), min_size=1, max_size=3)))
        raw = draw(st.sampled_from([f"n{n}", f"n{n}", "x", 1, "1"]))
        identity = draw(st.integers(0, 5)) == 0
        token = IDENTITY_PROPERTY if identity else draw(st.sampled_from(["p", "q"]))
        support_level = level
        fault = draw(st.sampled_from([None] * 12 + ["ghost", "other-level", "empty", "level", "support-level", "reserved", "dup"]))
        if fault == "ghost":
            members.add(ElementId(level, "ghost"))
        elif fault == "other-level":  # an existing element, but not at the support's level
            members.add(draw(st.sampled_from([e for elems in known for e in elems])))
        elif fault == "empty":
            members = set()
        elif fault == "level":
            level = draw(st.sampled_from([-1, len(known)]))
        elif fault == "support-level":
            support_level = level + 1
        elif fault == "reserved":
            token, identity = IDENTITY_PROPERTY, False
        elif fault == "dup" and specs:
            raw = specs[-1].raw_id
            level = specs[-1].level
            members = set(specs[-1].support.members)
        elif fault is None and level in (0, 1) and draw(st.integers(0, 5)) == 0:
            level = bool(level)  # a valid spec whose level is False or True
        specs.append(BondSpec(level, Support(support_level, frozenset(members)), token, raw, identity))
        if fault is None:
            if level + 1 == len(known):
                known.append([])
            known[level + 1].append(ElementId(level + 1, raw))
    cut = draw(st.integers(0, len(specs))) if draw(st.integers(0, 3)) == 0 else None
    return base, specs, order, cut


def spec_source(specs, cut):
    """specs as a list, or as a generator that raises SchemaError after the first cut of them."""
    if cut is None:
        return list(specs)

    def generate():
        yield from specs[:cut]
        raise SchemaError(f"cut after {cut} specs")

    return generate()


def error(build, *args):
    """The error's class and message, or None when the build succeeds."""
    try:
        build(*args)
    except HyperstructError as e:
        return type(e), str(e)
    return None


def one_spec_at_a_time(h, specs, order):
    """add_bonds of each spec alone, in order: every spec is checked against the tower before it."""
    h = add_bonds(h, [], order)
    for spec in specs:
        h = add_bonds(h, [spec])
    return h


class TestAddBondsMatchesChain:
    @settings(max_examples=200, deadline=None)
    @given(spec_lists())
    def test_same_tower_or_same_error(self, case):
        base, specs, order, cut = case
        h = new_hyperstructure(base)
        assert outcome(add_bonds, h, spec_source(specs, cut), order) == outcome(chain_add_bonds, h, spec_source(specs, cut), order)
        # the message too: a run bound at once names the fault that binding its specs one by one names
        assert error(add_bonds, h, spec_source(specs, cut), order) == error(one_spec_at_a_time, h, spec_source(specs, cut), order)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.lists(st.sampled_from(["p", "q"]), min_size=1, max_size=6))
    def test_extends_a_built_tower(self, seed, tokens):
        h = random_tower(random.Random(seed))
        top = sorted_elements(h.levels[h.order])
        assume(top)
        specs = [BondSpec(h.order, Support(h.order, frozenset(top[: k + 1])), t, f"n{k}") for k, t in enumerate(tokens)]
        assert add_bonds(h, specs) == chain_add_bonds(h, specs)

    def test_equal_canonical_names_still_collide(self):
        with pytest.raises(DuplicateId, match=re.escape("element '{1}' already present at level 1")):
            from_hypergraph([1, "1"], [[1], ["1"]])

    def test_a_fault_before_a_generator_error_is_named_first(self):
        # from_relation's spec generator raises ArityMismatch at ("b",), after the repeated tuple
        with pytest.raises(DuplicateId, match=re.escape("element '(a,x)' already present at level 1")):
            from_relation([["a", "b"], ["x"]], [["a", "x"], ["a", "x"], ["b"]])


def result(build, *args):
    """The tower's document and the element returned, or the error's class and message."""
    try:
        h, eid = build(*args)
    except HyperstructError as e:
        return type(e), str(e)
    return serialize(Document(hyperstructure=h)), eid


def _raw_ids(h, level):
    return [e.id for e in sorted_elements(h.levels[level])] if 0 <= level <= h.order else []


@st.composite
def add_bond_cases(draw):
    """A random tower and one add_bond call on it, breaking up to two rules."""
    h = random_tower(random.Random(draw(st.integers(0, 2**31))))
    everything = sorted_elements(e for lvl in h.levels for e in lvl)
    if h.bonds and draw(st.integers(0, 3)):  # mostly a support that already carries tokens
        b = draw(st.sampled_from(h.bonds))
        i, members = b.support.level, set(b.support.members)
    else:
        i = draw(st.integers(0, h.order))
        members = set(draw(st.lists(st.sampled_from(sorted_elements(h.levels[i])), min_size=1, max_size=3)))
    s_level = i
    assigned = sorted(h.omegas[i].get(Support(i, frozenset(members)), ()))
    token = draw(st.sampled_from(assigned or PROPS))
    raw = draw(st.sampled_from(["new", 7, "b0_0", "b1_0"]))  # random_tower names its bonds b<level>_<j>
    for fault in draw(st.lists(st.sampled_from(["level", "support-level", "empty", "foreign", "ghost", "reserved", "unassigned", "repeat"]), max_size=2)):
        if fault == "level":
            i = draw(st.sampled_from([-1, h.order + 1]))
        elif fault == "support-level":
            s_level = i + draw(st.sampled_from([-1, 1]))
        elif fault == "empty":
            members = set()
        elif fault == "foreign":  # a member of the tower, but at another level
            members.add(draw(st.sampled_from(everything)))
        elif fault == "ghost":
            members.add(ElementId(i, "ghost"))
        elif fault == "reserved":
            token = IDENTITY_PROPERTY
        elif fault == "unassigned":
            token = "never-assigned"
        elif fault == "repeat" and _raw_ids(h, i + 1):
            raw = draw(st.sampled_from(_raw_ids(h, i + 1)))
    return h, i, Support(s_level, frozenset(members)), token, raw


class TestOneBondOperationsMatchReference:
    """add_bond, identity_bond, compose, compose_cross and fuse build through
    add_bonds; the references in helpers add one bond the slow way."""

    @settings(max_examples=300, deadline=None)
    @given(add_bond_cases())
    def test_add_bond(self, case):
        assert result(add_bond, *case) == result(reference_add_bond, *case)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31), st.data())
    def test_identity_bond(self, seed, data):
        h = random_tower(random.Random(seed))
        everything = sorted_elements(e for lvl in h.levels for e in lvl)
        x = data.draw(st.sampled_from(everything + [ElementId(0, "ghost")]))
        i = data.draw(st.sampled_from([x.level] * 4 + [x.level + 1, -1]))
        name = f"{IDENTITY_PROPERTY}:{x.id}"
        setup = data.draw(st.sampled_from(["none", "name taken", "lifted"]))
        if h.has_element(x) and not h.has_element(ElementId(x.level + 1, name)) and setup == "name taken":
            # a plain bond takes the name x's identity bond would get
            h = add_bonds(h, [BondSpec(x.level, Support(x.level, frozenset({x})), "p", name)])
        elif h.has_element(x) and setup == "lifted":
            # x has an identity bond already, which identity_bond must return rather than add again
            h, _ = reference_identity_bond(h, x.level, x)
        assert result(identity_bond, h, i, x) == result(reference_identity_bond, h, i, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.data())
    def test_compose(self, seed, data):
        h = random_tower(random.Random(seed), max_order=4)
        assume(h.bonds)
        a, b = (data.draw(st.sampled_from(h.bonds)).id for _ in range(2))
        p = data.draw(st.integers(-1, max(a.level, b.level)))
        mode = data.draw(st.sampled_from(["strict", "weak"]))
        combiner = data.draw(st.sampled_from([None, TENSOR_PAIRS]))
        raw = data.draw(st.sampled_from([None, "c"] + _raw_ids(h, a.level)))
        args = (h, a, b, p, mode, combiner, raw)
        assert result(compose, *args) == result(reference_compose, *args)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.data())
    def test_compose_cross_and_fuse(self, seed, data):
        h = random_tower(random.Random(seed), max_order=4)
        assume(h.bonds)
        a, b = (data.draw(st.sampled_from(h.bonds)).id for _ in range(2))
        low, high = sorted((a, b), key=lambda e: e.level)
        setup = data.draw(st.sampled_from(["none", "lift id taken", "partly lifted"])) if low.level < high.level else "none"
        if setup == "lift id taken":
            # a plain bond takes the id that the lift of the lower operand would get at some level
            j = data.draw(st.integers(low.level, high.level - 1))
            name = f"{IDENTITY_PROPERTY}:" * (j - low.level + 1) + str(low.id)
            x = low if j == low.level else data.draw(st.sampled_from(sorted_elements(h.levels[j])))
            if not h.has_element(ElementId(j + 1, name)):
                h = add_bonds(h, [BondSpec(j, Support(j, frozenset({x})), "p", name)])
        elif setup == "partly lifted":
            # identity bonds the tower already has carry the lift part of the way or all of it
            x = low
            for _ in range(data.draw(st.integers(1, high.level - low.level))):
                h, x = reference_identity_bond(h, x.level, x)
        p = data.draw(st.integers(-1, high.level))
        mode = data.draw(st.sampled_from(["strict", "weak"]))
        combiner = data.draw(st.sampled_from([None, TENSOR_PAIRS, "sum"]))
        raw = data.draw(st.sampled_from([None, "c"] + _raw_ids(h, high.level)))
        args = (h, a, b, p, mode, combiner, raw)
        assert result(compose_cross, *args) == result(reference_compose_cross, *args)
        args = (h, a, b, p, combiner, raw)
        assert result(fuse, *args) == result(reference_fuse, *args)

    @pytest.mark.parametrize(
        "fault, kind, message",
        [
            ("repeated id", PropertyNotAssigned, "'never-assigned' not assigned to {a,b} at level 0"),
            ("foreign member", UnknownElement, "support member 0:ghost not in the tower"),
        ],
    )
    def test_unassigned_token_with_a_second_fault(self, fault, kind, message):
        h = add_bonds(new_hyperstructure(["a", "b"]), [BondSpec(0, Support(0, frozenset({ElementId(0, "a")})), "p", "e")])
        members = {ElementId(0, "a"), ElementId(0, "b")} | ({ElementId(0, "ghost")} if fault == "foreign member" else set())
        args = (h, 0, Support(0, frozenset(members)), "never-assigned", "e")
        assert result(add_bond, *args) == result(reference_add_bond, *args) == (kind, message)


class TestInstallersMatchChain:
    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_hypergraph(self, case):
        assert outcome(from_hypergraph, *case) == outcome(chain_from_hypergraph, *case)

    @settings(max_examples=150, deadline=None)
    @given(relations())
    def test_relation(self, case):
        assert outcome(from_relation, *case) == outcome(chain_from_relation, *case)

    @settings(max_examples=150, deadline=None)
    @given(complexes())
    def test_simplicial_flat_and_graded(self, case):
        assert outcome(from_simplicial_complex, *case) == outcome(chain_from_simplicial_complex, *case)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    def test_brunnian_branching(self, branching):
        assert outcome(make_brunnian_tower, branching) == outcome(chain_brunnian_tower, branching)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2))
    def test_padding_matches_identity_bonds(self, seed, extra):
        h = random_tower(random.Random(seed))
        ref = h
        while ref.order < h.order + extra:
            top = ref.order
            for e in sorted_elements(ref.levels[top]):
                ref, _ = reference_identity_bond(ref, top, e)
            if ref.order == top:
                ref = chain_add_bonds(ref, [], top + 1)
        assert _pad_to_order(h, h.order + extra) == ref


class TestLevelIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_matches_naive_scan(self, seed):
        h = random_tower(random.Random(seed))
        shuffled = list(h.bonds)
        random.Random(seed).shuffle(shuffled)
        for t in (h, h._replace(bonds=tuple(shuffled))):
            for i in range(t.order + 1):
                scan = [b for b in t.bonds if b.id.level == i]
                assert t.bonds_at(i) == sorted(scan, key=lambda b: b.key)
                assert t.supports_by_level.get(i, frozenset()) == {b.support.members for b in scan}


class TestBrunnianOrder:
    @settings(max_examples=100, deadline=None)
    @given(hypergraphs())
    def test_hypergraph_matches_naive(self, case):
        try:
            h = from_hypergraph(*case)
        except DuplicateId:
            return
        assert brunnian_order(h) == naive_brunnian_order(h)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_tower_matches_naive(self, seed):
        h = random_tower(random.Random(seed), max_order=4)
        found = brunnian_bond_ids(h)
        assert brunnian_order(h) == brunnian_order(h, found) == naive_brunnian_order(h)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    def test_brunnian_tower_matches_naive(self, branching):
        h = make_brunnian_tower(branching)
        assert brunnian_order(h) == naive_brunnian_order(h) == len(branching)
