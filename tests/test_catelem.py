import pickle
import random
import re
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bit_columns_as_rows,
    gf2_matmul,
    naive_boundary_rows,
    naive_category_ok,
    naive_composable_pairs,
    naive_gf2_rank,
    naive_hom,
    naive_nerve_dims,
    reference_checked_sections,
    reference_nerve,
)
from hyperstruct.catelem import (
    FiniteCategory,
    _is_lawful,
    _is_order,
    Morphism,
    Presheaf,
    SimplicialData,
    betti_gf2,
    boundary_category,
    boundary_matrix,
    build_level,
    category_of_elements,
    discrete_category,
    finite_category,
    gf2_rank,
    nerve,
    poset_category,
    projection_functor,
    refinement_category,
    terminal_presheaf,
    validate_presheaf,
)
from hyperstruct import catelem
from hyperstruct.errors import HyperstructError, InconsistentComplex, InvalidCategory, InvalidPresheaf, SweepTooLarge
from hyperstruct.installers import from_simplicial_complex

ARROW = poset_category([0, 1], lambda a, b: a <= b)
SQUARE = poset_category(["00", "01", "10", "11"], lambda a, b: all(x <= y for x, y in zip(a, b)))


def random_poset_category(rng, max_objects=5):
    n = rng.randint(1, max_objects)
    rel = {(i, i) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel.add((i, j))
    closed = set(rel)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return poset_category(list(range(n)), lambda a, b: (a, b) in closed)


def representable_sum_presheaf(cat, rng, max_summands=3):
    """A disjoint union of representables: P(x) = {i : x <= c_i}."""
    objs = sorted(cat.objects, key=str)
    picks = [rng.choice(objs) for _ in range(rng.randint(1, max_summands))]
    on_objects = {
        x: frozenset(i for i, c in enumerate(picks) if cat.hom(x, c))
        for x in objs
    }
    on_morphisms = {}
    for m in cat.morphisms:
        on_morphisms[m.id] = {i: i for i in on_objects[m.tgt]}
    return Presheaf(on_objects=on_objects, on_morphisms=on_morphisms)


class TestFiniteCategory:
    def test_load_checks_identity_law(self):
        objs = ["x"]
        mors = [Morphism("idx", "x", "x"), Morphism("f", "x", "x")]
        comp = {("idx", "idx"): "idx", ("idx", "f"): "f", ("f", "idx"): "idx", ("f", "f"): "idx"}
        with pytest.raises(InvalidCategory):
            finite_category(objs, mors, {"x": "idx"}, comp)

    def test_load_checks_associativity(self):
        # f*f = g, f*g = idx, g*f = idx, g*g = f would be Z/3; break one entry
        objs = ["x"]
        mors = [Morphism("idx", "x", "x"), Morphism("f", "x", "x"), Morphism("g", "x", "x")]
        comp = {}
        for a in ("idx", "f", "g"):
            comp[("idx", a)] = a
            comp[(a, "idx")] = a
        comp.update({("f", "f"): "g", ("f", "g"): "idx", ("g", "f"): "idx", ("g", "g"): "idx"})
        with pytest.raises(InvalidCategory):
            finite_category(objs, mors, {"x": "idx"}, comp)

    def test_missing_composite(self):
        objs = [0, 1, 2]
        mors = [Morphism((i, i), i, i) for i in objs] + [Morphism((0, 1), 0, 1), Morphism((1, 2), 1, 2)]
        identities = {i: (i, i) for i in objs}
        comp = {}
        for g in mors:
            for f in mors:
                if f.tgt == g.src and not (f.src == 0 and g.tgt == 2):
                    comp[(g.id, f.id)] = (f.src, g.tgt) if f.src != g.tgt else (f.src, f.src)
        with pytest.raises(InvalidCategory):
            finite_category(objs, mors, identities, comp)


def _parallel_arrows():
    """x with identity ix, y with identity iy, and two arrows f, g: x -> y."""
    mors = [Morphism("ix", "x", "x"), Morphism("iy", "y", "y"), Morphism("f", "x", "y"), Morphism("g", "x", "y")]
    comp = {("ix", "ix"): "ix", ("iy", "iy"): "iy"}
    for a in ("f", "g"):
        comp[(a, "ix")] = a
        comp[("iy", a)] = a
    return ["x", "y"], mors, {"x": "ix", "y": "iy"}, comp


def _two_bracketings():
    """w -a-> x -b-> y -c-> z, where c(ba) = p and (cb)a = q are different arrows."""
    arrows = {"a": ("w", "x"), "b": ("x", "y"), "c": ("y", "z"), "ba": ("w", "y"), "cb": ("x", "z"), "p": ("w", "z"), "q": ("w", "z")}
    objs = ["w", "x", "y", "z"]
    mors = [Morphism(f"1{o}", o, o) for o in objs] + [Morphism(m, src, tgt) for m, (src, tgt) in arrows.items()]
    comp = {(f"1{o}", f"1{o}"): f"1{o}" for o in objs}
    for m, (src, tgt) in arrows.items():
        comp[(m, f"1{src}")] = m
        comp[(f"1{tgt}", m)] = m
    comp.update({("b", "a"): "ba", ("c", "b"): "cb", ("c", "ba"): "p", ("cb", "a"): "q"})
    return objs, mors, {o: f"1{o}" for o in objs}, comp


def _with(base, mors=(), identities=None, drop_identity=None, comp=None, drop=None):
    objs, ms, ids, cs = base()
    ids = {c: i for c, i in {**ids, **(identities or {})}.items() if c != drop_identity}
    cs = {k: v for k, v in {**cs, **(comp or {})}.items() if k != drop}
    return objs, ms + list(mors), ids, cs


CATEGORY_FAULTS = [
    ("ids repeat", _with(_parallel_arrows, mors=[Morphism("f", "y", "y")]), "morphism ids repeat"),
    ("unknown object", _with(_parallel_arrows, mors=[Morphism("h", "x", "z")]), "morphism 'h' touches unknown objects"),
    ("identity for unknown object", _with(_parallel_arrows, identities={"z": "ix"}), "identity listed for unknown object 'z'"),
    ("no identity", _with(_parallel_arrows, drop_identity="y"), "object 'y' lacks an identity morphism"),
    ("identity not endo", _with(_parallel_arrows, identities={"x": "f"}), "identity of 'x' is not an endomorphism"),
    ("unknown key", _with(_parallel_arrows, comp={("ghost", "ix"): "ix"}), "composite listed for unknown morphisms ('ghost', 'ix')"),
    ("non-composable", _with(_parallel_arrows, comp={("f", "g"): "f"}), "composite listed for non-composable ('f', 'g')"),
    ("missing", _with(_parallel_arrows, drop=("iy", "g")), "missing composite ('iy', 'g')"),
    ("unknown composite", _with(_parallel_arrows, comp={("f", "ix"): "ghost"}), "unknown morphism 'ghost'"),
    ("wrong source", _with(_parallel_arrows, comp={("f", "ix"): "iy"}), "composite ('f', 'ix') has wrong endpoints"),
    ("wrong target", _with(_parallel_arrows, comp={("f", "ix"): "ix"}), "composite ('f', 'ix') has wrong endpoints"),
    ("identity law", _with(_parallel_arrows, comp={("f", "ix"): "g"}), "identity law fails at 'f'"),
    ("associativity", _two_bracketings(), "associativity fails at ('c', 'b', 'a')"),
]

CHAIN = poset_category([0, 1, 2], lambda a, b: a <= b)


def _chain_presheaf(on_objects=(), on_morphisms=(), drop_value=None):
    """The constant presheaf {0, 1} on the chain 0 < 1 < 2, every action the
    identity, with the given entries replaced."""
    values = {c: frozenset({0, 1}) for c in CHAIN.objects} | dict(on_objects)
    values.pop(drop_value, None)
    actions = {m.id: {0: 0, 1: 1} for m in CHAIN.morphisms} | dict(on_morphisms)
    return Presheaf(on_objects=values, on_morphisms=actions)


PRESHEAF_FAULTS = [
    ("value at unknown object", _chain_presheaf(on_objects={9: frozenset()}), "value listed at unknown object 9"),
    ("action of unknown morphism", _chain_presheaf(on_morphisms={(2, 0): {}}), "action listed for unknown morphism (2, 0)"),
    ("no value", _chain_presheaf(drop_value=1), "no value at object 1"),
    ("outside the value", _chain_presheaf(on_morphisms={(0, 1): {0: 0, 1: 5}}), "(0, 1) maps 1 outside the value at 0"),
    ("undefined action", _chain_presheaf(on_morphisms={(0, 1): {0: 0}}), "action of (0, 1) undefined at 1"),
    ("identity moves", _chain_presheaf(on_morphisms={(1, 1): {0: 1, 1: 0}}), "identity action at 1 moves"),
    ("contravariance", _chain_presheaf(on_morphisms={(0, 2): {0: 1, 1: 0}}), "contravariance fails at ((1, 2), (0, 1)) on 0"),
]


class TestRejections:
    """Each law or reference check, hit by exactly one fault."""

    def test_fault_free_bases_pass(self):
        finite_category(*_parallel_arrows())
        validate_presheaf(CHAIN, _chain_presheaf())

    @pytest.mark.parametrize("spec, message", [row[1:] for row in CATEGORY_FAULTS], ids=[row[0] for row in CATEGORY_FAULTS])
    def test_category_fault(self, spec, message):
        with pytest.raises(InvalidCategory, match=re.escape(message)):
            finite_category(*spec)

    @pytest.mark.parametrize("p, message", [row[1:] for row in PRESHEAF_FAULTS], ids=[row[0] for row in PRESHEAF_FAULTS])
    def test_presheaf_fault(self, p, message):
        with pytest.raises(InvalidPresheaf, match=re.escape(message)):
            validate_presheaf(CHAIN, p)


class TestPresheaf:
    def test_contravariance_verified(self):
        p = terminal_presheaf(SQUARE)
        validate_presheaf(SQUARE, p)

    def test_identity_violation_caught(self):
        p = Presheaf(
            on_objects={0: frozenset({"a", "b"}), 1: frozenset({"a"})},
            on_morphisms={(0, 0): {"a": "b", "b": "a"}, (1, 1): {"a": "a"}, (0, 1): {"a": "a"}},
        )
        with pytest.raises(InvalidPresheaf):
            validate_presheaf(ARROW, p)


class TestCategoryOfElements:
    def test_terminal_presheaf_reproduces_category(self):
        for cat in (ARROW, SQUARE, discrete_category(["a", "b", "c"])):
            e = category_of_elements(cat, terminal_presheaf(cat))
            assert len(e.objects) == len(cat.objects)
            assert len(e.morphisms) == len(cat.morphisms)
            obj_proj, mor_proj = projection_functor(e)
            assert set(obj_proj.values()) == set(cat.objects)

    def test_object_count_oracle_on_random_posets(self):
        rng = random.Random(15)
        for _ in range(50):
            cat = random_poset_category(rng)
            p = representable_sum_presheaf(cat, rng)
            e = category_of_elements(cat, p)
            assert len(e.objects) == sum(len(p.at(c)) for c in cat.objects)

    def test_arrow_with_two_sections(self):
        p = Presheaf(
            on_objects={0: frozenset({"r"}), 1: frozenset({"p", "q"})},
            on_morphisms={(0, 0): {"r": "r"}, (1, 1): {"p": "p", "q": "q"}, (0, 1): {"p": "r", "q": "r"}},
        )
        e = category_of_elements(ARROW, p)
        # hand enumeration: 3 objects; 3 identities plus (0,r)->(1,p) and (0,r)->(1,q)
        assert len(e.objects) == 3
        assert len(e.morphisms) == 5

    def test_projection_preserves_structure(self):
        rng = random.Random(99)
        for _ in range(10):
            cat = random_poset_category(rng, max_objects=4)
            p = representable_sum_presheaf(cat, rng)
            e = category_of_elements(cat, p)
            obj_proj, mor_proj = projection_functor(e)
            for (c, x) in e.objects:
                assert mor_proj[e.identities[(c, x)]] == cat.identities[c]
            for (g, f), gf in e.composition.items():
                assert cat.composition[(mor_proj[g], mor_proj[f])] == mor_proj[gf]


class TestBuildLevel:
    def test_terminal_collapses_twice(self):
        g, c1 = build_level(SQUARE, terminal_presheaf(SQUARE), terminal_presheaf(category_of_elements(SQUARE, terminal_presheaf(SQUARE))))
        assert len(c1.objects) == len(SQUARE.objects)
        assert len(c1.morphisms) == len(SQUARE.morphisms)

    def test_object_count_formula(self):
        rng = random.Random(27)
        cat = random_poset_category(rng, max_objects=4)
        omega = representable_sum_presheaf(cat, rng)
        gamma = category_of_elements(cat, omega)
        binding = representable_sum_presheaf(gamma, rng)
        g, nxt = build_level(cat, omega, binding)
        assert g.objects == gamma.objects
        assert len(nxt.objects) == sum(len(binding.at(o)) for o in gamma.objects)

    def test_three_iterations_validate(self):
        rng = random.Random(31)
        cat = random_poset_category(rng, max_objects=3)
        for _ in range(3):
            omega = representable_sum_presheaf(cat, rng, max_summands=2)
            gamma = category_of_elements(cat, omega)
            binding = terminal_presheaf(gamma)
            gamma2, cat = build_level(cat, omega, binding)
            assert gamma2.objects == gamma.objects  # construction validated on the way


class TestNerve:
    def test_discrete(self):
        n = nerve(discrete_category(["a", "b", "c"]), 2)
        assert [len(s) for s in n.simplices] == [3, 0, 0]

    def test_arrow(self):
        n = nerve(ARROW, 3)
        assert [len(s) for s in n.simplices] == [2, 1, 0, 0]

    def test_commuting_square_chain_counts(self):
        # hand enumeration: 5 strict relations, 2 composable strict chains
        n = nerve(SQUARE, 2)
        assert [len(s) for s in n.simplices] == [4, 5, 2]

    def test_degenerate_composite_marked(self):
        # an isomorphism pair composes to the identity: that face is dropped
        objs = ["x", "y"]
        mors = [
            Morphism("idx", "x", "x"),
            Morphism("idy", "y", "y"),
            Morphism("f", "x", "y"),
            Morphism("g", "y", "x"),
        ]
        comp = {}
        for m in mors:
            comp[(m.id, "idx" if m.src == "x" else "idy")] = m.id
            comp[("idy" if m.tgt == "y" else "idx", m.id)] = m.id
        comp[("g", "f")] = "idx"
        comp[("f", "g")] = "idy"
        iso = finite_category(objs, mors, {"x": "idx", "y": "idy"}, comp)
        n = nerve(iso, 2)
        assert ("f", "g") in n.faces
        assert n.faces[("f", "g")][1] is None
        # boundary of boundary stays zero over GF(2)
        betti_gf2(n, 1)

    def test_faces_only_of_listed_simplices(self):
        assert nerve(SQUARE, 0).faces == {}
        for max_dim in range(1, 4):
            n = nerve(SQUARE, max_dim)
            assert list(n.faces) == [x for dim in n.simplices[1:] for x in dim]


class TestBetti:
    def test_discrete_components(self):
        n = nerve(discrete_category(["a", "b", "c"]), 2)
        assert betti_gf2(n, 2) == [3, 0, 0]

    def test_terminal_object_contractible(self):
        for cat in (ARROW, SQUARE, poset_category(list(range(4)), lambda a, b: a <= b)):
            n = nerve(cat, 3)
            assert betti_gf2(n, 2) == [1, 0, 0]

    def test_hollow_triangle(self):
        s = SimplicialData(
            max_dim=1,
            simplices=(("v0", "v1", "v2"), ("e01", "e02", "e12")),
            faces={"e01": ("v0", "v1"), "e02": ("v0", "v2"), "e12": ("v1", "v2")},
        )
        # 3x3 edge boundary matrix has GF(2) rank 2: betti (1, 1)
        assert gf2_rank(boundary_matrix(s, 1)) == 2
        assert betti_gf2(s, 2) == [1, 1]

    def test_betti0_counts_components(self):
        rng = random.Random(55)
        for _ in range(10):
            cat = random_poset_category(rng, max_objects=5)
            n = nerve(cat, 2)
            comps = _component_count(cat)
            assert betti_gf2(n, 0)[0] == comps

    def test_filled_triangle_balloon(self):
        # poset chains fill the 2-skeleton: a <= b <= c triangle is solid
        tri = poset_category([0, 1, 2], lambda a, b: a <= b)
        n = nerve(tri, 2)
        assert betti_gf2(n, 2) == [1, 0, 0]

    def test_inconsistent_complex_rejected(self):
        s = SimplicialData(max_dim=1, simplices=(("v",), ("e",)), faces={"e": ("v", "ghost")})
        with pytest.raises(InconsistentComplex):
            betti_gf2(s, 1)

    def test_nonzero_boundary_of_boundary_rejected(self):
        # the triangle lists edge ab twice and ca never: its boundary bc has boundary b + c
        s = SimplicialData(
            max_dim=2,
            simplices=(("a", "b", "c"), ("ab", "bc", "ca"), ("t",)),
            faces={"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "t": ("ab", "ab", "bc")},
        )
        with pytest.raises(InconsistentComplex, match="boundary of boundary"):
            betti_gf2(s, 2)

    def test_dd_zero_for_emitted_nerves(self):
        rng = random.Random(70)
        for _ in range(10):
            cat = random_poset_category(rng, max_objects=4)
            n = nerve(cat, 3)
            for k in range(1, n.max_dim):
                a = bit_columns_as_rows(boundary_matrix(n, k), n.dim_count(k - 1))
                b = bit_columns_as_rows(boundary_matrix(n, k + 1), n.dim_count(k))
                assert not any(any(row) for row in gf2_matmul(a, b))


@st.composite
def preorder_categories(draw, max_objects=5):
    """Thin categories of random preorders; ties (x <= y <= x) make nerve
    faces degenerate, so the None-face path is exercised too."""
    n = draw(st.integers(1, max_objects))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rel = {(i, i) for i in range(n)} | set(draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else [])
    while not (closure := {(a, d) for (a, b) in rel for (c, d) in rel if b == c}) <= rel:
        rel |= closure
    return poset_category(list(range(n)), lambda a, b: (a, b) in rel)


@st.composite
def face_lists(draw, max_dim=3, max_per_dim=6):
    """Simplicial data with arbitrary face pointers: repeated, degenerate
    (None) or scattered faces, not necessarily a complex."""
    counts = draw(st.lists(st.integers(1, max_per_dim), min_size=1, max_size=max_dim + 1))
    simplices = tuple(tuple(f"s{k}_{i}" for i in range(n)) for k, n in enumerate(counts))
    faces = {}
    for k in range(1, len(simplices)):
        below = st.one_of(st.none(), st.sampled_from(simplices[k - 1]))
        for x in simplices[k]:
            faces[x] = tuple(draw(st.lists(below, min_size=k + 1, max_size=k + 1)))
    return SimplicialData(max_dim=len(simplices) - 1, simplices=simplices, faces=faces)


class TestGF2Oracles:
    """Bitset boundaries and ranks against dense 0/1 elimination."""

    @settings(max_examples=200, deadline=None)
    @given(face_lists())
    def test_boundary_and_rank_on_arbitrary_faces(self, s):
        for k in range(1, s.max_dim + 1):
            cols = boundary_matrix(s, k)
            assert bit_columns_as_rows(cols, s.dim_count(k - 1)) == naive_boundary_rows(s, k)
            assert gf2_rank(cols) == naive_gf2_rank(naive_boundary_rows(s, k))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=14))))
    def test_rank_matches_dense_elimination(self, case):
        n_rows, cols = case
        assert gf2_rank(cols) == naive_gf2_rank(bit_columns_as_rows(cols, n_rows))

    @settings(max_examples=80, deadline=None)
    @given(preorder_categories())
    def test_boundaries_match_faces_and_square_to_zero(self, cat):
        n = nerve(cat, 3)
        dense = {k: naive_boundary_rows(n, k) for k in range(1, n.max_dim + 1)}
        for k in range(1, n.max_dim + 1):
            assert bit_columns_as_rows(boundary_matrix(n, k), n.dim_count(k - 1)) == dense[k]
        for k in range(1, n.max_dim):
            assert not any(any(row) for row in gf2_matmul(dense[k], dense[k + 1]))

    @settings(max_examples=80, deadline=None)
    @given(preorder_categories(), st.integers(0, 2))
    def test_betti_matches_ranks_and_euler_characteristic(self, cat, extra):
        n = nerve(cat, 3)
        betti = betti_gf2(n, n.max_dim + extra)
        assert len(betti) == n.max_dim + 1
        ranks = [0] + [naive_gf2_rank(naive_boundary_rows(n, k)) for k in range(1, n.max_dim + 1)] + [0]
        assert betti == [n.dim_count(k) - ranks[k] - ranks[k + 1] for k in range(n.max_dim + 1)]
        euler = sum((-1) ** k * n.dim_count(k) for k in range(n.max_dim + 1))
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == euler


def _cyclic_group(n):
    """Z/n on one object, morphisms 0..n-1 with identity 0."""
    mors = [Morphism(k, "*", "*") for k in range(n)]
    return finite_category(["*"], mors, {"*": 0}, {(a, b): (a + b) % n for a in range(n) for b in range(n)})


@st.composite
def small_categories(draw):
    """Preorders (thin, ties allowed), cyclic groups, and action groupoids of a
    cyclic group rotating one of its quotients (non-thin, tuple ids)."""
    kind = draw(st.sampled_from(["preorder", "group", "action"]))
    if kind == "preorder":
        return draw(preorder_categories(max_objects=4))
    n = draw(st.integers(1, 4))
    group = _cyclic_group(n)
    if kind == "group":
        return group
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    rotation = Presheaf(on_objects={"*": frozenset(range(d))}, on_morphisms={k: {r: (r + k) % d for r in range(d)} for k in range(n)})
    return category_of_elements(group, rotation)


def _inject_fault(data, cat):
    """The category's spec, with at most one drawn change to it."""
    objs, mors, ids, comp = list(cat.objects), list(cat.morphisms), dict(cat.identities), dict(cat.composition)
    names = [m.id for m in mors] + ["ghost"]
    pick = lambda xs: data.draw(st.sampled_from(xs))  # noqa: E731
    kind = pick(["none", "duplicate id", "stray morphism", "set identity", "drop identity", "drop composite", "set composite"])
    if kind == "duplicate id":
        mors.append(Morphism(pick(mors).id, pick(objs), pick(objs)))
    elif kind == "stray morphism":
        mors.append(Morphism("stray", pick(objs + ["nowhere"]), pick(objs)))
    elif kind == "set identity":
        ids[pick(objs + ["nowhere"])] = pick(names)
    elif kind == "drop identity":
        del ids[pick(objs)]
    elif kind == "drop composite":
        del comp[pick(sorted(comp, key=repr))]
    elif kind == "set composite":
        comp[(pick(names), pick(names))] = pick(names)
    return objs, mors, ids, comp


class TestCompositionIndex:
    """`out_of`, `composable_pairs` and their readers against all-pairs scans."""

    @settings(max_examples=300, deadline=None)
    @given(small_categories(), st.data())
    def test_finite_category_accepts_what_the_oracle_accepts(self, cat, data):
        spec = _inject_fault(data, cat)
        try:
            finite_category(*spec)
            accepted = True
        except InvalidCategory:
            accepted = False
        assert accepted == naive_category_ok(*spec)

    @settings(max_examples=100, deadline=None)
    @given(small_categories())
    def test_pairs_hom_and_nerve_match_scans(self, cat):
        assert list(cat.composable_pairs()) == naive_composable_pairs(cat)
        for a in cat.objects:
            for b in cat.objects:
                assert cat.hom(a, b) == naive_hom(cat, a, b)
        assert list(nerve(cat, 3).simplices) == naive_nerve_dims(cat, 3)

    def test_nerve_cap_counts_simplices_and_dimensions(self, monkeypatch):
        # one object and xy = x on {e, f}: dimension k holds 2^k chains, so
        # the nerve up to dimension 5 lists 63 simplices over 5 dimensions
        ids = ["1", "e", "f"]
        monoid = finite_category(
            ["*"],
            [Morphism(m, "*", "*") for m in ids],
            {"*": "1"},
            {(x, y): x if x != "1" else y for x in ids for y in ids},
        )
        monkeypatch.setattr(catelem, "NERVE_CAP", 63 + 5)
        assert [len(d) for d in nerve(monoid, 5).simplices] == [1, 2, 4, 8, 16, 32]
        monkeypatch.setattr(catelem, "NERVE_CAP", 63 + 5 - 1)
        with pytest.raises(SweepTooLarge, match=r"63 simplices by dimension 5, plus 5 dimensions, exceed the cap of 67"):
            nerve(monoid, 5)
        with pytest.raises(SweepTooLarge, match=r"by dimension 0"):
            nerve(ARROW, 67)

    @pytest.mark.parametrize("max_dim", [-1, -2])
    def test_negative_dimension_rejected(self, max_dim):
        with pytest.raises(InconsistentComplex, match="non-negative"):
            nerve(ARROW, max_dim)
        with pytest.raises(InconsistentComplex, match="non-negative"):
            betti_gf2(nerve(ARROW, 1), max_dim)


def _outcome(build):
    """The built category, or the class and message of its rejection."""
    try:
        return build()
    except (InvalidCategory, InvalidPresheaf) as e:
        return type(e), e.message


def _poset_spec(elements, leq):
    """poset_category's spec, spelled out from its definition."""
    objs = list(elements)
    rel = [(x, y) for x in objs for y in objs if leq(x, y)]
    composition = {((y, z), (x, y)): (x, z) for (x, y) in rel for (y2, z) in rel if y2 == y}
    return objs, [Morphism(r, *r) for r in rel], {x: (x, x) for x in objs}, composition


@st.composite
def relations(draw):
    """Elements with repeats allowed, and a relation on them that may miss
    reflexivity or transitivity."""
    elements = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    pool = sorted(set(elements))
    rel = set(draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=8)))
    if draw(st.booleans()):
        rel |= {(x, x) for x in pool}
    if draw(st.booleans()):
        while not (closure := {(a, d) for (a, b) in rel for (c, d) in rel if b == c}) <= rel:
            rel |= closure
    return elements, rel


def _presheaves(cat, data):
    """A representable sum, the terminal presheaf, or for a cyclic group a
    rotation of one of its quotients."""
    kinds = ["sum", "terminal"] + (["rotation"] if cat.objects == {"*"} else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "sum":
        return representable_sum_presheaf(cat, random.Random(data.draw(st.integers(0, 99))))
    if kind == "terminal":
        return terminal_presheaf(cat)
    n = len(cat.morphisms)
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return Presheaf(on_objects={"*": frozenset(range(d))}, on_morphisms={k: {r: (r + k) % d for r in range(d)} for k in range(n)})


def _by_hand(cat, **changes):
    """The same fields in a FiniteCategory built directly, without the
    constructors' lawful mark."""
    return cat._replace(**changes)


class TestDerivedFastPaths:
    """Constructors that inherit the laws agree with the full check."""

    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_poset_category_matches_full_check(self, case):
        elements, rel = case
        leq = lambda a, b: (a, b) in rel  # noqa: E731
        got = _outcome(lambda: poset_category(elements, leq))
        assert got == _outcome(lambda: finite_category(*_poset_spec(elements, leq)))
        if isinstance(got, FiniteCategory):
            assert _is_lawful(got)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", 1, 2]), max_size=5))
    def test_discrete_category_matches_full_check(self, objs):
        spec = (objs, [Morphism(("id", c), c, c) for c in objs], {c: ("id", c) for c in objs}, {(("id", c), ("id", c)): ("id", c) for c in objs})
        assert _outcome(lambda: discrete_category(objs)) == _outcome(lambda: finite_category(*spec))

    @settings(max_examples=200, deadline=None)
    @given(small_categories(), st.data())
    def test_category_of_elements_matches_full_check(self, cat, data):
        assert _is_lawful(cat)
        p = _presheaves(cat, data)
        e = category_of_elements(cat, p)
        assert _is_lawful(e)
        assert e == finite_category(e.objects, e.morphisms, e.identities, e.composition)
        checked = category_of_elements(_by_hand(cat), p)
        assert checked == e and _is_lawful(checked)

    def test_mark_is_not_a_field(self):
        by_hand = _by_hand(SQUARE)
        assert not _is_lawful(by_hand)
        assert by_hand == SQUARE and repr(by_hand) == repr(SQUARE)
        assert "_lawful" not in SQUARE._fields

    @pytest.mark.parametrize(
        "base, comp, message",
        [
            (_parallel_arrows, {("f", "ix"): "g"}, "identity law fails at ('f', '*')"),
            (_parallel_arrows, {("f", "ix"): "iy"}, "composite (('f', '*'), ('ix', '*')) has wrong endpoints"),
            (_parallel_arrows, {("iy", "g"): None}, "composite of ('iy', 'g') undefined"),
            (_two_bracketings, {}, "associativity fails at (('c', '*'), ('b', '*'), ('a', '*'))"),
        ],
    )
    def test_hand_built_broken_category_still_rejected(self, base, comp, message):
        objs, mors, ids, composition = base()
        composition = {k: v for k, v in {**composition, **comp}.items() if v is not None}
        cat = FiniteCategory(objects=frozenset(objs), morphisms=tuple(mors), identities=ids, composition=composition)
        with pytest.raises(InvalidCategory, match=re.escape(message)):
            category_of_elements(cat, terminal_presheaf(cat))

    @pytest.mark.parametrize("check", [category_of_elements, validate_presheaf])
    def test_hand_built_category_without_identity_rejected(self, check):
        objs, mors, ids, composition = _with(_parallel_arrows, drop_identity="y")
        cat = FiniteCategory(objects=frozenset(objs), morphisms=tuple(mors), identities=ids, composition=composition)
        with pytest.raises(InvalidCategory, match=re.escape("object 'y' lacks an identity morphism")):
            check(cat, terminal_presheaf(cat))

    @pytest.mark.parametrize(
        "identities, composites, message",
        [
            ({"x": "f"}, {}, "action of 'f' undefined at 5"),
            ({}, {("iy", "f"): "ix"}, "action of 'ix' undefined at 0"),
        ],
        ids=["identity-not-an-endomorphism", "composite-with-wrong-endpoints"],
    )
    def test_hand_built_category_whose_actions_miss_a_section(self, identities, composites, message):
        # P is a presheaf on the lawful category; the changed one reads an action where P defines none
        lawful = finite_category(*_parallel_arrows())
        p = Presheaf(on_objects={"x": frozenset({5}), "y": frozenset({0})}, on_morphisms={"ix": {5: 5}, "iy": {0: 0}, "f": {0: 5}, "g": {0: 5}})
        validate_presheaf(lawful, p)
        changed = _by_hand(lawful, identities={**lawful.identities, **identities}, composition={**lawful.composition, **composites})
        with pytest.raises(InvalidPresheaf, match=f"^{re.escape(message)}$"):
            validate_presheaf(changed, p)

    def test_broken_copy_of_lawful_category_rejected(self):
        broken = dict(SQUARE.composition)
        broken[(("01", "11"), ("00", "01"))] = ("00", "01")
        with pytest.raises(InvalidCategory, match="has wrong endpoints"):
            category_of_elements(_by_hand(SQUARE, composition=broken), terminal_presheaf(SQUARE))

    @pytest.mark.parametrize(
        "composite, message",
        [
            (None, "composite of (('01', '11'), ('00', '01')) undefined"),
            ("ghost", "unknown morphism 'ghost'"),
            (("00", "01"), "composite (('01', '11'), ('00', '01')) has wrong endpoints"),
            (Morphism("stray", "00", "nowhere"), "morphism 'stray' touches unknown objects"),
        ],
    )
    def test_nerve_reports_bad_composites(self, composite, message):
        """The composite of 00 -> 01 -> 11 missing, unknown, running 00 -> 01,
        or a new arrow out of the square."""
        step = (("01", "11"), ("00", "01"))
        changes = {"composition": {k: v for k, v in SQUARE.composition.items() if k != step}}
        if isinstance(composite, Morphism):
            changes["morphisms"] = SQUARE.morphisms + (composite,)
            composite = composite.id
        if composite is not None:
            changes["composition"][step] = composite
        with pytest.raises(InvalidCategory, match=re.escape(message)):
            nerve(_by_hand(SQUARE, **changes), 2)

    def test_nerve_refuses_repeated_ids_before_counting(self, monkeypatch):
        # a second arrow 00 -> 01 under the same id would list its chain twice
        twice = _by_hand(SQUARE, morphisms=SQUARE.morphisms + (Morphism(("00", "01"), "00", "01"),))
        monkeypatch.setattr(catelem, "NERVE_CAP", 0)
        for max_dim in range(3):
            with pytest.raises(InvalidCategory, match="morphism ids repeat"):
                nerve(twice, max_dim)


@st.composite
def partial_order_categories(draw, max_objects=6):
    """Poset categories of random partial orders on shuffled labels."""
    n = draw(st.integers(1, max_objects))
    label = draw(st.permutations(range(n)))
    pairs = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n)]
    rel = {(i, i) for i in range(n)} | set(draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else [])
    while not (closure := {(a, d) for (a, b) in rel for (c, d) in rel if b == c}) <= rel:
        rel |= closure
    return poset_category(list(range(n)), lambda a, b: (a, b) in rel)


@st.composite
def presheaf_bases(draw):
    """Partial orders, preorders that may have cycles, categories of elements
    of either, and categories built by hand, some of them broken."""
    kind = draw(st.sampled_from(["order", "order", "preorder", "elements", "by hand", "broken by hand"]))
    if kind == "order":
        return draw(partial_order_categories())
    if kind == "preorder":
        return draw(preorder_categories(max_objects=4))
    if kind == "elements":
        base = draw(st.one_of(partial_order_categories(max_objects=4), preorder_categories(max_objects=3)))
        return category_of_elements(base, representable_sum_presheaf(base, random.Random(draw(st.integers(0, 99)))))
    if kind == "by hand":
        return _by_hand(draw(small_categories()))
    objs, mors, ids, comp = _inject_fault(SimpleNamespace(draw=draw), draw(small_categories()))
    return FiniteCategory(objects=frozenset(objs), morphisms=tuple(mors), identities=ids, composition=comp)


def _mutated(cat, p, data):
    """p with zero to three action entries changed (mostly to another element
    of the source's value), dropped or added."""
    tables = {u: dict(t) for u, t in p.on_morphisms.items()}
    for _ in range(data.draw(st.integers(0, 3))):
        if not tables:
            break
        u = data.draw(st.sampled_from(sorted(tables, key=repr)))
        m, table = cat.by_id.get(u), tables[u]
        targets = sorted(p.on_objects.get(m.src, ()) if m else (), key=repr) + ["stray", "astray"]
        kind = data.draw(st.sampled_from(["set", "set", "set", "drop", "add"]))
        if kind == "add" or not table:
            table[data.draw(st.sampled_from(targets))] = data.draw(st.sampled_from(targets))
            continue
        x = data.draw(st.sampled_from(sorted(table, key=repr)))
        if kind == "drop":
            del table[x]
        else:
            table[x] = data.draw(st.sampled_from([y for y in targets if y != table[x]]))
    return Presheaf(on_objects=p.on_objects, on_morphisms=tables)


def _checked(check, cat, p):
    """The sections, or the class and message of the first failure."""
    try:
        return check(cat, p)
    except HyperstructError as e:
        return type(e), e.message


def _naive_cover_pairs(cat):
    """Composable pairs whose upper step g: b -> c has b != c and nothing strictly between."""
    def between(b, c):
        return any(z not in (b, c) and naive_hom(cat, b, z) and naive_hom(cat, z, c) for z in cat.objects)

    return [(g, f) for g, f in naive_composable_pairs(cat) if g.src != g.tgt and not between(g.src, g.tgt)]


class TestPresheafLawsFromTables:
    """The table-reading presheaf check, with its cover walk on partial
    orders, against the brute-force walk over every composable pair."""

    @settings(max_examples=500, deadline=None)
    @given(presheaf_bases(), st.data())
    def test_fast_check_matches_brute_force(self, cat, data):
        if data.draw(st.booleans()):
            p = _presheaves(cat, data)
        else:  # two sections everywhere: a changed entry breaks contravariance, not the values
            p = Presheaf({c: frozenset({0, 1}) for c in cat.objects}, {m.id: {0: 0, 1: 1} for m in cat.morphisms})
        p = _mutated(cat, p, data)
        assert _checked(catelem._checked_sections, cat, p) == _checked(reference_checked_sections, cat, p)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(partial_order_categories(), presheaf_bases()), st.data())
    def test_flipped_actions_fail_where_brute_force_fails(self, cat, data):
        """Two sections everywhere and up to three entries of non-identity
        actions flipped: only contravariance can fail, so on partial orders
        the cover walk decides, and its fallback must name the first pair."""
        p = Presheaf({c: frozenset({0, 1}) for c in cat.objects}, {m.id: {0: 0, 1: 1} for m in cat.morphisms})
        movable = sorted((m.id for m in cat.morphisms if m.src != m.tgt), key=repr)
        for u in data.draw(st.lists(st.sampled_from(movable), max_size=3)) if movable else ():
            x = data.draw(st.sampled_from([0, 1]))
            p.on_morphisms[u][x] = 1 - p.on_morphisms[u][x]
        assert _checked(catelem._checked_sections, cat, p) == _checked(reference_checked_sections, cat, p)

    @settings(max_examples=100, deadline=None)
    @given(partial_order_categories())
    def test_cover_pairs_match_scan(self, cat):
        assert _is_order(cat)
        assert sorted(catelem._cover_pairs(cat)) == sorted(_naive_cover_pairs(cat))

    def test_partial_orders_are_marked(self):
        cycle = poset_category([0, 1, 2], lambda a, b: a == b or {a, b} == {0, 1} or b == 2)
        assert _is_lawful(cycle) and not _is_order(cycle)
        assert _is_order(CHAIN) and _is_order(SQUARE) and not _is_order(discrete_category(["a"]))
        rng = random.Random(3)
        assert _is_order(category_of_elements(SQUARE, representable_sum_presheaf(SQUARE, rng)))
        assert not _is_order(category_of_elements(cycle, terminal_presheaf(cycle)))
        assert not _is_order(category_of_elements(_by_hand(SQUARE), terminal_presheaf(SQUARE)))

    def test_cover_fault_names_the_first_pair(self):
        # on 0 < 1 < 2 < 3, break the non-cover (0, 3): the cover walk finds
        # ((2, 3), (0, 2)) first, but the full walk names ((1, 3), (0, 1))
        chain = poset_category(range(4), lambda a, b: a <= b)
        p = Presheaf({c: frozenset({0, 1}) for c in range(4)}, {m.id: {0: 0, 1: 1} for m in chain.morphisms})
        p.on_morphisms[(0, 3)] = {0: 1, 1: 0}
        with pytest.raises(InvalidPresheaf, match=re.escape("contravariance fails at ((1, 3), (0, 1)) on 0")):
            validate_presheaf(chain, p)
        assert _checked(reference_checked_sections, chain, p) == _checked(validate_presheaf, chain, p)

    def test_marks_are_not_fields(self):
        by_hand = _by_hand(SQUARE)
        copied = pickle.loads(pickle.dumps(SQUARE))
        assert _is_order(SQUARE) and not _is_order(by_hand) and not _is_order(copied)
        assert by_hand == SQUARE == copied and repr(by_hand) == repr(SQUARE)
        assert "_order" not in SQUARE._fields
        n = nerve(SQUARE, 2)
        rebuilt = SimplicialData(n.max_dim, n.simplices, n.faces)
        assert "_rows" in n.__dict__ and "_rows" not in rebuilt.__dict__
        assert n == rebuilt and repr(n) == repr(rebuilt) and "_rows" not in SimplicialData._fields
        copied = pickle.loads(pickle.dumps(n))
        assert copied == n and "_rows" not in copied.__dict__


class TestFaceRows:
    """The face rows nerve seeds against those derived from the faces."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_categories(), presheaf_bases()), st.integers(1, 3))
    def test_seeded_rows_match_rebuilt(self, cat, max_dim):
        try:
            n = nerve(cat, max_dim)
        except InvalidCategory:
            return
        rebuilt = SimplicialData(n.max_dim, n.simplices, n.faces)
        for k in range(1, max_dim + 1):
            assert _checked(boundary_matrix, n, k) == _checked(boundary_matrix, rebuilt, k)
        for top in range(max_dim + 1):
            assert _checked(betti_gf2, n, top) == _checked(betti_gf2, rebuilt, top)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_categories(), presheaf_bases()), st.integers(0, 3))
    def test_lawful_nerves_seed_every_dimension(self, cat, max_dim):
        """Every nerve that returns, lawful or built by hand, seeds its rows."""
        try:
            n = nerve(cat, max_dim)
        except InvalidCategory:
            return
        assert sorted(n.__dict__["_rows"]) == list(range(1, max_dim + 1))

    def test_betti_builds_no_names(self):
        cat = category_of_elements(SQUARE, representable_sum_presheaf(SQUARE, random.Random(4)))
        n = nerve(cat, 3)
        assert betti_gf2(n, 2) == betti_gf2(reference_nerve(cat, 3), 2)
        assert "simplices" not in n.__dict__ and "faces" not in n.__dict__

    def test_face_rows_keep_boundary_checks(self):
        s = SimplicialData(max_dim=1, simplices=(("v",), ("e",)), faces={"e": ("v", "ghost")})
        with pytest.raises(InconsistentComplex, match=re.escape("face 'ghost' of 'e' is not listed in dimension 0")):
            s.face_rows(1)
        s = SimplicialData(max_dim=1, simplices=(("v",), ("e",)), faces={"e": ("v",)})
        with pytest.raises(InconsistentComplex, match=re.escape("simplex 'e' lacks 2 faces")):
            boundary_matrix(s, 1)
        s = SimplicialData(max_dim=1, simplices=(("v", "w"), ("e",)), faces={"e": ("w", None)})
        assert s.face_rows(1) == [[1]] and boundary_matrix(s, 1) == [0b10]


def _nerve_fault(cat, max_dim):
    """The message nerve must refuse the category with, or None: repeated
    ids, an arrow touching an unknown object, then (from dimension 2) the
    first composable pair of non-identity arrows, first arrow major, whose
    composite is undefined, unknown, or has the wrong endpoints."""
    by_id = {m.id: m for m in cat.morphisms}
    if len(by_id) != len(cat.morphisms):
        return "morphism ids repeat"
    for m in cat.morphisms:
        if m.src not in cat.objects or m.tgt not in cat.objects:
            return f"morphism {m.id!r} touches unknown objects"
    non_id = [m for m in cat.morphisms if cat.identities.get(m.src) != m.id]
    for f, g in product(non_id, non_id) if max_dim >= 2 else ():
        if g.src == f.tgt:
            gf = cat.composition.get((g.id, f.id))
            if gf is None:
                return f"composite of ({g.id!r}, {f.id!r}) undefined"
            if gf not in by_id:
                return f"unknown morphism {gf!r}"
            if (by_id[gf].src, by_id[gf].tgt) != (f.src, g.tgt):
                return f"composite ({g.id!r}, {f.id!r}) has wrong endpoints"
    return None


@st.composite
def broken_nerve_bases(draw):
    """Small categories rebuilt by hand with one change: a repeated id, an
    arrow to an unknown object, or the composite of a pair of non-identity
    arrows dropped, unknown, or set to another arrow (which is wrong in a
    thin category, and lawless but nameable in a group)."""
    cat = draw(small_categories())
    ids = cat.identities
    pairs = [(g.id, f.id) for g, f in cat.composable_pairs() if ids[g.src] != g.id and ids[f.src] != f.id]
    kind = draw(st.sampled_from(["repeat", "stray"] + ["drop", "ghost", "set", "set", "set", "set"] * bool(pairs)))
    objs = sorted(cat.objects, key=repr)
    if kind == "repeat":
        m = draw(st.sampled_from(cat.morphisms))
        return _by_hand(cat, morphisms=cat.morphisms + (Morphism(m.id, draw(st.sampled_from(objs)), draw(st.sampled_from(objs))),))
    if kind == "stray":
        return _by_hand(cat, morphisms=cat.morphisms + (Morphism("stray", draw(st.sampled_from(objs + ["nowhere"])), "nowhere"),))
    comp = dict(cat.composition)
    pair = draw(st.sampled_from(pairs))
    if kind == "drop":
        del comp[pair]
    else:
        comp[pair] = "ghost" if kind == "ghost" else draw(st.sampled_from([m.id for m in cat.morphisms if m.id != comp[pair]]))
    return _by_hand(cat, composition=comp)


class TestNerveAgainstReference:
    """The position walk, named on first read, against the name-and-lookup
    nerve it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(small_categories(), presheaf_bases(), broken_nerve_bases()), st.integers(0, 3))
    def test_nerve_matches_reference(self, cat, max_dim):
        fault = _nerve_fault(cat, max_dim)
        got = _checked(nerve, cat, max_dim)
        ref = _checked(reference_nerve, cat, max_dim)
        if fault is not None:
            assert got == (InvalidCategory, fault)
            if fault.startswith(("composite of", "unknown morphism")):
                assert ref == got
            return
        assert isinstance(ref, SimplicialData)
        listed = {x for dim in ref.simplices[1:] for x in dim}
        want = SimplicialData(ref.max_dim, ref.simplices, {x: fs for x, fs in ref.faces.items() if x in listed})
        names_first = nerve(cat, max_dim)
        assert repr(names_first) == repr(want) and names_first == want
        betti = [_checked(betti_gf2, ref, top) for top in range(max_dim + 2)]
        counts = [ref.dim_count(k) for k in range(-1, max_dim + 2)]
        for n in (got, names_first):
            assert [_checked(betti_gf2, n, top) for top in range(max_dim + 2)] == betti
            assert [n.dim_count(k) for k in range(-1, max_dim + 2)] == counts
        assert "simplices" not in got.__dict__ and "faces" not in got.__dict__
        assert got.simplices == ref.simplices and got.faces == want.faces and repr(got) == repr(want)
        for n in (got, names_first):
            copied = pickle.loads(pickle.dumps(n))
            assert copied == want and repr(copied) == repr(want)
            assert n._replace(max_dim=max_dim) == want


def _component_count(cat: FiniteCategory) -> int:
    parent = {o: o for o in cat.objects}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in cat.morphisms:
        a, b = find(m.src), find(m.tgt)
        if a != b:
            parent[a] = b
    return len({find(o) for o in cat.objects})


class TestTowerBridges:
    def test_refinement_category_of_flat_triangle(self):
        h = from_simplicial_complex(
            ["v0", "v1", "v2"],
            [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]],
        )
        cat = refinement_category(h, 1)
        # three incomparable edges under one top bond: morphisms = 4 identities + 3 inclusions
        assert len(cat.objects) == 4
        assert len(cat.morphisms) == 7
        n = nerve(cat, 2)
        assert betti_gf2(n, 1) == [1, 0]  # the poset cone is contractible

    def test_boundary_category_counts(self):
        h = from_simplicial_complex(
            ["v0", "v1", "v2"],
            [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]],
            graded=True,
        )
        cat = boundary_category(h, 1)
        # 3 vertices + 3 edges; each edge sits above its 2 vertices
        assert len(cat.objects) == 6
        assert len(cat.morphisms) == 6 + 6
        with pytest.raises(InvalidCategory, match="^boundary linkage needs a bond level$"):
            boundary_category(h, 0)
