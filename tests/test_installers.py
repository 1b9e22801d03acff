import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tower
from hyperstruct.core import id_key, validate
from hyperstruct.errors import (
    ArityMismatch,
    DownwardClosureViolation,
    EmptyEdge,
    InvalidBranching,
    UnknownCoordinate,
    UnknownVertex,
)
from hyperstruct import installers
from hyperstruct.installers import (
    BRUNNIAN_CAP,
    BrunnianComplex,
    brunnian_bonds,
    brunnian_order,
    from_hypergraph,
    from_relation,
    from_simplicial_complex,
    make_brunnian_tower,
)

FULL_TRIANGLE = [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]]


class TestFromRelation:
    def test_empty_relation(self):
        h = from_relation([["x"], ["y"]], [])
        assert h.order == 1 and len(h.elements(1)) == 0

    def test_single_pair(self):
        h = from_relation([["x"], ["y"]], [("x", "y")])
        assert len(h.elements(1)) == 1
        (b,) = h.bonds_at(1)
        assert b.support.raw_ids() == ["x@1", "y@2"]

    def test_bond_count_is_tuple_count(self):
        rng = random.Random(5)
        for _ in range(10):
            xs = [f"a{i}" for i in range(rng.randint(1, 4))]
            ys = [f"b{i}" for i in range(rng.randint(1, 4))]
            tuples = set()
            for _ in range(rng.randint(0, 6)):
                tuples.add((rng.choice(xs), rng.choice(ys)))
            h = from_relation([xs, ys], tuples)
            assert len(h.elements(1)) == len(tuples)
            assert validate(h).passed

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            from_relation([["x"], ["y"]], [("x",)])

    def test_unknown_coordinate(self):
        with pytest.raises(UnknownCoordinate):
            from_relation([["x"], ["y"]], [("x", "z")])

    def test_repeated_value_gets_both_tags(self):
        h = from_relation([["x"], ["x"]], [("x", "x")])
        (b,) = h.bonds_at(1)
        assert b.support.raw_ids() == ["x@1", "x@2"]


class TestFromHypergraph:
    def test_graph_edge_count(self):
        h = from_hypergraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        assert len(h.elements(1)) == 2

    def test_spanning_edge(self):
        h = from_hypergraph(["a", "b", "c"], [["a", "b", "c"]])
        (b,) = h.bonds_at(1)
        assert b.support.raw_ids() == ["a", "b", "c"]

    def test_empty_edge(self):
        with pytest.raises(EmptyEdge, match="^hypergraph edge is empty$"):
            from_hypergraph(["a"], [["a"], ["a"], []])

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex, match="^edge vertex 'z' not declared$"):
            from_hypergraph(["a"], [["a"], ["a"], ["a", "z"]])

    def test_first_faulty_edge_is_reported(self):
        with pytest.raises(UnknownVertex, match="^edge vertex 5 not declared$"):
            from_hypergraph(["a"], [["a"], [5], []])
        with pytest.raises(EmptyEdge):
            from_hypergraph(["a"], [["a"], [], [5]])

    def test_undeclared_vertices_are_named_in_id_key_order(self):
        with pytest.raises(UnknownVertex, match="^edge vertex 'x' not declared$"):
            from_hypergraph(["a"], [["x", "y", "z"]])
        with pytest.raises(UnknownVertex, match="^edge vertex 3 not declared$"):
            from_hypergraph(["a", 1], [["a", 1], ["z", 16, "b", 9, 3, "a"]])

    def test_supports_bind_the_towers_own_elements(self):
        h = from_hypergraph(["a", "b", "c"], [["a", "b"], ["c", "b"], ["b", "a"]])
        base = h.element_index[0]
        assert [b.support.raw_ids() for b in h.bonds_at(1)] == [["a", "b"], ["b", "c"]]
        assert all(m is base[m.id] for b in h.bonds for m in b.support.members)

    def test_randomized_outputs_validate(self):
        rng = random.Random(9)
        for _ in range(25):
            vs = [f"v{i}" for i in range(rng.randint(1, 6))]
            edges = []
            for _ in range(rng.randint(0, 8)):
                edges.append(rng.sample(vs, rng.randint(1, len(vs))))
            h = from_hypergraph(vs, edges)
            assert validate(h).passed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-5, 20), st.text(alphabet="ab1", max_size=2)), max_size=6))
def test_canonical_name_sorts_in_id_key_order(raw_ids):
    # a plain sort first; str and int ids mixed raise TypeError and sort by id_key
    want = "{" + ",".join(str(r) for r in sorted(raw_ids, key=id_key)) + "}"
    assert installers._canonical_name(raw_ids) == want
    assert installers._canonical_name(frozenset(raw_ids)) == "{" + ",".join(str(r) for r in sorted(set(raw_ids), key=id_key)) + "}"


class TestFromSimplicialComplex:
    def test_flat_triangle_counts(self):
        h = from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE)
        assert h.order == 1
        assert len(h.elements(1)) == 4  # 3 edges + 1 triangle

    def test_graded_triangle(self):
        h = from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=True)
        assert h.order == 2
        top = h.bond(h.element(2, "{v0,v1,v2}"))
        assert len(top.support) == 3
        assert {e.level for e in top.support.members} == {1}

    def test_single_vertex(self):
        assert from_simplicial_complex(["v"], [["v"]]).order == 0

    def test_downward_closure_enforced(self):
        with pytest.raises(DownwardClosureViolation):
            from_simplicial_complex(["a", "b", "c"], [["a"], ["b"], ["c"], ["a", "b", "c"]])

    def test_missing_singleton(self):
        with pytest.raises(DownwardClosureViolation):
            from_simplicial_complex(["a", "b"], [["a"]])

    def test_flat_bond_count_matches_simplex_count(self):
        rng = random.Random(21)
        for _ in range(10):
            vs = [f"v{i}" for i in range(rng.randint(1, 5))]
            simplices = {frozenset({v}) for v in vs}
            for _ in range(rng.randint(0, 4)):
                s = frozenset(rng.sample(vs, rng.randint(1, len(vs))))
                for r in range(1, len(s) + 1):
                    simplices |= {frozenset(c) for c in combinations(sorted(s), r)}
            h = from_simplicial_complex(vs, [sorted(s) for s in simplices])
            expected = sum(1 for s in simplices if len(s) >= 2)
            level1 = len(h.elements(1)) if h.order >= 1 else 0
            assert level1 == expected
            assert validate(h).passed


class TestBrunnianComplex:
    def test_simplicial_family_has_none(self):
        vs = [1, 2, 3]
        family = [c for r in range(0, 4) for c in combinations(vs, r)]
        k = BrunnianComplex.of(vs, family)
        # independent double loop: no member may keep a bound codim-1 subset
        got = brunnian_bonds(k)
        for f in k.family:
            if len(f) < 2:
                continue
            has_bound_sub = any(frozenset(c) in k.family for c in combinations(sorted(f, key=str), len(f) - 1))
            assert (f in got) == (not has_bound_sub)
        assert got == set()

    def test_borromean_pattern(self):
        k = BrunnianComplex.of([1, 2, 3], [[1, 2, 3]])
        assert brunnian_bonds(k) == {frozenset({1, 2, 3})}

    def test_extra_edge_destroys_pattern(self):
        k = BrunnianComplex.of([1, 2, 3], [[1, 2, 3], [1, 2]])
        assert frozenset({1, 2, 3}) not in brunnian_bonds(k)

    def test_undeclared_vertex(self):
        with pytest.raises(UnknownVertex, match="^family member 4 not a vertex$"):
            BrunnianComplex.of([1, 2, 3], [[1, 4]])


class TestBrunnianOrder:
    def test_fig_style_tower(self):
        h = make_brunnian_tower([3, 3])
        assert [len(lvl) for lvl in h.levels] == [9, 3, 1]
        assert brunnian_order(h) == 2
        assert validate(h).passed

    def test_flat_installation_orders(self):
        # downward closure kills Brunnian-ness wherever faces exist as bonds:
        # the triangle bond has its three edges bound, so only the edge bonds
        # (whose singleton subsets are never bonds in flat mode) are Brunnian
        vertex_only = from_simplicial_complex(["v"], [["v"]])
        assert brunnian_order(vertex_only) == 0
        h = from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE)
        from hyperstruct.installers import is_brunnian_bond

        assert not is_brunnian_bond(h, h.element(1, "{v0,v1,v2}"))
        assert brunnian_order(h) == 1

    def test_single_triple(self):
        h = make_brunnian_tower([3])
        assert brunnian_order(h) == 1

    def test_pair(self):
        h = make_brunnian_tower([2])
        assert [len(lvl) for lvl in h.levels] == [2, 1]
        assert brunnian_order(h) == 1

    def test_whole_set_is_the_only_brunnian_bond(self):
        # the complex's family always contains singletons, so only blocks of
        # size >= 3 survive the codim-1 check there
        for n in (3, 4):
            h = make_brunnian_tower([n])
            k = BrunnianComplex.of(
                [e.id for e in h.elements(0)],
                [[m.id for m in b.support.members] for b in h.bonds_at(1)],
            )
            assert brunnian_bonds(k) == {frozenset(e.id for e in h.elements(0))}
        pair = BrunnianComplex.of(["a", "b"], [["a", "b"]])
        assert brunnian_bonds(pair) == set()

    def test_exhaustive_branching_sweep(self):
        from itertools import product

        for depth in (1, 2, 3):
            for combo in product((2, 3, 4), repeat=depth):
                assert brunnian_order(make_brunnian_tower(list(combo))) == depth

    def test_invalid_branching(self):
        with pytest.raises(InvalidBranching):
            make_brunnian_tower([])
        with pytest.raises(InvalidBranching):
            make_brunnian_tower([1])

    def test_branching_past_the_cap_is_refused_before_anything_is_built(self, monkeypatch):
        def no_base(n):  # the check runs before range(total); should it ever go, fail instead of allocating
            raise AssertionError(f"a base of {n} elements was requested")

        monkeypatch.setattr(installers, "range", no_base, raising=False)
        for branching in ([100000, 100000], [2] * 17, [2, 3] * 1000):
            with pytest.raises(InvalidBranching, match=f"BRUNNIAN_CAP = {BRUNNIAN_CAP} base elements"):
                make_brunnian_tower(branching)

    def test_the_cap_bounds_the_product(self, monkeypatch):
        monkeypatch.setattr(installers, "BRUNNIAN_CAP", 8)
        assert len(make_brunnian_tower([2, 2, 2]).levels[0]) == 8
        with pytest.raises(InvalidBranching):
            make_brunnian_tower([3, 3])

    def test_the_cap_sits_well_above_the_benchmark_tower(self):
        assert BRUNNIAN_CAP >= 64 * 2**10


def test_every_installer_output_validates():
    rng = random.Random(2)
    outputs = [
        from_relation([["x", "y"], ["u"]], [("x", "u"), ("y", "u")]),
        from_hypergraph(["a", "b"], [["a", "b"], ["a"]]),
        from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=True),
        from_simplicial_complex(["v0", "v1", "v2"], FULL_TRIANGLE, graded=False),
        make_brunnian_tower([2, 3]),
        random_tower(rng),
    ]
    for h in outputs:
        assert validate(h).passed
