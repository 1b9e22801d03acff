"""Seeded input generators.

Plain Python that imports nothing from hyperstruct: the program under test
receives only what these functions return or the documents they build. The
same `random.Random` seed always yields the same inputs.
"""
from __future__ import annotations

import json
import random

FORMAT = "hyperstruct/1"
EDGE = "edge"


def id_key(raw):
    """Raw identifiers order ints before strings, as in canonical documents."""
    return (isinstance(raw, str), raw)


def canonical_name(members) -> str:
    """The bond id the hypergraph installer gives an edge."""
    return "{" + ",".join(str(r) for r in sorted(members, key=id_key)) + "}"


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# -- hypergraphs -------------------------------------------------------------------


def hypergraph(rng: random.Random, n_edges: int, n_vertices: int | None = None):
    """Vertices and `n_edges` distinct edges of 2 to 4 vertices each."""
    n_vertices = n_vertices or max(8, n_edges // 2)
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges: set[frozenset] = set()
    while len(edges) < n_edges:
        edges.add(frozenset(rng.sample(vertices, rng.randint(2, 4))))
    return vertices, sorted(edges, key=canonical_name)


def install_payload(rng: random.Random, vertices, edges) -> dict:
    """Hypergraph payload with every twentieth edge repeated, in shuffled order."""
    listed = [sorted(e) for e in edges] + [sorted(e, reverse=True) for e in edges[::20]]
    rng.shuffle(listed)
    return {"vertices": list(vertices), "edges": listed}


def hypergraph_tower(vertices, edges, extra_omega=()) -> dict:
    """Canonical hyperstructure section of the order-1 tower over `edges`."""
    omega = {frozenset(e): {EDGE} for e in edges}
    for support, tokens in extra_omega:
        omega.setdefault(frozenset(support), set()).update(tokens)
    return {
        "order": 1,
        "levels": [sorted(vertices, key=id_key), sorted((canonical_name(e) for e in edges), key=id_key)],
        "omega": [
            sorted(
                ({"support": sorted(s, key=id_key), "properties": sorted(t)} for s, t in omega.items()),
                key=lambda entry: [id_key(x) for x in entry["support"]],
            ),
            [],
        ],
        "bonds": sorted(
            (
                {"id": canonical_name(e), "level": 1, "support": sorted(e, key=id_key), "property": EDGE, "identity": False}
                for e in edges
            ),
            key=lambda b: id_key(b["id"]),
        ),
    }


def states_document(rng: random.Random, vertices, edges) -> tuple[dict, dict]:
    """A tower with a states section: unit base states folded by SUM, random
    top states spread by the identity co-connector. Returns (document, top)."""
    top = {canonical_name(e): rng.randint(0, 3) for e in edges}
    doc = {
        "format": FORMAT,
        "hyperstructure": hypergraph_tower(vertices, edges),
        "states": {
            "base": [[v, 1] for v in sorted(vertices, key=id_key)],
            "connectors": [{"kind": "sum"}],
            "top": [[k, top[k]] for k in sorted(top, key=id_key)],
            "co_connectors": [{"kind": "identity"}],
            "assignment": None,
        },
    }
    return doc, top


def overlapping_pair(rng: random.Random, edges) -> tuple[frozenset, frozenset]:
    """Two distinct edges that share a vertex."""
    by_vertex: dict = {}
    for e in edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    shared = sorted((v for v, es in by_vertex.items() if len(es) > 1), key=id_key)
    a, b = rng.sample(by_vertex[rng.choice(shared)], 2)
    return a, b


# -- relations and complexes --------------------------------------------------------


def relation_payload(rng: random.Random, n_tuples: int, sizes=(12, 10, 8)) -> dict:
    """Up to `n_tuples` distinct tuples; the relation installer refuses repeats."""
    comps = [list(range(n)) for n in sizes]
    tuples = {tuple(rng.choice(c) for c in comps) for _ in range(n_tuples)}
    return {"components": comps, "tuples": [list(t) for t in sorted(tuples)]}


def simplicial_payload(rng: random.Random, n_vertices: int, n_facets: int) -> dict:
    """A downward-closed complex: random facets of 2 to 4 vertices and all their faces."""
    simplices: set[frozenset] = {frozenset({v}) for v in range(n_vertices)}
    for _ in range(n_facets):
        facet = rng.sample(range(n_vertices), rng.randint(2, 4))
        for mask in range(1, 1 << len(facet)):
            simplices.add(frozenset(v for k, v in enumerate(facet) if mask >> k & 1))
    return {"vertices": list(range(n_vertices)), "simplices": [sorted(s) for s in sorted(simplices, key=sorted)]}


# -- posets ---------------------------------------------------------------------------


def random_dag_poset(rng: random.Random, n: int, density: float) -> list[frozenset[int]]:
    """Strict down-sets of a random DAG's transitive closure: below[j] < j."""
    below: list[frozenset[int]] = []
    for j in range(n):
        acc: set[int] = set()
        for i in range(j):
            if rng.random() < density:
                acc |= {i} | below[i]
        below.append(frozenset(acc))
    return below


def principal_supports(below) -> list[frozenset[str]]:
    """Realize a poset as support inclusion: node j binds itself and all below it."""
    return [frozenset({f"v{j}"} | {f"v{i}" for i in b}) for j, b in enumerate(below)]


def boolean_lattice(rank: int) -> list[str]:
    return [format(m, f"0{rank}b") for m in range(1 << rank)]


def subset_leq(a: str, b: str) -> bool:
    return all(x <= y for x, y in zip(a, b))


def category_json(objects, leq) -> dict:
    """Canonical category section of a poset: one morphism 'x->y' per x <= y."""
    mors = [(x, y) for x in objects for y in objects if leq(x, y)]
    name = {m: f"{m[0]}->{m[1]}" for m in mors}
    comp = [[name[g], name[f], f"{f[0]}->{g[1]}"] for g in mors for f in mors if f[1] == g[0]]
    return {
        "objects": sorted(objects),
        "morphisms": sorted(({"id": name[m], "src": m[0], "tgt": m[1]} for m in mors), key=lambda m: m["id"]),
        "identities": sorted([x, f"{x}->{x}"] for x in objects),
        "composition": sorted(comp),
    }


def count_chains(objects, leq, length: int) -> int:
    """Strict chains x0 < ... < x_length: the nerve's simplices in that dimension."""
    lt = {x: [y for y in objects if y != x and leq(x, y)] for x in objects}
    ways = {x: 1 for x in objects}
    for _ in range(length):
        ways = {x: sum(ways[y] for y in lt[x]) for x in objects}
    return sum(ways.values())


# -- topologies -----------------------------------------------------------------------


def down_closure(below, chosen) -> frozenset[int]:
    out: set[int] = set()
    for c in chosen:
        out |= {c} | below[c]
    return frozenset(out)


def candidate_topologies(rng: random.Random, below, count: int) -> list[dict[int, list[frozenset[int]]]]:
    """`count` candidate sieve assignments on the poset's nodes.

    The first is the maximal topology, which always passes. The rest add a
    few random sieves per root: down-closures of sparse random picks, often
    empty, so most fail stability and transitivity with many findings. Now
    and then a root loses its maximal sieve or gains a family that is not
    downward closed.
    """
    n = len(below)
    ideals = [below[j] | {j} for j in range(n)]
    out = [{j: [ideals[j]] for j in range(n)}]
    for _ in range(count - 1):
        cand: dict[int, list[frozenset[int]]] = {}
        for j in range(n):
            sieves = {ideals[j]}
            for _ in range(rng.randint(0, 2)):
                sieves.add(down_closure(below, [i for i in sorted(ideals[j]) if rng.random() < 0.15]))
            if rng.random() < 0.03:
                sieves.discard(ideals[j])
            if rng.random() < 0.03 and below[j]:
                sieves.add(frozenset({j}))
            cand[j] = sorted(sieves, key=sorted)
        out.append(cand)
    return out


def all_downsets(below, root: int) -> list[frozenset[int]]:
    """Every downward-closed subset of root's ideal, by branching on elements."""
    ideal = sorted(below[root] | {root})
    out: list[frozenset[int]] = []

    def grow(k: int, chosen: frozenset[int]):
        if k == len(ideal):
            out.append(chosen)
            return
        x = ideal[k]
        grow(k + 1, chosen)
        if below[x] <= chosen:
            grow(k + 1, chosen | {x})

    grow(0, frozenset())
    return out


def topology_json(below, per_root: dict[int, list[frozenset[int]]], base) -> list:
    """Topology section: singleton sieves at level 0, `per_root` at level 1."""
    names = [canonical_name(s) for s in principal_supports(below)]
    entries = [[[0, v], [[v]]] for v in sorted(base, key=id_key)]
    for j in sorted(per_root, key=lambda j: id_key(names[j])):
        sieves = sorted(sorted((names[i] for i in s), key=id_key) for s in per_root[j])
        entries.append([[1, names[j]], sieves])
    entries.sort(key=lambda e: (e[0][0], id_key(e[0][1])))
    return entries
