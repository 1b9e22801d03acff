"""Independent references the benchmark checks the program's outputs against.

Each reference recomputes a result from the generated inputs with its own
plain-Python code; none calls the hyperstruct function it checks.
"""
from __future__ import annotations

from itertools import combinations

from gen import all_downsets, canonical_name


def topology_codes(below, candidate) -> tuple[bool, frozenset[str]]:
    """Verdict and finding codes of the axiom checker on one poset level.

    Quantifies the three axioms directly over node sets, stopping at the
    first witness of each code: the codes, not the witness text, are checked.
    """
    n = len(below)
    ideals = [below[j] | {j} for j in range(n)]
    codes: set[str] = set()
    valid: list[set[frozenset[int]]] = []
    for j in range(n):
        kept = set()
        for s in candidate.get(j, ()):
            if not s <= ideals[j] or any(not below[x] <= s for x in s):
                codes.add("not-a-sieve")
            else:
                kept.add(s)
        valid.append(kept)
    for b in range(n):
        if ideals[b] not in valid[b]:
            codes.add("maximality")
        if "stability" not in codes:
            if any(s & ideals[f] not in valid[f] for f in below[b] for s in valid[b]):
                codes.add("stability")
        if "transitivity" not in codes:
            missing = [r for r in all_downsets(below, b) if r not in valid[b]]
            if any(all(r & ideals[f] in valid[f] for f in s) for s in valid[b] for r in missing):
                codes.add("transitivity")
    return not codes, frozenset(codes)


def brunnian_edges(edges) -> int:
    """Edges none of whose codimension-1 sub-collections is itself an edge."""
    present = set(edges)
    count = 0
    for e in edges:
        if len(e) >= 2 and not any(frozenset(sub) in present for sub in combinations(e, len(e) - 1)):
            count += 1
    return count


def localized(vertices, edges, top) -> dict:
    """States the identity co-connector spreads down from the top states."""
    proposals: dict = {v: set() for v in vertices}
    for e in edges:
        for v in e:
            proposals[v].add(top[canonical_name(e)])
    out = {}
    for v, got in proposals.items():
        if not got:
            out[v] = {"marker": "unassigned"}
        elif len(got) == 1:
            out[v] = next(iter(got))
        else:
            out[v] = {"marker": "conflict"}
    return out


def graph_betti(vertices, arrows) -> list[int]:
    """Betti numbers 0..2 of a category whose nerve is a graph (no 2-chains)."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arrows:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = sum(1 for v in vertices if find(v) == v)
    return [components, len(arrows) - len(vertices) + components, 0]
