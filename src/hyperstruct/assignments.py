"""Behaviour of property assignments under unions and intersections.

An omega table is just an assignment from supports to finite token sets; it
need not be a functor. When the user supplies induced maps along inclusions,
these checks compute the finite-set pushout or pullback over the overlap and
compare it with the table's value at the union. Without maps, a combiner can
still predict the union's tokens, and whatever the table holds beyond that
prediction counts as emergent.
"""
from __future__ import annotations

from typing import Literal, Mapping, NamedTuple

from .core import PropertyToken, Support
from .errors import CombinerUndefined, MissingInducedMap, NotDisjoint
from .report import CheckReport, Finding

TENSOR_SEPARATOR = "⊗"

TokenSet = frozenset[PropertyToken]
TokenMap = Mapping[PropertyToken, PropertyToken]


def pair_token(a: PropertyToken, b: PropertyToken) -> PropertyToken:
    """Canonical name for an ordered token pair."""
    return f"{a}{TENSOR_SEPARATOR}{b}"


class InducedMaps(NamedTuple):
    """Explicit functorial data for an omega table.

    Covariant maps follow inclusions upward (value at the smaller support
    maps into the larger); contravariant maps restrict downward. Identity
    inclusions always act as identities and need not be listed.
    """

    variance: Literal["covariant", "contravariant"]
    restrictions: Mapping[tuple[Support, Support], TokenMap]

    def map_for(self, sub: Support, sup: Support) -> TokenMap:
        if sub == sup:
            return {}
        got = self.restrictions.get((sub, sup))
        if got is None:
            raise MissingInducedMap(f"no induced map for {sub!r} ⊆ {sup!r}")
        return got


def _apply(m: TokenMap, x: PropertyToken, sub: Support, sup: Support) -> PropertyToken:
    if sub == sup:
        return x
    if x not in m:
        raise MissingInducedMap(f"induced map for {sub!r} ⊆ {sup!r} undefined at {x!r}")
    return m[x]


def _check_into(m: TokenMap, dom: TokenSet, cod: TokenSet, sub: Support, sup: Support) -> None:
    """Totality on dom and codomain discipline for one induced map."""
    if sub == sup:
        return
    for x in sorted(dom):  # so the error names the first token, in sorted order, that breaks the map
        if x not in m:
            raise MissingInducedMap(f"induced map for {sub!r} ⊆ {sup!r} undefined at {x!r}")
        if m[x] not in cod:
            raise MissingInducedMap(f"induced map for {sub!r} ⊆ {sup!r} sends {x!r} outside the target tokens")


class Combiner(NamedTuple):
    """Rule producing the union's token set from the parts and the overlap."""

    name: str
    kind: Literal["union", "disjoint-union", "tensor-pairs", "table"]
    table: Mapping[tuple[TokenSet, TokenSet, TokenSet], TokenSet] | None = None

    def lookup(self, w1: TokenSet, w2: TokenSet, w12: TokenSet) -> TokenSet:
        if self.table is None:
            raise CombinerUndefined(f"combiner {self.name!r} has no table")
        got = self.table.get((w1, w2, w12))
        if got is None:
            raise CombinerUndefined(f"combiner {self.name!r} undefined at ({sorted(w1)}, {sorted(w2)}, {sorted(w12)})")
        return got


UNION = Combiner(name="union", kind="union")
DISJOINT_UNION = Combiner(name="disjoint-union", kind="disjoint-union")
TENSOR_PAIRS = Combiner(name="tensor-pairs", kind="tensor-pairs")

BUILTIN_COMBINERS = {c.name: c for c in (UNION, DISJOINT_UNION, TENSOR_PAIRS)}


def combine_phi(combiner: Combiner, w1: TokenSet, w2: TokenSet, w12: TokenSet) -> TokenSet:
    """Apply a combiner to the parts' token sets and the overlap's."""
    w1, w2, w12 = frozenset(w1), frozenset(w2), frozenset(w12)
    if combiner.kind == "union":
        return w1 | w2
    if combiner.kind == "disjoint-union":
        return frozenset({f"{t}#1" for t in w1} | {f"{t}#2" for t in w2})
    if combiner.kind == "tensor-pairs":
        return frozenset(pair_token(a, b) for a in w1 for b in w2)
    if combiner.kind == "table":
        return combiner.lookup(w1, w2, w12)
    raise CombinerUndefined(f"unknown combiner kind {combiner.kind!r}")


def emergent(omega: Mapping[Support, TokenSet], s1: Support, s2: Support, combiner: Combiner) -> TokenSet:
    """Tokens at the union that the combiner cannot produce from the parts."""
    union = s1.union(s2)
    inter = s1.intersection(s2)
    predicted = combine_phi(
        combiner,
        omega.get(s1, frozenset()),
        omega.get(s2, frozenset()),
        omega.get(inter, frozenset()),
    )
    return omega.get(union, frozenset()) - predicted


# -- pushout / pullback ------------------------------------------------------------


def pushout_classes(w1: TokenSet, w2: TokenSet, w12: TokenSet, f1: TokenMap, f2: TokenMap):
    """Equivalence classes of the finite-set pushout of w1 <- w12 -> w2.

    Classes are computed by merging the images of each overlap token; the
    representative map sends every tagged token to its class index.
    """
    nodes = [(1, x) for x in sorted(w1)] + [(2, x) for x in sorted(w2)]
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb, key=str)] = min(ra, rb, key=str)

    for x in sorted(w12):
        if x not in f1 or x not in f2:
            raise MissingInducedMap(f"overlap token {x!r} missing from an induced map")
        union((1, f1[x]), (2, f2[x]))
    classes: dict = {}
    for n in nodes:
        classes.setdefault(find(n), []).append(n)
    return classes, find


def check_pushout(
    omega: Mapping[Support, TokenSet],
    maps: InducedMaps,
    s1: Support,
    s2: Support,
) -> CheckReport:
    """Is the union's token set the pushout of the parts over the overlap?

    Builds the pushout from the covariant maps and tests whether the induced
    comparison map into omega(union) is a bijection; failures carry witnesses.
    """
    if maps.variance != "covariant":
        raise MissingInducedMap("pushout checks need covariant maps")
    inter, un = s1.intersection(s2), s1.union(s2)
    w1, w2, w12, wu = (omega.get(s, frozenset()) for s in (s1, s2, inter, un))
    f1 = maps.map_for(inter, s1)
    f2 = maps.map_for(inter, s2)
    u1 = maps.map_for(s1, un)
    u2 = maps.map_for(s2, un)
    _check_into(f1, w12, w1, inter, s1)
    _check_into(f2, w12, w2, inter, s2)

    findings: list[Finding] = []
    classes, find = pushout_classes(w1, w2, w12, {x: _apply(f1, x, inter, s1) for x in w12}, {x: _apply(f2, x, inter, s2) for x in w12})

    # the comparison map must be constant on classes, injective across them,
    # and surjective onto the union's tokens
    image = {}
    for rep, members in sorted(classes.items(), key=lambda kv: str(kv[0])):  # so "not-injective" names the same classes
        targets = set()
        for side, x in members:
            targets.add(_apply(u1 if side == 1 else u2, x, s1 if side == 1 else s2, un))
        if len(targets) > 1:
            findings.append(Finding("not-well-defined", f"class {sorted(str(m) for m in members)} maps to {sorted(targets)}"))
            continue
        t = next(iter(targets))
        if t in image:
            findings.append(Finding("not-injective", f"classes {image[t]!r} and {rep!r} both map to {t!r}"))
        image[t] = rep
    for t in wu:
        if t not in image:
            findings.append(Finding("no-preimage", f"token {t!r} at the union has no preimage in the pushout"))
    for t in image:
        if t not in wu:
            findings.append(Finding("outside-union", f"comparison map hits {t!r} outside the union's tokens"))
    notes = (f"pushout size {len(classes)}, union size {len(wu)}",)
    return CheckReport("pushout", findings, notes)


def check_pullback(
    omega: Mapping[Support, TokenSet],
    maps: InducedMaps,
    s1: Support,
    s2: Support,
) -> CheckReport:
    """Is the union's token set the pullback of the parts over the overlap?"""
    if maps.variance != "contravariant":
        raise MissingInducedMap("pullback checks need contravariant maps")
    inter, un = s1.intersection(s2), s1.union(s2)
    w1, w2, w12, wu = (omega.get(s, frozenset()) for s in (s1, s2, inter, un))
    r1 = maps.map_for(inter, s1)  # omega(s1) -> omega(inter)
    r2 = maps.map_for(inter, s2)
    p1 = maps.map_for(s1, un)  # omega(union) -> omega(s1)
    p2 = maps.map_for(s2, un)
    _check_into(r1, w1, w12, inter, s1)
    _check_into(r2, w2, w12, inter, s2)
    _check_into(p1, wu, w1, s1, un)
    _check_into(p2, wu, w2, s2, un)

    pullback = {
        (x, y)
        for x in w1
        for y in w2
        if _apply(r1, x, inter, s1) == _apply(r2, y, inter, s2)
    }
    findings: list[Finding] = []
    image: dict = {}
    for t in sorted(wu):  # so "not-injective" names the same pair of tokens whatever the hash seed
        pair = (_apply(p1, t, s1, un), _apply(p2, t, s2, un))
        if pair not in pullback:
            findings.append(Finding("not-well-defined", f"token {t!r} projects to {pair!r} outside the pullback"))
            continue
        if pair in image:
            findings.append(Finding("not-injective", f"tokens {image[pair]!r} and {t!r} project to the same pair {pair!r}"))
        image[pair] = t
    for pair in pullback:
        if pair not in image:
            findings.append(Finding("no-preimage", f"pullback pair {pair!r} is hit by no union token"))
    notes = (f"pullback size {len(pullback)}, union size {len(wu)}",)
    return CheckReport("pullback", findings, notes)


def check_tensor(omega: Mapping[Support, TokenSet], s1: Support, s2: Support) -> CheckReport:
    """For disjoint supports: does the union carry exactly the pair tokens?"""
    if s1.members & s2.members:
        raise NotDisjoint(f"supports share {sorted(str(e) for e in s1.members & s2.members)}")
    w1 = omega.get(s1, frozenset())
    w2 = omega.get(s2, frozenset())
    wu = omega.get(s1.union(s2), frozenset())
    expected = frozenset(pair_token(a, b) for a in w1 for b in w2)
    findings = []
    if len(wu) != len(w1) * len(w2):
        findings.append(Finding("cardinality", f"|union| = {len(wu)}, |parts| = {len(w1)} x {len(w2)}"))
    for t in expected - wu:
        findings.append(Finding("missing-pair", f"expected pair token {t!r} absent at the union"))
    for t in wu - expected:
        findings.append(Finding("not-a-pair", f"union token {t!r} is not a canonical pair"))
    notes = (f"|w1|={len(w1)} |w2|={len(w2)} |union|={len(wu)}",)
    return CheckReport("tensor", findings, notes)
