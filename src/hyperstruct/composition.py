"""Bond composition: gluing bonds whose iterated boundaries are compatible.

Two bonds compose at a probe level p when their boundaries, dissolved down
to p, either coincide (strict) or merely overlap (weak). The composite binds
the union of the operands' supports and carries a combined property token.
Cross-level composition lifts the lower bond with identity bonds first; fuse
is the weak-mode gluing recorded in the tower's operation log.
"""
from __future__ import annotations

from typing import Literal

from .core import (
    Bond,
    BondSpec,
    ElementId,
    FusionRecord,
    Hyperstructure,
    IDENTITY_PROPERTY,
    PropertyToken,
    RawId,
    Support,
    add_bonds,
    assemble,
    identity_bond,
    identity_spec,
    iterated_boundary,
    pair_token,
    sorted_elements,
    union_token,
)
from .errors import (
    CombinerUndefined,
    EmptySupport,
    LevelOutOfRange,
    NotComposable,
    NotGluable,
)

CompatibilityMode = Literal["strict", "weak"]


def combine_tokens(combiner, a: PropertyToken, b: PropertyToken) -> PropertyToken:
    """Single-token form of a combiner, used for composite bond properties."""
    if combiner is None:
        return union_token(a, b)
    from .assignments import Combiner  # late import; assignments also uses core

    if not isinstance(combiner, Combiner):
        raise CombinerUndefined(f"not a combiner: {combiner!r}")
    if combiner.kind in ("union", "disjoint-union"):
        return union_token(a, b)
    if combiner.kind == "tensor-pairs":
        return pair_token(a, b)
    if combiner.kind == "table":
        got = combiner.lookup(frozenset({a}), frozenset({b}), frozenset())
        if len(got) != 1:
            raise CombinerUndefined(f"table combiner returned {len(got)} tokens for a bond property")
        return next(iter(got))
    raise CombinerUndefined(f"unknown combiner kind {combiner.kind!r}")


def composable(h: Hyperstructure, a: ElementId, b: ElementId, p: int, mode: CompatibilityMode = "strict") -> bool:
    """Whether the probe-level boundaries make the pair composable."""
    h.bond(a)
    h.bond(b)
    if p < 0 or p >= min(a.level, b.level):
        raise LevelOutOfRange(f"probe level {p} not below both bonds ({a.level}, {b.level})")
    da = iterated_boundary(h, a, p).members
    db = iterated_boundary(h, b, p).members
    if mode == "strict":
        return da == db
    return bool(da & db)


def compose(
    h: Hyperstructure,
    a: ElementId,
    b: ElementId,
    p: int,
    mode: CompatibilityMode = "strict",
    combiner=None,
    raw_id: RawId | None = None,
) -> tuple[Hyperstructure, ElementId]:
    """Glue two same-level bonds into one binding the union of their supports.

    The operands are untouched; the combined property is assigned to the
    union support when absent.
    """
    if a.level != b.level:
        raise NotComposable(f"levels differ ({a.level} vs {b.level}); use compose_cross")
    if not composable(h, a, b, p, mode):
        raise NotComposable(f"{a!r} and {b!r} are not {mode}-compatible at level {p}")
    ba, bb = h.bond(a), h.bond(b)
    sup = ba.support.union(bb.support)
    token = combine_tokens(combiner, ba.property, bb.property)
    if token == IDENTITY_PROPERTY:
        # only an identity bond composed with itself reaches the reserved
        # token, and its composite is that bond again
        return h, a
    if raw_id is None:
        raw_id = f"({a.id}□{b.id})"
    if not sup.members:  # two bonds of a broken document that bind nothing
        raise EmptySupport("cannot assign a property to the empty support")
    return add_bonds(h, [BondSpec(sup.level, sup, token, raw_id)]), ElementId(sup.level + 1, raw_id)


def compose_cross(
    h: Hyperstructure,
    a: ElementId,
    b: ElementId,
    p: int,
    mode: CompatibilityMode = "strict",
    combiner=None,
    raw_id: RawId | None = None,
) -> tuple[Hyperstructure, ElementId]:
    """Compose bonds at different levels by lifting the lower one.

    Identity bonds are the canonical level-raising device: the lower bond is
    wrapped until both operands sit at the same level, then compose applies.
    """
    if a.level < b.level:
        a, b = b, a
    m, n = a.level, b.level
    if not (0 <= p < n):
        raise LevelOutOfRange(f"probe level {p} must lie below the lower bond (level {n})")
    h.bond(a)
    h.bond(b)
    lifted = b
    while lifted.level < m:
        h, lifted = identity_bond(h, lifted.level, lifted)
    return compose(h, a, lifted, p, mode, combiner, raw_id)


def fuse(
    h: Hyperstructure,
    a: ElementId,
    b: ElementId,
    k: int,
    combiner=None,
    raw_id: RawId | None = None,
) -> tuple[Hyperstructure, ElementId]:
    """Weak-mode gluing at level k, logged with its (k, m, n) signature."""
    h.bond(a)
    h.bond(b)
    if not (0 <= k < min(a.level, b.level)):
        raise LevelOutOfRange(f"gluing level {k} not below both bonds")
    try:
        h2, eid = compose_cross(h, a, b, k, "weak", combiner, raw_id)
    except NotComposable:
        raise NotGluable(f"{a!r} and {b!r} share nothing at level {k}") from None
    rec = FusionRecord(k=k, m=max(a.level, b.level), n=min(a.level, b.level), a=a, b=b, result=eid)
    return h2._replace(fusion_log=h2.fusion_log + (rec,)), eid


def _prefix_element(e: ElementId, tag: str) -> ElementId:
    return ElementId(e.level, f"{tag}:{e.id}")


def _prefix_support(s: Support, tag: str) -> Support:
    return Support(s.level, frozenset(_prefix_element(m, tag) for m in s.members))


def _pad_to_order(h: Hyperstructure, order: int) -> Hyperstructure:
    """Raise a tower's order by wrapping every top element in an identity bond."""
    specs = []
    top = sorted_elements(h.levels[h.order])
    for i in range(h.order, order):
        wraps = [identity_spec(e) for e in top]
        specs += wraps
        top = [ElementId(i + 1, spec.raw_id) for spec in wraps]
    return add_bonds(h, specs, order)


def disjoint_union(h1: Hyperstructure, h2: Hyperstructure) -> Hyperstructure:
    """Levelwise disjoint union with id prefixing and no cross bonds.

    Both fusion logs are kept, first h1's then h2's, with prefixed ids.
    Towers of unequal order are padded with identity levels first. Spanning
    bonds between the halves are the caller's next move, followed by fuse.
    """
    order = max(h1.order, h2.order)
    levels: list[set[ElementId]] = [set() for _ in range(order + 1)]
    omegas: list[dict[Support, frozenset[PropertyToken]]] = [{} for _ in range(order + 1)]
    bonds: list[Bond] = []
    log: list[FusionRecord] = []
    for h, tag in ((_pad_to_order(h1, order), "1"), (_pad_to_order(h2, order), "2")):
        for i in range(order + 1):
            levels[i].update(_prefix_element(e, tag) for e in h.levels[i])
            for s, tokens in h.omegas[i].items():
                ps = _prefix_support(s, tag)
                omegas[i][ps] = omegas[i].get(ps, frozenset()) | tokens  # only the empty support can collide
        bonds += (
            Bond(id=_prefix_element(b.id, tag), support=_prefix_support(b.support, tag), property=b.property, identity=b.identity)
            for b in h.bonds
        )
        log += (
            r._replace(a=_prefix_element(r.a, tag), b=_prefix_element(r.b, tag), result=_prefix_element(r.result, tag))
            for r in h.fusion_log
        )
    return assemble(levels, omegas, bonds, tuple(log))
