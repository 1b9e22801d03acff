"""Bond composition: gluing bonds whose iterated boundaries are compatible.

Two bonds compose at a probe level p when their boundaries, dissolved down
to p, either coincide (strict) or merely overlap (weak). The composite binds
the union of the operands' supports and carries a combined property token.
Cross-level composition checks the pair, then adds the lower bond's identity
lift with the composite; fuse is weak gluing recorded in the tower's log.
"""
from __future__ import annotations

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
    iterated_boundary,
    lift_specs,
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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

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
    _check_probe(h, a, b, p)
    return _compatible(h, a, b, p, mode)


def _check_probe(h: Hyperstructure, a: ElementId, b: ElementId, p: int) -> None:
    """Refuse a pair that is not two bonds of h, or a probe level not below both."""
    h.bond(a)
    h.bond(b)
    if p < 0 or p >= min(a.level, b.level):
        raise LevelOutOfRange(f"probe level {p} not below both bonds ({a.level}, {b.level})")


def _compatible(h: Hyperstructure, a: ElementId, b: ElementId, p: int, mode: CompatibilityMode) -> bool:
    """Whether the boundaries of two checked bonds at level p are mode-compatible."""
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
    _check_probe(h, a, b, p)
    return _glue(h, a, b, p, mode, combiner, raw_id)


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
    wrapped until both operands sit at the same level. The pair is checked
    first, and the lift is built with the composite in one add_bonds call.
    """
    if a.level < b.level:
        a, b = b, a
    if not (0 <= p < b.level):
        raise LevelOutOfRange(f"probe level {p} must lie below the lower bond (level {b.level})")
    h.bond(a)
    h.bond(b)
    return _glue(h, a, b, p, mode, combiner, raw_id)


def _glue(h, a, b, p, mode, combiner, raw_id) -> tuple[Hyperstructure, ElementId]:
    """Glue a with b lifted to a's level, deciding on the pair as given: a lift keeps b's boundaries.
    The caller has checked that both are bonds, b's level is at most a's and p lies below it."""
    if not _compatible(h, a, b, p, mode):
        raise NotComposable(f"{a!r} and {b!r} are not {mode}-compatible at level {p}")
    specs, lifted = lift_specs(h, b, a.level)
    ba = h.bond(a)
    bb = Bond(lifted, specs[-1].support, IDENTITY_PROPERTY, True) if specs else h.bond(lifted)
    sup = ba.support.union(bb.support)
    token = combine_tokens(combiner, ba.property, bb.property)
    if token == IDENTITY_PROPERTY:
        # only identity bonds reach the reserved token, and their composite is a again
        return (add_bonds(h, specs) if specs else h), a
    if raw_id is None:
        raw_id = f"({a.id}□{lifted.id})"
    if not sup.members:  # two bonds of a broken document that bind nothing
        raise EmptySupport("cannot assign a property to the empty support")
    return add_bonds(h, [*specs, BondSpec(sup.level, sup, token, raw_id)]), ElementId(sup.level + 1, raw_id)


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
    upper, lower = (a, b) if a.level >= b.level else (b, a)
    try:
        h2, eid = _glue(h, upper, lower, k, "weak", combiner, raw_id)
    except NotComposable:
        raise NotGluable(f"{a!r} and {b!r} share nothing at level {k}") from None
    rec = FusionRecord(k=k, m=max(a.level, b.level), n=min(a.level, b.level), a=a, b=b, result=eid)
    return h2._replace(fusion_log=h2.fusion_log + (rec,)), eid


def _prefix_element(e: ElementId, tag: str) -> ElementId:
    return ElementId(e.level, f"{tag}:{e.id}")


def _prefix_support(s: Support, tag: str) -> Support:
    return Support(s.level, frozenset(_prefix_element(m, tag) for m in s.members))


def _pad_to_order(h: Hyperstructure, order: int) -> Hyperstructure:
    """Raise a tower's order by lifting every top element with identity bonds."""
    specs = [spec for e in sorted_elements(h.levels[h.order]) for spec in lift_specs(h, e, order)[0]]
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
