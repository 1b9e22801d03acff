"""One-step operations on a tower: assign a property, bind one bond, dissolve
a bond into its support, and list the admissible binding targets.

No other module of the library calls these, and no CLI command runs them,
so they load on first use; `core` still exports every name here.
"""
from __future__ import annotations

from .core import BondSpec, ElementId, Hyperstructure, IDENTITY_PROPERTY, PropertyToken, RawId, Support, _check_spec, add_bonds, sorted_elements
from .errors import EmptySupport, LevelOutOfRange, PropertyNotAssigned, ReservedProperty, UnknownElement


def assign_property(h: Hyperstructure, i: int, s: Support, token: PropertyToken) -> Hyperstructure:
    """Add one property token to the omega table at level i. Idempotent."""
    h.check_level(i)
    if s.level != i:
        raise LevelOutOfRange(f"support at level {s.level}, expected {i}")
    if not s.members:
        raise EmptySupport("cannot assign a property to the empty support")
    for m in sorted_elements(s.members):
        if not h.has_element(m):
            raise UnknownElement(f"support member {m!r} not in the tower")
    if token == IDENTITY_PROPERTY:
        raise ReservedProperty(f"{IDENTITY_PROPERTY!r} is reserved for identity bonds")
    have = h.omegas[i].get(s, frozenset())
    if token in have:
        return h
    tables = list(h.omegas)
    tables[i] = {**tables[i], s: have | {token}}
    return h._replace(omegas=tuple(tables))


def add_bond(h: Hyperstructure, i: int, s: Support, token: PropertyToken, raw_id: RawId) -> tuple[Hyperstructure, ElementId]:
    """Register a bond over the level-i support s; it becomes an element of X_{i+1}.

    This is add_bonds of the one spec, once the token is known to be
    assigned to s already. Binding at the top level grows the tower by one
    level.
    """
    _check_spec(h.levels, i, s, token, False)
    if token not in h.omega(i, s):
        raise PropertyNotAssigned(f"{token!r} not assigned to {s!r} at level {i}")
    return add_bonds(h, [BondSpec(i, s, token, raw_id)]), ElementId(i + 1, raw_id)


def boundary(h: Hyperstructure, b: ElementId) -> Support:
    """Dissolve a bond into the support it binds."""
    return h.bond(b).support


def gamma(h: Hyperstructure, i: int) -> tuple[tuple[Support, PropertyToken], ...]:
    """All admissible binding targets (support, token) at level i, canonically ordered."""
    h.check_level(i)
    pairs = [
        (s, t)
        for s, tokens in h.omegas[i].items()
        for t in sorted(tokens)
    ]
    pairs.sort(key=lambda p: (p[0].key, p[1]))
    return tuple(pairs)
