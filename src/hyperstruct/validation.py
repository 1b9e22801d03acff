"""The tower laws, checked by validate().

Reading, writing and building a tower need none of this, so it loads only
when validate() is first used; `core` still exports validate and the
finding codes.
"""
from __future__ import annotations

from .core import Bond, ElementId, Hyperstructure
from .report import CheckReport, Finding

#: Violation classes emitted by validate().
DANGLING_SUPPORT = "dangling-support"
PROPERTY_NOT_ASSIGNED = "property-not-assigned"
DUPLICATE_BOND = "duplicate-bond"
IDENTITY_LAW = "identity-law"
NON_BOND_ELEMENT = "non-bond-element"
EMPTY_SUPPORT = "empty-support"
LEVEL_MISMATCH = "level-mismatch"
MALFORMED_TOWER = "malformed-tower"
EMPTY_OMEGA = "empty-omega-entry"
DANGLING_FUSION = "dangling-fusion-record"


def validate(h: Hyperstructure) -> CheckReport:
    """Report every violated tower invariant; an empty report means valid.

    One pass reads the bond registry; no walk sorts, as the report orders the findings.
    """
    findings: list[Finding] = []

    def flag(code: str, message: str):
        findings.append(Finding(code, message))

    if len(h.levels) != h.order + 1 or len(h.omegas) != h.order + 1:
        flag(MALFORMED_TOWER, f"declared order {h.order} vs {len(h.levels)} levels / {len(h.omegas)} omega tables")
        return CheckReport("validate", findings)

    # one pass over the registry: the id index, each support, and the identity marks
    by_id: dict[ElementId, list[Bond]] = {}
    marks: dict[ElementId, int] = {}  # identity bonds per element
    for b in h.bonds:
        by_id.setdefault(b.id, []).append(b)
        s = b.support
        if b.identity and len(s.members) == 1:
            (x,) = s.members
            marks[x] = marks.get(x, 0) + 1
        if not s.members:
            flag(EMPTY_SUPPORT, f"bond {b.id!r} binds nothing")
            continue
        if s.level != b.id.level - 1:
            flag(LEVEL_MISMATCH, f"bond {b.id!r} at level {b.id.level} binds level {s.level}")
            continue
        dangling = [m for m in s.members if not h.has_element(m)]
        for m in dangling:
            flag(DANGLING_SUPPORT, f"bond {b.id!r} binds missing element {m!r}")
        if not dangling and b.property not in h.omegas[s.level].get(s, frozenset()):
            flag(PROPERTY_NOT_ASSIGNED, f"bond {b.id!r} carries {b.property!r} not assigned to {s!r}")
        if b.identity and len(s.members) != 1:
            flag(IDENTITY_LAW, f"identity bond {b.id!r} binds {len(s.members)} elements")

    # registry totality and single-valuedness
    for eid, records in by_id.items():
        if len(records) > 1:
            supports = {r.support.members for r in records}
            if len(supports) > 1:
                flag(DUPLICATE_BOND, f"bond {eid!r} binds two collections")
            else:
                flag(DUPLICATE_BOND, f"bond {eid!r} registered {len(records)} times")
        if not (0 < eid.level <= h.order) or eid not in h.levels[eid.level]:
            flag(LEVEL_MISMATCH, f"bond record {eid!r} is not a listed element")
    for i, lvl in enumerate(h.levels):
        for e in lvl:
            if e.level != i:
                flag(LEVEL_MISMATCH, f"element {e!r} stored at level {i}")
            if i and e not in by_id:
                flag(NON_BOND_ELEMENT, f"element {e!r} above level 0 has no bond record")
    for x, n in marks.items():
        if n > 1:
            flag(IDENTITY_LAW, f"element {x!r} has {n} identity bonds")

    for i, table in enumerate(h.omegas):
        for s, tokens in table.items():
            if s.level != i:
                flag(LEVEL_MISMATCH, f"omega entry at level {i} keyed by level-{s.level} support {s!r}")
            if not tokens:
                flag(EMPTY_OMEGA, f"omega entry for {s!r} at level {i} is empty")
            for m in s.members:
                if not h.has_element(m):
                    flag(DANGLING_SUPPORT, f"omega support {s!r} references missing {m!r}")

    for k, rec in enumerate(h.fusion_log):
        for e in (rec.a, rec.b, rec.result):
            if not h.has_element(e):
                flag(DANGLING_FUSION, f"fusion record {k} references missing {e!r}")

    return CheckReport("validate", findings)
