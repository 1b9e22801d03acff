"""Checks on a state assignment: codomains, descent over a site, tensor pairing.

`states` exports these and loads this module on first use, so globalizing,
localizing and reading a states section never compile them.
"""
from __future__ import annotations

from collections.abc import Sequence

from .core import Hyperstructure, sorted_elements
from .errors import OperationMissing
from .report import CheckReport, Finding
from .states import Connector, LambdaAssignment, Marker, StateTower

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .topology import Site


def validate_lambda(h: Hyperstructure, tower: StateTower, lam: LambdaAssignment) -> CheckReport:
    """Codomain discipline: level-i states must lie in the space S_{n-i}."""
    findings: list[Finding] = []
    if len(tower.spaces) != h.order + 1:
        findings.append(Finding("shape", f"{len(tower.spaces)} state spaces for an order-{h.order} tower"))
        return CheckReport("lambda-codomains", findings)
    if len(lam.per_level) != h.order + 1:
        findings.append(Finding("shape", f"{len(lam.per_level)} assignment levels for an order-{h.order} tower"))
        return CheckReport("lambda-codomains", findings)
    for i in range(h.order + 1):
        space = tower.space_for_level(h.order, i)
        for e in h.elements(i):
            v = lam.per_level[i].get(e)
            if v is None:
                findings.append(Finding("totality", f"no state for {e!r}"))
            elif isinstance(v, Marker):
                continue
            elif v not in space:
                findings.append(Finding("codomain", f"state {v!r} of {e!r} outside space {h.order - i}"))
    return CheckReport("lambda-codomains", findings)


def check_amalgamation(site: Site, lam: LambdaAssignment, connectors: Sequence[Connector]) -> CheckReport:
    """Descent over the site: covering families must recompute the same states.

    A family whose member boundaries cover a bond's boundary is recomputed
    flat through the connector; a family that partitions the boundary is
    additionally recomputed stagewise (member folds first, then one fold
    across members) for fold connectors. Families carrying no descent datum
    (empty, or not covering) are skipped. The site is one make_site built;
    its tower's refinement orders are read here.

    Each family is read into a mask over its level: with one lookup in the
    order's mask memo when maximal_topology built it, else in one pass over
    its members. A family covers when the OR of its members' support masks
    equals the bond's. The family's members are read from the order's ideal
    list of the bond when the family is the bond's maximal sieve, and from
    the mask's bits otherwise. Boundaries are the order's members lists:
    ascending positions over the level below, so lower states are read in
    sorted_elements order and KeyError names the first member without one.
    Sieves are read as stored: the first covering family folds the bond's
    own boundary, once, so no error depends on their order; a one-member
    family costs no second fold.
    """
    from .topology import _bit_indices, _level_order

    h = site.h
    findings: list[Finding] = []
    notes = ("scope: levelwise and adjacent-level coherence",)
    if len(connectors) != h.order:
        findings.append(Finding("shape", f"need {h.order} connectors, got {len(connectors)}"))
        return CheckReport("amalgamation", findings, notes)
    for i in range(1, h.order + 1):
        delta = connectors[i - 1]
        fold = delta.is_fold
        # families as masks and boundaries as ascending positions, which list
        # them in sorted_elements order and so fix the order values are read in
        order, lower = _level_order(h, i), _level_order(h, i - 1).elements
        index, support, members, masks = order.index, order.support, order.members, order.masks
        below, ideals = order.below, order.ideals
        # a level the assignment lacks has no state above it either, so no family reads it
        states = lam.per_level[i - 1] if i <= len(lam.per_level) else {}
        wants = lam.per_level[i] if i < len(lam.per_level) else {}

        for b in h.bonds_at(i):
            e = b.id
            want = wants.get(e)
            if want is None or isinstance(want, Marker):
                findings.append(Finding("totality", f"no state for {e!r}"))
                continue
            k = index[e]
            boundary = members[k]
            got = None  # every covering family recomputes e's boundary, so once per bond
            for sieve in site.topology.get(e, ()):
                # the family's bonds at this level, in one lookup when maximal_topology
                # built the family; otherwise other members drop out, but a bond of
                # another level has its boundary elsewhere, so the family covers nothing
                family = masks.get(sieve.members) if type(sieve.members) is frozenset else None
                if family is None:
                    family = 0
                    for m in sieve.members:
                        j = index.get(m)
                        if j is not None:
                            family |= 1 << j
                        elif h.is_bond(m):
                            family = 0
                            break
                if not family:
                    continue
                family_bits = ideals[k] if family == below[k] else _bit_indices(family)
                covered = size = 0
                for j in family_bits:
                    covered |= support[j]
                    size += len(members[j])
                if covered != support[k]:
                    continue
                if got is None:
                    got = delta.apply([states[lower[m]] for m in boundary], at=e)
                if got != want:
                    findings.append(Finding("descent", f"bond {e!r}: family {sieve!r} recomputes {got!r} != {want!r}"))
                if fold and size == len(boundary):
                    if len(family_bits) == 1:
                        staged = got
                    else:
                        staged = delta.apply([delta.apply([states[lower[m]] for m in members[j]], at=e) for j in family_bits], at=e)
                    if staged != want:
                        findings.append(
                            Finding("descent", f"bond {e!r}: stagewise fold over {sieve!r} gives {staged!r} != {want!r}")
                        )
    return CheckReport("amalgamation", findings, notes)


def check_tensor_pairing(h: Hyperstructure, tower: StateTower, lam: LambdaAssignment, level: int) -> CheckReport:
    """Does the declared operation pair boundary states into each bond's state?

    For every level-i bond the fold of its boundary states under the space
    operation of S_{n-i+1} must equal the bond's own state.
    """
    h.check_level(level)
    if level == 0:
        return CheckReport("tensor-pairing", notes=("level 0 has no boundaries",))
    space_index = h.order - level + 1
    op = tower.ops[space_index]
    if op is None:
        raise OperationMissing(f"no operation declared on space {space_index}")
    findings: list[Finding] = []
    for b in h.bonds_at(level):
        values = [lam.per_level[level - 1][m] for m in sorted_elements(b.support.members)]  # so KeyError names the first member
        folded = op.fold(values)
        want = lam.get(b.id)
        if folded != want:
            findings.append(Finding("pairing", f"bond {b.id!r}: fold {folded!r} != state {want!r}"))
    return CheckReport("tensor-pairing", findings)
