"""State assignments over a tower and the machinery that globalizes them.

States run level-reversed: level-0 elements carry tokens from the last state
space, top bonds from the first. A globalizer walks the tower bottom-up,
folding each bond's boundary states through a per-transition connector; a
localizer distributes top states back down. Descent (amalgamation) checks
that covering families recompute the same states the globalizer produced.
"""
from __future__ import annotations

from itertools import product as iter_product
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .composition import union_token
from .core import ElementId, Hyperstructure, sorted_elements
from .errors import (
    CoConnectorUndefined,
    ConnectorUndefined,
    InvalidStateTower,
    MissingState,
    OperationMissing,
    UnknownElement,
)
from .report import CheckReport, Finding, report

if TYPE_CHECKING:
    from .topology import Site

StateToken = str | int


class Marker:
    """Explicit non-state markers emitted by localize."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


UNASSIGNED = Marker("unassigned")
CONFLICT = Marker("conflict")
MARKERS = {m.name: m for m in (UNASSIGNED, CONFLICT)}


def token_key(t: StateToken):
    return (isinstance(t, str), t)


class SpaceOp(NamedTuple):
    """A total associative unital binary operation given as a finite table."""

    unit: StateToken
    table: Mapping[tuple[StateToken, StateToken], StateToken]

    def apply(self, a: StateToken, b: StateToken) -> StateToken:
        got = self.table.get((a, b))
        if got is None:
            raise OperationMissing(f"operation undefined at ({a!r}, {b!r})")
        return got

    def fold(self, values: Sequence[StateToken]) -> StateToken:
        acc = self.unit
        for v in sorted(values, key=token_key):
            acc = self.apply(acc, v)
        return acc


class StateTower(NamedTuple):
    """State spaces S_0..S_n; index 0 is the global end, index n the local one."""

    spaces: tuple[frozenset[StateToken], ...]
    ops: tuple[SpaceOp | None, ...]

    def space_for_level(self, order: int, level: int) -> frozenset[StateToken]:
        return self.spaces[order - level]

    def op_for_space(self, k: int) -> SpaceOp | None:
        return self.ops[k]


def state_tower(spaces: Sequence[frozenset[StateToken]], ops: Sequence[SpaceOp | None] | None = None) -> StateTower:
    """Build a tower of state spaces, brute-force checking each declared op."""
    sp = tuple(frozenset(s) for s in spaces)
    if ops is None:
        ops = [None] * len(sp)
    if len(ops) != len(sp):
        raise InvalidStateTower(f"{len(sp)} spaces but {len(ops)} operations")
    for k, (space, op) in enumerate(zip(sp, ops)):
        if op is None:
            continue
        if op.unit not in space:
            raise InvalidStateTower(f"space {k}: unit {op.unit!r} outside the space")
        for a, b in iter_product(space, repeat=2):
            if (a, b) not in op.table:
                raise InvalidStateTower(f"space {k}: operation not total at ({a!r}, {b!r})")
            if op.table[(a, b)] not in space:
                raise InvalidStateTower(f"space {k}: operation leaves the space at ({a!r}, {b!r})")
        for a in space:
            if op.table[(op.unit, a)] != a or op.table[(a, op.unit)] != a:
                raise InvalidStateTower(f"space {k}: unit law fails at {a!r}")
        for a, b, c in iter_product(space, repeat=3):
            if op.table[(op.table[(a, b)], c)] != op.table[(a, op.table[(b, c)])]:
                raise InvalidStateTower(f"space {k}: associativity fails at ({a!r}, {b!r}, {c!r})")
    return StateTower(spaces=sp, ops=tuple(ops))


class Connector(NamedTuple):
    """Reduces the multiset of a bond's boundary states to the bond's state.

    Built-in folds (product, sum, union) are associative and commutative by
    construction; table connectors map canonical sorted multisets directly.
    """

    kind: str  # "product" | "sum" | "union" | "table"
    table: Mapping[tuple[StateToken, ...], StateToken] | None = None

    def apply(self, values: Sequence[StateToken], at: ElementId | None = None) -> StateToken:
        where = f" at bond {at!r}" if at is not None else ""
        if not values:
            raise ConnectorUndefined(f"empty state multiset{where}")
        if self.kind in ("product", "sum"):
            total = 1 if self.kind == "product" else 0
            for v in values:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConnectorUndefined(f"{self.kind} connector needs integer states, got {v!r}{where}")
                total = total * v if self.kind == "product" else total + v
            return total
        if self.kind == "union":
            acc = None
            for v in sorted(values, key=token_key):
                s = str(v)
                acc = s if acc is None else union_token(acc, s)
            return acc
        if self.kind == "table":
            key = tuple(sorted(values, key=token_key))
            if self.table is None or key not in self.table:
                raise ConnectorUndefined(f"table connector undefined at {key!r}{where}")
            return self.table[key]
        raise ConnectorUndefined(f"unknown connector kind {self.kind!r}")

    @property
    def is_fold(self) -> bool:
        return self.kind in ("product", "sum", "union")


PRODUCT = Connector(kind="product")
SUM = Connector(kind="sum")
UNION_FOLD = Connector(kind="union")


class LambdaAssignment(NamedTuple):
    """Per-level state maps; index i holds the states of the level-i elements."""

    per_level: tuple[Mapping[ElementId, StateToken | Marker], ...]

    def state(self, e: ElementId) -> StateToken | Marker:
        if e.level >= len(self.per_level) or e not in self.per_level[e.level]:
            raise MissingState(f"no state for {e!r}")
        return self.per_level[e.level][e]

    def get(self, e: ElementId, default=None):
        if e.level < len(self.per_level):
            return self.per_level[e.level].get(e, default)
        return default


def _normalize_keyed(h: Hyperstructure, level: int, mapping: Mapping) -> dict[ElementId, StateToken]:
    out: dict[ElementId, StateToken] = {}
    for k, v in mapping.items():
        e = k if isinstance(k, ElementId) else h.element(level, k)
        if e.level != level or not h.has_element(e):
            raise UnknownElement(f"{e!r} is not a level-{level} element")
        out[e] = v
    return out


def globalize(h: Hyperstructure, base: Mapping, connectors: Sequence[Connector]) -> LambdaAssignment:
    """Fold states bottom-up: one connector per level transition.

    connectors[i-1] computes level-i states from the level-(i-1) states of
    each bond's boundary. Evaluation order never matters: fold connectors
    are commutative and table connectors key on sorted multisets.
    """
    if len(connectors) != h.order:
        raise ConnectorUndefined(f"need {h.order} connectors, got {len(connectors)}")
    level0 = _normalize_keyed(h, 0, base)
    for e in sorted_elements(h.elements(0)):
        if e not in level0:
            raise MissingState(f"base state missing for {e!r}")
    per_level: list[dict[ElementId, StateToken]] = [level0]
    for i in range(1, h.order + 1):
        delta = connectors[i - 1]
        below = per_level[i - 1]
        current: dict[ElementId, StateToken] = {}
        for b in h.bonds_at(i):
            try:
                values = [below[m] for m in sorted_elements(b.support.members)]
            except KeyError as e:  # a member without a bond record has no state
                raise MissingState(f"no state for {e.args[0]!r} in the boundary of {b.id!r}") from None
            current[b.id] = delta.apply(values, at=b.id)
        per_level.append(current)
    return LambdaAssignment(per_level=tuple(per_level))


def validate_lambda(h: Hyperstructure, tower: StateTower, lam: LambdaAssignment) -> CheckReport:
    """Codomain discipline: level-i states must lie in the space S_{n-i}."""
    findings: list[Finding] = []
    if len(tower.spaces) != h.order + 1:
        findings.append(Finding("shape", f"{len(tower.spaces)} state spaces for an order-{h.order} tower"))
        return report("lambda-codomains", findings)
    if len(lam.per_level) != h.order + 1:
        findings.append(Finding("shape", f"{len(lam.per_level)} assignment levels for an order-{h.order} tower"))
        return report("lambda-codomains", findings)
    for i in range(h.order + 1):
        space = tower.space_for_level(h.order, i)
        for e in sorted_elements(h.elements(i)):
            v = lam.per_level[i].get(e)
            if v is None:
                findings.append(Finding("totality", f"no state for {e!r}"))
            elif isinstance(v, Marker):
                continue
            elif v not in space:
                findings.append(Finding("codomain", f"state {v!r} of {e!r} outside space {h.order - i}"))
    return report("lambda-codomains", findings)


def check_amalgamation(site: Site, lam: LambdaAssignment, connectors: Sequence[Connector]) -> CheckReport:
    """Descent over the site: covering families must recompute the same states.

    A family whose member boundaries cover a bond's boundary is recomputed
    flat through the connector; a family that partitions the boundary is
    additionally recomputed stagewise (member folds first, then one fold
    across members) for fold connectors. Families carrying no descent datum
    (empty, or not covering) are skipped. The site is one make_site built;
    its tower's refinement orders are read here.
    """
    from .topology import _bit_indices, _level_order

    h = site.h
    findings: list[Finding] = []
    notes = ("scope: levelwise and adjacent-level coherence",)
    if len(connectors) != h.order:
        findings.append(Finding("shape", f"need {h.order} connectors, got {len(connectors)}"))
        return report("amalgamation", findings, notes)
    for i in range(1, h.order + 1):
        delta = connectors[i - 1]
        # families and boundaries as masks; ascending bits list them in
        # sorted_elements order, which fixes the order values are read in
        order, lower = _level_order(h, i), _level_order(h, i - 1)
        index, support = order.index, order.support

        def values(mask: int) -> list[StateToken]:
            states = lam.per_level[i - 1]
            return [states[lower.elements[j]] for j in _bit_indices(mask)]

        for b in h.bonds_at(i):
            want = lam.get(b.id)
            if want is None or isinstance(want, Marker):
                findings.append(Finding("totality", f"no state for {b.id!r}"))
                continue
            sieves = site.topology.get(b.id, ())
            if len(sieves) > 1:
                sieves = sorted(sieves, key=lambda s: s.key)
            boundary = support[index[b.id]]
            got = None  # every covering family recomputes b's boundary, so once per bond
            for sieve in sieves:
                # the family's bonds at this level; other members drop out, but a bond of
                # another level has its boundary elsewhere, so the family covers nothing
                family = sorted(index[m] for m in sieve.members if m in index)
                if not family or any(m not in index and h.is_bond(m) for m in sieve.members):
                    continue
                covered = size = 0
                for k in family:
                    covered |= support[k]
                    size += support[k].bit_count()
                if covered != boundary:
                    continue
                if got is None:
                    got = delta.apply(values(boundary), at=b.id)
                if got != want:
                    findings.append(
                        Finding("descent", f"bond {b.id!r}: family {sieve!r} recomputes {got!r} != {want!r}")
                    )
                if size == boundary.bit_count() and delta.is_fold:
                    # a member on b's whole boundary (b itself, in its maximal sieve) folds to got
                    partials = [got if support[k] == boundary else delta.apply(values(support[k]), at=b.id) for k in family]
                    staged = delta.apply(partials, at=b.id)
                    if staged != want:
                        findings.append(
                            Finding("descent", f"bond {b.id!r}: stagewise fold over {sieve!r} gives {staged!r} != {want!r}")
                        )
    return report("amalgamation", findings, notes)


def check_tensor_pairing(h: Hyperstructure, tower: StateTower, lam: LambdaAssignment, level: int) -> CheckReport:
    """Does the declared operation pair boundary states into each bond's state?

    For every level-i bond the fold of its boundary states under the space
    operation of S_{n-i+1} must equal the bond's own state.
    """
    h.check_level(level)
    if level == 0:
        return report("tensor-pairing", [], (f"level 0 has no boundaries",))
    space_index = h.order - level + 1
    op = tower.op_for_space(space_index)
    if op is None:
        raise OperationMissing(f"no operation declared on space {space_index}")
    findings: list[Finding] = []
    for b in h.bonds_at(level):
        values = [lam.per_level[level - 1][m] for m in sorted_elements(b.support.members)]
        folded = op.fold(values)
        want = lam.get(b.id)
        if folded != want:
            findings.append(Finding("pairing", f"bond {b.id!r}: fold {folded!r} != state {want!r}"))
    return report("tensor-pairing", findings)


class CoConnector(NamedTuple):
    """Distributes a bond's state to one boundary member on the way down."""

    kind: str  # "identity" | "table" | "per_child"
    table: Mapping | None = None

    def apply(self, state: StateToken, parent: ElementId, child: ElementId) -> StateToken:
        if self.kind == "identity":
            return state
        if self.kind == "table":
            if self.table is None or state not in self.table:
                raise CoConnectorUndefined(f"co-connector undefined at state {state!r}")
            return self.table[state]
        if self.kind == "per_child":
            key = (parent, child)
            if self.table is None or key not in self.table:
                raise CoConnectorUndefined(f"co-connector undefined at ({parent!r}, {child!r})")
            return self.table[key]
        raise CoConnectorUndefined(f"unknown co-connector kind {self.kind!r}")


BROADCAST = CoConnector(kind="identity")


def localize(h: Hyperstructure, top: Mapping, co_connectors: Sequence[CoConnector]) -> LambdaAssignment:
    """Distribute top states downward along boundaries.

    co_connectors[j] handles the transition from level n-j to n-j-1.
    Elements reachable from no top bond keep the unassigned marker; members
    receiving disagreeing proposals from several parents are marked as
    conflicts.
    """
    if len(co_connectors) != h.order:
        raise CoConnectorUndefined(f"need {h.order} co-connectors, got {len(co_connectors)}")
    n = h.order
    states: list[dict[ElementId, StateToken | Marker]] = [dict() for _ in range(n + 1)]
    top_states = _normalize_keyed(h, n, top)
    for e in sorted_elements(h.elements(n)):
        if e not in top_states:
            raise MissingState(f"top state missing for {e!r}")
    states[n] = dict(top_states)
    for i in range(n, 0, -1):
        co = co_connectors[n - i]
        proposals: dict[ElementId, list[StateToken]] = {}
        for b in h.bonds_at(i):
            s = states[i].get(b.id, UNASSIGNED)
            if isinstance(s, Marker):
                continue
            for child in sorted_elements(b.support.members):
                proposals.setdefault(child, []).append(co.apply(s, b.id, child))
        for child in sorted_elements(h.elements(i - 1)):
            got = proposals.get(child)
            if not got:
                states[i - 1][child] = UNASSIGNED
            elif len(set(got)) == 1:
                states[i - 1][child] = got[0]
            else:
                states[i - 1][child] = CONFLICT
    for i in range(n + 1):
        for e in h.elements(i):
            states[i].setdefault(e, UNASSIGNED)
    return LambdaAssignment(per_level=tuple(states))
