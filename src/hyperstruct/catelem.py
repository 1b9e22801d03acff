"""Finite categories, presheaves, categories of elements, nerves, homology.

The category of elements turns a presheaf into a new category whose objects
are (object, section) pairs; iterating it through a property presheaf and a
binding presheaf stacks categorical levels. Nerves list composable chains of
non-identity morphisms, and Betti numbers come from GF(2) boundary ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping

from .core import Hyperstructure, sorted_elements
from .errors import InconsistentComplex, InvalidCategory, InvalidPresheaf

ObjId = Hashable
MorId = Hashable


def _key(x) -> str:
    return repr(x) if not isinstance(x, (str, int)) else f"{type(x).__name__}:{x}"


@dataclass(frozen=True)
class Morphism:
    id: MorId
    src: ObjId
    tgt: ObjId


@dataclass(frozen=True)
class FiniteCategory:
    objects: frozenset
    morphisms: tuple[Morphism, ...]
    identities: Mapping[ObjId, MorId]
    composition: Mapping[tuple[MorId, MorId], MorId]  # (g, f) -> g after f

    def morphism(self, m: MorId) -> Morphism:
        got = self.by_id.get(m)
        if got is None:
            raise InvalidCategory(f"unknown morphism {m!r}")
        return got

    @cached_property
    def by_id(self) -> dict[MorId, Morphism]:
        return {m.id: m for m in self.morphisms}

    def compose(self, g: MorId, f: MorId) -> MorId:
        got = self.composition.get((g, f))
        if got is None:
            raise InvalidCategory(f"composite of ({g!r}, {f!r}) undefined")
        return got

    def is_identity(self, m: MorId) -> bool:
        mor = self.morphism(m)
        return self.identities.get(mor.src) == m

    def non_identity_morphisms(self) -> list[Morphism]:
        return [m for m in self.morphisms if not self.is_identity(m.id)]

    @cached_property
    def out_of(self) -> dict[ObjId, list[Morphism]]:
        """Morphisms grouped by source, each group in morphism order."""
        groups: dict = {}
        for m in self.morphisms:
            groups.setdefault(m.src, []).append(m)
        return groups

    def composable_pairs(self) -> Iterator[tuple[Morphism, Morphism]]:
        """Every (g, f) with f.tgt == g.src: f in morphism order, then g."""
        return ((g, f) for f in self.morphisms for g in self.out_of.get(f.tgt, ()))

    def hom(self, src: ObjId, tgt: ObjId) -> list[MorId]:
        return [m.id for m in self.out_of.get(src, ()) if m.tgt == tgt]


def finite_category(
    objects: Iterable[ObjId],
    morphisms: Iterable[Morphism],
    identities: Mapping[ObjId, MorId],
    composition: Mapping[tuple[MorId, MorId], MorId],
) -> FiniteCategory:
    """Assemble and exhaustively verify the category laws."""
    objs = frozenset(objects)
    mors = tuple(sorted(morphisms, key=lambda m: _key(m.id)))
    cat = FiniteCategory(objects=objs, morphisms=mors, identities=dict(identities), composition=dict(composition))
    if len(cat.by_id) != len(mors):
        raise InvalidCategory("morphism ids repeat")
    for m in mors:
        if m.src not in objs or m.tgt not in objs:
            raise InvalidCategory(f"morphism {m.id!r} touches unknown objects")
    for c in identities:
        if c not in objs:
            raise InvalidCategory(f"identity listed for unknown object {c!r}")
    for c in objs:
        i = identities.get(c)
        if i is None or i not in cat.by_id:
            raise InvalidCategory(f"object {c!r} lacks an identity morphism")
        im = cat.morphism(i)
        if im.src != c or im.tgt != c:
            raise InvalidCategory(f"identity of {c!r} is not an endomorphism")
    for key in composition:
        g, f = map(cat.by_id.get, key) if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if g is None or f is None:
            raise InvalidCategory(f"composite listed for unknown morphisms {key!r}")
        if f.tgt != g.src:
            raise InvalidCategory(f"composite listed for non-composable ({g.id!r}, {f.id!r})")
    for g, f in cat.composable_pairs():
        gf = composition.get((g.id, f.id))
        if gf is None:
            raise InvalidCategory(f"missing composite ({g.id!r}, {f.id!r})")
        gfm = cat.morphism(gf)
        if gfm.src != f.src or gfm.tgt != g.tgt:
            raise InvalidCategory(f"composite ({g.id!r}, {f.id!r}) has wrong endpoints")
    for m in mors:
        if cat.compose(m.id, identities[m.src]) != m.id or cat.compose(identities[m.tgt], m.id) != m.id:
            raise InvalidCategory(f"identity law fails at {m.id!r}")
    for g, f in cat.composable_pairs():
        gf = cat.compose(g.id, f.id)
        for h_ in cat.out_of.get(g.tgt, ()):
            if cat.compose(cat.compose(h_.id, g.id), f.id) != cat.compose(h_.id, gf):
                raise InvalidCategory(f"associativity fails at ({h_.id!r}, {g.id!r}, {f.id!r})")
    return cat


def discrete_category(objects: Iterable[ObjId]) -> FiniteCategory:
    objs = list(objects)
    mors = [Morphism(("id", c), c, c) for c in objs]
    identities = {c: ("id", c) for c in objs}
    composition = {((("id", c)), (("id", c))): ("id", c) for c in objs}
    return finite_category(objs, mors, identities, composition)


def poset_category(elements: Iterable[ObjId], leq) -> FiniteCategory:
    """One morphism x -> y per related pair x <= y."""
    objs = list(elements)
    up = {x: [y for y in objs if leq(x, y)] for x in objs}
    mors = [Morphism((x, y), x, y) for x in objs for y in up[x]]
    identities = {x: (x, x) for x in objs}
    composition = {((y, z), (x, y)): (x, z) for x in objs for y in up[x] for z in up[y]}
    return finite_category(objs, mors, identities, composition)


@dataclass(frozen=True)
class Presheaf:
    """Contravariant set-valued data: u: C' -> C acts by P(C) -> P(C')."""

    on_objects: Mapping[ObjId, frozenset]
    on_morphisms: Mapping[MorId, Mapping[Hashable, Hashable]]

    def at(self, c: ObjId) -> frozenset:
        got = self.on_objects.get(c)
        if got is None:
            raise InvalidPresheaf(f"no value at object {c!r}")
        return got

    def act(self, u: MorId, p: Hashable) -> Hashable:
        table = self.on_morphisms.get(u)
        if table is None or p not in table:
            raise InvalidPresheaf(f"action of {u!r} undefined at {p!r}")
        return table[p]


def validate_presheaf(cat: FiniteCategory, p: Presheaf) -> None:
    """Brute-force the functor laws; raises on the first failure."""
    for c in p.on_objects:
        if c not in cat.objects:
            raise InvalidPresheaf(f"value listed at unknown object {c!r}")
    for u in p.on_morphisms:
        if u not in cat.by_id:
            raise InvalidPresheaf(f"action listed for unknown morphism {u!r}")
    for c in cat.objects:
        p.at(c)
    for m in cat.morphisms:
        for x in p.at(m.tgt):
            y = p.act(m.id, x)
            if y not in p.at(m.src):
                raise InvalidPresheaf(f"{m.id!r} maps {x!r} outside the value at {m.src!r}")
    for c in cat.objects:
        for x in p.at(c):
            if p.act(cat.identities[c], x) != x:
                raise InvalidPresheaf(f"identity action at {c!r} moves {x!r}")
    for g, f in cat.composable_pairs():
        gf = cat.compose(g.id, f.id)
        for x in p.at(g.tgt):
            if p.act(f.id, p.act(g.id, x)) != p.act(gf, x):
                raise InvalidPresheaf(f"contravariance fails at ({g.id!r}, {f.id!r}) on {x!r}")


def terminal_presheaf(cat: FiniteCategory) -> Presheaf:
    star = "*"
    return Presheaf(
        on_objects={c: frozenset({star}) for c in cat.objects},
        on_morphisms={m.id: {star: star} for m in cat.morphisms},
    )


def category_of_elements(cat: FiniteCategory, p: Presheaf) -> FiniteCategory:
    """Pairs (object, section) with the morphisms whose action matches.

    A morphism u: C' -> C and a section x over C give one morphism
    (C', u action on x) -> (C, x); composition is inherited.
    """
    validate_presheaf(cat, p)
    objects = [(c, x) for c in cat.objects for x in p.at(c)]
    morphisms = []
    identities = {}
    for m in cat.morphisms:
        for x in p.at(m.tgt):
            mid = (m.id, x)
            morphisms.append(Morphism(mid, (m.src, p.act(m.id, x)), (m.tgt, x)))
    for c, x in objects:
        identities[(c, x)] = (cat.identities[c], x)
    composition = {}
    for g, f in cat.composable_pairs():
        gf = cat.compose(g.id, f.id)
        for x in p.at(g.tgt):
            composition[((g.id, x), (f.id, p.act(g.id, x)))] = (gf, x)
    return finite_category(objects, morphisms, identities, composition)


def build_level(cat: FiniteCategory, omega: Presheaf, binding: Presheaf) -> tuple[FiniteCategory, FiniteCategory]:
    """One categorical level step: the pair category, then the next level.

    omega lives over cat; binding lives over the category of elements of
    omega. Returns (pair category, next level), both fully validated.
    """
    gamma_cat = category_of_elements(cat, omega)
    next_cat = category_of_elements(gamma_cat, binding)
    return gamma_cat, next_cat


def projection_functor(elements_cat: FiniteCategory):
    """The evident projection (C, x) -> C of a category of elements."""
    return {c: c[0] for c in elements_cat.objects}, {m.id: m.id[0] for m in elements_cat.morphisms}


# -- nerves and homology ----------------------------------------------------------


@dataclass(frozen=True)
class SimplicialData:
    """Nondegenerate simplices per dimension with face pointers.

    A face entry of None marks a face that degenerated (its chain collapsed
    onto an identity) and therefore contributes nothing to boundaries.
    """

    max_dim: int
    simplices: tuple[tuple[Hashable, ...], ...]
    faces: Mapping[Hashable, tuple[Hashable | None, ...]]

    def dim_count(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.max_dim else 0


def nerve(cat: FiniteCategory, max_dim: int) -> SimplicialData:
    """Chains of composable non-identity morphisms, up to the given length.
    Morphisms are held in id-key order, so chains come out lexicographically."""
    if max_dim < 0:
        raise InconsistentComplex(f"max_dim must be non-negative, got {max_dim}")
    dims: list[tuple] = [tuple(sorted(cat.objects, key=_key))]
    non_id = cat.non_identity_morphisms()
    chains: list[tuple] = [(m.id,) for m in non_id]
    faces: dict = {(m.id,): (m.tgt, m.src) for m in non_id}  # drop-source vertex first, then drop-target
    if max_dim >= 1:
        dims.append(tuple(chains))
    for _ in range(2, max_dim + 1):
        chains = [
            chain + (m.id,) for chain in chains for m in cat.out_of.get(cat.morphism(chain[-1]).tgt, ()) if not cat.is_identity(m.id)
        ]
        for chain in chains:
            fs: list = [chain[1:]]  # drop first arrow
            for j in range(len(chain) - 1):
                comp = cat.compose(chain[j + 1], chain[j])
                fs.append(None if cat.is_identity(comp) else chain[:j] + (comp,) + chain[j + 2 :])
            fs.append(chain[:-1])  # drop last arrow
            faces[chain] = tuple(fs)
        dims.append(tuple(chains))
    return SimplicialData(max_dim=max_dim, simplices=tuple(dims), faces=faces)


def boundary_matrix(s: SimplicialData, k: int) -> list[int]:
    """GF(2) boundary from dimension k to k-1 as one bitset column per
    k-simplex: bit i is set when the i-th (k-1)-simplex is a face an odd
    number of times."""
    rows = {x: 1 << i for i, x in enumerate(s.simplices[k - 1])}
    cols = []
    for simplex in s.simplices[k]:
        fs = s.faces.get(simplex)
        if fs is None or len(fs) != k + 1:
            raise InconsistentComplex(f"simplex {simplex!r} lacks {k + 1} faces")
        col = 0
        for f in fs:
            if f is None:
                continue
            bit = rows.get(f)
            if bit is None:
                raise InconsistentComplex(f"face {f!r} of {simplex!r} is not listed in dimension {k - 1}")
            col ^= bit
        cols.append(col)
    return cols


def gf2_rank(cols: Iterable[int]) -> int:
    """Rank of bitset columns over GF(2): reduce each column against the
    pivots found so far, keyed by their highest set bit."""
    pivots: dict[int, int] = {}
    for col in cols:
        while col:
            top = col.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            col ^= pivot
    return len(pivots)


def betti_gf2(s: SimplicialData, max_dim: int) -> list[int]:
    """GF(2) Betti numbers for dimensions 0..min(max_dim, declared dim)."""
    if max_dim < 0:
        raise InconsistentComplex(f"max_dim must be non-negative, got {max_dim}")
    top = min(max_dim, s.max_dim)
    mats = {k: boundary_matrix(s, k) for k in range(1, s.max_dim + 1) if s.dim_count(k)}
    for k in range(1, s.max_dim):
        a, b = mats.get(k), mats.get(k + 1)
        if a and b:
            for col in b:
                acc = 0
                while col:
                    low = col & -col
                    acc ^= a[low.bit_length() - 1]
                    col ^= low
                if acc:
                    raise InconsistentComplex(f"boundary of boundary nonzero between dimensions {k + 1} and {k - 1}")
    ranks = {k: gf2_rank(m) for k, m in mats.items() if k <= top + 1}
    return [s.dim_count(k) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(top + 1)]


# -- bridges from a tower ----------------------------------------------------------


def refinement_category(h: Hyperstructure, level: int) -> FiniteCategory:
    """One level's elements under the refinement preorder, as a poset category."""
    from .topology import _level_order

    order = _level_order(h, level)
    return poset_category(order.elements, lambda a, b: order.below[order.index[b]] >> order.index[a] & 1 == 1)


def boundary_category(h: Hyperstructure, upper_level: int) -> FiniteCategory:
    """Two adjacent levels as a poset: members sit below the bonds binding them."""
    h.check_level(upper_level)
    if upper_level < 1:
        raise InvalidCategory("boundary linkage needs a bond level")
    uppers = sorted_elements(h.elements(upper_level))
    lowers = sorted_elements(h.elements(upper_level - 1))

    def leq(a, b):
        if a == b:
            return True
        return a.level == b.level - 1 and a in h.bond(b).support.members

    return poset_category(lowers + uppers, leq)
