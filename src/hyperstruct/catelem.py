"""Finite categories, presheaves, categories of elements, nerves, homology.

The category of elements turns a presheaf into a new category whose objects
are (object, section) pairs; iterating it through a property presheaf and a
binding presheaf stacks categorical levels. Nerves list composable chains of
non-identity morphisms, and Betti numbers come from GF(2) boundary ranks.

Which constructors verify the category laws: `finite_category` checks every
one, and is the entry point for outside data such as documents. The
categories the library derives inherit their laws instead. `poset_category`
(with `refinement_category` and `boundary_category`) checks only that its
elements are distinct and `leq` is a preorder, and `discrete_category` only
that its objects are distinct. `category_of_elements` validates the
presheaf and, when its input came from one of these constructors, skips the
law checks on its output. Whenever such a check fails, or the input is a
`FiniteCategory(...)` built by hand, the spec goes through
`finite_category`, so every rejection has the same class and message.

What the measuring path costs: the presheaf check reads each action table
once and compares entries. On a partial order (`poset_category` under an
antisymmetric `leq`, or a category of elements of one) contravariance is
checked only on pairs whose upper step is a cover, which implies it on
every pair; a preorder with a cycle gets the full walk. `nerve` builds
chains over morphism positions and hands each face's row to the result's
`face_rows`, which `boundary_matrix` and `betti_gf2` read instead of
hashing every face again. It names the chains only when `simplices` or
`faces` is first read, so Betti numbers never build a name. Simplicial
data from elsewhere derives its rows from `faces` once per dimension.
"""
from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .core import Hyperstructure, Record, sorted_elements
from .document import _expect_id, _expect_int, _expect_list, _expect_obj, _expect_row, _jkey, _refuse_repeat
from .errors import DanglingReference, InconsistentComplex, InvalidCategory, InvalidPresheaf, SchemaError, SweepTooLarge

ObjId = Hashable
MorId = Hashable

#: nerve refuses to list more than this many simplices, counting one more
#: for each dimension asked for (a dimension may be empty).
NERVE_CAP = 20000


def _key(x) -> str:
    return repr(x) if not isinstance(x, (str, int)) else f"{type(x).__name__}:{x}"


class Morphism(NamedTuple):
    id: MorId
    src: ObjId
    tgt: ObjId


class FiniteCategory(Record):
    """A Record with an instance __dict__, which holds the cached indexes and the lawful mark."""

    _fields = ("objects", "morphisms", "identities", "composition")
    objects: frozenset
    morphisms: tuple[Morphism, ...]
    identities: Mapping[ObjId, MorId]
    composition: Mapping[tuple[MorId, MorId], MorId]  # (g, f) -> g after f

    def __init__(self, objects, morphisms, identities, composition):
        self.__dict__.update(objects=objects, morphisms=morphisms, identities=identities, composition=composition)

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


def _assemble(objects, morphisms, identities, composition) -> FiniteCategory:
    """Build the category with morphisms in id-key order; checks no law."""
    mors = tuple(sorted(morphisms, key=lambda m: _key(m.id)))
    return FiniteCategory(objects=frozenset(objects), morphisms=mors, identities=dict(identities), composition=dict(composition))


def _mark_lawful(cat: FiniteCategory, order: bool = False) -> FiniteCategory:
    # kept out of _fields, so ==, repr and hash ignore them
    cat.__dict__["_lawful"] = True
    if order:
        cat.__dict__["_order"] = True
    return cat


def _is_lawful(cat: FiniteCategory) -> bool:
    return "_lawful" in cat.__dict__


def _is_order(cat: FiniteCategory) -> bool:
    """Whether the category is a partial order: lawful, thin and antisymmetric."""
    return "_order" in cat.__dict__


def _derived(lawful: bool, *spec, order: bool = False) -> FiniteCategory:
    """A spec whose laws the caller has established, or else the full check;
    `order` says the established category is also a partial order."""
    return _mark_lawful(_assemble(*spec), order) if lawful else finite_category(*spec)


def finite_category(
    objects: Iterable[ObjId],
    morphisms: Iterable[Morphism],
    identities: Mapping[ObjId, MorId],
    composition: Mapping[tuple[MorId, MorId], MorId],
) -> FiniteCategory:
    """Assemble and exhaustively verify the category laws.

    This is the constructor for categories from outside the library, such
    as documents; objects are walked in id-key order, so the first fault
    reported does not depend on the hash seed."""
    cat = _assemble(objects, morphisms, identities, composition)
    objs, mors = cat.objects, cat.morphisms
    _check_morphisms(cat)
    for c in identities:
        if c not in objs:
            raise InvalidCategory(f"identity listed for unknown object {c!r}")
    for c in sorted(objs, key=_key):
        i = identities.get(c)
        if i is None or i not in cat.by_id:
            raise InvalidCategory(f"object {c!r} lacks an identity morphism")
        im = cat.morphism(i)
        if im.src != c or im.tgt != c:
            raise InvalidCategory(f"identity of {c!r} is not an endomorphism")
    for key in composition:
        # a plain pair: an ElementId or other record is a tuple too, but names no two morphisms
        g, f = map(cat.by_id.get, key) if type(key) is tuple and len(key) == 2 else (None, None)
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
    return _mark_lawful(cat)


def _check_morphisms(cat: FiniteCategory) -> None:
    """Distinct morphism ids, each arrow between listed objects."""
    if len(cat.by_id) != len(cat.morphisms):
        raise InvalidCategory("morphism ids repeat")
    for m in cat.morphisms:
        if m.src not in cat.objects or m.tgt not in cat.objects:
            raise InvalidCategory(f"morphism {m.id!r} touches unknown objects")


def discrete_category(objects: Iterable[ObjId]) -> FiniteCategory:
    objs = list(objects)
    mors = [Morphism(("id", c), c, c) for c in objs]
    identities = {c: ("id", c) for c in objs}
    composition = {((("id", c)), (("id", c))): ("id", c) for c in objs}
    return _derived(len(identities) == len(objs), objs, mors, identities, composition)


def poset_category(elements: Iterable[ObjId], leq) -> FiniteCategory:
    """One morphism x -> y per related pair x <= y.

    Distinct elements under a reflexive, transitive `leq` give a category
    with at most one arrow per hom-set, so its laws hold unchecked; any
    other input goes through `finite_category`, which names the fault. When
    `leq` is also antisymmetric the category is marked as a partial order,
    so presheaves on it are checked for contravariance on covers only."""
    objs = list(elements)
    up = {x: [y for y in objs if leq(x, y)] for x in objs}
    mors = [Morphism((x, y), x, y) for x in objs for y in up[x]]
    identities = {x: (x, x) for x in objs}
    composition = {((y, z), (x, y)): (x, z) for x in objs for y in up[x] for z in up[y]}
    ups = {x: set(ys) for x, ys in up.items()}
    preorder = len(ups) == len(objs) and all(x in ys and all(ups[y] <= ys for y in up[x]) for x, ys in ups.items())
    antisymmetric = preorder and all(x not in ups[y] for x, ys in up.items() for y in ys if y != x)
    return _derived(preorder, objs, mors, identities, composition, order=antisymmetric)


class Presheaf(NamedTuple):
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
    _checked_sections(cat, p)


def _checked_sections(cat: FiniteCategory, p: Presheaf) -> dict[ObjId, list]:
    """Each object's sections in key order, once the functor laws hold.

    Objects and sections are walked in key order, so the first failure
    reported does not depend on the hash seed. Actions are read from their
    tables, with the messages `Presheaf.act` and `Presheaf.at` would give.
    On a partial order only pairs whose upper step is a cover are checked
    for contravariance (see `_cover_pairs`); a failure there reruns the
    walk over every composable pair, so the first failing pair is named."""
    for c in p.on_objects:
        if c not in cat.objects:
            raise InvalidPresheaf(f"value listed at unknown object {c!r}")
    for u in p.on_morphisms:
        if u not in cat.by_id:
            raise InvalidPresheaf(f"action listed for unknown morphism {u!r}")
    objs = sorted(cat.objects, key=_key)
    sections = {c: sorted(p.at(c), key=_key) for c in objs}
    act = p.on_morphisms

    def at(c):  # p.at raises for an object the category lacks
        return sections[c] if c in sections else p.at(c)

    for m in cat.morphisms:
        table, value = act.get(m.id), None
        for x in at(m.tgt):
            if table is None or x not in table:
                raise InvalidPresheaf(f"action of {m.id!r} undefined at {x!r}")
            if value is None:
                value = p.at(m.src)
            if table[x] not in value:
                raise InvalidPresheaf(f"{m.id!r} maps {x!r} outside the value at {m.src!r}")
    for c in objs:
        i = cat.identities.get(c)
        if i is None or i not in cat.by_id:  # a category built by hand may lack one
            raise InvalidCategory(f"object {c!r} lacks an identity morphism")
        table = act.get(i)
        for x in sections[c]:
            if table is None or x not in table:
                raise InvalidPresheaf(f"action of {i!r} undefined at {x!r}")
            if table[x] != x:
                raise InvalidPresheaf(f"identity action at {c!r} moves {x!r}")
    if not _is_order(cat) or _contravariance_fault(cat, act, at, _cover_pairs(cat)):
        fault = _contravariance_fault(cat, act, at, cat.composable_pairs())
        if fault:
            g, f, x = fault
            raise InvalidPresheaf(f"contravariance fails at ({g.id!r}, {f.id!r}) on {x!r}")
    return sections


def _contravariance_fault(cat: FiniteCategory, act, at, pairs) -> tuple | None:
    """The first (g, f, x) in pairs with P(f)(P(g)(x)) != P(g f)(x), once
    every action has been checked to land in its value."""
    for g, f in pairs:
        gf = cat.compose(g.id, f.id)
        tg, tf, tgf = act.get(g.id), act.get(f.id), act.get(gf)
        for x in at(g.tgt):
            if tgf is None or x not in tgf:
                raise InvalidPresheaf(f"action of {gf!r} undefined at {x!r}")
            if tf[tg[x]] != tgf[x]:
                return g, f, x
    return None


def _cover_pairs(cat: FiniteCategory) -> Iterator[tuple[Morphism, Morphism]]:
    """The composable pairs (g, f) of a partial order whose upper step g: b -> c
    is a cover: b != c and no object lies strictly between them.

    They suffice for contravariance. For a <= b < c, induct on the length
    of the longest chain from b to c and choose b <= c' < c with c' covered
    by c: P(a<=c) = P(a<=c')P(c'<=c) = P(a<=b)P(b<=c')P(c'<=c) =
    P(a<=b)P(b<=c). The identity law covers b = c. A preorder with a cycle
    may have no covers at all, so it needs the full walk."""
    above = {b: {m.tgt for m in ms if m.tgt != b} for b, ms in cat.out_of.items()}
    covers = {}
    for b, ms in cat.out_of.items():
        beyond = set().union(*(above[z] for z in above[b]))
        covers[b] = [g for g in ms if g.tgt != b and g.tgt not in beyond]
    return ((g, f) for f in cat.morphisms for g in covers.get(f.tgt, ()))


def terminal_presheaf(cat: FiniteCategory) -> Presheaf:
    star = "*"
    return Presheaf(
        on_objects={c: frozenset({star}) for c in cat.objects},
        on_morphisms={m.id: {star: star} for m in cat.morphisms},
    )


def category_of_elements(cat: FiniteCategory, p: Presheaf) -> FiniteCategory:
    """Pairs (object, section) with the morphisms whose action matches.

    A morphism u: C' -> C and a section x over C give one morphism
    (C', u action on x) -> (C, x); composition is inherited. The presheaf
    is always validated. The output's laws then follow from the input's,
    so they are checked only when the input is not a category this module
    built (one constructed by hand may break them).
    """
    sections = _checked_sections(cat, p)
    act = p.on_morphisms  # every action read below was validated
    objects = [(c, x) for c, xs in sections.items() for x in xs]
    morphisms = [Morphism((m.id, x), (m.src, act[m.id][x]), (m.tgt, x)) for m in cat.morphisms for x in sections[m.tgt]]
    identities = {(c, x): (cat.identities[c], x) for c, x in objects}
    composition = {}
    for g, f in cat.composable_pairs():
        gf = cat.composition[g.id, f.id]
        for x in sections[g.tgt]:
            composition[((g.id, x), (f.id, act[g.id][x]))] = (gf, x)
    return _derived(_is_lawful(cat), objects, morphisms, identities, composition, order=_is_order(cat))


def build_level(cat: FiniteCategory, omega: Presheaf, binding: Presheaf) -> tuple[FiniteCategory, FiniteCategory]:
    """One categorical level step: the pair category, then the next level.

    omega lives over cat; binding lives over the category of elements of
    omega. Both presheaves are validated; each output's laws are inherited
    from a lawful `cat` (see `category_of_elements`) and checked in full
    otherwise. Returns (pair category, next level).
    """
    gamma_cat = category_of_elements(cat, omega)
    next_cat = category_of_elements(gamma_cat, binding)
    return gamma_cat, next_cat


def projection_functor(elements_cat: FiniteCategory):
    """The evident projection (C, x) -> C of a category of elements."""
    return {c: c[0] for c in elements_cat.objects}, {m.id: m.id[0] for m in elements_cat.morphisms}


# -- nerves and homology ----------------------------------------------------------


class SimplicialData(Record):
    """Nondegenerate simplices per dimension with face pointers.

    A face entry of None marks a face that degenerated (its chain collapsed
    onto an identity) and therefore contributes nothing to boundaries.
    A Record with an instance __dict__, which holds the face rows and
    the counts per dimension. A nerve holds chain positions there instead of
    names: `simplices` and `faces` are built from them on first read, and an
    instance built with its own values shadows both.
    """

    _fields = ("max_dim", "simplices", "faces")
    max_dim: int

    def __init__(self, max_dim, simplices, faces):
        self.__dict__.update(max_dim=max_dim, simplices=simplices, faces=faces)

    @cached_property
    def simplices(self) -> tuple[tuple[Hashable, ...], ...]:
        """Vertices, then chains as tuples of morphism ids: each chain is its
        parent (its last face) extended by its last arrow."""
        vertices, ids, chains = self._chains
        names = tuple([(m,) for m in ids])
        dims = [vertices, names][: self.max_dim + 1]
        for last, below in chains:
            names = tuple([names[fs[-1]] + (ids[n],) for n, fs in zip(last, below)])
            dims.append(names)
        return tuple(dims)

    @cached_property
    def faces(self) -> Mapping[Hashable, tuple[Hashable | None, ...]]:
        vertices, _, chains = self._chains
        dims = self.simplices
        faces: dict = {}
        if self.max_dim >= 1:  # drop-source vertex first, then drop-target
            faces.update(zip(dims[1], [(vertices[t], vertices[s]) for t, s in self.face_rows(1)]))
        for k, (_, below) in enumerate(chains, 2):
            lower = dims[k - 1]
            faces.update(zip(dims[k], [tuple([None if f is None else lower[f] for f in fs]) for fs in below]))
        return faces

    @cached_property
    def _counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.simplices))

    def dim_count(self, k: int) -> int:
        return self._counts[k] if 0 <= k <= self.max_dim else 0

    def face_rows(self, k: int) -> list[list[int]]:
        """Per k-simplex, the positions in dimension k-1 of its faces, with
        degenerate faces left out; cached per k (nerve seeds them)."""
        cache = self.__dict__.setdefault("_rows", {})  # not a field, so ==, repr and pickling ignore it
        rows = cache.get(k)
        if rows is not None:
            return rows
        index = {x: i for i, x in enumerate(self.simplices[k - 1])}
        rows = []
        for simplex in self.simplices[k]:
            fs = self.faces.get(simplex)
            if fs is None or len(fs) != k + 1:
                raise InconsistentComplex(f"simplex {simplex!r} lacks {k + 1} faces")
            row = []
            for f in fs:
                if f is None:
                    continue
                i = index.get(f)
                if i is None:
                    raise InconsistentComplex(f"face {f!r} of {simplex!r} is not listed in dimension {k - 1}")
                row.append(i)
            rows.append(row)
        cache[k] = rows
        return rows


def nerve(cat: FiniteCategory, max_dim: int) -> SimplicialData:
    """Chains of composable non-identity morphisms, up to the given length.
    Morphisms are held in id-key order, so chains come out lexicographically.

    Each dimension is counted before it is built, and SweepTooLarge is
    raised when max_dim plus the simplices listed would exceed NERVE_CAP.
    A category built by hand must name its chains: its morphism ids must be
    distinct, its morphisms must touch only its objects, and each composite
    must run from the first arrow's source to the second's target, with
    finite_category's messages. The walk keeps positions only (each chain's
    last arrow and the rows of its faces); the result names the chains when
    they are first read, so a nerve that only feeds betti_gf2 names none."""
    if max_dim < 0:
        raise InconsistentComplex(f"max_dim must be non-negative, got {max_dim}")
    strict = not _is_lawful(cat)
    if strict:
        _check_morphisms(cat)
    listed = 0

    def admit(k: int, count: int) -> None:
        nonlocal listed
        listed += count
        if max_dim + listed > NERVE_CAP:
            raise SweepTooLarge(
                f"nerve up to dimension {max_dim}: {listed} simplices by dimension {k}, plus {max_dim} dimensions, exceed the cap of {NERVE_CAP}"
            )

    admit(0, len(cat.objects))
    vertices = tuple(sorted(cat.objects, key=_key))
    counts = [len(vertices)]
    identity = {m.id for m in cat.morphisms if cat.identities.get(m.src) == m.id}
    non_id = [m for m in cat.morphisms if m.id not in identity]
    index = {m.id: i for i, m in enumerate(non_id)}
    ids = [m.id for m in non_id]
    out: dict = {}
    for i, m in enumerate(non_id):
        out.setdefault(m.src, []).append(i)
    after = [out.get(m.tgt, ()) for m in non_id]  # the positions a chain ending at position i extends by
    slot = [{n: s for s, n in enumerate(ns)} for ns in after]  # where n sits in after[i]
    rows: dict = {}
    if max_dim >= 1:
        admit(1, len(ids))
        vertex = {c: r for r, c in enumerate(vertices)}
        rows[1] = [(vertex[m.tgt], vertex[m.src]) for m in non_id]  # drop-source vertex first, then drop-target
        counts.append(len(ids))
    # Every face is a listed chain or degenerate, and its row is found by
    # position: the chains extending row q of dimension k-2 start at row
    # starts[q] of dimension k-1, in the order of after[]. A chain's faces
    # are rows, None where it collapses onto an identity; its last face is
    # its parent, so a chain is named by its parent and its last arrow.
    chains: list[tuple[list, list]] = []  # per dimension from 2: each chain's last arrow and its faces
    last: Iterable[int] = range(len(non_id))  # the last arrow of each chain of the current dimension
    prev: list = []  # the arrow before it
    below: list[list] = []  # the faces of each chain of the current dimension
    starts: list[int] = []
    composite: list[dict] = [{} for _ in non_id]  # composite[i][n]: the position of n after i, or None for an identity
    composition = cat.composition
    for k in range(2, max_dim + 1):
        admit(k, sum(len(after[i]) for i in last))
        next_last, next_prev, next_below, next_starts = [], [], [], []
        for r, i in enumerate(last):
            next_starts.append(len(next_last))
            ns = after[i]
            ci = composite[i]
            if k == 2:
                for n in ns:
                    got = composition.get((ids[n], ids[i]))
                    if got is None:
                        raise InvalidCategory(f"composite of ({ids[n]!r}, {ids[i]!r}) undefined")
                    m = index.get(got)  # None for an identity: the chain collapses onto it
                    if m is None and got not in identity:
                        raise InvalidCategory(f"unknown morphism {got!r}")
                    if strict:
                        gm = cat.by_id[got]
                        if gm.src != non_id[i].src or gm.tgt != non_id[n].tgt:
                            raise InvalidCategory(f"composite ({ids[n]!r}, {ids[i]!r}) has wrong endpoints")
                    ci[n] = m
                    next_below.append([n, m, r])
            else:
                pf, h = below[r], prev[r]
                inner = [None if q is None else starts[q] for q in pf[:-2]]  # drop the first arrow, or compose an inner pair as the parent did
                whole = None not in inner
                q = pf[-2]  # compose the parent's last pair
                upper = None if q is None else (starts[q], slot[composite[h][i]])
                base, sh = starts[pf[-1]], slot[h]  # compose the last pair: the grandparent extended by the composite
                for s, n in enumerate(ns):
                    fs = [b + s for b in inner] if whole else [None if b is None else b + s for b in inner]
                    fs.append(None if upper is None else upper[0] + upper[1][n])
                    m = ci[n]
                    fs.append(None if m is None else base + sh[m])
                    fs.append(r)  # drop the last arrow
                    next_below.append(fs)
            next_last.extend(ns)
            next_prev.extend([i] * len(ns))
        rows[k] = [fs if None not in fs else [f for f in fs if f is not None] for fs in next_below]
        chains.append((next_last, next_below))
        counts.append(len(next_last))
        last, prev, below, starts = next_last, next_prev, next_below, next_starts
    s = SimplicialData.__new__(SimplicialData)
    s.__dict__.update(max_dim=max_dim, _counts=tuple(counts), _rows=rows, _chains=(vertices, ids, chains))
    return s


def boundary_matrix(s: SimplicialData, k: int) -> list[int]:
    """GF(2) boundary from dimension k to k-1 as one bitset column per
    k-simplex: bit i is set when the i-th (k-1)-simplex is a face an odd
    number of times."""
    cols = []
    for rows in s.face_rows(k):
        col = 0
        for i in rows:
            col ^= 1 << i
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
        a = mats.get(k)
        if a and mats.get(k + 1):
            for rows in s.face_rows(k + 1):
                acc = 0
                for i in rows:
                    acc ^= a[i]
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


# -- the category, presheaf and simplicial sections of a document ---------------------


def _category_to_json(c: FiniteCategory) -> dict:
    return {
        "objects": sorted(c.objects, key=_jkey),
        "morphisms": [
            {"id": m.id, "src": _expect_id(m.src, "morphism"), "tgt": _expect_id(m.tgt, "morphism")}
            for m in sorted(c.morphisms, key=lambda m: _jkey(m.id))
        ],
        "identities": sorted(([o, _expect_id(m, "category.identities")] for o, m in c.identities.items()), key=lambda e: _jkey(e[0])),
        "composition": sorted(
            ([g, f, _expect_id(gf, "category.composition")] for (g, f), gf in c.composition.items()),
            key=lambda e: (_jkey(e[0]), _jkey(e[1])),
        ),
    }


def _category_from_json(value) -> FiniteCategory:
    obj = _expect_obj(value, "category", {"objects", "morphisms", "identities", "composition"}, {"objects", "morphisms", "identities", "composition"})
    objects = [_expect_id(o, "category.objects") for o in _expect_list(obj["objects"], "category.objects")]
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise SchemaError("category.objects: duplicate objects")
    morphisms = []
    for k, m in enumerate(_expect_list(obj["morphisms"], "category.morphisms")):
        e = _expect_obj(m, f"category.morphisms[{k}]", {"id", "src", "tgt"}, {"id", "src", "tgt"})
        morphisms.append(Morphism(_expect_id(e["id"], "morphism"), _expect_id(e["src"], "morphism"), _expect_id(e["tgt"], "morphism")))
    mor_set = {m.id for m in morphisms}
    if len(mor_set) != len(morphisms):
        raise SchemaError("category.morphisms: duplicate morphism ids")
    for m in morphisms:
        if m.src not in obj_set or m.tgt not in obj_set:
            raise DanglingReference(f"category: morphism {m.id!r} references unknown objects")
    identities = {}
    for e in _expect_list(obj["identities"], "category.identities"):
        o, m = _expect_row(e, "category.identities", 2, "[object, morphism]")
        if _expect_id(o, "category.identities") not in obj_set or _expect_id(m, "category.identities") not in mor_set:
            raise DanglingReference(f"category.identities: unresolved pair {e!r}")
        _refuse_repeat(identities, o, "category.identities", "object ")
        identities[o] = m
    composition = {}
    for e in _expect_list(obj["composition"], "category.composition"):
        g, f, gf = _expect_row(e, "category.composition", 3, "[g, f, gf]")
        for m in e:
            if _expect_id(m, "category.composition") not in mor_set:
                raise DanglingReference(f"category.composition: unknown morphism {m!r}")
        _refuse_repeat(composition, (g, f), "category.composition")
        composition[(g, f)] = gf
    return finite_category(objects, morphisms, identities, composition)


def _presheaf_to_json(p: Presheaf) -> dict:
    return {
        "on_objects": sorted(([o, sorted(v, key=_jkey)] for o, v in p.on_objects.items()), key=lambda e: _jkey(e[0])),
        "on_morphisms": sorted(
            (
                [m, sorted(([x, _expect_id(y, "presheaf.on_morphisms")] for x, y in t.items()), key=lambda xy: _jkey(xy[0]))]
                for m, t in p.on_morphisms.items()
            ),
            key=lambda e: _jkey(e[0]),
        ),
    }


def _presheaf_from_json(value, cat: FiniteCategory | None) -> Presheaf:
    if cat is None:
        raise DanglingReference("presheaf: requires a category section")
    obj = _expect_obj(value, "presheaf", {"on_objects", "on_morphisms"}, {"on_objects", "on_morphisms"})
    on_objects = {}
    for e in _expect_list(obj["on_objects"], "presheaf.on_objects"):
        o, raw = _expect_row(e, "presheaf.on_objects", 2, "[object, elements]")
        if _expect_id(o, "presheaf.on_objects") not in cat.objects:
            raise DanglingReference(f"presheaf.on_objects: unknown object {o!r}")
        _refuse_repeat(on_objects, o, "presheaf.on_objects", "object ")
        elements = [_expect_id(x, "presheaf") for x in _expect_list(raw, "presheaf.on_objects")]
        values = frozenset(elements)
        if len(values) != len(elements):
            raise SchemaError(f"presheaf.on_objects: duplicate elements for object {o!r}")
        on_objects[o] = values
    on_morphisms = {}
    for e in _expect_list(obj["on_morphisms"], "presheaf.on_morphisms"):
        m, raw = _expect_row(e, "presheaf.on_morphisms", 2, "[morphism, table]")
        if _expect_id(m, "presheaf.on_morphisms") not in cat.by_id:
            raise DanglingReference(f"presheaf.on_morphisms: unknown morphism {m!r}")
        _refuse_repeat(on_morphisms, m, "presheaf.on_morphisms", "morphism ")
        table, in_table = {}, f" in the table of {m!r}"
        for xy in _expect_list(raw, "presheaf.on_morphisms"):
            x, y = _expect_row(xy, "presheaf.on_morphisms", 2, "[from, to]")
            _refuse_repeat(table, _expect_id(x, "presheaf.on_morphisms"), "presheaf.on_morphisms", after=in_table)
            table[x] = _expect_id(y, "presheaf.on_morphisms")
        on_morphisms[m] = table
    p = Presheaf(on_objects=on_objects, on_morphisms=on_morphisms)
    validate_presheaf(cat, p)
    return p


def _simplicial_to_json(s: SimplicialData) -> dict:
    max_dim, dims = _expect_int(s.max_dim, "simplicial.max_dim"), []
    for k, simplices in enumerate(s.simplices[: max_dim + 1]):
        entries = []
        for sid in sorted(simplices, key=_jkey):
            if k == 0:
                entries.append({"id": sid, "faces": None})
            else:
                faces = [f if f is None else _expect_id(f, "simplicial.faces") for f in s.faces[sid]]
                entries.append({"id": sid, "faces": faces})
        dims.append(entries)
    return {"max_dim": max_dim, "dimensions": dims}


def _simplicial_from_json(value) -> SimplicialData:
    obj = _expect_obj(value, "simplicial", {"max_dim", "dimensions"}, {"max_dim", "dimensions"})
    max_dim = obj["max_dim"]
    if not isinstance(max_dim, int) or isinstance(max_dim, bool) or max_dim < 0:
        raise SchemaError("simplicial.max_dim: expected a non-negative integer")
    raw_dims = _expect_list(obj["dimensions"], "simplicial.dimensions")
    if len(raw_dims) != max_dim + 1:
        raise SchemaError(f"simplicial.dimensions: expected {max_dim + 1} dimensions")
    simplices: list[tuple] = []
    faces: dict = {}
    dim_of: dict = {}  # simplex id -> its dimension; faces are keyed per simplex
    for k, entries in enumerate(raw_dims):
        ids = []
        lower = set(simplices[-1]) if simplices else set()
        for e in _expect_list(entries, f"simplicial.dimensions[{k}]"):
            o = _expect_obj(e, f"simplicial.dimensions[{k}]", {"id", "faces"}, {"id"})
            sid = _expect_id(o["id"], f"simplicial.dimensions[{k}]")
            ids.append(sid)
            fs = o.get("faces")
            if k == 0:
                if fs is not None:
                    raise SchemaError(f"simplicial.dimensions[0]: vertices have no faces")
                continue
            if fs is None:
                raise SchemaError(f"simplicial.dimensions[{k}]: simplex {sid!r} lacks faces")
            fl = _expect_list(fs, f"simplicial.dimensions[{k}].faces")
            if len(fl) != k + 1:
                raise SchemaError(f"simplicial.dimensions[{k}]: simplex {sid!r} needs {k + 1} faces")
            checked = []
            for f in fl:
                if f is None:
                    checked.append(None)
                    continue
                f = _expect_id(f, f"simplicial.dimensions[{k}].faces")
                if f not in lower:
                    raise DanglingReference(f"simplicial: face {f!r} of {sid!r} missing in dimension {k - 1}")
                checked.append(f)
            faces[sid] = tuple(checked)
        if len(set(ids)) != len(ids):
            raise SchemaError(f"simplicial.dimensions[{k}]: duplicate simplex ids")
        for sid in ids:
            if sid in dim_of:
                raise SchemaError(f"simplicial.dimensions[{k}]: simplex {sid!r} is also listed in dimension {dim_of[sid]}")
            dim_of[sid] = k
        simplices.append(tuple(ids))
    return SimplicialData(max_dim=max_dim, simplices=tuple(simplices), faces=faces)
