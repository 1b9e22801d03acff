import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import KEYED_ROWS, at_path, every_section_document, mixed_id_tower, random_tower, reference_parse, reference_serialize
from hyperstruct.composition import fuse
from hyperstruct.core import (
    BondSpec,
    ElementId,
    FusionRecord,
    Support,
    add_bonds,
    assemble,
    identity_bond,
    new_hyperstructure,
    sorted_elements,
    validate,
)
from hyperstruct.document import Document, StatesSection, parse, serialize
from hyperstruct.errors import DanglingReference, HyperstructError, ParseError, ReservedProperty, SchemaError
from hyperstruct.installers import make_brunnian_tower
from hyperstruct.states import (
    BROADCAST,
    CONFLICT,
    PRODUCT,
    SUM,
    UNASSIGNED,
    UNION_FOLD,
    CoConnector,
    Connector,
    LambdaAssignment,
    SpaceOp,
    globalize,
    state_tower,
)
from hyperstruct.topology import maximal_topology

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestRoundTrip:
    def test_canonical_bytes_are_fixed(self):
        for path in sorted(CORPUS.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            assert serialize(parse(text)) == text, path.name

    def test_tower_survives(self):
        rng = random.Random(1)
        for _ in range(15):
            h = random_tower(rng, max_order=3, max_per_level=8)
            doc = parse(serialize(Document(hyperstructure=h)))
            assert doc.hyperstructure == h

    def test_parsed_element_index_is_the_built_one(self):
        rng = random.Random(2)
        for _ in range(15):
            h = random_tower(rng, max_order=3, max_per_level=8)
            parsed = parse(serialize(Document(hyperstructure=h))).hyperstructure
            assert "element_index" in vars(parsed)  # seeded by the reader, not rebuilt
            assert parsed.element_index == h.element_index

    def test_identity_bond_omega_stripped_and_restored(self):
        h = make_brunnian_tower([2])
        h, _ = identity_bond(h, 0, h.element(0, "v0"))
        text = serialize(Document(hyperstructure=h))
        assert '"id"' not in text.split('"bonds"')[0]  # omega tables carry no reserved token
        assert parse(text).hyperstructure == h

    def test_unfused_tower_writes_no_fusion_log(self):
        h = make_brunnian_tower([2, 2])
        assert "fusion_log" not in serialize(Document(hyperstructure=h))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_fusion_log_survives(self, seed):
        rng = random.Random(seed)
        h = random_tower(rng, max_order=3, max_per_level=8)
        bonds = sorted_elements(b.id for b in h.bonds)
        for n in range(6):
            if not bonds:
                break
            a, b = rng.choice(bonds), rng.choice(bonds)
            try:
                h, _ = fuse(h, a, b, rng.randrange(min(a.level, b.level)), None, f"fused{n}")
            except HyperstructError:
                continue
        again = parse(serialize(Document(hyperstructure=h))).hyperstructure
        assert again == h
        assert validate(again).passed

    def test_topology_survives(self):
        h = make_brunnian_tower([2, 2])
        doc = Document(hyperstructure=h, topology=maximal_topology(h))
        again = parse(serialize(doc))
        assert again.topology == doc.topology

    def test_states_survive(self):
        h = make_brunnian_tower([2])
        sec = StatesSection(
            base={h.element(0, "v0"): 1, h.element(0, "v1"): 2},
            connectors=(PRODUCT,),
        )
        doc = parse(serialize(Document(hyperstructure=h, states=sec)))
        assert doc.states == StatesSection(base=sec.base, connectors=sec.connectors)

    def test_non_canonical_input_canonicalized(self):
        path = CORPUS / "brunnian_3_3.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["hyperstructure"]["bonds"].reverse()
        obj["hyperstructure"]["levels"][0].reverse()
        scrambled = json.dumps(obj, indent=None)
        assert serialize(parse(scrambled)) == path.read_text(encoding="utf-8")


class TestErrors:
    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="unknown field"):
            parse('{"format": "hyperstruct/1", "bogus": {}}')

    def test_bad_json_positions(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("{nope")

    def test_dangling_support(self):
        doc = {
            "format": "hyperstruct/1",
            "hyperstructure": {
                "order": 1,
                "levels": [["a"], ["b1"]],
                "omega": [[], []],
                "bonds": [{"id": "b1", "level": 1, "support": ["missing"], "property": "p"}],
            },
        }
        with pytest.raises(DanglingReference):
            parse(json.dumps(doc))

    def test_reserved_token_in_omega(self):
        doc = {
            "format": "hyperstruct/1",
            "hyperstructure": {
                "order": 0,
                "levels": [["a"]],
                "omega": [[{"support": ["a"], "properties": ["id"]}]],
                "bonds": [],
            },
        }
        with pytest.raises(ReservedProperty):
            parse(json.dumps(doc))

    def test_reserved_token_on_plain_bond(self):
        doc = {
            "format": "hyperstruct/1",
            "hyperstructure": {
                "order": 1,
                "levels": [["a"], ["b1"]],
                "omega": [[], []],
                "bonds": [{"id": "b1", "level": 1, "support": ["a"], "property": "id"}],
            },
        }
        with pytest.raises(ReservedProperty):
            parse(json.dumps(doc))

    def test_wrong_format(self):
        with pytest.raises(SchemaError, match="unsupported format"):
            parse('{"format": "other/9"}')

    def test_missing_format(self):
        with pytest.raises(SchemaError, match="missing field"):
            parse("{}")

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"a"', '"\\ud800"'),  # an id
            ('"p"', '"\\uDFFF"'),  # a property token
            ('"order"', '"\\udc00order"'),  # an object key
        ],
    )
    def test_lone_surrogate_refused(self, old, new):
        doc = {
            "format": "hyperstruct/1",
            "hyperstructure": {
                "order": 1,
                "levels": [["a"], ["b1"]],
                "omega": [[{"support": ["a"], "properties": ["p"]}], []],
                "bonds": [{"id": "b1", "level": 1, "support": ["a"], "property": "p"}],
            },
        }
        text = json.dumps(doc)
        assert old in text
        with pytest.raises(ParseError, match="lone surrogate"):
            parse(text.replace(old, new))

    def test_escaped_surrogate_pair_parses(self):
        text = '{"format": "hyperstruct/1", "hyperstructure": {"order": 0, "levels": [["\\ud83d\\ude00", "\\\\udc00"]], "omega": [[]], "bonds": []}}'
        h = parse(text).hyperstructure
        assert {e.id for e in h.levels[0]} == {"\U0001f600", "\\udc00"}
        assert parse(serialize(Document(hyperstructure=h))).hyperstructure == h


    @pytest.mark.parametrize(
        "section, field, repeat, message",
        [
            ("category", "objects", lambda o: o.append(o[0]), "category.objects: duplicate objects"),
            ("category", "morphisms", lambda o: o.append(o[0]), "category.morphisms: duplicate morphism ids"),
            ("category", "identities", lambda o: o.append(o[0]), "category.identities: duplicate entry for object '00'"),
            ("category", "composition", lambda o: o.append(o[0]), "category.composition: duplicate entry for ('00->00', '00->00')"),
            ("presheaf", "on_objects", lambda o: o.append(["00", [1]]), "presheaf.on_objects: duplicate entry for object '00'"),
            ("presheaf", "on_objects", lambda o: o[0][1].append(0), "presheaf.on_objects: duplicate elements for object '00'"),
            ("presheaf", "on_morphisms", lambda o: o.append(o[0]), "presheaf.on_morphisms: duplicate entry for morphism '00->00'"),
            ("presheaf", "on_morphisms", lambda o: o[0][1].append([0, 1]), "presheaf.on_morphisms: duplicate entry for 0 in the table of '00->00'"),
        ],
        ids=["objects", "morphisms", "identities", "composition", "on_objects", "on_objects-element", "on_morphisms", "table-from"],
    )
    def test_repeated_category_and_presheaf_entries(self, section, field, repeat, message):
        obj = json.loads((CORPUS / "square_category.json").read_text(encoding="utf-8"))
        repeat(obj[section][field])
        with pytest.raises(SchemaError) as got:
            parse(json.dumps(obj))
        assert str(got.value) == message


    @pytest.mark.parametrize("case", KEYED_ROWS, ids=[c[0] for c in KEYED_ROWS])
    def test_row_that_is_not_a_list(self, case):
        _, path, key, where, _, _ = case
        obj = every_section_document()
        at_path(obj, path)[key] = 5
        with pytest.raises(SchemaError) as got:
            parse(json.dumps(obj))
        assert str(got.value) == f"{where}: expected a list"

    @pytest.mark.parametrize("case", KEYED_ROWS, ids=[c[0] for c in KEYED_ROWS])
    def test_row_that_is_too_short(self, case):
        _, path, key, _, message, _ = case
        obj = every_section_document()
        container = at_path(obj, path)
        container[key] = container[key][:-1]
        with pytest.raises(SchemaError) as got:
            parse(json.dumps(obj))
        assert str(got.value) == message

    @pytest.mark.parametrize("case", [c for c in KEYED_ROWS if c[5]], ids=[c[0] for c in KEYED_ROWS if c[5]])
    def test_repeated_key(self, case):
        _, path, key, _, _, message = case
        obj = every_section_document()
        rows = at_path(obj, path)
        rows.append(rows[key])
        with pytest.raises(SchemaError) as got:
            parse(json.dumps(obj))
        assert str(got.value) == message

    def test_a_connector_key_is_its_multiset(self):
        obj = every_section_document()
        obj["states"]["connectors"][0]["entries"] = [[[4, 2], 8], [[2, 4], 8]]
        with pytest.raises(SchemaError) as got:
            parse(json.dumps(obj))
        assert str(got.value) == "states.connectors[0].entries: duplicate entry for (2, 4)"

    @pytest.mark.parametrize(
        "change, message",
        [
            # -1 would index the top level, which holds {v0,v1,v2}
            (lambda o: o["topology"][0].__setitem__(0, [-1, "{v0,v1,v2}"]), "topology[0]: no element '{v0,v1,v2}' at level -1"),
            (lambda o: o["topology"][0].__setitem__(0, [3, "v0"]), "topology[0]: no element 'v0' at level 3"),
            (
                lambda o: o["states"]["co_connectors"].append({"kind": "per_child", "entries": [[["v0", "{v0,v1,v2}"], 1]]}),
                "states.co_connectors[2]: no element -1:{v0,v1,v2}",
            ),
        ],
        ids=["topology-negative", "topology-past-the-top", "per-child-negative"],
    )
    def test_level_outside_the_tower_dangles(self, change, message):
        obj = every_section_document()
        change(obj)
        with pytest.raises(DanglingReference) as got:
            parse(json.dumps(obj))
        assert str(got.value) == message

    def test_every_section_document_parses(self):
        doc = parse(json.dumps(every_section_document()))
        assert doc.states.base == {doc.hyperstructure.element(0, "v0"): 2, doc.hyperstructure.element(0, "v1"): 3}
        assert doc.states.co_connectors[1].table == {(doc.hyperstructure.element(1, "{v0,v1}"), doc.hyperstructure.element(0, "v0")): 1}
        assert len(doc.hyperstructure.fusion_log) == 1 and doc.category is not None and doc.presheaf is not None

    def test_missing_face_in_the_last_simplex_dangles(self):
        n = 2000
        vertices = [{"id": f"v{i}", "faces": None} for i in range(n)]
        edges = [{"id": f"e{i}", "faces": [f"v{i}", f"v{(i + 1) % n}"]} for i in range(n)]
        obj = {"format": "hyperstruct/1", "simplicial": {"max_dim": 1, "dimensions": [vertices, edges]}}
        assert len(parse(json.dumps(obj)).simplicial.simplices[1]) == n
        edges[-1]["faces"][1] = "v-missing"
        with pytest.raises(DanglingReference) as got:
            parse(json.dumps(obj))
        assert str(got.value) == f"simplicial: face 'v-missing' of 'e{n - 1}' missing in dimension 0"


class TestIntegerIds:
    def test_int_and_string_ids_coexist(self):
        from hyperstruct.core import add_bond, assign_property, new_hyperstructure

        h = new_hyperstructure([1, 2, "two"])
        s = h.support_at(0, [1, "two"])
        h = assign_property(h, 0, s, "mix")
        h, _ = add_bond(h, 0, s, "mix", 10)
        doc = parse(serialize(Document(hyperstructure=h)))
        assert doc.hyperstructure == h

    def test_bool_rejected_as_id(self):
        doc = {
            "format": "hyperstruct/1",
            "hyperstructure": {"order": 0, "levels": [[True]], "omega": [[]], "bonds": []},
        }
        with pytest.raises(SchemaError):
            parse(json.dumps(doc))


# -- the codec against its dict-tree oracle -------------------------------------------

NASTY = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "☃", "𝄞", " ", "/", " ", "a", "b"]
REPLACEMENTS = (None, True, False, 0, 1, -1, 2, 1.5, "", "x", "x0", "id", [], [0], ["x"], [[]], {}, {"x": 1})
ODD_VALUES = (None, 1.5, True, 7, (1, "a"), ["a", ["b", {}]], {"z": [1, 2], "a": {"b": None}}, "\"q\\", "é\n")


def _keyed_states_tables(states: dict) -> list[list]:
    """The nonempty keyed tables of a written states section: base, top, each
    assignment level, the op tables and the connector and co-connector entries."""
    tables = [states.get("base"), states.get("top"), *(states.get("assignment") or [])]
    tables += [space["op"]["table"] for space in states.get("spaces") or [] if space.get("op")]
    tables += [c.get("entries") for c in (states.get("connectors") or []) + (states.get("co_connectors") or [])]
    return [t for t in tables if t]


def _mutated(text: str, section: str, rng: random.Random, repeat_rows: bool = False) -> str:
    """The document with one to three values of one section replaced or deleted.

    Half the documents instead get one row with two bad values (see
    _two_bad_values), so a reader that checks a row's values in another
    order names another fault. With repeat_rows (states only), half of the
    others first get one row of a keyed table written twice, and then zero
    to three replacements."""
    obj = json.loads(text)
    if rng.random() < 0.5 and _two_bad_values(obj[section], section, rng):
        return json.dumps(obj)
    repeated = False
    if repeat_rows and rng.random() < 0.5:
        tables = _keyed_states_tables(obj[section])
        if tables:
            table = rng.choice(tables)
            table.insert(rng.randint(0, len(table)), json.loads(json.dumps(rng.choice(table))))
            repeated = True
    paths = []

    def walk(node):
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            paths.append((node, key))
            walk(node[key])

    walk(obj[section])
    for _ in range(rng.randint(0 if repeated else 1, 3)):
        parent, key = rng.choice(paths)
        if isinstance(parent, dict) and rng.random() < 0.25:
            parent.pop(key, None)
        elif isinstance(parent, dict) or key < len(parent):
            parent[key] = rng.choice(REPLACEMENTS)
    return json.dumps(obj)


BAD_VALUES = (None, True, 1.5, [], {"x": 1})  # neither an id nor a state
BAD_IDS = BAD_VALUES + ("ghost", 99)
BAD_LISTS = (None, 1.5, "x", {}, [None], [True], ["ghost"], [[]], ["ghost", 1.5])


def _two_bad_values(section: dict, name: str, rng: random.Random) -> bool:
    """Give one row of the written section two different bad values, and say
    whether it had such a row: in the tower, a bond a bad id and a bad
    support, or an omega entry a bad support and bad properties; in the
    states section, a co-connector row a bad image or pair and a bad state,
    or, without co-connector rows, two cells of another keyed row."""
    if name == "hyperstructure":
        entries = [("bond", e) for e in section.get("bonds") or []]
        entries += [("omega", e) for table in section.get("omega") or [] for e in table]
        if not entries:
            return False
        kind, row = rng.choice(entries)
        if kind == "bond":
            row["id"], row["support"] = rng.choice(BAD_IDS), rng.choice(BAD_LISTS)
        else:
            row["support"], row["properties"] = rng.sample(BAD_LISTS, 2)
        return True
    co_rows = [row for c in section.get("co_connectors") or [] for row in c.get("entries", [])]
    rows = co_rows or [row for table in _keyed_states_tables(section) for row in table]
    if not rows:
        return False
    row = rng.choice(rows)
    cells = rng.sample(range(len(row)), 2)
    for k, value in zip(cells, rng.sample(BAD_VALUES + (["ghost", 7],), 2)):
        row[k] = value
    return True


def _outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # the comparison covers whatever either side raises
        return (type(e), str(e))


def _texts():
    return st.text(alphabet=st.sampled_from(NASTY), min_size=1, max_size=4)


@st.composite
def nasty_towers(draw):
    """Towers whose ids and tokens need JSON escapes or are not ASCII, mixing int
    and string ids, with empty levels padded on top and maybe an identity bond."""
    base = draw(st.lists(st.one_of(_texts(), st.integers(-3, 30)), min_size=1, max_size=7, unique=True))
    h = new_hyperstructure(base)
    level0 = sorted_elements(h.elements(0))
    raws = draw(st.lists(st.one_of(_texts(), st.integers(100, 120)), max_size=6, unique=True))
    specs = []
    for raw in raws:
        members = draw(st.lists(st.sampled_from(level0), min_size=1, max_size=3, unique=True))
        token = draw(_texts().filter(lambda t: t != "id"))
        specs.append(BondSpec(0, Support(0, frozenset(members)), token, raw))
    h = add_bonds(h, specs, order=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        h, _ = identity_bond(h, 0, draw(st.sampled_from(level0)))
    return h


class TestRegistryOrder:
    """assemble and bonds_by_level sort the registry by the bond ids' keys, however it arrives."""

    @staticmethod
    def assert_key_order(h, rng):
        want = sorted(h.bonds, key=lambda b: b.key)
        shuffled = rng.sample(list(h.bonds), len(h.bonds))
        assert list(assemble(h.levels, h.omegas, shuffled, h.fusion_log).bonds) == want
        by_level = h._replace(bonds=tuple(shuffled)).bonds_by_level
        assert sorted(by_level) == sorted({b.id.level for b in want})
        for i, bs in by_level.items():
            assert list(bs) == [b for b in want if b.id.level == i]

    @settings(max_examples=80, deadline=None)
    @given(nasty_towers(), st.integers(0, 2**31))
    def test_nasty_towers(self, h, seed):
        self.assert_key_order(_fused(h, random.Random(seed)), random.Random(seed))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mixed_id_towers(self, seed):
        rng = random.Random(seed)
        self.assert_key_order(mixed_id_tower(rng), rng)


def _fused(h, rng):
    bonds = sorted_elements(b.id for b in h.bonds)
    for n in range(rng.randint(0, 4)):
        if not bonds:
            break
        a, b = rng.choice(bonds), rng.choice(bonds)
        try:
            h, _ = fuse(h, a, b, rng.randrange(min(a.level, b.level)), None, f"fused{n}")
        except HyperstructError:
            continue
    return h


def _with_sections(h, rng) -> Document:
    """A document around h with whichever payload sections apply to it."""
    doc = Document(hyperstructure=h)
    if rng.random() < 0.5:
        doc.topology = maximal_topology(h)
    if rng.random() < 0.5:
        base = {e: rng.choice([0, 1, "s", "é\""]) for e in h.elements(0)}
        sec = StatesSection(base=base, connectors=(SUM,) * h.order if rng.random() < 0.5 else None)
        if sec.connectors is not None and all(isinstance(v, int) for v in base.values()):
            sec.assignment = globalize(h, base, sec.connectors)
        doc.states = sec
    if rng.random() < 0.3:
        other = parse((CORPUS / rng.choice(["square_category.json", "hollow_triangle.json"])).read_text(encoding="utf-8"))
        doc.category, doc.presheaf, doc.simplicial = other.category, other.presheaf, other.simplicial
    return doc


def _towers(seed: int):
    rng = random.Random(seed)
    yield random_tower(rng, max_order=3, max_per_level=6)
    yield mixed_id_tower(rng)
    yield _fused(random_tower(rng, max_order=3, max_per_level=6), rng)


def _assert_written_like_the_reference(doc) -> None:
    """serialize writes the dict-tree reference's text when that text parses.
    Where the reference raises, or writes text parse refuses, serialize raises
    SchemaError or writes that same text (a range or reference fault is left
    for parse to name)."""
    got, want = _outcome(serialize, doc), _outcome(reference_serialize, doc)
    if isinstance(want, str) and isinstance(_outcome(parse, want), Document):
        assert got == want
    else:
        assert got == want or (isinstance(got, tuple) and got[0] is SchemaError), got


def _bond(change):
    """A cell of a random bond of the document's tower; change(bond, value) is the changed bond."""

    def put(doc, value, rng):
        bonds = list(doc.hyperstructure.bonds)
        assume(bonds)
        k = rng.randrange(len(bonds))
        bonds[k] = change(bonds[k], value)
        doc.hyperstructure = doc.hyperstructure._replace(bonds=tuple(bonds))

    return put


def _fusion(change):
    """A cell of the first fusion record of the document's tower."""

    def put(doc, value, rng):
        log = doc.hyperstructure.fusion_log
        assume(log)
        doc.hyperstructure = doc.hyperstructure._replace(fusion_log=(change(log[0], value),) + log[1:])

    return put


def _tower(change):
    """A cell of the document's tower outside its bonds and fusion log."""

    def put(doc, value, rng):
        doc.hyperstructure = change(doc.hyperstructure, value)

    return put


def _with_token(h, token) -> dict:
    """h's first omega table with an entry for all of level 0 that carries "p" and token."""
    return {**h.omegas[0], Support(0, frozenset(h.levels[0])): frozenset({"p", token})}


def _first(table: dict, value) -> dict:
    """table with the value of its first key (in repr order) replaced."""
    return {**table, min(table, key=repr): value}


def _topology_root(level: bool):
    def put(doc, value, rng):
        root = min(doc.topology, key=repr)
        sieves = doc.topology.pop(root)
        doc.topology[ElementId(value, root.id) if level else ElementId(root.level, value)] = sieves

    return put


def _morphism(field: str):
    def put(doc, value, rng):
        c = doc.category
        doc.category = c._replace(morphisms=(c.morphisms[0]._replace(**{field: value}),) + c.morphisms[1:])

    return put


def _category(field: str):
    """The first entry of the category's identities or composition."""

    def put(doc, value, rng):
        doc.category = doc.category._replace(**{field: _first(getattr(doc.category, field), value)})

    return put


def _action(doc, value, rng):
    p = doc.presheaf
    m = min((m for m, t in p.on_morphisms.items() if t), key=repr)
    doc.presheaf = p._replace(on_morphisms={**p.on_morphisms, m: _first(p.on_morphisms[m], value)})


def _face(doc, value, rng):
    s = doc.simplicial
    sid = min(s.simplices[1], key=repr)
    doc.simplicial = s._replace(faces={**s.faces, sid: (value,) + s.faces[sid][1:]})


def _max_dim(doc, value, rng):
    doc.simplicial = doc.simplicial._replace(max_dim=value)


def _op(field: str):
    """The unit, or the first result, of the first state space's operation table."""

    def put(doc, value, rng):
        ops = doc.states.tower.ops
        op = ops[0]._replace(unit=value) if field == "unit" else ops[0]._replace(table=_first(ops[0].table, value))
        doc.states.tower = doc.states.tower._replace(ops=(op,) + ops[1:])

    return put


def _table(field: str, k: int):
    """The first output of the k-th table connector or co-connector."""

    def put(doc, value, rng):
        folds = list(getattr(doc.states, field))
        folds[k] = folds[k]._replace(table=_first(folds[k].table, value))
        setattr(doc.states, field, tuple(folds))

    return put


def _first_property(doc, value, rng):
    h = doc.hyperstructure
    doc.hyperstructure = h._replace(bonds=(h.bonds[0]._replace(property=value),) + h.bonds[1:])


def _base(doc, value, rng):
    doc.states.base = _first(doc.states.base, value)


def _assigned(doc, value, rng):
    levels = doc.states.assignment.per_level
    doc.states.assignment = LambdaAssignment((_first(levels[0], value),) + levels[1:])


ID, INT = (str, int), (int,)
#: Each cell of a document's tables whose type the reader checks: the types
#: it takes there, whether the value goes into a set or a dict key, and how
#: to put a value in. Tower cells go into a random fused tower with payload
#: sections; the others into the every-section document.
TOWER_CELLS = {
    "bond property": ((str,), False, _bond(lambda b, v: b._replace(property=v))),
    "bond identity": ((bool,), False, _bond(lambda b, v: b._replace(identity=v))),
    "bond id": (ID, True, _bond(lambda b, v: b._replace(id=ElementId(b.id.level, v)))),
    "bond level": (INT, True, _bond(lambda b, v: b._replace(id=ElementId(v, b.id.id)))),
    "support id": (ID, True, _bond(lambda b, v: b._replace(support=Support(b.support.level, b.support.members | {ElementId(0, v)})))),
    "level id": (ID, True, _tower(lambda h, v: h._replace(levels=(h.levels[0] | {ElementId(0, v)},) + h.levels[1:]))),
    "omega token": ((str,), True, _tower(lambda h, v: h._replace(omegas=(_with_token(h, v),) + h.omegas[1:]))),
    "fusion k": (INT, False, _fusion(lambda r, v: r._replace(k=v))),
    "fusion id": (ID, False, _fusion(lambda r, v: r._replace(b=ElementId(r.b.level, v)))),
    "fusion level": (INT, False, _fusion(lambda r, v: r._replace(result=ElementId(v, r.result.id)))),
    "order": (INT, False, _tower(lambda h, v: h._replace(order=v))),
}
ODD_CELLS = {
    **TOWER_CELLS,
    "topology root id": (ID, True, _topology_root(level=False)),
    "topology root level": (INT, True, _topology_root(level=True)),
    "morphism src": (ID, False, _morphism("src")),
    "morphism tgt": (ID, False, _morphism("tgt")),
    "identity": (ID, False, _category("identities")),
    "composite": (ID, False, _category("composition")),
    "presheaf action": (ID, False, _action),
    "simplicial face": (ID + (type(None),), False, _face),
    "simplicial max_dim": (INT, False, _max_dim),
    "op unit": (ID, False, _op("unit")),
    "op result": (ID, False, _op("table")),
    "connector output": (ID, False, _table("connectors", 0)),
    "co-connector image": (ID, False, _table("co_connectors", 0)),
    "per_child value": (ID, False, _table("co_connectors", 1)),
}


class TestCodecOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31))
    def test_serialize_equals_the_dict_tree(self, seed):
        rng = random.Random(seed)
        for h in _towers(seed):
            doc = _with_sections(h, rng)
            assert _outcome(serialize, doc) == _outcome(reference_serialize, doc)

    @settings(max_examples=80, deadline=None)
    @given(nasty_towers(), st.integers(0, 2**31))
    def test_escapes_and_mixed_ids_equal_the_dict_tree(self, h, seed):
        doc = _with_sections(_fused(h, random.Random(seed)), random.Random(seed))
        text = serialize(doc)
        assert text == reference_serialize(doc)
        assert serialize(parse(text)) == text

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(ODD_VALUES), st.sampled_from(sorted(ODD_CELLS)))
    def test_odd_values_written_like_the_dict_tree_or_refused(self, seed, value, cell):
        """Hand-built documents holding one odd value in one cell: written as the
        reference writes them, or refused with SchemaError where the reference
        raises or writes text parse refuses, and always refused, naming the
        value, when the reader takes no value of its type there."""
        takes, hashed, change = ODD_CELLS[cell]
        if hashed:  # these go into sets and dict keys
            assume(not isinstance(value, (list, dict)))
        rng = random.Random(seed)
        if cell in TOWER_CELLS:
            doc = _with_sections(_fused(random_tower(rng, max_order=3, max_per_level=6), rng), rng)
        else:
            doc = parse(json.dumps({**every_section_document(), **json.loads((CORPUS / "hollow_triangle.json").read_text())}))
        change(doc, value, rng)
        _assert_written_like_the_reference(doc)
        if type(value) not in takes:
            got = _outcome(serialize, doc)
            assert isinstance(got, tuple) and got[0] is SchemaError and got[1].endswith(f"got {value!r}"), got

    @pytest.mark.parametrize(
        "faults, message",
        [
            ([("first bond property", 7), ("base state", 1.5)], "property tokens must be strings, got 7"),
            ([("base state", 2.5), ("connector output", None)], "identifiers and states must be strings or integers, got 2.5"),
            ([("op unit", 3.5), ("assignment state", 4.5)], "op: states must be strings or integers, got 3.5"),
            ([("topology root level", None), ("morphism src", 5.5)], "topology: expected an integer, got None"),
        ],
        ids=["tower-then-states", "base-then-connectors", "spaces-then-assignment", "topology-then-category"],
    )
    def test_two_refused_values_name_the_first_checked(self, faults, message):
        """Sections are checked in the order hyperstructure, topology, states,
        category, and a states section's fields in the order spaces, base, top,
        connectors, co-connectors, assignment; either fault put in alone is
        refused too, so the first checked is the one named."""
        puts = {cell: put for cell, (_, _, put) in ODD_CELLS.items()}
        puts.update({"first bond property": _first_property, "base state": _base, "assignment state": _assigned})
        doc = parse(json.dumps({**every_section_document(), **json.loads((CORPUS / "hollow_triangle.json").read_text())}))
        rng = random.Random(0)
        for cell, value in reversed(faults):
            puts[cell](doc, value, rng)
        with pytest.raises(SchemaError) as got:
            serialize(doc)
        assert str(got.value) == message

    def test_tokens_mixing_none_and_str_are_refused(self):
        """The reference's sort of such a set raises TypeError; the writer names the None."""
        h = new_hyperstructure(["a", "b"])
        h = h._replace(omegas=({Support(0, frozenset(h.levels[0])): frozenset({None, "p", "q"})},))
        doc = Document(hyperstructure=h)
        assert _outcome(reference_serialize, doc)[0] is TypeError
        with pytest.raises(SchemaError) as got:
            serialize(doc)
        assert str(got.value) == "property tokens must be strings, got None"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mutated_documents_parse_like_the_old_reader(self, seed):
        rng = random.Random(seed)
        h = list(_towers(seed))[rng.randrange(3)]
        text = _mutated(serialize(_with_sections(h, rng)), "hyperstructure", rng)
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("level", [-1, 3])
    def test_fusion_reference_outside_the_levels_dangles(self, level):
        h = make_brunnian_tower([2, 2])
        h, _ = fuse(h, h.element(2, "g2.0"), h.element(1, "g1.0"), 0, None, "glued")
        obj = json.loads(serialize(Document(hyperstructure=h)))
        top = obj["hyperstructure"]["levels"][-1][0]
        obj["hyperstructure"]["fusion_log"][0]["a"] = [level, top]
        with pytest.raises(DanglingReference, match=f"no element {top!r} at level {level}"):
            parse(json.dumps(obj))

    def test_large_states_document_equals_the_dict_tree(self):
        """The benchmark's 2000-edge states document (seed 5), before and after globalize."""
        spec = importlib.util.spec_from_file_location("perfbench_gen", CORPUS.parent / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        rng = random.Random(5)
        vertices, edges = gen.hypergraph(rng, 2000)
        text = gen.dump(gen.states_document(rng, vertices, edges)[0])
        doc = parse(text)
        assert serialize(doc) == reference_serialize(doc) == text
        doc.states.assignment = globalize(doc.hyperstructure, doc.states.base, doc.states.connectors)
        assert serialize(doc) == reference_serialize(doc)


ID_POOL = (1, "1", 2, "2", 10, 0, -3, "a", "é\"")  # 1 next to "1": ids that differ only in type
STATE_POOL = (0, 1, "1", -2, 10, "s", "é\"\\")
ODD_STATES = (True, 1.5, None)  # states no document can hold
OR = SpaceOp(unit=0, table={(a, b): a | b for a in (0, 1) for b in (0, 1)})


@st.composite
def states_documents(draw):
    """A tower over mixed int and str ids and a hand-built states section on it,
    with markers in assignments, table connectors, per-child co-connectors and
    now and then an id the tower lacks, an assignment level too many or a
    state no document can hold."""
    h = new_hyperstructure(draw(st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=6, unique=True)))
    for level in range(draw(st.integers(0, 2))):
        below = sorted_elements(h.levels[level])
        specs = [
            BondSpec(level, Support(level, frozenset(draw(st.lists(st.sampled_from(below), min_size=1, max_size=3, unique=True)))), "p", raw)
            for raw in draw(st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=4, unique=True))
        ]
        h = add_bonds(h, specs, order=level + 1)
    n, states = h.order, st.sampled_from(STATE_POOL + (ODD_STATES if draw(st.integers(0, 3)) == 0 else ()))

    def some(level: int) -> list[ElementId]:
        present = sorted_elements(h.levels[level]) if level <= n else []
        chosen = draw(st.lists(st.sampled_from(present), unique=True)) if present else []
        if draw(st.integers(0, 5)) == 0:
            chosen.append(ElementId(level, draw(st.sampled_from(("ghost", 7, "7")))))
        return chosen

    def keyed(level: int, values) -> dict:
        return {e: draw(values) for e in some(level)}

    def co_connector(k: int) -> CoConnector:
        kind = draw(st.sampled_from(("identity", "table", "per_child")))
        if kind == "identity":
            return BROADCAST
        if kind == "table":
            return CoConnector("table", {0: 1, "s": "t", 1: "1"} if draw(st.booleans()) else {})
        pairs = [(p, c) for p in some(n - k) for c in some(n - k - 1)]
        return CoConnector("per_child", {pair: draw(states) for pair in pairs})

    sec = StatesSection()
    if draw(st.booleans()):
        spaces = draw(st.lists(st.sampled_from([(frozenset({0, 1}), OR), (frozenset({"x", 2, "1"}), None)]), max_size=3))
        sec.tower = state_tower([space for space, _ in spaces], [op for _, op in spaces])
    if draw(st.booleans()):
        sec.base = keyed(0, states)
    if draw(st.booleans()):
        sec.top = keyed(n, states)
    if draw(st.booleans()):
        table = Connector("table", {(0, "s"): 1, (1,): "x", (-2, 1, 1): 0})
        sec.connectors = tuple(draw(st.sampled_from((SUM, PRODUCT, UNION_FOLD, table))) for _ in range(n))
    if draw(st.booleans()):
        sec.co_connectors = tuple(co_connector(k) for k in range(n))
    if draw(st.booleans()):
        marked = st.one_of(states, st.sampled_from((UNASSIGNED, CONFLICT)))
        levels = n + 1 + (draw(st.integers(0, 5)) == 0)
        sec.assignment = LambdaAssignment(per_level=tuple(keyed(i, marked) for i in range(levels)))
    return Document(hyperstructure=h, states=sec)


class TestStatesCodecOracle:
    @settings(max_examples=200, deadline=None)
    @given(states_documents(), st.integers(0, 2**31))
    def test_states_section_equals_the_old_codec(self, doc, seed):
        """Written as the reference writes it, or refused with SchemaError where
        the reference raises or writes text parse refuses; when read, the
        same section or the same first error, also after the text is mutated."""
        _assert_written_like_the_reference(doc)
        text = _outcome(serialize, doc)
        sec = doc.states
        keyed = [sec.base, sec.top, *(sec.assignment.per_level if sec.assignment else ())]
        keyed += [c.table for c in sec.co_connectors or () if c.kind == "per_child"]
        if any(isinstance(v, tuple(map(type, ODD_STATES))) for table in keyed if table for v in table.values()):
            assert isinstance(text, tuple) and text[0] is SchemaError, text
        if isinstance(text, str):
            assert _outcome(parse, text) == _outcome(reference_parse, text)
            mutated = _mutated(text, "states", random.Random(seed), repeat_rows=True)
            assert _outcome(parse, mutated) == _outcome(reference_parse, mutated)
