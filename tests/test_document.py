import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tower
from hyperstruct.composition import fuse
from hyperstruct.core import identity_bond, sorted_elements, validate
from hyperstruct.document import Document, StatesSection, parse, serialize
from hyperstruct.errors import DanglingReference, HyperstructError, ParseError, ReservedProperty, SchemaError
from hyperstruct.installers import make_brunnian_tower
from hyperstruct.states import PRODUCT
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
