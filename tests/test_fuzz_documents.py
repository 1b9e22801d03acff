"""Mutated corpus documents never escape the CLI as a traceback.

Each example makes one change to a corpus document and runs the document
commands in-process. The change replaces or deletes the value at a random
JSON path, repeats a list item, or gives an object a field its section
allows but the object lacks. Whatever the damage, a command exits 0, 1 or
2, and on exit 2 its first line names the error kind.
"""
import contextlib
import copy
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstruct.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DOCUMENTS = {p.name: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}
COMMANDS = (
    ("validate",),
    ("topology-check",),
    ("topology-check", "--exhaustive"),
    ("globalize",),
    ("nerve",),
    ("betti",),
    ("brunnian",),
)
REPLACEMENTS = (None, True, False, 0, 1, -1, 2, 1.5, "", "x", "v0", [], [0], ["x"], [[]], {}, {"x": 1})
#: The fields each kind of object in a document may carry: the document, the
#: tower, an omega entry, a bond, a fusion record, the states section, a state
#: space, its operation, a (co-)connector, a marker, the category, a morphism,
#: the presheaf, the simplicial section and a simplex.
OBJECT_FIELDS = (
    {"format", "hyperstructure", "topology", "states", "category", "presheaf", "simplicial"},
    {"order", "levels", "omega", "bonds", "fusion_log"},
    {"support", "properties"},
    {"id", "level", "support", "property", "identity"},
    {"k", "a", "b", "result"},
    {"spaces", "base", "top", "connectors", "co_connectors", "assignment"},
    {"tokens", "op"},
    {"unit", "table"},
    {"kind", "entries"},
    {"marker"},
    {"objects", "morphisms", "identities", "composition"},
    {"id", "src", "tgt"},
    {"on_objects", "on_morphisms"},
    {"max_dim", "dimensions"},
    {"id", "faces"},
)


def _paths(node):
    """Every (container, key) pair below node, containers before their contents."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _paths(node[key])


def _field_values() -> dict:
    """Each field name's values in the corpus objects that carry it."""
    values: dict = {}
    for doc in DOCUMENTS.values():
        for parent, key in _paths(doc):
            if isinstance(parent, dict):
                values.setdefault(key, []).append(parent[key])
    return values


FIELD_VALUES = _field_values()


def mutated_document(seed: int):
    """A corpus document with one change: the value at a uniformly drawn path
    replaced or deleted, a list item repeated, or a field added to an object
    that lacks it, its value one the field has elsewhere in the corpus."""
    rng = random.Random(seed)
    doc = copy.deepcopy(DOCUMENTS[rng.choice(sorted(DOCUMENTS))])
    kind = rng.choice(("replace", "replace", "delete", "repeat", "add"))
    paths = list(_paths(doc))
    if kind == "repeat":
        parent, key = rng.choice([(p, k) for p, k in paths if isinstance(p, list)])
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "add":  # the document lacks some section, so there is always an object to grow
        objects = [doc] + [p[k] for p, k in paths if isinstance(p[k], dict)]
        lacking = [(o, sorted(next(f for f in OBJECT_FIELDS if o.keys() <= f) - o.keys())) for o in objects]
        obj, missing = rng.choice([(o, m) for o, m in lacking if m])
        field = rng.choice(missing)
        obj[field] = copy.deepcopy(rng.choice(FIELD_VALUES.get(field, REPLACEMENTS)))
    else:
        parent, key = rng.choice(paths)
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_mutated_documents_exit_cleanly(doc_path, seed):
    doc_path.write_text(json.dumps(mutated_document(seed)))
    for command in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command[0], str(doc_path), *command[1:]])
        assert code in (0, 1, 2), command
        if code == 2:
            assert re.fullmatch(r"error: [A-Z][A-Za-z]+", buf.getvalue().splitlines()[0]), command
