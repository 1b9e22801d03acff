"""Mutated corpus documents never escape the CLI as a traceback.

Each example replaces or deletes one value at a random JSON path of a corpus
document and runs the document commands in-process. Whatever the damage, a
command exits 0, 1 or 2, and on exit 2 its first line names the error kind.
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


def _paths(node):
    """Every (container, key) pair below node, containers before their contents."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _paths(node[key])


def mutated_document(seed: int):
    """A corpus document with the value at one uniformly drawn path replaced or deleted."""
    rng = random.Random(seed)
    doc = copy.deepcopy(DOCUMENTS[rng.choice(sorted(DOCUMENTS))])
    parent, key = rng.choice(list(_paths(doc)))
    if rng.random() < 0.25:
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
