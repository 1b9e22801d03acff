import argparse
import json
import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from helpers import KEYED_ROWS, at_path, every_section_document, tower_from_supports
from hyperstruct import cli, errors, installers
from hyperstruct.cli import COMMANDS, build_parser, main
from hyperstruct.commands.refs import _resolve_id
from hyperstruct.core import ElementId, FusionRecord
from hyperstruct.document import Document, parse, serialize
from hyperstruct.topology import EXHAUSTIVE_CAP, maximal_topology

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestValidate:
    def test_corpus_file_passes(self, capsys):
        code, out = run(capsys, "validate", str(CORPUS / "brunnian_3_3.json"))
        assert code == 0
        assert out.startswith("validate: pass")

    def test_missing_section_is_input_error(self, capsys):
        code, out = run(capsys, "validate", str(CORPUS / "hollow_triangle.json"))
        assert code == 2
        assert out.startswith("error: SchemaError")

    def test_unreadable_file(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 2

    def test_broken_document_reports_and_fails(self, capsys, tmp_path):
        obj = json.loads((CORPUS / "brunnian_3_3.json").read_text())
        obj["hyperstructure"]["levels"][2].append("orphan")
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(p))
        assert code == 1
        assert "non-bond-element" in out

    def test_empty_support_reports_and_fails(self, capsys, tmp_path):
        # parse keeps a bond that binds nothing; validate names it and fails
        obj = json.loads((CORPUS / "flat_triangle.json").read_text())
        obj["hyperstructure"]["bonds"][0]["support"] = []
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(obj))
        assert run(capsys, "validate", str(p)) == (1, "validate: FAIL\nempty-support: bond 1:{v0,v1,v2} binds nothing\n")


class TestInstallAndBrunnian:
    def test_branching_flow(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        code, out = run(capsys, "install", "brunnian", "--branching", "3,3", "--out", str(out_path))
        assert code == 0
        assert "level-0 elements: 9" in out
        code, out = run(capsys, "brunnian", str(out_path))
        assert code == 0
        assert "level-0 elements: 9" in out
        assert "level-1 bonds: 3" in out
        assert "level-2 bonds: 1" in out
        assert "order: 2" in out

    def test_install_hypergraph(self, capsys, tmp_path):
        payload = tmp_path / "hg.json"
        payload.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        out_path = tmp_path / "out.json"
        code, out = run(capsys, "install", "hypergraph", str(payload), "--out", str(out_path))
        assert code == 0
        assert "level-1 bonds: 1" in out
        assert parse(out_path.read_text()).hyperstructure is not None

    def test_install_simplicial_graded(self, capsys, tmp_path):
        payload = tmp_path / "sc.json"
        payload.write_text(
            json.dumps(
                {
                    "vertices": ["v0", "v1", "v2"],
                    "simplices": [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]],
                }
            )
        )
        code, out = run(capsys, "install", "simplicial", str(payload), "--graded")
        assert code == 0
        assert "level-2 bonds: 1" in out

    def test_bad_branching(self, capsys):
        code, out = run(capsys, "install", "brunnian", "--branching", "1")
        assert code == 2
        assert out.startswith("error: InvalidBranching")

    def test_branching_past_the_cap_is_refused(self, capsys, monkeypatch, tmp_path):
        def no_base(n):  # should the check ever go, fail instead of allocating 10^10 elements
            raise AssertionError(f"a base of {n} elements was requested")

        monkeypatch.setattr(installers, "range", no_base, raising=False)
        out_path = tmp_path / "b.json"
        code, out = run(capsys, "install", "brunnian", "--branching", "100000,100000", "--out", str(out_path))
        assert (code, out.splitlines()[0]) == (2, "error: InvalidBranching")
        assert "BRUNNIAN_CAP = 65536" in out
        assert not out_path.exists()


class TestComposeAndFuse:
    def test_compose_weak(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "compose",
            str(CORPUS / "flat_triangle.json"),
            "--a", "1:{v0,v1}",
            "--b", "1:{v1,v2}",
            "--p", "0",
            "--mode", "weak",
            "--id", "glued",
            "--out", str(tmp_path / "composed.json"),
        )
        assert code == 0
        assert "composed:" in out
        doc = parse((tmp_path / "composed.json").read_text())
        assert doc.hyperstructure.has_element(doc.hyperstructure.element(1, "glued"))

    def test_compose_strict_fails_cleanly(self, capsys):
        code, out = run(
            capsys,
            "compose",
            str(CORPUS / "flat_triangle.json"),
            "--a", "1:{v0,v1}",
            "--b", "1:{v1,v2}",
            "--p", "0",
            "--mode", "strict",
            "--id", "glued",
        )
        assert code == 1
        assert out.startswith("error: NotComposable")

    def test_compose_of_bonds_that_bind_nothing(self, capsys, tmp_path):
        bonds = [{"id": r, "level": 1, "support": [], "property": t} for r, t in (("b1", "p"), ("b2", "q"))]
        p = tmp_path / "empty_supports.json"
        p.write_text(json.dumps({"format": "hyperstruct/1", "hyperstructure": {"order": 1, "levels": [["a"], ["b1", "b2"]], "omega": [[], []], "bonds": bonds}}))
        code, out = run(capsys, "compose", str(p), "--a", "1:b1", "--b", "1:b2", "--p", "0", "--id", "c")
        assert (code, out.splitlines()) == (2, ["error: EmptySupport", "cannot assign a property to the empty support"])

    def test_fuse_logs_signature(self, capsys):
        code, out = run(
            capsys,
            "fuse",
            str(CORPUS / "flat_triangle.json"),
            "--a", "1:{v0,v1}",
            "--b", "1:{v1,v2}",
            "--k", "0",
            "--id", "glued",
        )
        assert code == 0
        assert "signature: (k=0, m=1, n=1)" in out

    def test_fuse_out_keeps_the_record(self, capsys, tmp_path):
        first, second = tmp_path / "fused.json", tmp_path / "fused2.json"
        args = ["--a", "1:{v0,v1}", "--b", "1:{v1,v2}", "--k", "0"]
        code, _ = run(capsys, "fuse", str(CORPUS / "flat_triangle.json"), *args, "--id", "glued", "--out", str(first))
        assert code == 0
        code, _ = run(capsys, "fuse", str(first), *args, "--id", "again", "--out", str(second))
        assert code == 0
        a, b = ElementId(1, "{v0,v1}"), ElementId(1, "{v1,v2}")
        assert parse(second.read_text()).hyperstructure.fusion_log == (
            FusionRecord(k=0, m=1, n=1, a=a, b=b, result=ElementId(1, "glued")),
            FusionRecord(k=0, m=1, n=1, a=a, b=b, result=ElementId(1, "again")),
        )
        code, out = run(capsys, "validate", str(second))
        assert code == 0 and out.startswith("validate: pass")

    @pytest.mark.parametrize(
        "record, kind",
        [
            ({"k": 0, "a": [1, "{v0,v1}"], "b": [1, "nope"], "result": [1, "{v0,v1}"]}, "ReferenceError"),
            ({"k": 1, "a": [1, "{v0,v1}"], "b": [1, "{v1,v2}"], "result": [1, "{v0,v1}"]}, "SchemaError"),
            ({"k": 0, "a": "{v0,v1}", "b": [1, "{v1,v2}"], "result": [1, "{v0,v1}"]}, "SchemaError"),
            ({"k": 0, "a": [1, ["x"]], "b": [1, "{v1,v2}"], "result": [1, "{v0,v1}"]}, "SchemaError"),
            ({"k": 0, "a": [1, "{v0,v1}"], "b": [1, "{v1,v2}"]}, "SchemaError"),
        ],
    )
    def test_bad_fusion_record_is_input_error(self, capsys, tmp_path, record, kind):
        obj = json.loads((CORPUS / "flat_triangle.json").read_text())
        obj["hyperstructure"]["fusion_log"] = [record]
        p = tmp_path / "bad_log.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(p))
        assert code == 2
        assert out.startswith(f"error: {kind}")

    def test_unknown_bond_reference(self, capsys):
        code, out = run(
            capsys,
            "compose",
            str(CORPUS / "flat_triangle.json"),
            "--a", "1:nope",
            "--b", "1:{v1,v2}",
            "--p", "0",
            "--id", "x",
        )
        assert code == 2
        assert out.startswith("error: UnknownElement")


class TestChecks:
    def test_topology_check_passes(self, capsys):
        code, out = run(capsys, "topology-check", str(CORPUS / "graded_triangle_site.json"))
        assert code == 0
        assert "grothendieck-topology level 2: pass" in out

    def test_topology_check_failure_exit_one(self, capsys, tmp_path):
        obj = json.loads((CORPUS / "graded_triangle_site.json").read_text())
        obj["topology"] = [entry for entry in obj["topology"] if entry[0] != [2, "{v0,v1,v2}"]]
        # keep the key but empty its sieve list
        obj["topology"].append([[2, "{v0,v1,v2}"], []])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "topology-check", str(p))
        assert code == 1
        assert "maximality" in out

    def test_exhaustive_check_refuses_a_20_bond_chain(self, capsys, tmp_path):
        h = tower_from_supports([frozenset(f"v{i}" for i in range(k + 1)) for k in range(20)])
        p = tmp_path / "chain.json"
        p.write_text(serialize(Document(hyperstructure=h, topology=maximal_topology(h))))
        code, out = run(capsys, "topology-check", str(p), "--exhaustive")
        assert code == 2
        assert out.splitlines()[0] == "error: SweepTooLarge"
        # the first root past the cap is named with its ideal's size (bond b_k sits above k + 1 bonds)
        root, size = re.search(r"at 1:b(\d+) .* a (\d+)-element ideal", out).groups()
        assert int(size) == int(root) + 1 > EXHAUSTIVE_CAP
        code, out = run(capsys, "topology-check", str(p), "--sampled", "3")
        assert code == 0 and "grothendieck-topology level 1: pass" in out

    def test_globalize_writes_assignment(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, out = run(capsys, "globalize", str(CORPUS / "graded_triangle_site.json"), "--out", str(out_path))
        assert code == 0
        assert "level 2: {v0,v1,v2}=64" in out
        doc = parse(out_path.read_text())
        assert doc.states.assignment is not None

    def test_localize_regions(self, capsys):
        code, out = run(capsys, "localize", str(CORPUS / "localize_regions.json"))
        assert code == 0
        assert "a='L'" in out and "d='R'" in out

    def test_emergent_none(self, capsys):
        code, out = run(capsys, "emergent", str(CORPUS / "flat_triangle.json"), "--level", "0", "--s1", "v0,v1", "--s2", "v1,v2")
        assert code == 0
        assert "emergent: (none)" in out

    @pytest.mark.parametrize("level", ["99", "-1"])
    def test_emergent_level_outside_the_tower(self, capsys, level):
        # with empty supports, 99 used to end in an IndexError traceback and -1 to read the top level
        code, out = run(capsys, "emergent", str(CORPUS / "flat_triangle.json"), "--level", level, "--s1", "", "--s2", "")
        assert (code, out) == (2, f"error: LevelOutOfRange\nlevel {level} outside 0..1\n")

    def test_only_canonical_integer_text_names_an_integer_id(self, capsys, tmp_path):
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"vertices": [1, "01", 2, "+1", " 2", "١"], "edges": [[1, 2]]}))
        doc = tmp_path / "tower.json"
        assert run(capsys, "install", "hypergraph", str(payload), "--out", str(doc))[0] == 0
        h = parse(doc.read_text()).hyperstructure
        assert [_resolve_id(h, 0, raw) for raw in ("1", "01", "+1", " 2", "١", "2", "-1")] == [1, "01", "+1", " 2", "١", 2, "-1"]
        # {"01", 2} carries no token, {1, 2} carries the edge's
        code, out = run(capsys, "emergent", str(doc), "--level", "0", "--s1", "01", "--s2", "2")
        assert (code, out) == (0, "emergent: (none)\n")
        code, out = run(capsys, "emergent", str(doc), "--level", "0", "--s1", "1", "--s2", "2")
        assert code == 0 and out != "emergent: (none)\n"


class TestNerveAndBetti:
    def test_betti_on_hollow_triangle(self, capsys):
        code, out = run(capsys, "betti", str(CORPUS / "hollow_triangle.json"), "--max-dim", "2")
        assert code == 0
        assert "betti: 1 1" in out

    def test_nerve_listing(self, capsys):
        code, out = run(capsys, "nerve", str(CORPUS / "square_category.json"), "--max-dim", "2")
        assert code == 0
        assert "dim 0: 00 01 10 11" in out
        assert "dim 2:" in out

    def test_nerve_out_feeds_betti(self, capsys, tmp_path):
        out_path = tmp_path / "nerve.json"
        code, _ = run(capsys, "nerve", str(CORPUS / "square_category.json"), "--max-dim", "3", "--out", str(out_path))
        assert code == 0
        code, out = run(capsys, "betti", str(out_path), "--max-dim", "2")
        assert code == 0
        assert "betti: 1 0 0" in out

    def test_betti_from_category(self, capsys):
        code, out = run(capsys, "betti", str(CORPUS / "square_category.json"), "--max-dim", "1")
        assert code == 0
        assert "betti: 1 0" in out

    def test_nerve_past_the_cap_is_refused(self, capsys, tmp_path):
        # one object, 1 its identity, and xy = x for x, y in {e, f}: 2^k chains in dimension k
        ids = ["1", "e", "f"]
        composition = [[x, y, x if x != "1" else y] for x in ids for y in ids]
        obj = {
            "format": "hyperstruct/1",
            "category": {
                "objects": ["*"],
                "morphisms": [{"id": m, "src": "*", "tgt": "*"} for m in ids],
                "identities": [["*", "1"]],
                "composition": composition,
            },
        }
        monoid = tmp_path / "monoid.json"
        monoid.write_text(json.dumps(obj))
        code, out = run(capsys, "betti", str(monoid), "--max-dim", "4")
        assert (code, out) == (0, "betti: 1 0 0 0 0\n")
        for argv in (["betti", str(monoid), "--max-dim", "14"], ["nerve", str(CORPUS / "square_category.json"), "--max-dim", "1000000"]):
            code, out = run(capsys, *argv)
            assert code == 2
            assert out.startswith("error: SweepTooLarge\nnerve up to dimension ")


def _category_document(objects, arrows, composites) -> dict:
    """A category document: one identity per object, the given arrows
    (id -> (src, tgt)) and composites ((g, f) -> gf) besides the unit laws."""
    identities = {o: f"id_{o}" for o in objects}
    morphisms = {**{i: (o, o) for o, i in identities.items()}, **arrows}
    composition = [[identities[o], identities[o], identities[o]] for o in objects]
    for m, (src, tgt) in arrows.items():
        composition += [[m, identities[src], m], [identities[tgt], m, m]]
    composition += [[g, f, gf] for (g, f), gf in composites.items()]
    return {
        "format": "hyperstruct/1",
        "category": {
            "objects": list(objects),
            "morphisms": [{"id": m, "src": src, "tgt": tgt} for m, (src, tgt) in morphisms.items()],
            "identities": [[o, i] for o, i in identities.items()],
            "composition": composition,
        },
    }


NAME_CLASHES = {
    # morphisms 1 and "1" both print as (1)
    "int and str ids": (_category_document(["x", "y"], {1: ("x", "y"), "1": ("x", "y")}, {}), "(1)"),
    # the morphism "a,b" prints as the chain (a,b) one dimension up
    "comma in an id": (_category_document(["x", "y", "z"], {"a": ("x", "y"), "b": ("y", "z"), "a,b": ("x", "z")}, {("b", "a"): "a,b"}), "(a,b)"),
}


class TestNerveDocuments:
    """`nerve --out` writes only documents its own reader accepts."""

    @pytest.mark.parametrize("case", sorted(NAME_CLASHES))
    def test_name_clash_is_refused_before_writing(self, capsys, tmp_path, case):
        obj, name = NAME_CLASHES[case]
        p, out_path = tmp_path / "category.json", tmp_path / "nerve.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "nerve", str(p), "--max-dim", "2", "--out", str(out_path))
        assert (code, out) == (2, f"error: SchemaError\nnerve: more than one simplex is named {name!r}\n")
        assert not out_path.exists()
        code, out = run(capsys, "nerve", str(p), "--max-dim", "2")
        assert code == 0 and out.startswith("dim 0: ")

    @pytest.mark.parametrize("command", ["betti", "nerve"])
    def test_simplex_id_in_two_dimensions_is_refused(self, capsys, tmp_path, command):
        obj = json.loads((CORPUS / "square_category.json").read_text())
        vertices = [{"id": v, "faces": None} for v in ("a", "b")]
        obj["simplicial"] = {"max_dim": 2, "dimensions": [vertices, [{"id": "e", "faces": ["a", "b"]}], [{"id": "e", "faces": ["e", "e", "e"]}]]}
        p, out_path = tmp_path / "simplicial.json", tmp_path / "out.json"
        p.write_text(json.dumps(obj))
        extra = ["--out", str(out_path)] if command == "nerve" else []
        code, out = run(capsys, command, str(p), *extra)
        assert (code, out) == (2, "error: SchemaError\nsimplicial.dimensions[2]: simplex 'e' is also listed in dimension 1\n")
        assert not out_path.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "brunnian_3_3.json"),
            ("brunnian", "brunnian_3_3.json"),
            ("topology-check", "graded_triangle_site.json"),
            ("globalize", "graded_triangle_site.json"),
            ("betti", "hollow_triangle.json", "--max-dim", "2"),
            ("nerve", "square_category.json", "--max-dim", "2"),
            ("localize", "localize_regions.json"),
        ],
    )
    def test_reports_are_byte_identical(self, capsys, argv):
        cmd = [argv[0], str(CORPUS / argv[1]), *argv[2:]]
        _, first = run(capsys, *cmd)
        _, second = run(capsys, *cmd)
        assert first == second

    def test_out_files_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "install", "brunnian", "--branching", "2,2,2", "--out", str(a))
        run(capsys, "install", "brunnian", "--branching", "2,2,2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "case",
        [
            "category without identities",
            "simplicial without faces",
            "hypergraph with undeclared vertices",
            "state operation not total",
            "compose over bonds without records",
            "validate with several findings",
        ],
    )
    def test_error_bytes_do_not_depend_on_the_hash_seed(self, tmp_path, case):
        p = tmp_path / "input.json"
        triangle = json.loads((CORPUS / "graded_triangle_site.json").read_text())
        code, want = 2, None
        if case == "category without identities":
            obj = json.loads((CORPUS / "square_category.json").read_text())
            obj["category"]["identities"] = obj["category"]["identities"][:2]
            argv = ["nerve", str(p), "--max-dim", "2"]
        elif case == "simplicial without faces":
            obj = {"vertices": ["v0", "v1", "v2"], "simplices": [["v0"], ["v0", "v1"], ["v1", "v2"], ["v0", "v1", "v2"]]}
            argv = ["install", "simplicial", str(p)]
        elif case == "hypergraph with undeclared vertices":  # the first undeclared vertex in id_key order is named
            obj = {"vertices": ["a"], "edges": [["x", "y", "z"]]}
            argv = ["install", "hypergraph", str(p)]
            want = b"error: UnknownVertex\nedge vertex 'x' not declared\n"
        elif case == "state operation not total":  # defined only where the unit takes part
            obj, tokens = triangle, ["a", "b", "c", "d", "e"]
            table = [[x, "a", x] for x in tokens] + [["a", x, x] for x in tokens[1:]]
            obj["states"]["spaces"][0] = {"op": {"table": table, "unit": "a"}, "tokens": tokens}
            argv = ["globalize", str(p)]
            want = b"error: InvalidStateTower\nspace 0: operation not total at ('b', 'b')\n"
        elif case == "compose over bonds without records":  # the boundary walk names the first level-1 element
            obj = triangle
            obj["hyperstructure"]["bonds"] = [b for b in obj["hyperstructure"]["bonds"] if b["level"] != 1]
            top = "2:{v0,v1,v2}"
            argv = ["compose", str(p), "--a", top, "--b", top, "--p", "0", "--id", "t"]
            want = b"error: NotABond\n1:{v0,v1} has no bond record\n"
        else:  # five finding codes, found by walks over sets and dicts as stored
            obj, code = triangle, 1
            tower = obj["hyperstructure"]
            bonds = [b for b in tower["bonds"] if b["id"] != "{v0,v2}"]
            bonds[1]["property"] = "bogus"
            bonds += [dict(bonds[0]), {"id": "x", "identity": True, "level": 1, "property": "id", "support": ["v0", "v1"]}]
            tower["bonds"] = bonds
            tower["levels"][1].append("x")
            tower["omega"][0].append({"properties": [], "support": ["v2"]})
            argv = ["validate", str(p)]
            want = (
                b"validate: FAIL\n"
                b"duplicate-bond: bond 1:{v0,v1} registered 2 times\n"
                b"empty-omega-entry: omega entry for {v2} at level 0 is empty\n"
                b"identity-law: identity bond 1:x binds 2 elements\n"
                b"non-bond-element: element 1:{v0,v2} above level 0 has no bond record\n"
                b"property-not-assigned: bond 1:{v1,v2} carries 'bogus' not assigned to {v1,v2}\n"
            )
        p.write_text(json.dumps(obj))
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "hyperstruct.cli", *argv], env=env, capture_output=True, timeout=60)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0][0] == code and runs[0] == runs[1]
        if want is None:
            assert runs[0][1].startswith(b"error: ")
        else:
            assert runs[0][1] == want


class TestErrorShape:
    def test_first_line_is_machine_parsable(self, capsys):
        code, out = run(capsys, "validate", "/no/such/path.json")
        assert code != 0
        assert out.splitlines()[0].startswith("error: ")

    @pytest.mark.parametrize(
        "path",
        [
            ("presheaf", "on_objects", 0, 0),  # object key
            ("presheaf", "on_morphisms", 0, 0),  # morphism id
            ("presheaf", "on_morphisms", 0, 1, 0, 0),  # morphism table "from"
            ("presheaf", "on_morphisms", 0, 1, 0, 1),  # morphism table "to"
            ("category", "identities", 0, 0),
            ("category", "identities", 0, 1),
            ("category", "composition", 0, 0),
        ],
    )
    def test_list_as_category_or_presheaf_key(self, capsys, tmp_path, path):
        obj = json.loads((CORPUS / "square_category.json").read_text())
        target = obj
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = ["x"]
        p = tmp_path / "bad_key.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "nerve", str(p))
        assert code == 2
        assert out.startswith("error: SchemaError")

    def test_repeated_morphism_id(self, capsys, tmp_path):
        obj = json.loads((CORPUS / "square_category.json").read_text())
        obj["category"]["morphisms"].append(obj["category"]["morphisms"][0])
        p = tmp_path / "repeated_morphism.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "nerve", str(p))
        assert (code, out.splitlines()) == (2, ["error: SchemaError", "category.morphisms: duplicate morphism ids"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("nerve", "square_category.json", "--max-dim", "-2"),
            ("betti", "square_category.json", "--max-dim", "-1"),
            ("betti", "hollow_triangle.json", "--max-dim", "-1"),
        ],
    )
    def test_negative_max_dim(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out.json"
        extra = ["--out", str(out_path)] if argv[0] == "nerve" else []
        code, out = run(capsys, argv[0], str(CORPUS / argv[1]), *argv[2:], *extra)
        assert code == 2
        assert out.startswith("error: InconsistentComplex")
        assert not out_path.exists()

    def test_negative_max_dim_builds_no_nerve(self, capsys, monkeypatch):
        from hyperstruct import catelem

        monkeypatch.setattr(catelem, "nerve", lambda *args: pytest.fail("betti built a nerve it refuses"))
        code, out = run(capsys, "betti", str(CORPUS / "square_category.json"), "--max-dim", "-1")
        assert (code, out) == (2, "error: InconsistentComplex\nmax_dim must be non-negative, got -1\n")

    @pytest.mark.parametrize("value", [{}, ["x@1"], True, None, 1.5])
    @pytest.mark.parametrize("section", [("omega", 0, 0), ("bonds", 0)])
    def test_non_id_in_a_support_list(self, capsys, tmp_path, section, value):
        obj = json.loads((CORPUS / "relation.json").read_text())
        target = obj["hyperstructure"]
        for step in section:
            target = target[step]
        target["support"][1] = value
        p = tmp_path / "bad_support.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(p))
        assert code == 2
        assert out.startswith("error: SchemaError")

    def test_boolean_does_not_stand_for_an_integer_id(self, capsys, tmp_path):
        # True == 1 in Python, so an unchecked `true` would resolve to element 1
        h = tower_from_supports([frozenset({"x"})])
        obj = json.loads(serialize(Document(hyperstructure=h)))
        obj["hyperstructure"]["levels"][0] = [1]
        obj["hyperstructure"]["omega"][0][0]["support"] = [True]
        obj["hyperstructure"]["bonds"][0]["support"] = [1]
        p = tmp_path / "bool_id.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(p))
        assert code == 2
        assert out.startswith("error: SchemaError")

    def test_member_without_a_bond_record_has_no_state(self, capsys, tmp_path):
        obj = json.loads((CORPUS / "graded_triangle_site.json").read_text())
        bonds = obj["hyperstructure"]["bonds"]
        bonds.remove(next(b for b in bonds if b["id"] == "{v0,v1}"))
        p = tmp_path / "orphan.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "globalize", str(p))
        assert code == 2
        assert out.splitlines()[:2] == ["error: MissingState", "no state for 1:{v0,v1} in the boundary of 2:{v0,v1,v2}"]

    @pytest.mark.parametrize("case", [c for c in KEYED_ROWS if c[1][0] == "states"], ids=[c[0] for c in KEYED_ROWS if c[1][0] == "states"])
    def test_repeated_state_entry(self, capsys, tmp_path, case):
        _, path, key, _, _, message = case
        obj = every_section_document()
        rows = at_path(obj, path)
        rows.append(rows[key])
        p = tmp_path / "repeat.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "globalize", str(p))
        assert (code, out.splitlines()) == (2, ["error: SchemaError", message])

    @pytest.mark.parametrize("name", [[], {}, 1, None])
    def test_marker_name_that_is_not_a_string(self, capsys, tmp_path, name):
        obj = every_section_document()
        obj["states"]["assignment"][2][0][1] = {"marker": name}
        p = tmp_path / "marker.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(p))
        assert (code, out.splitlines()) == (2, ["error: SchemaError", f"states.assignment[2]: unknown marker {name!r}"])

    def test_every_error_kind_is_its_class_name(self):
        kinds = {
            name: cls.kind
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.HyperstructError) and cls is not errors.HyperstructError
        }
        assert len(kinds) == 34
        assert kinds.pop("DanglingReference") == "ReferenceError"
        assert kinds == {name: name for name in kinds}

    def test_repeated_base_state_is_not_folded(self, capsys, tmp_path):
        obj = json.loads((CORPUS / "graded_triangle_site.json").read_text())
        obj["states"]["base"].append(["v0", 999])
        p = tmp_path / "repeat.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "globalize", str(p))
        assert (code, out.splitlines()) == (2, ["error: SchemaError", "states.base: duplicate entry for 0:v0"])

    @pytest.mark.parametrize("command, kind", [("validate", "ParseError"), ("install", "SchemaError")])
    def test_input_that_is_not_utf8(self, capsys, tmp_path, command, kind):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + json.dumps({"vertices": ["a"], "edges": []}).encode("utf-16-le"))
        argv = ["install", "hypergraph", str(p)] if command == "install" else ["validate", str(p)]
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.splitlines()[0] == f"error: {kind}"

    @pytest.mark.parametrize("command, kind", [("validate", "ParseError"), ("install", "SchemaError")])
    def test_input_nested_too_deeply(self, capsys, tmp_path, command, kind):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["install", "hypergraph", str(p)] if command == "install" else ["validate", str(p)]
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.splitlines()[0] == f"error: {kind}"

    @pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
    def test_out_that_cannot_be_written(self, capsys, tmp_path, target):
        (tmp_path / "adir").mkdir()
        path = tmp_path / target
        code, out = run(capsys, "install", "brunnian", "--branching", "2,2", "--out", str(path))
        assert code == 2
        reason = "No such file or directory" if target.startswith("nodir") else "Is a directory"
        assert out.splitlines() == ["error: SchemaError", f"cannot write {path}: {reason}"]
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("hypergraph", '{"vertices": [[1]], "edges": []}'),
            ("hypergraph", '{"vertices": 5, "edges": []}'),
            ("hypergraph", '{"vertices": ["a"], "edges": [5]}'),
            ("relation", '{"components": 3, "tuples": []}'),
            ("hypergraph", '{"vertices": [1.5, true], "edges": [[1.5, true]]}'),
            ("simplicial", '{"vertices": [null], "simplices": [[null]]}'),
        ],
    )
    def test_malformed_install_payload(self, capsys, tmp_path, kind, payload):
        p = tmp_path / "payload.json"
        p.write_text(payload)
        out_path = tmp_path / "out.json"
        code, out = run(capsys, "install", kind, str(p), "--out", str(out_path))
        assert code == 2
        assert out.splitlines()[0] == "error: SchemaError"
        assert not out_path.exists()

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDC00", "\\udbff"])
    @pytest.mark.parametrize("command, kind", [("validate", "ParseError"), ("install", "SchemaError")])
    def test_lone_surrogate_is_refused_when_read(self, capsys, tmp_path, command, kind, escape):
        # UTF-8 cannot encode it, so it could be read but never written
        p = tmp_path / "surrogate.json"
        payload = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
        if command == "install":
            text = json.dumps(payload).replace('"a"', f'"{escape}"')
            argv = ["install", "hypergraph", str(p), "--out", str(tmp_path / "out.json")]
        else:
            text = (CORPUS / "hypergraph.json").read_text().replace('"d"', f'"{escape}"')
            argv = ["validate", str(p)]
        assert escape in text
        p.write_text(text)
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.splitlines()[0] == f"error: {kind}"
        assert "lone surrogate" in out
        assert not (tmp_path / "out.json").exists()

    def test_escaped_surrogate_pair_still_reads(self, capsys, tmp_path):
        p = tmp_path / "pair.json"
        p.write_text('{"vertices": ["\\ud83d\\ude00", "b", "\\\\ud800"], "edges": [["\\uD83D\\uDE00", "b"]]}')
        out_path = tmp_path / "out.json"
        code, out = run(capsys, "install", "hypergraph", str(p), "--out", str(out_path))
        assert code == 0
        h = parse(out_path.read_text(encoding="utf-8")).hyperstructure
        assert {e.id for e in h.levels[0]} == {"\U0001f600", "b", "\\ud800"}
        code, out = run(capsys, "validate", str(out_path))
        assert (code, out) == (0, "validate: pass\n")



def _doc(name: str | None, *edits) -> Callable[[], dict]:
    """A function returning corpus document name (every_section_document()
    for None) with each edit(obj) applied in turn."""

    def build() -> dict:
        obj = every_section_document() if name is None else json.loads((CORPUS / name).read_text())
        for edit in edits:
            edit(obj)
        return obj

    return build


def _set(path: tuple, value):
    return lambda obj: at_path(obj, path[:-1]).__setitem__(path[-1], value)


def _append(path: tuple, value):
    return lambda obj: at_path(obj, path).append(value)


def _rename(path: tuple, field: str, to: str):
    return lambda obj: at_path(obj, path).__setitem__(to, at_path(obj, path).pop(field))


def _drop(*sections: str):
    def edit(obj):
        for s in sections:
            del obj[s]

    return edit


DOC, OUT = "<doc>", "<out>"  # where a pinned run's argv names its input document and its --out path
STATES = ("states",)
TOWER = ("hyperstructure",)
SIMPLICES = ("simplicial", "dimensions")
TRIANGLE, SITE, REGIONS = "flat_triangle.json", "graded_triangle_site.json", "localize_regions.json"
#: level 0 a, b, c; level 1 l = {a, b} and r = {c}; level 2 t = {l}, so r lies under no top bond
UNDER_NO_TOP = {
    "format": "hyperstruct/1",
    "hyperstructure": {
        "order": 2,
        "levels": [["a", "b", "c"], ["l", "r"], ["t"]],
        "omega": [[{"support": ["a", "b"], "properties": ["p"]}, {"support": ["c"], "properties": ["p"]}], [{"support": ["l"], "properties": ["p"]}], []],
        "bonds": [
            {"id": "l", "level": 1, "support": ["a", "b"], "property": "p"},
            {"id": "r", "level": 1, "support": ["c"], "property": "p"},
            {"id": "t", "level": 2, "support": ["l"], "property": "p"},
        ],
    },
    "states": {"top": [["t", "L"]], "co_connectors": [{"kind": "identity"}, {"kind": "identity"}]},
}

#: level 0 x, y, u, v; level 1 a = {x, y} and b = {u, v}; level 2 top = {a}, and id:b = {a},
#: a plain bond holding the id that lifting b to level 2 would take
LIFT_ID_TAKEN = {
    "format": "hyperstruct/1",
    "hyperstructure": {
        "order": 2,
        "levels": [["x", "y", "u", "v"], ["a", "b"], ["top", "id:b"]],
        "omega": [[{"support": ["x", "y"], "properties": ["p"]}, {"support": ["u", "v"], "properties": ["p"]}], [{"support": ["a"], "properties": ["q"]}], []],
        "bonds": [
            {"id": "a", "level": 1, "support": ["x", "y"], "property": "p"},
            {"id": "b", "level": 1, "support": ["u", "v"], "property": "p"},
            {"id": "top", "level": 2, "support": ["a"], "property": "q"},
            {"id": "id:b", "level": 2, "support": ["a"], "property": "q"},
        ],
    },
}

#: Runs whose exit code and whole stdout are pinned: each refusal at a level
#: or section boundary that a document or an argument reaches, and the runs
#: beside them. doc is made by _doc, or is a JSON value written as it is (an
#: install payload), or None for no input file.
PINNED_RUNS = [
    # the tower section; a support listed twice in an omega table carries the union of its entries' tokens
    pytest.param(
        _doc(TRIANGLE, _append(TOWER + ("levels", 0), "v0")),
        ["validate", DOC],
        2,
        "error: SchemaError\nlevels[0]: duplicate identifiers\n",
        id="repeated-level-id",
    ),
    pytest.param(
        _doc(TRIANGLE, lambda o: o["hyperstructure"]["omega"].pop()),
        ["validate", DOC],
        2,
        "error: SchemaError\nhyperstructure.omega: expected 2 tables\n",
        id="omega-table-count",
    ),
    pytest.param(
        _doc(TRIANGLE, _append(TOWER + ("omega", 0), {"support": ["v1", "v0"], "properties": ["edge"]})),
        ["emergent", DOC, "--level", "0", "--s1", "v0", "--s2", "v1"],
        0,
        "emergent: edge, simplex\n",
        id="support-listed-twice-carries-the-union",
    ),
    pytest.param(
        _doc(TRIANGLE, _rename(TOWER + ("omega", 0, 0), "properties", "propertys")),
        ["validate", DOC],
        2,
        "error: SchemaError\nomega[0]: unknown field 'propertys'\n",
        id="misspelt-omega-field",
    ),
    pytest.param(
        _doc(TRIANGLE, _rename(TOWER + ("bonds", 1), "identity", "identiti")),
        ["validate", DOC],
        2,
        "error: SchemaError\nbonds[1]: unknown field 'identiti'\n",
        id="misspelt-bond-field",
    ),
    pytest.param(
        _doc(TRIANGLE, _set(TOWER + ("bonds", 2, "property"), "id")),
        ["validate", DOC],
        2,
        "error: ReservedProperty\nbonds[2]: 'id' is reserved for identity bonds\n",
        id="id-property-on-a-plain-bond",
    ),
    pytest.param(
        _doc(
            TRIANGLE,
            _append(TOWER + ("levels", 1), "i"),
            _append(TOWER + ("levels", 1), "j"),
            _append(TOWER + ("bonds",), {"id": "i", "level": 1, "support": ["v0"], "property": "id", "identity": True}),
            _append(TOWER + ("bonds",), {"id": "j", "level": 1, "support": ["v0"], "property": "id", "identity": True}),
        ),
        ["validate", DOC],
        1,
        "validate: FAIL\nidentity-law: element 0:v0 has 2 identity bonds\n",
        id="two-identity-bonds-over-one-element",
    ),
    pytest.param(
        _doc(TRIANGLE, _append(TOWER + ("bonds",), {"id": "{v0,v1}", "level": 1, "support": ["v0", "v1"], "property": "simplex"})),
        ["validate", DOC],
        1,
        "validate: FAIL\nduplicate-bond: bond 1:{v0,v1} registered 2 times\n",
        id="bond-listed-twice",
    ),
    # the topology section
    pytest.param(
        _doc(SITE, _drop("hyperstructure", "states")),
        ["topology-check", DOC],
        2,
        "error: ReferenceError\ntopology: requires a hyperstructure section\n",
        id="topology-without-tower",
    ),
    pytest.param(
        _doc(SITE, _set(("topology", 3, 1), [["{v0,v1}", "v0"]])),
        ["topology-check", DOC],
        2,
        "error: ReferenceError\ntopology[3]: sieve member 'v0' missing at level 1\n",
        id="sieve-member-at-another-level",
    ),
    # the states section
    pytest.param(
        _doc(SITE, _drop("hyperstructure", "topology")),
        ["globalize", DOC],
        2,
        "error: ReferenceError\nstates: requires a hyperstructure section\n",
        id="states-without-tower",
    ),
    pytest.param(
        _doc(SITE, _set(STATES + ("connectors", 0, "entries"), [])),
        ["globalize", DOC],
        2,
        "error: SchemaError\nstates.connectors[0]: built-in connectors take no entries\n",
        id="built-in-connector-with-entries",
    ),
    pytest.param(
        _doc(SITE, _set(STATES + ("connectors", 1), {"kind": "mean"})),
        ["globalize", DOC],
        2,
        "error: SchemaError\nstates.connectors[1]: unknown connector kind 'mean'\n",
        id="unknown-connector-kind",
    ),
    pytest.param(
        _doc(REGIONS, _set(STATES + ("co_connectors", 0, "entries"), [])),
        ["localize", DOC],
        2,
        "error: SchemaError\nstates.co_connectors[0]: identity co-connectors take no entries\n",
        id="identity-co-connector-with-entries",
    ),
    pytest.param(
        _doc(REGIONS, _set(STATES + ("co_connectors", 0), {"kind": "split"})),
        ["localize", DOC],
        2,
        "error: SchemaError\nstates.co_connectors[0]: unknown co-connector kind 'split'\n",
        id="unknown-co-connector-kind",
    ),
    pytest.param(
        _doc(None, _set(STATES + ("co_connectors", 1, "entries", 0, 0), ["{v0,v1}"])),
        ["localize", DOC],
        2,
        "error: SchemaError\nstates.co_connectors[1].entries: expected [[parent, child], state]\n",
        id="per-child-key-not-a-pair",
    ),
    pytest.param(
        _doc(None, _set(STATES + ("assignment", 0, 0, 1), 1.5)),
        ["validate", DOC],
        2,
        "error: SchemaError\nstates.assignment[0]: states must be strings or integers, got 1.5\n",
        id="float-assignment-state",
    ),
    pytest.param(
        _doc(SITE, _set(STATES + ("connectors",), [{"kind": "product"}])),
        ["globalize", DOC],
        2,
        "error: ConnectorUndefined\nneed 2 connectors, got 1\n",
        id="connector-count",
    ),
    pytest.param(
        _doc(REGIONS, _set(STATES + ("co_connectors",), [])),
        ["localize", DOC],
        2,
        "error: CoConnectorUndefined\nneed 1 co-connectors, got 0\n",
        id="co-connector-count",
    ),
    pytest.param(
        _doc(SITE, _set(TOWER + ("bonds", 0, "support"), [])),
        ["globalize", DOC],
        2,
        "error: ConnectorUndefined\nempty state multiset at bond 1:{v0,v1}\n",
        id="bond-binding-nothing-has-no-state",
    ),
    pytest.param(
        _doc(REGIONS, _set(STATES + ("co_connectors", 0), {"kind": "table", "entries": [["L", "l"]]})),
        ["localize", DOC],
        2,
        "error: CoConnectorUndefined\nco-connector undefined at state 'R'\n",
        id="co-connector-table-without-the-state",
    ),
    pytest.param(
        _doc(SITE),
        ["localize", DOC],
        2,
        "error: SchemaError\nlocalize needs states.top and states.co_connectors\n",
        id="localize-without-top",
    ),
    pytest.param(
        _doc(SITE, lambda o: o["states"]["spaces"].pop()),
        ["globalize", DOC, "--out", OUT],
        1,
        "globalized\nlevel 0: v0=2, v1=2, v2=2\nlevel 1: {v0,v1}=4, {v0,v2}=4, {v1,v2}=4\nlevel 2: {v0,v1,v2}=64\nlambda-codomains: FAIL\nshape: 2 state spaces for an order-2 tower\n",
        id="state-spaces-for-another-order",
    ),
    pytest.param(
        _doc(SITE, lambda o: o["hyperstructure"]["bonds"].pop()),
        ["globalize", DOC, "--out", OUT],
        1,
        "globalized\nlevel 0: v0=2, v1=2, v2=2\nlevel 1: {v0,v1}=4, {v0,v2}=4, {v1,v2}=4\nlevel 2: \nlambda-codomains: FAIL\ntotality: no state for 2:{v0,v1,v2}\n",
        id="top-element-without-a-state",
    ),
    pytest.param(
        UNDER_NO_TOP,
        ["localize", DOC],
        0,
        "localized\nlevel 0: a='L', b='L', c=<unassigned>\nlevel 1: l='L', r=<unassigned>\nlevel 2: t='L'\n",
        id="bond-under-no-top-bond",
    ),
    # the category, presheaf and simplicial sections
    pytest.param(
        _doc("square_category.json", _set(("category", "identities", 0), ["00", "zz"])),
        ["nerve", DOC],
        2,
        "error: ReferenceError\ncategory.identities: unresolved pair ['00', 'zz']\n",
        id="identity-names-no-morphism",
    ),
    pytest.param(
        _doc("square_category.json", _drop("category")),
        ["validate", DOC],
        2,
        "error: ReferenceError\npresheaf: requires a category section\n",
        id="presheaf-without-category",
    ),
    pytest.param(
        _doc("square_category.json", _append(("presheaf", "on_objects"), ["22", [0]])),
        ["nerve", DOC],
        2,
        "error: ReferenceError\npresheaf.on_objects: unknown object '22'\n",
        id="presheaf-unknown-object",
    ),
    pytest.param(
        _doc("square_category.json", _append(("presheaf", "on_morphisms"), ["22->22", []])),
        ["nerve", DOC],
        2,
        "error: ReferenceError\npresheaf.on_morphisms: unknown morphism '22->22'\n",
        id="presheaf-unknown-morphism",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _set(("simplicial", "max_dim"), "1")),
        ["betti", DOC],
        2,
        "error: SchemaError\nsimplicial.max_dim: expected a non-negative integer\n",
        id="max-dim-not-an-integer",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _set(SIMPLICES + (0, 0, "faces"), [])),
        ["betti", DOC],
        2,
        "error: SchemaError\nsimplicial.dimensions[0]: vertices have no faces\n",
        id="vertex-with-faces",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _set(SIMPLICES + (1, 0, "faces"), None)),
        ["betti", DOC],
        2,
        "error: SchemaError\nsimplicial.dimensions[1]: simplex 'e01' lacks faces\n",
        id="edge-without-faces",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _set(SIMPLICES + (1, 0, "faces"), ["v0"])),
        ["betti", DOC],
        2,
        "error: SchemaError\nsimplicial.dimensions[1]: simplex 'e01' needs 2 faces\n",
        id="edge-with-one-face",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _set(SIMPLICES + (1, 0, "faces"), [None, "v1"])),
        ["betti", DOC],
        0,
        "betti: 0 0\n",
        id="a-null-face-leaves-the-boundary",
    ),
    pytest.param(
        _doc("hollow_triangle.json", _append(SIMPLICES + (1,), {"id": "e01", "faces": ["v1", "v2"]})),
        ["betti", DOC],
        2,
        "error: SchemaError\nsimplicial.dimensions[1]: duplicate simplex ids\n",
        id="repeated-simplex-id",
    ),
    # a negative bound is refused as given, before a category's nerve is built one dimension higher
    pytest.param(
        _doc("square_category.json"),
        ["betti", DOC, "--max-dim", "-5"],
        2,
        "error: InconsistentComplex\nmax_dim must be non-negative, got -5\n",
        id="betti-negative-max-dim-on-a-category",
    ),
    pytest.param(
        _doc("hollow_triangle.json"),
        ["betti", DOC, "--max-dim", "-5"],
        2,
        "error: InconsistentComplex\nmax_dim must be non-negative, got -5\n",
        id="betti-negative-max-dim-on-simplicial-data",
    ),
    # install
    pytest.param(
        [],
        ["install", "hypergraph", DOC],
        2,
        "error: SchemaError\ninstall payload must be a JSON object\n",
        id="payload-not-an-object",
    ),
    pytest.param(
        {"vertices": ["a"], "edgez": []},
        ["install", "hypergraph", DOC],
        2,
        "error: SchemaError\ninstall hypergraph: unknown field 'edgez'\n",
        id="payload-unknown-field",
    ),
    pytest.param(
        {"vertices": ["a"], "simplices": [["a"], ["b"]]},
        ["install", "simplicial", DOC],
        2,
        "error: UnknownVertex\nsimplex vertex 'b' not declared\n",
        id="undeclared-simplex-vertex",
    ),
    pytest.param(
        None,
        ["install", "hypergraph"],
        2,
        "error: SchemaError\ninstall hypergraph needs an input payload file\n",
        id="payload-missing",
    ),
    pytest.param(
        None,
        ["install", "brunnian"],
        2,
        "error: SchemaError\ninstall brunnian needs --branching, e.g. --branching 3,3\n",
        id="branching-missing",
    ),
    pytest.param(
        None,
        ["install", "brunnian", "--branching", "3,x"],
        2,
        "error: SchemaError\nbad --branching value '3,x'\n",
        id="branching-not-integers",
    ),
    pytest.param(
        {"components": [["x", "y"], ["u", "v"]], "tuples": [["x", "u"], ["y", "u"], ["y", "v"]]},
        ["install", "relation", DOC, "--out", OUT],
        0,
        "installed: relation\nlevel-0 elements: 4\nlevel-1 bonds: 3\n",
        id="install-relation",
    ),
    # element references, combiners and levels
    pytest.param(
        _doc(TRIANGLE),
        ["compose", DOC, "--a", "{v0,v1}", "--b", "1:{v1,v2}", "--p", "0", "--id", "c"],
        2,
        "error: SchemaError\nelement reference '{v0,v1}' must look like level:id\n",
        id="reference-without-level",
    ),
    pytest.param(
        _doc(TRIANGLE),
        ["compose", DOC, "--a", "one:{v0,v1}", "--b", "1:{v1,v2}", "--p", "0", "--id", "c"],
        2,
        "error: SchemaError\nelement reference 'one:{v0,v1}' must start with a level index\n",
        id="reference-level-not-an-integer",
    ),
    pytest.param(
        _doc(TRIANGLE),
        ["fuse", DOC, "--a", "1:{v0,v1}", "--b", "1:{v1,v2}", "--k", "0", "--combiner", "sum", "--id", "c"],
        2,
        "error: SchemaError\nunknown combiner 'sum'; choose from ['disjoint-union', 'tensor-pairs', 'union']\n",
        id="unknown-combiner",
    ),
    pytest.param(
        _doc(TRIANGLE),
        ["fuse", DOC, "--a", "1:{v0,v1}", "--b", "1:{v1,v2}", "--k", "1", "--id", "c"],
        2,
        "error: LevelOutOfRange\ngluing level 1 not below both bonds\n",
        id="gluing-level-not-below",
    ),
    pytest.param(
        _doc(TRIANGLE),
        ["emergent", DOC, "--level", "0", "--s1", "v0,v9", "--s2", "v1"],
        2,
        "error: UnknownElement\nno element 'v9' at level 0\n",
        id="emergent-unknown-id",
    ),
    pytest.param(
        _doc(TRIANGLE),
        ["emergent", DOC, "--level", "1", "--s1", "", "--s2", ""],
        0,
        "emergent: (none)\n",
        id="emergent-empty-supports",
    ),
    pytest.param(
        _doc(SITE),
        ["compose", DOC, "--a", "2:{v0,v1,v2}", "--b", "1:{v0,v1}", "--p", "0", "--mode", "weak", "--id", "c", "--out", OUT],
        0,
        "composed: 2:c\nsupport: {{v0,v1},{v0,v2},{v1,v2}}\nproperty: id∪simplex\n",
        id="compose-across-levels",
    ),
    # the pair is checked before b is lifted, so the taken lift id is never reached
    pytest.param(
        LIFT_ID_TAKEN,
        ["fuse", DOC, "--a", "2:top", "--b", "1:b", "--k", "0", "--id", "c"],
        1,
        "error: NotGluable\n2:top and 1:b share nothing at level 0\n",
        id="fuse-across-levels-refused-before-lifting",
    ),
]


class TestPinnedRuns:
    """Each run prints exactly its pinned text and exits with its code; --out is written only on success."""

    @pytest.mark.parametrize("doc, argv, code, stdout", PINNED_RUNS)
    def test_exit_code_and_stdout(self, capsys, tmp_path, doc, argv, code, stdout):
        path, out_path = tmp_path / "doc.json", tmp_path / "out.json"
        if doc is not None:
            path.write_text(json.dumps(doc() if callable(doc) else doc))
        writes = OUT in argv
        assert run(capsys, *[{DOC: str(path), OUT: str(out_path)}.get(a, a) for a in argv]) == (code, stdout)
        assert out_path.exists() == (writes and code == 0)


def _process(argv, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    """argv run by a `python -m hyperstruct.cli` process, argparse's text 80 columns wide."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "hyperstruct.cli", *argv]
    return subprocess.run(command, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60, **kwargs)


class TestProcessExit:
    """A command process ends by os._exit once it has flushed its output: the
    same bytes and exit code as a normal exit, and a stdout that cannot take
    the output is an input error, not a traceback."""

    @pytest.mark.parametrize(
        "change, code, stdout",
        [
            (None, 0, b"validate: pass\n"),
            ("orphan", 1, b"validate: FAIL\nnon-bond-element: element 2:orphan above level 0 has no bond record\n"),
            ("cut", 2, b"error: ParseError\nline 1 column 47: Expecting value\n"),
        ],
    )
    def test_validate_keeps_its_bytes_and_code(self, tmp_path, change, code, stdout):
        text = (CORPUS / "brunnian_3_3.json").read_text()
        if change == "orphan":
            obj = json.loads(text)
            obj["hyperstructure"]["levels"][2].append("orphan")
            text = json.dumps(obj)
        elif change == "cut":
            text = '{"format": "hyperstruct/1", "hyperstructure": '
        p = tmp_path / "doc.json"
        p.write_text(text)
        done = _process(["validate", str(p)])
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, b"")

    @pytest.mark.parametrize("argv", [["--help"], ["validate"], ["validate", "--help"]])
    def test_argparse_exits_keep_their_text(self, argv):
        golden = json.loads(CLI_TEXT.read_text(encoding="utf-8"))[" ".join(argv)]
        done = _process(argv)
        got = {"code": done.returncode, "stdout": done.stdout.decode(), "stderr": done.stderr.decode()}
        assert got == golden

    def test_out_document_is_the_canonical_text(self, tmp_path):
        out = tmp_path / "out.json"
        done = _process(["globalize", str(CORPUS / "graded_triangle_site.json"), "--out", str(out)])
        assert done.returncode == 0 and done.stdout.startswith(b"globalized\n")
        text = out.read_text(encoding="utf-8")
        assert text == serialize(parse(text))
        assert parse(text).states.assignment is not None

    @pytest.mark.parametrize("target", ["closed", "full"])
    def test_unwritable_stdout_is_an_input_error(self, target):
        if target == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        argv = ["validate", str(CORPUS / "brunnian_3_3.json")]
        if target == "closed":  # the process starts with descriptor 1 closed
            done = _process(argv, stdout=None, preexec_fn=lambda: os.close(1))
            reason = "Bad file descriptor"
        else:
            with open("/dev/full", "wb") as full:
                done = _process(argv, stdout=full)
            reason = "No space left on device"
        assert done.returncode == 2
        assert done.stderr == f"error: SchemaError\ncannot write <stdout>: {reason}\n".encode()

    def test_stdout_whose_reader_is_gone(self):
        read, write = os.pipe()
        os.close(read)  # the first write fails with EPIPE
        try:
            done = _process(["validate", str(CORPUS / "brunnian_3_3.json")], stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (2, b"error: SchemaError\ncannot write <stdout>: Broken pipe\n")

    def test_large_output_into_head_ends_without_a_traceback(self, tmp_path):
        """globalize prints about 190 kB into a pipe whose reader, like `head
        -c 1`, leaves after one byte, during the write or before it: either
        way the output is cut short, and the process says so."""
        ids = [f"v{i}" for i in range(20000)]
        tower = {
            "order": 1,
            "levels": [ids, ["e"]],
            "omega": [[{"properties": ["p"], "support": ["v0", "v1"]}], []],
            "bonds": [{"id": "e", "identity": False, "level": 1, "property": "p", "support": ["v0", "v1"]}],
        }
        states = {"base": [[v, 1] for v in ids], "connectors": [{"kind": "sum"}]}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"format": "hyperstruct/1", "hyperstructure": tower, "states": states}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "hyperstruct.cli", "globalize", str(p)]
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(1) == b"g"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert (code, err) == (2, b"error: SchemaError\ncannot write <stdout>: Broken pipe\n")


#: argv whose stdout, stderr and exit code are pinned in cli_text.json: the
#: top-level help, usage and unknown command, each command's help, and one
#: argparse error per command.
CLI_TEXT_CASES = [
    ["--help"],
    [],
    ["frobnicate"],
    *([name, "--help"] for name in ("validate", "install", "compose", "fuse", "topology-check", "globalize", "localize", "emergent", "nerve", "betti", "brunnian")),
    ["validate"],
    ["validate", "a.json", "b.json"],
    ["install", "graph", "p.json"],
    ["compose", "d.json", "--a", "1:x", "--b", "1:y", "--p", "one", "--id", "c"],
    ["compose", "d.json", "--a", "1:x", "--b", "1:y", "--p", "0", "--mode", "loose", "--id", "c"],
    ["fuse", "d.json", "--a", "1:x", "--b", "1:y", "--k", "zero", "--id", "f"],
    ["topology-check", "d.json", "--exhaustive", "--sampled", "3"],
    ["topology-check", "d.json", "--level", "top"],
    ["globalize"],
    ["localize", "d.json", "--bogus"],
    ["emergent", "d.json", "--level", "x", "--s1", "a", "--s2", "b"],
    ["nerve", "d.json", "--max-dim", "two"],
    ["betti", "d.json", "--max-dim", "2.5"],
    ["brunnian"],
]
CLI_TEXT = Path(__file__).resolve().parent / "cli_text.json"


def cli_text(argv: list[str]) -> dict:
    """main(argv)'s exit code, stdout and stderr, argparse's exits included."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class TestParserText:
    """Help, usage lines and argparse errors stay byte for byte as recorded."""

    @pytest.mark.parametrize("argv", CLI_TEXT_CASES, ids=[" ".join(a) or "(none)" for a in CLI_TEXT_CASES])
    def test_text_matches_the_golden(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        golden = json.loads(CLI_TEXT.read_text(encoding="utf-8"))
        assert cli_text(argv) == golden[" ".join(argv)]

    def test_every_command_and_case_is_pinned(self):
        golden = json.loads(CLI_TEXT.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(" ".join(a) for a in CLI_TEXT_CASES)

    def test_a_named_command_builds_only_its_subparser(self, monkeypatch, capsys):
        def commands(parser):
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return list(sub.choices)

        assert commands(build_parser()) == list(COMMANDS)
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
        assert main(["validate", str(CORPUS / "brunnian_3_3.json")]) == 0
        assert built == []  # plain argv is read from COMMANDS
        for argv in (["validate", "--help"], ["validate"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == ["validate", "validate"] and commands(build_parser("validate")) == ["validate"]


#: Tokens a plain command line carries, and tokens that argparse reads in its own way or refuses.
PLAIN_TOKENS = ["0", "3", " 3", "٣", "", "d.json", "1:x"]
HOSTILE_TOKENS = ["-1", "2.5", "x", "loose", "graph", "-", "--", "-h", "--help", "--ou", "--out=x", "--bogus"]


@st.composite
def command_lines(draw):
    """A command with each of its arguments present or not, a value drawn
    for each (mostly from its choices or PLAIN_TOKENS), the flags in any
    order, and now and then a hostile token, a repeated flag or an extra
    positional among them."""
    command = draw(st.sampled_from(list(COMMANDS)))
    arguments = [a for arg in COMMANDS[command][1] for a in (arg if isinstance(arg, list) else [arg])]

    def token(kwargs):
        pool = HOSTILE_TOKENS if draw(st.integers(0, 7)) == 0 else kwargs.get("choices", PLAIN_TOKENS)
        return draw(st.sampled_from(pool))

    positionals, flags = [], []
    for name, kwargs in arguments:
        if draw(st.integers(0, 5)) == 0:
            continue
        if not name.startswith("-"):
            positionals.append(token(kwargs))
        else:
            flags.append([name] if kwargs.get("action") == "store_true" else [name, token(kwargs)])
    if draw(st.integers(0, 5)) == 0:
        positionals.append(draw(st.sampled_from(PLAIN_TOKENS)))
    if draw(st.integers(0, 1)) == 0:
        flags.append([draw(st.sampled_from(HOSTILE_TOKENS + [name for name, _ in arguments]))])
    return [command, *positionals, *chain.from_iterable(draw(st.permutations(flags)))]


class TestPlainArgs:
    """The plain reader gives exactly argparse's values, or leaves the argv to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_values_match_argparse(self, argv):
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == vars(build_parser(argv[0]).parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["install", "relation", "p.json", "--ou", "o.json"],
            ["globalize", "d.json", "--out=o.json"],
            ["globalize", "d.json", "--out", "a.json", "--out", "b.json"],
            ["install", "--graded", "simplicial", "p.json"],
            ["fuse", "d.json", "--a", "1:x", "--b", "1:y", "--k", "-1", "--id", "f"],
            ["validate", "-h"],
            ["validate", "--", "d.json"],
            ["nerve", "d.json", "--max-dim", "two"],
            ["install", "graph", "p.json"],
            ["compose", "d.json", "--a", "1:x", "--b", "1:y", "--p", "0", "--mode", "loose", "--id", "c"],
            ["topology-check", "d.json", "--exhaustive", "--sampled", "3"],
            ["emergent", "d.json", "--level", "0", "--s1", "a"],
            ["globalize", "d.json", "--out"],
            ["validate", "a.json", "b.json"],
            ["validate"],
            ["frobnicate"],
            [],
        ],
        ids=[
            "abbreviated", "flag=value", "repeated", "flag-first", "dash-value", "-h", "--", "bad-int", "bad-choice",
            "bad-option-choice", "exclusive", "missing-required", "missing-value", "extra-positional", "no-positional",
            "unknown-command", "empty",
        ],
    )
    def test_anything_else_goes_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_accepted_lines(self):
        assert vars(cli._plain_args(["install", "brunnian", "--branching", "3,3"])) == {
            "command": "install", "kind": "brunnian", "input": None, "branching": "3,3", "graded": False, "out": None,
        }
        assert vars(cli._plain_args(["topology-check", "d.json", "--sampled", " 3"])) == {
            "command": "topology-check", "input": "d.json", "level": None, "exhaustive": False, "sampled": 3,
        }
