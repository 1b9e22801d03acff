"""Start-up stays light: a process loads only the modules its command runs.

Importing the package loads none of its modules, and importing the CLI
loads only `errors`. Each command loads the shared modules, its own module
under `commands` and the library modules it runs, and nothing else: a
document loads a section's module (topology, states or catelem, which hold
the section codecs) only when the section is present, reading loads the
document reader and `--out` the writer, and only `validate` loads the tower
laws. `tempfile` and `pathlib` load only for `--out`, which is pinned with
`python -S`, since a site hook may import them first. A plain command line
is read from the command table, so `argparse` (and `gettext` and `locale`,
which it imports) load only for help and usage errors. The value types are
built on `collections.namedtuple` and the annotations are never evaluated,
so no command loads `typing`, which is pinned with `python -S` too, nor
`dataclasses`, nor `inspect`, which `dataclasses` imports. A command
process runs with the cyclic collector paused; `main` called in-process
leaves it on.
"""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PAYLOAD_MODULES = ("catelem", "states", "topology", "composition", "installers", "assignments")
HEAVY_STDLIB = {"dataclasses", "inspect"}


def _loaded_after(code: str) -> set[str]:
    """The hyperstruct submodules, and numpy, dataclasses and inspect, that a
    fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = code + (
        "\nimport sys; print(' '.join(m for m in sys.modules"
        f" if m.startswith(('hyperstruct.', 'numpy')) or m in {sorted(HEAVY_STDLIB)!r}))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {m.removeprefix("hyperstruct.") for m in done.stdout.splitlines()[-1].split()}


def _cli(*argv: str) -> str:
    """Code that runs one CLI command in-process, keeping its exit code."""
    return f"from hyperstruct.cli import main; code = main({list(argv)!r}); assert code == 0, code"


@pytest.mark.parametrize("module", ["hyperstruct", "hyperstruct.cli"])
def test_import_does_not_load_numpy(module):
    assert "numpy" not in _loaded_after(f"import {module}")


def test_cli_import_loads_no_payload_module():
    loaded = _loaded_after("import hyperstruct.cli")
    assert loaded.isdisjoint(PAYLOAD_MODULES), loaded & set(PAYLOAD_MODULES)


@pytest.mark.parametrize("module, expected", [("hyperstruct", set()), ("hyperstruct.cli", {"cli", "errors"})])
def test_import_loads_nothing_else(module, expected):
    assert _loaded_after(f"import {module}") == expected


def test_package_names_are_their_home_modules_objects():
    import hyperstruct
    from hyperstruct import core, report

    for name in hyperstruct.__all__:
        home = report if name in ("CheckReport", "Finding") else core
        assert getattr(hyperstruct, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="^module 'hyperstruct' has no attribute 'Tower'$"):
        hyperstruct.Tower
    assert set(hyperstruct.__all__) <= set(dir(hyperstruct))


def _install_hypergraph_argv(tmp_path) -> list[str]:
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    return ["install", "hypergraph", str(payload), "--out", str(tmp_path / "out.json")]


def _install_hypergraph(tmp_path) -> str:
    return _cli(*_install_hypergraph_argv(tmp_path))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("relation.json", set()),
        ("hollow_triangle.json", {"catelem"}),
        ("localize_regions.json", {"states", "composition"}),
        ("graded_triangle_site.json", {"states", "composition", "topology"}),
    ],
)
def test_a_document_loads_only_its_sections_modules(name, expected):
    loaded = _loaded_after(
        "from pathlib import Path; from hyperstruct.document import parse, serialize\n"
        f"serialize(parse(Path({str(CORPUS / name)!r}).read_text()))"
    )
    assert loaded & set(PAYLOAD_MODULES) == expected


#: Modules outside hyperstruct that a command may load only for --out,
#: those that only help and usage errors load, and typing, which none loads.
OUT_STDLIB = {"tempfile", "pathlib"}
PARSER_STDLIB = {"argparse", "gettext", "locale"}
TYPING = {"typing"}


def _loaded_by_command(*argv: str, site: bool = True, code: int = 0) -> set[str]:
    """The hyperstruct submodules, and the OUT_STDLIB, PARSER_STDLIB and TYPING
    modules, that `python -m hyperstruct.cli argv` imports before exiting
    with code, read from its -X importtime report; with site=False, under
    `python -S`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, *([] if site else ["-S"]), "-X", "importtime", "-m", "hyperstruct.cli", *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stdout + done.stderr
    names = (line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:"))
    return {m.removeprefix("hyperstruct.") for m in names if m.startswith("hyperstruct.") or m in OUT_STDLIB | PARSER_STDLIB | TYPING}


def _without(name: str, section: str, tmp_path) -> str:
    """A copy of a corpus document without one of its sections."""
    doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    del doc[section]
    path = tmp_path / f"no-{section}-{name}"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


#: What every command loads, besides its own module under commands.
SHARED = {"errors", "core", "document", "commands"}
READ, WRITE = {"document_reader"}, {"document_writer"} | OUT_STDLIB

COMMAND_MODULES = [
    (lambda tmp: ["validate", str(CORPUS / "brunnian_3_3.json")], {"commands.validate", "validation", "report"} | READ),
    (_install_hypergraph_argv, {"commands.install", "installers"} | WRITE),
    (lambda tmp: ["brunnian", str(CORPUS / "brunnian_3_3.json")], {"commands.brunnian", "installers"} | READ),
    (
        lambda tmp: ["emergent", str(CORPUS / "flat_triangle.json"), "--level", "0", "--s1", "v0,v1", "--s2", "v1,v2"],
        {"commands.emergent", "commands.refs", "assignments", "report"} | READ,
    ),
    (
        lambda tmp: ["compose", str(CORPUS / "flat_triangle.json"), "--a", "1:{v0,v1}", "--b", "1:{v1,v2}", "--p", "0", "--mode", "weak", "--id", "c", "--out", str(tmp / "c.json")],
        {"commands.compose", "commands.refs", "composition"} | READ | WRITE,
    ),
    (
        lambda tmp: ["globalize", _without("graded_triangle_site.json", "topology", tmp), "--out", str(tmp / "g.json")],
        {"commands.globalize", "states", "state_checks", "composition", "report"} | READ | WRITE,
    ),
    (lambda tmp: ["globalize", _without("graded_triangle_site.json", "topology", tmp)], {"commands.globalize", "states", "state_checks", "composition", "report"} | READ),
    (
        lambda tmp: ["localize", str(CORPUS / "localize_regions.json"), "--out", str(tmp / "l.json")],
        {"commands.localize", "states", "composition"} | READ | WRITE,
    ),
    (
        lambda tmp: ["fuse", _without("graded_triangle_site.json", "topology", tmp), "--a", "1:{v0,v1}", "--b", "1:{v1,v2}", "--k", "0", "--id", "f", "--out", str(tmp / "f.json")],
        {"commands.fuse", "commands.refs", "states", "composition"} | READ | WRITE,
    ),
    (lambda tmp: ["nerve", str(CORPUS / "square_category.json"), "--out", str(tmp / "n.json")], {"commands.nerve", "catelem"} | READ | WRITE),
    (lambda tmp: ["nerve", str(CORPUS / "square_category.json")], {"commands.nerve", "catelem"} | READ),
    (lambda tmp: ["topology-check", _without("graded_triangle_site.json", "states", tmp)], {"commands.topology_check", "topology", "report"} | READ),
    (lambda tmp: ["betti", str(CORPUS / "square_category.json")], {"commands.betti", "catelem"} | READ),
    (lambda tmp: ["betti", str(CORPUS / "hollow_triangle.json")], {"commands.betti", "catelem"} | READ),
]
COMMAND_IDS = [
    "validate", "install-hypergraph", "brunnian", "emergent", "compose", "globalize", "globalize-no-out", "localize", "fuse",
    "nerve", "nerve-no-out", "topology-check", "betti-category", "betti-simplicial",
]


@pytest.mark.parametrize("argv, expected", COMMAND_MODULES, ids=COMMAND_IDS)
def test_each_command_loads_only_its_modules(argv, expected, tmp_path):
    loaded = _loaded_by_command(*argv(tmp_path))
    assert loaded - OUT_STDLIB - PARSER_STDLIB - TYPING == SHARED | expected - OUT_STDLIB


@pytest.mark.parametrize("argv, expected", COMMAND_MODULES, ids=COMMAND_IDS)
def test_without_site_each_command_loads_only_its_modules(argv, expected, tmp_path):
    """Under python -S nothing is preloaded, so tempfile and pathlib show up
    exactly when --out writes, and a plain command line loads no argparse
    and no typing."""
    loaded = _loaded_by_command(*argv(tmp_path), site=False)
    assert not loaded & TYPING
    assert loaded == SHARED | expected


def test_help_loads_no_command():
    assert _loaded_by_command("--help", site=False) == {"errors"} | PARSER_STDLIB


@pytest.mark.parametrize("argv, code", [(["validate", "--help"], 0), (["validate"], 2), (["validate", "a.json", "--bogus"], 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    assert _loaded_by_command(*argv, site=False, code=code) == {"errors"} | PARSER_STDLIB


def test_main_leaves_the_collector_on():
    assert gc.isenabled()
    from hyperstruct.cli import main

    assert main(["validate", str(CORPUS / "brunnian_3_3.json")]) == 0
    assert gc.isenabled()


def test_a_command_process_runs_without_the_collector():
    """run_process, as `python -m hyperstruct.cli` runs it, pauses the
    collector before the command, and parse leaves it paused."""
    probe = f"""
import gc, runpy, sys
import hyperstruct.commands.validate as command

run = command.run

def observed(args):
    print("collector on:", gc.isenabled(), file=sys.stderr)
    code = run(args)
    print("collector on:", gc.isenabled(), file=sys.stderr)
    return code

command.run = observed
sys.argv = ["hyperstruct", "validate", {str(CORPUS / "brunnian_3_3.json")!r}]
runpy.run_module("hyperstruct.cli", run_name="__main__", alter_sys=True)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "collector on: False\ncollector on: False\n")
    assert done.stdout.startswith("validate: pass")


@pytest.mark.parametrize(
    "run",
    [
        lambda tmp_path: "import hyperstruct",
        lambda tmp_path: "import hyperstruct.cli",
        lambda tmp_path: _cli("validate", str(CORPUS / "brunnian_3_3.json")),
        _install_hypergraph,
        lambda tmp_path: _cli("globalize", str(CORPUS / "graded_triangle_site.json"), "--out", str(tmp_path / "out.json")),
        lambda tmp_path: _cli("topology-check", str(CORPUS / "graded_triangle_site.json")),
        lambda tmp_path: _cli("nerve", str(CORPUS / "square_category.json")),
    ],
    ids=["import", "import-cli", "validate", "install-hypergraph", "globalize", "topology-check", "nerve"],
)
def test_no_dataclasses_or_inspect(run, tmp_path):
    loaded = _loaded_after(run(tmp_path))
    assert loaded.isdisjoint(HEAVY_STDLIB), loaded & HEAVY_STDLIB
