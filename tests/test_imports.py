"""Start-up stays light: a process loads only the modules its command runs.

Importing the package or its CLI loads no numpy and none of the payload
modules; each command imports those it runs, and a document loads a
section's module only when the section is present. The value types are
NamedTuples and plain classes, so no command loads `dataclasses`, nor
`inspect`, which `dataclasses` imports.
"""
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


def test_validate_loads_no_payload_module():
    loaded = _loaded_after(_cli("validate", str(CORPUS / "brunnian_3_3.json")))
    assert loaded.isdisjoint(PAYLOAD_MODULES), loaded & set(PAYLOAD_MODULES)


def _install_hypergraph(tmp_path) -> str:
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    return _cli("install", "hypergraph", str(payload), "--out", str(tmp_path / "out.json"))


def test_install_hypergraph_loads_installers_only(tmp_path):
    loaded = _loaded_after(_install_hypergraph(tmp_path))
    assert "installers" in loaded
    assert loaded.isdisjoint({"catelem", "topology"}), loaded


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
