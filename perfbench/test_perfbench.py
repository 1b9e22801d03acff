"""Tests of the benchmark itself: every workload in smoke mode, with output checks.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generators_are_seeded():
    import gen

    def inputs(seed):
        rng = random.Random(seed)
        below = gen.random_dag_poset(rng, 10, 0.4)
        return gen.hypergraph(rng, 50), below, gen.candidate_topologies(rng, below, 4)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_down_set_enumeration_matches_brute_force():
    import gen

    below = gen.random_dag_poset(random.Random(2), 9, 0.3)
    for root in range(len(below)):
        ideal = sorted(below[root] | {root})
        brute = set()
        for mask in range(1 << len(ideal)):
            chosen = frozenset(x for k, x in enumerate(ideal) if mask >> k & 1)
            if all(below[x] <= chosen for x in chosen):
                brute.add(chosen)
        assert set(gen.all_downsets(below, root)) == brute
