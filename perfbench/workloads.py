"""The four workloads: seeded inputs, the jobs of one pass, and output checks.

A job is one CLI call, one tower's candidate sweep, one site pipeline or one
category pipeline. `run` is the timed part; `check` runs after the pass,
outside the timed region, and returns the problems it found.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable

import gen
import oracles
from hyperstruct import catelem, cli, installers, states, topology
from hyperstruct.core import ElementId, validate
from hyperstruct.document import parse, serialize

#: A CLI call that runs longer than this counts as failed.
CALL_TIMEOUT_S = 60


@dataclass
class Context:
    root: Path
    workdir: Path
    env: dict


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Bench:
    jobs: list[Job]
    warmup: list[Job]
    # cli-pipeline only: the same commands through cli.main in this process,
    # which is what a traced run times
    replay: list[Job] | None = None
    # per-layer metric -> (job at the larger size, job at half that size)
    scale_jobs: dict[str, tuple[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Context, bool], Bench]


# -- cli-pipeline ---------------------------------------------------------------------


def _lines(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _doc_problems(text: str | None) -> list[str]:
    """A written document must round-trip byte for byte and validate."""
    if text is None:
        return ["no document written"]
    doc = parse(text)
    problems = []
    if serialize(doc) != text:
        problems.append("serialize(parse(text)) != text")
    if doc.hyperstructure is not None and not validate(doc.hyperstructure).passed:
        problems.append("written tower fails validate")
    return problems


def _cli_check(stdout: str | None, out_path: Path | None = None, extra=None):
    """Exit 0, the expected stdout when given, and checks on the written document."""

    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit {code}: {(out + err).strip()[-300:]}"]
        problems = []
        if stdout is not None and out != stdout:
            problems.append(f"stdout differs: {out[:200]!r}")
        text = out_path.read_text(encoding="utf-8") if out_path is not None and out_path.exists() else None
        if out_path is not None:
            problems += _doc_problems(text)
        if extra is not None:
            problems += extra(out, text)
        return problems

    return check


def _state_line(level: int, pairs: dict) -> str:
    shown = ", ".join(f"{k}={v}" for k, v in sorted(pairs.items(), key=lambda kv: gen.id_key(kv[0])))
    return f"level {level}: {shown}"


def _marker_repr(state) -> str:
    return f"<{state['marker']}>" if isinstance(state, dict) else repr(state)


def _assignment_doc(doc: dict, per_level: list[dict]) -> str:
    doc = json.loads(json.dumps(doc))
    doc["states"]["assignment"] = [
        [[k, level[k]] for k in sorted(level, key=gen.id_key)] for level in per_level
    ]
    return gen.dump(doc)


def _written(expected: str, what: str):
    def extra(out, text):
        return [] if text == expected else [f"written {what} differs from the reference document"]

    return extra


def cli_pipeline(rng: random.Random, ctx: Context, smoke: bool) -> Bench:
    """Every command as its own process, on generated documents."""
    w = ctx.workdir
    specs: list[tuple[str, list, Callable]] = []

    def write(name: str, text: str) -> Path:
        path = w / name
        path.write_text(text, encoding="utf-8")
        return path

    sizes = (20, 40) if smoke else (250, 500, 1000, 2000)
    for size in sizes:
        vertices, edges = gen.hypergraph(rng, size)
        names = {e: gen.canonical_name(e) for e in edges}
        payload = write(f"payload{size}.json", json.dumps(gen.install_payload(rng, vertices, edges)))
        tower_doc = gen.dump({"format": gen.FORMAT, "hyperstructure": gen.hypergraph_tower(vertices, edges)})
        doc, top = gen.states_document(rng, vertices, edges)
        states_path = write(f"states{size}.json", gen.dump(doc))
        installed, glob, loc, fused = (w / f"{k}{size}.json" for k in ("installed", "globalized", "localized", "fused"))
        level0 = {v: 1 for v in vertices}
        sums = {names[e]: len(e) for e in edges}
        spread = oracles.localized(vertices, edges, top)
        brunnian = oracles.brunnian_edges(edges)
        a, b = gen.overlapping_pair(rng, edges)
        union = gen.canonical_name(a | b)

        def fused_extra(out, text, union=union, n=len(edges)):
            h = parse(text).hyperstructure
            bond = h.bond(ElementId(1, "F"))
            problems = [] if len(h.bonds) == n + 1 else [f"{len(h.bonds)} bonds after fuse, expected {n + 1}"]
            if repr(bond.support) != union:
                problems.append(f"fused support {bond.support!r} != {union}")
            return problems

        specs += [
            (
                f"install-hypergraph-{size}",
                ["install", "hypergraph", payload, "--out", installed],
                _cli_check(
                    _lines("installed: hypergraph", f"level-0 elements: {len(vertices)}", f"level-1 bonds: {len(edges)}"),
                    installed,
                    _written(tower_doc, "tower"),
                ),
            ),
            (f"validate-{size}", ["validate", installed], _cli_check(_lines("validate: pass"))),
            (
                f"brunnian-{size}",
                ["brunnian", installed],
                _cli_check(
                    _lines(
                        f"level-0 elements: {len(vertices)}",
                        f"level-1 bonds: {len(edges)}",
                        f"level-1 brunnian bonds: {brunnian}",
                        f"order: {1 if brunnian else 0}",
                    )
                ),
            ),
            (
                f"globalize-{size}",
                ["globalize", states_path, "--out", glob],
                _cli_check(
                    _lines("globalized", _state_line(0, level0), _state_line(1, sums)),
                    glob,
                    _written(_assignment_doc(doc, [level0, sums]), "assignment"),
                ),
            ),
            (
                f"localize-{size}",
                ["localize", states_path, "--out", loc],
                _cli_check(
                    _lines(
                        "localized",
                        _state_line(0, {v: _marker_repr(s) for v, s in spread.items()}),
                        _state_line(1, top),
                    ),
                    loc,
                    _written(_assignment_doc(doc, [spread, top]), "assignment"),
                ),
            ),
            (
                f"fuse-{size}",
                ["fuse", states_path, "--a", f"1:{names[a]}", "--b", f"1:{names[b]}", "--k", "0", "--id", "F", "--out", fused],
                _cli_check(
                    _lines("fused: 1:F", "signature: (k=0, m=1, n=1)", f"support: {union}", "property: edge"),
                    fused,
                    fused_extra,
                ),
            ),
        ]

    # the other installers
    relation = gen.relation_payload(rng, 60 if smoke else 400)
    distinct = len({tuple(t) for t in relation["tuples"]})
    rel_out = w / "relation.json"
    complex_ = gen.simplicial_payload(rng, 20 if smoke else 60, 30 if smoke else 150)
    by_dim: dict[int, int] = {}
    for s in complex_["simplices"]:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    cx_out = w / "simplicial.json"
    branching = [2] * (4 if smoke else 10)
    tower_out = w / "brunnian_tower.json"
    counts = [2 ** len(branching) // 2 ** (k + 1) for k in range(len(branching))]
    specs += [
        (
            "install-relation",
            ["install", "relation", write("relation.payload.json", json.dumps(relation)), "--out", rel_out],
            _cli_check(
                _lines("installed: relation", f"level-0 elements: {sum(len(c) for c in relation['components'])}", f"level-1 bonds: {distinct}"),
                rel_out,
            ),
        ),
        (
            "install-simplicial",
            ["install", "simplicial", write("simplicial.payload.json", json.dumps(complex_)), "--graded", "--out", cx_out],
            _cli_check(
                _lines("installed: simplicial", f"level-0 elements: {by_dim[0]}", *(f"level-{k} bonds: {by_dim[k]}" for k in sorted(by_dim) if k)),
                cx_out,
            ),
        ),
        (
            "install-brunnian",
            ["install", "brunnian", "--branching", ",".join(map(str, branching)), "--out", tower_out],
            _cli_check(
                _lines("installed: brunnian", f"level-0 elements: {2 ** len(branching)}", *(f"level-{k + 1} bonds: {c}" for k, c in enumerate(counts))),
                tower_out,
            ),
        ),
        (
            "brunnian-tower",
            ["brunnian", tower_out],
            _cli_check(
                _lines(
                    f"level-0 elements: {2 ** len(branching)}",
                    *(f"level-{k + 1} bonds: {c}" for k, c in enumerate(counts)),
                    *(f"level-{k + 1} brunnian bonds: {c}" for k, c in enumerate(counts)),
                    f"order: {len(branching)}",
                )
            ),
        ),
    ]

    # corpus-size documents for the remaining commands
    below = gen.random_dag_poset(rng, 8, 0.35)
    supports = gen.principal_supports(below)
    base = [f"v{j}" for j in range(len(below))]
    every_sieve = rng.random() < 0.5  # the discrete topology, or else the maximal one
    per_root = {j: gen.all_downsets(below, j) if every_sieve else [below[j] | {j}] for j in range(len(below))}
    topo_doc = write(
        "topology.json",
        gen.dump({"format": gen.FORMAT, "hyperstructure": gen.hypergraph_tower(base, supports), "topology": gen.topology_json(below, per_root, base)}),
    )
    rank = rng.randint(3, 4)
    objects = gen.boolean_lattice(rank)
    cat_doc = write("category.json", gen.dump({"format": gen.FORMAT, "category": gen.category_json(objects, gen.subset_leq)}))
    chains = [gen.count_chains(objects, gen.subset_leq, k) for k in range(3)]
    vertices, edges = gen.hypergraph(rng, 30, 20)
    a, b = gen.overlapping_pair(rng, edges)
    emergent_doc = write(
        "emergent.json",
        gen.dump({"format": gen.FORMAT, "hyperstructure": gen.hypergraph_tower(vertices, edges, [(a | b, {"glue"})])}),
    )
    omega = {e: {gen.EDGE} for e in edges}
    omega[a | b] = omega.get(a | b, set()) | {"glue"}
    emerged = sorted(omega[a | b] - omega[a] - omega[b])
    c, d = gen.overlapping_pair(rng, edges)
    compose_doc = write("compose.json", gen.dump({"format": gen.FORMAT, "hyperstructure": gen.hypergraph_tower(vertices, edges)}))
    composed = w / "composed.json"

    def nerve_extra(out, text):
        got = [len(line.split(": ", 1)[1].split(" ")) for line in out.splitlines()]
        return [] if got == chains else [f"nerve simplex counts {got} != {chains}"]

    specs += [
        ("topology-check", ["topology-check", topo_doc], _cli_check(_lines("grothendieck-topology level 0: pass", "grothendieck-topology level 1: pass"))),
        ("nerve", ["nerve", cat_doc, "--max-dim", "2"], _cli_check(None, None, nerve_extra)),
        ("betti", ["betti", cat_doc, "--max-dim", "2"], _cli_check(_lines("betti: 1 0 0"))),
        (
            "emergent",
            ["emergent", emergent_doc, "--level", "0", "--s1", ",".join(sorted(a)), "--s2", ",".join(sorted(b))],
            _cli_check(_lines(f"emergent: {', '.join(emerged) or '(none)'}")),
        ),
        (
            "compose",
            ["compose", compose_doc, "--a", f"1:{gen.canonical_name(c)}", "--b", f"1:{gen.canonical_name(d)}", "--p", "0", "--mode", "weak", "--id", "C", "--out", composed],
            _cli_check(_lines("composed: 1:C", f"support: {gen.canonical_name(c | d)}", "property: edge"), composed),
        ),
    ]

    jobs = [Job(name, _subprocess(ctx, argv), check) for name, argv, check in specs]
    replay = [Job(name, _in_process(argv), check) for name, argv, check in specs]
    warm = {"topology-check", "nerve"}
    top_two = (str(sizes[-1]), str(sizes[-2]))
    return Bench(
        jobs=jobs,
        warmup=[j for j in jobs if j.name in warm],
        replay=replay,
        scale_jobs={
            "installers.install": tuple(f"install-hypergraph-{s}" for s in top_two),
            "installers.brunnian_order": tuple(f"brunnian-{s}" for s in top_two),
        },
    )


def _subprocess(ctx: Context, argv):
    command = [sys.executable, "-m", "hyperstruct.cli", *map(str, argv)]

    def run():
        proc = subprocess.run(command, cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _in_process(argv):
    args = [str(a) for a in argv]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(args))
        return code, buf.getvalue(), ""

    return run


# -- topology-sweep -------------------------------------------------------------------


@cache
def _test_helpers(root: Path):
    """tests/helpers.py, whose naive checker is the reference for small levels."""
    spec = importlib.util.spec_from_file_location("hyperstruct_test_helpers", root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Levels up to this many bonds are also checked against the naive oracle.
NAIVE_MAX_BONDS = 10


def topology_sweep(rng: random.Random, ctx: Context, smoke: bool) -> Bench:
    """Candidate topologies on many small towers, checked at level 1."""
    jobs = []
    for k in range(6 if smoke else 150):
        # sizes and densities cycle through fixed grids so that a pass costs
        # about the same for every seed; the seed draws the DAG edges
        n = 5 + k % 4 if smoke else 8 + k % 7
        below = gen.random_dag_poset(rng, n, 0.2 + 0.3 * (k // 7 % 5) / 4)
        candidates = gen.candidate_topologies(rng, below, 8)
        jobs.append(Job(f"tower-{k}", _sweep_run(below, candidates), _sweep_check(ctx.root, below, candidates)))
    return Bench(jobs=jobs, warmup=jobs[:2])


def _sweep_run(below, candidates):
    vertices = [f"v{j}" for j in range(len(below))]
    supports = gen.principal_supports(below)
    names = [gen.canonical_name(s) for s in supports]

    def run():
        h = installers.from_hypergraph(vertices, supports)
        ids = [ElementId(1, name) for name in names]
        out = []
        for cand in candidates:
            topo = {
                ids[j]: frozenset(topology.Sieve(ids[j], frozenset(ids[i] for i in s)) for s in sieves)
                for j, sieves in cand.items()
            }
            rep = topology.is_grothendieck_topology(h, topo, 1)
            text = rep.render()
            out.append((rep.passed, rep.codes, len(rep.findings), text.count("\n") + 1))
        return out

    return run


def _sweep_check(root: Path, below, candidates):
    reference: list = []

    def check(out) -> list[str]:
        if not reference:
            reference.extend(oracles.topology_codes(below, cand) for cand in candidates)
            if len(below) <= NAIVE_MAX_BONDS:
                helpers = _test_helpers(root)
                h = helpers.tower_from_supports(gen.principal_supports(below))
                structs = helpers.NaiveStructures(h, 1)
                ids = {j: ElementId(1, f"b{j}") for j in range(len(below))}
                for k, cand in enumerate(candidates):
                    members_of = {ids[j]: {frozenset(ids[i] for i in s) for s in sieves} for j, sieves in cand.items()}
                    if helpers.naive_check(structs, members_of) != reference[k][0]:
                        reference[k] = ("naive oracle disagrees with the reference checker", None)
        problems = []
        for k, ((passed, codes, n_findings, n_lines), want) in enumerate(zip(out, reference)):
            if want[1] is None:
                problems.append(f"candidate {k}: {want[0]}")
            elif (passed, codes) != want:
                problems.append(f"candidate {k}: got {passed} {sorted(codes)}, expected {want[0]} {sorted(want[1])}")
            elif n_lines != 1 + n_findings:
                problems.append(f"candidate {k}: report renders {n_lines} lines for {n_findings} findings")
        return problems

    return check


# -- site-descent ---------------------------------------------------------------------

BRUNNIAN_BRANCHINGS = ([4, 4, 4, 4], [3, 3, 3, 3, 3])


def site_descent(rng: random.Random, ctx: Context, smoke: bool) -> Bench:
    """Sites on mid-size towers: every axiom check passes and every family descends."""
    jobs = []
    # sizes spread evenly over 200 to 400 edges, so a pass costs about the same for every seed
    for k, n_edges in enumerate((20, 40) if smoke else range(200, 401, 40)):
        vertices, edges = gen.hypergraph(rng, n_edges)
        want = {(1, gen.canonical_name(e)): len(e) for e in edges}
        jobs.append(Job(f"hypergraph-{k}", _site_run(lambda v=vertices, e=edges: installers.from_hypergraph(v, e), vertices), _site_check(want)))
    for branching in ([3, 3],) if smoke else BRUNNIAN_BRANCHINGS:
        total = 1
        for f in branching:
            total *= f
        want = {}
        size = 1
        for level, f in enumerate(branching):
            size *= f
            want.update({(level + 1, f"g{level + 1}.{j}"): size for j in range(total // size)})
        jobs.append(
            Job(
                f"brunnian-{'x'.join(map(str, branching))}",
                _site_run(lambda b=branching: installers.make_brunnian_tower(b), [f"v{j}" for j in range(total)]),
                _site_check(want),
            )
        )
    return Bench(jobs=jobs, warmup=jobs[:1])


def _site_run(build, base):
    def run():
        h = build()
        site = topology.make_site(h, topology.maximal_topology(h))
        connectors = (states.SUM,) * h.order
        lam = states.globalize(h, {v: 1 for v in base}, connectors)
        rep = states.check_amalgamation(site, lam, connectors)
        got = {(e.level, e.id): s for level in lam.per_level[1:] for e, s in level.items()}
        return rep.passed, got

    return run


def _site_check(want):
    def check(out) -> list[str]:
        passed, got = out
        problems = [] if passed else ["amalgamation fails on a maximal-topology site"]
        if len(got) != len(want):
            problems.append(f"{len(got)} bonds, expected {len(want)}")
        elif got != want:
            problems.append("SUM globalize does not give each bond the number of base elements below it")
        return problems

    return check


# -- nerve-homology -------------------------------------------------------------------


def nerve_homology(rng: random.Random, ctx: Context, smoke: bool) -> Bench:
    """Categories of elements of presheaves on posets, their nerves and Betti numbers.

    Sizes are fixed so that a pass costs about the same for every seed; the
    seed picks the boolean presheaves and the boundary towers. Every poset
    here has a bottom element, so the nerve of its category of elements is
    homotopy equivalent to the presheaf's value there: Betti [|F(bottom)|, 0, 0].
    """
    jobs = []
    for n in (4, 6) if smoke else (10, 12, 14, 16):
        objects = list(range(n))
        exps = {x: int(x == n - 1) for x in objects}  # the top element splits in two
        jobs.append(Job(f"chain{n}", _poset_run(objects, int.__le__, exps), _betti_check([1, 0, 0])))
    for rank in (2, 3) if smoke else (3, 4, 5):
        objects = gen.boolean_lattice(rank)
        # the sets above a random (rank-1)-set split in two
        mask = sorted(rng.sample(range(rank), rank - 1))
        exps = {x: int(all(x[i] == "1" for i in mask)) for x in objects}
        jobs.append(Job(f"boolean{rank}", _poset_run(objects, gen.subset_leq, exps), _betti_check([1, 0, 0])))
    vertices = [f"v{i}" for i in range(8)]
    triples = list(combinations(vertices, 3))
    for k in range(2 if smoke else 12):
        edges = [frozenset(t) for t in rng.sample(triples, 6 if smoke else 12)]
        jobs.append(_boundary_job(rng, k, vertices, edges))
    return Bench(jobs=jobs, warmup=jobs[:1])


def _presheaf(cat, exps):
    values = {c: frozenset(range(1 << exps[c])) for c in cat.objects}
    restrict = {m.id: {x: x % (1 << exps[m.src]) for x in values[m.tgt]} for m in cat.morphisms}
    return catelem.Presheaf(on_objects=values, on_morphisms=restrict)


def _homology(cat, exps):
    elements = catelem.category_of_elements(cat, _presheaf(cat, exps))
    data = catelem.nerve(elements, 3)
    return catelem.betti_gf2(data, 2)


def _poset_run(objects, leq, exps):
    def run():
        return _homology(catelem.poset_category(objects, leq), exps)

    return run


def _boundary_job(rng: random.Random, k: int, vertices, edges) -> Job:
    """Two tower levels as a poset; its nerve is a graph, so Betti numbers
    follow from counting components of the category of elements. Half of
    the edges, drawn by the seed, split in two."""
    lower = {v: 0 for v in vertices}
    split = set(rng.sample(range(len(edges)), len(edges) // 2))
    upper = {gen.canonical_name(e): int(j in split) for j, e in enumerate(edges)}
    exps = {ElementId(0, v): a for v, a in lower.items()} | {ElementId(1, n): a for n, a in upper.items()}
    points = [(("0", v), x) for v, a in lower.items() for x in range(1 << a)]
    points += [(("1", n), x) for n, a in upper.items() for x in range(1 << a)]
    arrows = [
        ((("0", v), x % (1 << lower[v])), (("1", gen.canonical_name(e)), x))
        for e in edges
        for x in range(1 << upper[gen.canonical_name(e)])
        for v in e
    ]

    def run():
        h = installers.from_hypergraph(vertices, edges)
        return _homology(catelem.boundary_category(h, 1), exps)

    return Job(f"boundary-{k}", run, _betti_check(oracles.graph_betti(points, arrows)))


def _betti_check(want):
    def check(out) -> list[str]:
        return [] if list(out) == want else [f"betti {out} != {want}"]

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-pipeline", cli_pipeline),
        Workload("topology-sweep", topology_sweep),
        Workload("site-descent", site_descent),
        Workload("nerve-homology", nerve_homology),
    )
}
