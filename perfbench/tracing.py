"""Spans around calls into hyperstruct's public functions, for traced runs.

Tracing replaces module attributes (and two methods) with timing wrappers
while a traced pass runs, then puts the originals back. Names that other
hyperstruct modules imported with `from .x import f` are rebound too, so
internal calls are seen. Nothing under src/ changes.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer -> the (module, attribute) pairs whose calls count as that layer
LAYERS = {
    "installers.install": [
        ("installers", "from_relation"),
        ("installers", "from_hypergraph"),
        ("installers", "from_simplicial_complex"),
        ("installers", "make_brunnian_tower"),
    ],
    "installers.brunnian_order": [("installers", "brunnian_order")],
    "installers.is_brunnian": [("installers", "is_brunnian_bond")],
    "core.add_bond": [("core", "add_bond")],
    "core.bonds_at": [("core", "Hyperstructure.bonds_at")],
    "core.validate": [("core", "validate")],
    "composition.fuse": [("composition", "fuse")],
    "composition.compose": [("composition", "compose"), ("composition", "compose_cross")],
    "states.globalize": [("states", "globalize")],
    "states.localize": [("states", "localize")],
    "states.amalgamation": [("states", "check_amalgamation")],
    "topology.maximal_topology": [("topology", "maximal_topology")],
    "topology.check": [("topology", "is_grothendieck_topology")],
    "report.render": [("report", "CheckReport.lines")],
    "catelem.category": [
        ("catelem", "poset_category"),
        ("catelem", "boundary_category"),
        ("catelem", "category_of_elements"),
    ],
    "catelem.nerve": [("catelem", "nerve")],
    "catelem.betti": [("catelem", "betti_gf2")],
    "document.parse": [("document", "parse")],
    "document.serialize": [("document", "serialize")],
    "cli": [("cli", "main")],
}


def _count_validate(counts, args, result):
    h = args[0]
    counts["core.validate.items_n"] += sum(len(level) for level in h.levels) + len(h.bonds)


def _count_amalgamation(counts, args, result):
    site = args[0]
    h = site.h
    counts["states.amalgamation.families_n"] += sum(
        len(site.topology.get(e, ())) for level in h.levels[1:] for e in level
    )


def _count_check(counts, args, result):
    counts["topology.passed_n"] += result.passed
    counts["topology.findings_n"] += len(result.findings)


def _count_elements(counts, args, result):
    counts["catelem.morphisms_n"] += len(result.morphisms)


def _count_nerve(counts, args, result):
    counts["catelem.simplices_n"] += sum(len(dim) for dim in result.simplices)


def _count_betti(counts, args, result):
    s = args[0]
    counts["catelem.boundary_entries_n"] += sum((k + 1) * s.dim_count(k) for k in range(1, s.max_dim + 1))


def _count_parse(counts, args, result):
    counts["document.bytes_n"] += len(args[0].encode("utf-8"))


def _count_serialize(counts, args, result):
    counts["document.bytes_n"] += len(result.encode("utf-8"))


COUNTERS = {
    ("core", "validate"): _count_validate,
    ("states", "check_amalgamation"): _count_amalgamation,
    ("topology", "is_grothendieck_topology"): _count_check,
    ("catelem", "category_of_elements"): _count_elements,
    ("catelem", "nerve"): _count_nerve,
    ("catelem", "betti_gf2"): _count_betti,
    ("document", "parse"): _count_parse,
    ("document", "serialize"): _count_serialize,
}


COUNTS = (
    "core.validate.items_n",
    "states.amalgamation.families_n",
    "topology.passed_n",
    "topology.findings_n",
    "catelem.morphisms_n",
    "catelem.simplices_n",
    "catelem.boundary_entries_n",
    "document.bytes_n",
)


class Tracer:
    """Spans in memory: [layer, job, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = layer + ".calls_n"
        counts.setdefault(calls, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self.job, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                span[3] = start
                stack.pop()
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for key in COUNTS:
            self.counts.setdefault(key, 0)
        wrapped: dict[int, object] = {}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"hyperstruct.{module_name}"]
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                traced = self._wrap(layer, original, COUNTERS.get((module_name, attr)))
                wrapped[id(original)] = traced
                self._patch(owner, name, traced)
        for module_name, module in list(sys.modules.items()):
            if module_name == "hyperstruct" or module_name.startswith("hyperstruct."):
                for name, value in list(vars(module).items()):
                    traced = wrapped.get(id(value))
                    if traced is not None and value is not traced:
                        self._patch(module, name, traced)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def layer_times(spans) -> tuple[dict[str, float], dict[tuple[str, str], float], float]:
    """Inclusive seconds per layer (outermost calls only), the same per
    (layer, job), and the CLI's self time: main() minus its child spans."""
    total: dict[str, float] = {}
    per_job: dict[tuple[str, str], float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        layer, job, parent, start, end = span
        if parent >= 0:
            child_time[parent] += end - start
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == layer:
                nested = True
                break
            p = spans[p][2]
        if nested:
            continue
        total[layer] = total.get(layer, 0.0) + (end - start)
        per_job[(layer, job)] = per_job.get((layer, job), 0.0) + (end - start)
    cli_self = sum(s[4] - s[3] - child_time[k] for k, s in enumerate(spans) if s[0] == "cli")
    return total, per_job, cli_self
