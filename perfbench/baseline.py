"""Per-layer baseline table at fixed sizes, from the benchmark's generators.

    python3 perfbench/baseline.py --seed 0

Times hypergraph installs at 250 to 2000 edges, `brunnian_order` on 2000
bonds, `make_site(h, maximal_topology(h))` at 500 edges, `betti_gf2` on the
3-nerve of a 16-chain, and the linear layers (validate, globalize, parse,
serialize) at 2000 bonds. Each figure is the median of REPEATS calls. The
two *_scale ratios divide the 2000-edge time by the 1000-edge time: about 4
means quadratic, about 2 linear. Prints a table and writes it to
perfbench/results/baseline-seed<seed>.json.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from time import perf_counter

import run

#: Calls per figure; the figure is their median.
REPEATS = 3


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if not run.use_checkout_sources():
        return 2
    import gen
    from hyperstruct import catelem, installers, states, topology
    from hyperstruct.core import validate
    from hyperstruct.document import Document, parse, serialize

    rng = random.Random(args.seed)
    rows: dict[str, float] = {}
    towers = {}
    for size in (250, 500, 1000, 2000):
        vertices, edges = gen.hypergraph(rng, size)
        rows[f"install hypergraph {size} edges"] = timed(lambda: installers.from_hypergraph(vertices, edges))
        towers[size] = installers.from_hypergraph(vertices, edges)
    big = towers[2000]
    rows["brunnian_order 1000 bonds"] = timed(lambda: installers.brunnian_order(towers[1000]))
    rows["brunnian_order 2000 bonds"] = timed(lambda: installers.brunnian_order(big))
    rows["make_site(maximal_topology) 500 edges"] = timed(
        lambda: topology.make_site(towers[500], topology.maximal_topology(towers[500]))
    )
    chain = catelem.nerve(catelem.poset_category(range(16), int.__le__), 3)
    rows["betti_gf2 3-nerve of 16-chain"] = timed(lambda: catelem.betti_gf2(chain, 2))
    rows["validate 2000 bonds"] = timed(lambda: validate(big))
    base = {e: 1 for e in big.elements(0)}
    rows["globalize 2000 bonds"] = timed(lambda: states.globalize(big, base, (states.SUM,)))
    text = serialize(Document(hyperstructure=big))
    rows["serialize 2000 bonds"] = timed(lambda: serialize(Document(hyperstructure=big)))
    rows["parse 2000 bonds"] = timed(lambda: parse(text))
    scales = {
        "installers.install_scale": rows["install hypergraph 2000 edges"] / rows["install hypergraph 1000 edges"],
        "installers.brunnian_scale": rows["brunnian_order 2000 bonds"] / rows["brunnian_order 1000 bonds"],
    }
    for name, seconds in rows.items():
        print(f"{name:40s} {seconds:8.3f} s")
    for name, ratio in scales.items():
        print(f"{name:40s} {ratio:8.2f}")
    results = run.HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"seed": args.seed, "repeats": REPEATS, "python": sys.version.split()[0], "seconds": rows, "scales": scales}
    (results / f"baseline-seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
