"""Benchmark driver: one workload, one seed, one result line.

    python3 perfbench/run.py --workload topology-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A summary goes to stderr, and the
full record to perfbench/results/. Exits 2 without a result when the
checkout holds no hyperstruct sources.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up (input generation and warm-up) is repeated this often; setup_s is the median.
SETUP_REPEATS = 5
#: Size of the host-speed probe (see HostSpeed), kept small in memory so
#: that it does not set peak_rss_mb, its time on an unloaded host, and the
#: least time between probes during a pass.
PROBE_ROUNDS, PROBE_ITEMS = 4, 10000
PROBE_NOMINAL_S = 0.022
PROBE_EVERY_S = 0.5
#: Fresh interpreters timed for cli.import_ms.
IMPORT_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

PER_LAYER = (
    ("installers.install_s", "s"),
    ("installers.brunnian_order_s", "s"),
    ("installers.is_brunnian_s", "s"),
    ("installers.install_scale", "ratio"),
    ("installers.brunnian_scale", "ratio"),
    ("core.add_bond_s", "s"),
    ("core.add_bond.calls_n", "count"),
    ("core.bonds_at_s", "s"),
    ("core.bonds_at.calls_n", "count"),
    ("core.validate_s", "s"),
    ("core.validate.items_n", "count"),
    ("composition.fuse_s", "s"),
    ("composition.compose_s", "s"),
    ("states.globalize_s", "s"),
    ("states.localize_s", "s"),
    ("states.amalgamation_s", "s"),
    ("states.amalgamation.families_n", "count"),
    ("topology.maximal_topology_s", "s"),
    ("topology.check_s", "s"),
    ("topology.checks_n", "count"),
    ("topology.pass_frac", "fraction"),
    ("topology.findings_n", "count"),
    ("report.render_s", "s"),
    ("catelem.category_s", "s"),
    ("catelem.morphisms_n", "count"),
    ("catelem.nerve_s", "s"),
    ("catelem.simplices_n", "count"),
    ("catelem.betti_s", "s"),
    ("catelem.boundary_entries_n", "count"),
    ("document.parse_s", "s"),
    ("document.serialize_s", "s"),
    ("document.bytes_n", "count"),
    ("cli.import_ms", "ms"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure passes for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and a single pass, for the benchmark's tests")
    return p.parse_args(argv)


class HostSpeed:
    """How fast the host runs a fixed task now, relative to an unloaded host.

    Other tenants of a shared machine slow it down by 1.7x and more for seconds
    to minutes at a time, often longer than a run. A probe, a fixed
    object-heavy task that never touches hyperstruct, runs between jobs at
    most every PROBE_EVERY_S seconds; a job's time is scaled by
    PROBE_NOMINAL_S over the median of the three probes nearest to it, which
    gives seconds at the speed of an unloaded host.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)

    def probe(self) -> None:
        gc.disable()  # time the host, not a collection of whatever the heap holds
        try:
            t0 = perf_counter()
            for _ in range(PROBE_ROUNDS):
                table = {frozenset((i, i + 1)): str(i) for i in range(PROBE_ITEMS)}
                sorted(table, key=min)
            t1 = perf_counter()
        finally:
            gc.enable()
        self.samples.append((t1, t1 - t0))

    def probe_if_due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, when: float) -> float:
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - when))[:3]
        return PROBE_NOMINAL_S / statistics.median(seconds for _, seconds in nearest)


def run_pass(jobs, speed: HostSpeed, tracer=None):
    """Run every job back to back, then check the outputs outside the timed region.

    Returns the pass time (the sum of job times), each job's time, each
    job's time at unloaded-host speed, and the jobs that failed."""
    outputs = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = perf_counter()
        try:
            out, error = job.run(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        outputs.append((job, out, error, perf_counter() - t0, t0))
        speed.probe_if_due()
    durations = [d for _, _, _, d, _ in outputs]
    scaled = [d * speed.scale(t0) for _, _, _, d, t0 in outputs]
    failures = []
    for job, out, error, _, _ in outputs:
        if error is None:
            try:
                problems = job.check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [error]
        if problems:
            failures.append((job.name, problems))
    return sum(durations), durations, scaled, failures


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_ms(env) -> float:
    code = "import time; t = time.perf_counter(); import hyperstruct.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout) * 1000)
    return statistics.median(samples)


def measure(workload, seed, seconds, trace, smoke, ctx):
    import tracing

    speed = HostSpeed()
    setups, setup_values = [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        t0 = perf_counter()
        bench = workload.build(random.Random(seed), ctx, smoke)
        for job in bench.warmup:
            try:
                job.run()
            except Exception:
                pass  # a failing job is counted when it is measured
        setups.append(perf_counter() - t0)
        for _ in range(3):
            speed.probe()
        setup_values.append(setups[-1] * speed.scale(perf_counter()))

    # Inputs and references stay alive all run; keep them out of the cyclic
    # collector's way, and start every pass from the same collector state.
    gc.collect()
    gc.freeze()
    jobs = bench.replay if trace and bench.replay is not None else bench.jobs
    walls, samples, scaled_samples, failures = [], [], [], []
    traced_walls, untraced_walls, layer_runs = [], [], []
    tracer = tracing.Tracer()
    attempted = 0
    start = perf_counter()
    while True:
        gc.collect()
        traced = trace and len(untraced_walls) > len(traced_walls)
        if traced:
            tracer.spans.clear()
            tracer.install()
            try:
                wall, durations, scaled, failed = run_pass(jobs, speed, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(scaled))
            layer_runs.append(tracing.layer_times(tracer.spans))
        else:
            wall, durations, scaled, failed = run_pass(jobs, speed)
            if trace:
                untraced_walls.append(sum(scaled))
            else:
                walls.append(wall)
                scaled_samples += scaled
        samples += durations
        failures += failed
        attempted += len(durations)
        done = smoke or perf_counter() - start + statistics.median(traced_walls or untraced_walls or walls) > seconds
        if done and (not trace or traced_walls):
            break

    for name, problems in failures[:20]:
        print(f"FAILED {name}: {problems[0].strip()[:500]}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    record = {"workload": workload.name, "seed": seed, "trace": trace, "smoke": smoke, "setups_s": setups}
    if not trace:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN if bench.replay is not None else resource.RUSAGE_SELF).ru_maxrss
        # every job runs once per pass; its time is the median of its runs
        per_job = [statistics.median(scaled_samples[k :: len(jobs)]) for k in range(len(jobs))]
        values = {
            "setup_s": statistics.median(setup_values),
            "wall_s": sum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1000,
            "peak_rss_mb": rss_kib / 1024,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        units = dict(END_TO_END)
        p90 = quantile(scaled_samples, 0.9) * 1000 if len(scaled_samples) >= 100 else None
        record.update(
            passes_s=walls,
            jobs_per_pass=len(jobs),
            samples=len(samples),
            job_p90_ms=p90,
            fail_frac=len(failures) / attempted,
            job_ms={job.name: t * 1000 for job, t in zip(jobs, per_job)},
            samples_s=samples,
            scaled_samples_s=scaled_samples,
            probes_s=[seconds for _, seconds in speed.samples],
        )
        print(
            f"{workload.name}: {len(walls)} passes of {len(jobs)} jobs; wall_s {values['wall_s']:.3f} s, "
            f"job_p50_ms {values['job_p50_ms']:.2f} ms, job_p90_ms "
            + (f"{p90:.2f} ms" if p90 is not None else "undefined (fewer than 100 jobs)")
            + f" over {len(scaled_samples)} jobs, fail_frac {record['fail_frac']:g}, setup_s {values['setup_s']:.3f} s",
            file=sys.stderr,
        )
    else:
        values = layer_metrics(tracer, layer_runs, bench, traced_walls, untraced_walls)
        if bench.replay is not None:
            values["cli.import_ms"] = import_ms(ctx.env)
        units = dict(PER_LAYER)
        record.update(traced_passes_s=traced_walls, untraced_passes_s=untraced_walls, spans_last_pass=len(tracer.spans))
        print(f"{workload.name}: {len(traced_walls)} traced / {len(untraced_walls)} untraced passes", file=sys.stderr)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["result"] = result
    return result, record


def layer_metrics(tracer, layer_runs, bench, traced_walls, untraced_walls) -> dict:
    """Per-pass layer totals (median over traced passes) and per-pass counts."""
    passes = len(layer_runs)

    def seconds(layer):
        return statistics.median(totals.get(layer, 0.0) for totals, _, _ in layer_runs)

    def count(key):
        return tracer.counts.get(key, 0) // passes

    def scale(layer):
        jobs = bench.scale_jobs.get(layer)
        if jobs is None:
            return 0.0
        ratios = [per_job.get((layer, jobs[0]), 0.0) / per_job[(layer, jobs[1])] for _, per_job, _ in layer_runs]
        return statistics.median(ratios)

    checks = count("topology.check.calls_n")
    values = {name: seconds(name[:-2]) for name, unit in PER_LAYER if unit == "s" and name != "cli.self_s"}
    values.update(
        {
            "installers.install_scale": scale("installers.install"),
            "installers.brunnian_scale": scale("installers.brunnian_order"),
            "core.add_bond.calls_n": count("core.add_bond.calls_n"),
            "core.bonds_at.calls_n": count("core.bonds_at.calls_n"),
            "core.validate.items_n": count("core.validate.items_n"),
            "states.amalgamation.families_n": count("states.amalgamation.families_n"),
            "topology.checks_n": checks,
            "topology.pass_frac": count("topology.passed_n") / checks if checks else 0.0,
            "topology.findings_n": count("topology.findings_n"),
            "catelem.morphisms_n": count("catelem.morphisms_n"),
            "catelem.simplices_n": count("catelem.simplices_n"),
            "catelem.boundary_entries_n": count("catelem.boundary_entries_n"),
            "document.bytes_n": count("document.bytes_n"),
            "cli.import_ms": 0.0,
            "cli.self_s": statistics.median(cli_self for _, _, cli_self in layer_runs),
            "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1,
        }
    )
    return values


def use_checkout_sources() -> bool:
    """Import hyperstruct from this checkout's src/, or say why not."""
    src = ROOT / "src"
    if not (src / "hyperstruct" / "__init__.py").is_file() or not (ROOT / "tests" / "helpers.py").is_file():
        print(f"error: no hyperstruct sources under {ROOT}", file=sys.stderr)
        return False
    sys.path[:0] = [str(HERE), str(src)]
    import hyperstruct

    if Path(hyperstruct.__file__).resolve().parent != (src / "hyperstruct").resolve():
        print(f"error: imported hyperstruct from {hyperstruct.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # One core for this process and every CLI child: the host-speed probe
    # then measures the core the jobs run on (the two cores of a shared host
    # slow down independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        ctx = workloads.Context(root=ROOT, workdir=workdir, env=env)
        result, record = measure(workload, args.seed, args.seconds, args.trace, args.smoke, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = "smoke-" if args.smoke else ""
    (results / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
