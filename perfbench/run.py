"""End-to-end and per-layer benchmark of the vlcrelay CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iid-broadcast --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it repeats ``simulate -> analyze -> sal -> safety`` as
child processes for ``--seconds`` and reports medians over repetitions.
With ``--trace 1`` it replays the same chain in-process with a span around
each layer call and reports per-layer self times.  Either way every output
is checked, and the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import cliproc
import tracing
from workloads import BAUD, TARGETS, WORKLOADS

IMPORT_REPEATS = 3
MIN_REPS = 3  # a timed run always has a true median, of three repetitions or more
IMPORT_MODULES = ("vlcrelay", "vlcrelay._kernels", "vlcrelay.codec", "vlcrelay.node",
                  "vlcrelay.channel", "vlcrelay.clusters", "vlcrelay.sim",
                  "vlcrelay.safety", "vlcrelay.cli", "scipy.stats")
WORK_DIR = ".perfbench_work"


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import vlcrelay
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "vlcrelay": vlcrelay.__version__,
        "backend": getattr(vlcrelay, "BACKEND", "none"), "commit": git_commit(root),
    }


def in_process_traces(workload, seed: int) -> dict:
    from vlcrelay import channel, sim
    from vlcrelay.node import LinkConfig
    config = LinkConfig(baud=BAUD, mode=workload.mode)
    process = channel.process_from_spec(workload.spec)
    return {s: sim.run(config, process, workload.n, s) for s in workload.seeds(seed)}


def check_outputs(tally: checks.Tally, workload, reps, traces) -> dict:
    """Check every CLI output; return the workload's model statistics."""
    from vlcrelay.channel import process_from_spec
    loss_rate = process_from_spec(workload.spec).loss_rate
    first = reps[0]
    for rep in reps:
        for done in rep.commands:
            tally.command(done)
        tally.check("one trace file per seed", rep.n_traces == workload.n_seeds,
                    f"{rep.n_traces} files")
        checks.check_report_files(tally, rep.sal_csv, rep.safety_csv)
    for rep in reps[1:]:
        tally.check("rerun simulate output identical",
                    rep.simulate.stdout == first.simulate.stdout)
        tally.check("rerun analyze output identical",
                    sorted(d.stdout for d in rep.analyses)
                    == sorted(d.stdout for d in first.analyses))

    summaries = checks.parse_summaries(first.simulate.stdout)
    for s, trace in traces.items():
        checks.check_seed(tally, s, trace, summaries.get(s), loss_rate, BAUD,
                          workload.period_s)
    reports = [d.stdout for d in first.analyses]
    checks.check_reports(tally, reports,
                         [checks.expected_report(t.received, TARGETS) for t in traces.values()])

    fields = [checks.parse_fields(r) for r in reports]
    q99 = [q for q in (checks.parse_int(f, "model_quantile_0.99") for f in fields)
           if q is not None]
    digest = checks.sha256("\n".join([first.simulate.stdout, *sorted(reports)]).encode()
                           + first.sal_csv + first.safety_csv)

    def total(key):
        return sum(checks.parse_int(b, key) or 0 for b in summaries.values())

    return {
        "channel_per": 1.0 - total("n_received") / max(total("n_tx"), 1),
        "n_relayed": total("n_relayed"),
        "n_blocked": total("n_blocked"),
        "max_cluster": max((checks.parse_int(f, "max_cluster") or 0 for f in fields),
                           default=None),
        "sal99_us": ((checks.min_latency_s(BAUD) + max(q99) * workload.period_s) * 1e6
                     if q99 else None),
        "output_sha256": digest,
    }


def fits(deadline: float, done: list[float], at_least: int = 1) -> bool:
    """Whether to start another repetition: one is owed, or it is
    predicted to end nearer the deadline than stopping now would."""
    return (len(done) < at_least
            or time.perf_counter() + statistics.median(done) / 2 <= deadline)


def timed_run(root, work, workload, seed, deadline, tally):
    runner = cliproc.Runner(root, work, calibrate=True)
    # set-up samples go before, between and after the repetitions, so the
    # median sees the same machine state as the pipeline timings
    setup = [cliproc.setup(runner)]
    reps, spent = [], []
    while fits(deadline, spent, MIN_REPS):
        t0 = time.perf_counter()
        reps.append(cliproc.pipeline(runner, workload, seed, work / "out"))
        setup.append(cliproc.setup(runner))
        spent.append(time.perf_counter() - t0)
    for done in setup:
        tally.command(done)
    model = check_outputs(tally, workload, reps, in_process_traces(workload, seed))
    med = statistics.median

    def medians(scaled):
        times = [r.timings(scaled) for r in reps]
        out = {name: med(t[name] for t in times) for name in times[0]}
        out["setup_s"] = med(d.ref_seconds if scaled else d.seconds for d in setup)
        return out

    metrics = {name: (value, "s") for name, value in medians(scaled=True).items()}
    metrics["peak_rss_mb"] = (max(d.rss_mb for r in reps for d in r.commands), "MB")
    metrics["trace_bytes_per_pkt"] = (reps[0].trace_bytes / (workload.n * workload.n_seeds),
                                      "B/pkt")
    return metrics, model, {
        "reps": len(reps), "setup_reps": len(setup), "wall_medians": medians(scaled=False),
        "host_speed": med(d.speed for d in [*setup, *(c for r in reps for c in r.commands)]),
    }


def traced_run(root, work, workload, seed, deadline, tally):
    # no probes: the accounted fractions compare the CLI's raw wall times
    # with in-process layer times
    runner = cliproc.Runner(root, work)
    imports, import_done = cliproc.import_times(runner, IMPORT_REPEATS)
    for done in import_done:
        tally.command(done)
    rep = cliproc.pipeline(runner, workload, seed, work / "out")

    plain = tracing.Tracer(workload.name, enabled=False)
    traced = tracing.Tracer(workload.name, enabled=True)
    # an untimed first pass warms the allocator and the libraries' lazy
    # set-up; its traces are the ones the checks re-examine
    traces, n_clusters, trace_bytes = tracing.pipeline(plain, workload, seed, work / "inproc")
    walls = {False: [], True: []}
    while fits(deadline, [a + b for a, b in zip(walls[False], walls[True])]):
        # alternate which pass goes first, so neither always runs warmer
        pair = (plain, traced) if len(walls[True]) % 2 == 0 else (traced, plain)
        for tracer in pair:
            t0 = time.perf_counter()
            tracing.pipeline(tracer, workload, seed, work / "inproc")
            walls[tracer.enabled].append(time.perf_counter() - t0)
        traced.rep += 1
    shutil.rmtree(work / "inproc", ignore_errors=True)
    model = check_outputs(tally, workload, [rep], traces)
    traced.write(root / WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl")

    per_rep = [traced.self_times(k) for k in range(traced.rep)]

    def layer(name):
        return statistics.median(t.get(name, 0.0) for t in per_rep)

    metrics = {f"{name}_s": (layer(name), "s") for name in (
        "channel.sample_losses", "sim.run", "sim.write_trace", "sim.read_trace",
        "sim.summarize", "clusters.extract", "clusters.fit.negbinomial",
        "clusters.fit.poisson", "clusters.fit.binomial", "clusters.select_quantile",
        "clusters.model_table", "clusters.sal_curve", "safety.comparison_table")}
    metrics["sim.relay_s"] = (statistics.median(
        t["sim.run"] - t["channel.sample_losses"] for t in per_rep), "s")
    metrics["channel.n_clusters"] = (n_clusters, "count")
    metrics["sim.trace_bytes"] = (trace_bytes, "B")
    for module in IMPORT_MODULES:
        metrics[f"setup.import.{module}_s"] = (imports.get(module, 0.0), "s")
    metrics["setup.import.total_s"] = (imports["total"], "s")
    cli = rep.timings(scaled=False)
    serial = layer("sim.run") + layer("sim.write_trace")
    metrics["cli.jobs_speedup"] = (serial / cli["simulate_s"], "ratio")
    simulate_parts = serial + layer("sim.summarize") + imports["total"]
    analyze_parts = (rep.n_traces * imports["total"] + sum(layer(n) for n in (
        "sim.read_trace", "clusters.extract", "clusters.fit.negbinomial",
        "clusters.fit.poisson", "clusters.fit.binomial", "clusters.select_quantile")))
    metrics["trace.simulate_accounted_frac"] = (simulate_parts / cli["simulate_s"], "ratio")
    metrics["trace.analyze_accounted_frac"] = (analyze_parts / cli["analyze_s"], "ratio")
    # paired differences: the two passes of a pair share the machine's state
    overhead = statistics.median(t - p for p, t in zip(walls[False], walls[True]))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(walls[False]), "ratio")
    return metrics, model, {"reps": traced.rep, "cli_simulate_s": cli["simulate_s"],
                            "cli_analyze_s": cli["analyze_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vlcrelay" / "cli.py").is_file():
        print(f"perfbench: no src/vlcrelay/cli.py under {root}; "
              "run from the root of a vlcrelay checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import vlcrelay.cli  # noqa: F401  (the benchmark's own set-up, untimed)
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + args.seconds
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = checks.Tally()
    try:
        run = traced_run if args.trace else timed_run
        metrics, model, counts = run(root, work, workload, args.seed, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(root, args.workload, args.seed)))
    print("model " + json.dumps(model))
    print("samples " + json.dumps(counts))
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
