"""One-command benchmark of voltpick's three legs: profile, analyze, recommend/apply.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload corpus-large-files --seed 1 --seconds 32 --trace 0

The benchmark imports voltpick from the checkout's ``src`` directory, makes
its inputs from --seed, and runs whole iterations of the workload while
they fit in --seconds (at least one; two with --trace 1), each after a
batch of timed set-ups.  It checks every output against expectations it
computes on its own, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
iterations (over all set-ups for setup_s).  With --trace 1 traced and untraced iterations alternate; the
metrics are the per-layer ones, medians over the traced iterations, and
the spans are written to bench/_run/traces/.  Energy figures come from the
time-power estimator at 5 W (joules = 5 x seconds) because the measuring
host has no /sys/class/powercap.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS_PER_ITERATION = 8
LEG_METRICS = ("profile_s", "analyze_s", "recommend_s", "apply_s")


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voltpick" / "__init__.py").is_file():
        print(f"no voltpick sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    workdir = BENCH / "_run" / f"{args.workload}-{os.getpid()}"
    home = os.getcwd()
    setup_times, untraced, traced, layers, tracers = [], [], [], [], []
    try:
        spent = 0.0  # time inside iterations, their checks included; set-ups not counted
        minimum = 2 if args.trace else 1
        while True:
            # set-ups run in a batch before every iteration, so that their
            # median sees the host over the same minutes as the iterations
            for _ in range(SETUPS_PER_ITERATION):
                os.chdir(home)
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                os.chdir(workdir)
                gc.collect()
                start = time.perf_counter()
                workload.setup(args.seed)
                setup_times.append(time.perf_counter() - start)
            if len(setup_times) == SETUPS_PER_ITERATION:  # the first batch
                if not workload.vp.__file__.startswith(str(ROOT / "src")):
                    print(f"imported voltpick from {workload.vp.__file__}, "
                          "not from this checkout", file=sys.stderr)
                    return 2
                workload.prepare()
                rss_prepared = max_rss_mib()

            tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
            gc.collect()
            began = time.perf_counter()
            phases, found = workload.iterate(tracer)
            took = time.perf_counter() - began
            spent += took
            if tracer:
                traced.append(phases)
                layers.append(found)
                tracers.append(tracer)
            else:
                untraced.append(phases)
                if len(untraced) == 1:
                    rss_first = max_rss_mib()
            if len(untraced) + len(traced) >= minimum and spent + took > args.seconds:
                break
        workload.finish()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mib = max_rss_mib()
    # the first iteration is always untraced: how far it raised the peak
    # over set-up and the benchmark's own expectations
    rss_growth_mib = rss_first - rss_prepared

    def median(rows, key):
        values = [row[key] for row in rows if key in row]
        return statistics.median(values) if values else 0.0

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced iterations, {len(setup_times)} set-ups")
    print("  iteration total_s: " + " ".join(f"{row['total_s']:.4f}" for row in untraced))
    print("energy: time-power estimator at 5 W (joules = 5 x seconds); "
          "this host has no /sys/class/powercap")
    summary = {"setup_s": statistics.median(setup_times),
               "total_s": median(untraced, "total_s"),
               "peak_rss_mib": peak_rss_mib}
    for leg in LEG_METRICS:
        if any(leg in row for row in untraced):
            print(f"  {leg}: {median(untraced, leg):.6f} s")
    ops_failed_frac = workload.failed / max(workload.attempted, 1)
    end_to_end = metric_units("end_to_end")
    for name, value in summary.items():
        print(f"  {name}: {value:.6f} {end_to_end[name]}")
    print(f"  peak RSS before the timed phases: {rss_prepared:.3f} MiB; "
          f"first iteration raised it by {rss_growth_mib:.3f} MiB")
    print(f"  ops_failed_frac: {ops_failed_frac:.6f} ratio "
          f"({workload.failed} of {workload.attempted} operations)")

    if args.trace:
        per_layer = metric_units("per_layer")
        rows = [dict(found, **phases, **{"bench.traced_total_s": phases["total_s"]})
                for found, phases in zip(layers, traced)]
        metrics = {name: median(rows, name) for name in per_layer}
        metrics["bench.rss_before_timed_mib"] = rss_prepared
        metrics["bench.rss_first_iteration_growth_mib"] = rss_growth_mib
        metrics["bench.ops_attempted"] = workload.attempted
        metrics["bench.ops_failed"] = workload.failed
        metrics["bench.tracing_overhead_frac"] = (
            median(traced, "total_s") / median(untraced, "total_s") - 1)
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {per_layer[name]}")
        trace_dir = BENCH / "_run" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for iteration, tracer in enumerate(tracers):
                tracer.write(handle, iteration)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in per_layer.items()}
    else:
        result = {name: {"value": summary[name], "unit": unit}
                  for name, unit in end_to_end.items()}

    print(json.dumps({"correct": workload.failed == 0,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
