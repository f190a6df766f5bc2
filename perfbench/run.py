"""Run one benchmark workload on the torma sources of this checkout.

    python3 perfbench/run.py --workload psi_n3_32cubed --seed 1 --seconds 40 --trace 0

A run is a closed loop with one caller in one process: each set-up and solve
starts after the previous one ends. With ``--trace 0`` it reports the
end-to-end metrics (median solve and set-up time, peak resident memory);
with ``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics of the traced solve with the median wall time. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Earlier lines give the machine and run facts, the accuracy numbers
of every operation, and the metrics by name and unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up samples taken before the solve loop, after one untimed warm-up;
# the loop adds one per solve
EXTRA_SETUPS = 6


def per_layer_names():
    """Every metric a traced run reports, in order."""
    from spans import metric_names

    return metric_names() + ["trace.plain_wall_s", "trace.overhead_ratio"]


def layer_unit(name):
    if name in ("solver.damping_accept_ratio", "trace.overhead_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_facts(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "fft_workers": "torma default, unchanged (-1: all cores)",
    }


def measure(wl, seed, seconds):
    """Untraced run for about `seconds`: set-ups and solves, one input each.

    Solve i works on input (seed, i), so the run's median averages over
    several seeded problems; generating them is not timed.
    """
    clock = time.perf_counter
    setups, solves, generate, outcomes = [], [], [], []
    start = clock()
    for i in itertools.count():
        t0 = clock()
        inputs = wl.generate(seed, i)
        generate.append(clock() - t0)
        if i == 0:
            rss_after_inputs = peak_rss_mib()
            wl.setup(inputs)  # warm-up
            for _ in range(EXTRA_SETUPS):
                t0 = clock()
                wl.setup(inputs)
                setups.append(clock() - t0)
        t0 = clock()
        spec = wl.setup(inputs)
        t1 = clock()
        outcomes.append(wl.run(inputs, spec))
        t2 = clock()
        setups.append(t1 - t0)
        solves.append(t2 - t1)
        next_one = statistics.median(generate) + statistics.median(setups) + statistics.median(solves)
        if clock() - start + next_one > seconds:
            break
    metrics = {
        "solve_s": (statistics.median(solves), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    detail = {
        "solve_s_samples": solves,
        "setup_s_samples": setups,
        "peak_rss_mb_after_first_input": rss_after_inputs,
    }
    return metrics, outcomes, True, detail


def measure_traced(wl, seed, seconds, single_worker_baseline):
    """Traced run: pairs of untraced and traced solves, then an optional
    single-FFT-worker solve. Reports the traced solve with the median wall."""
    from torma import grid as gr
    from spans import COUNTS, Tracer

    clock = time.perf_counter
    inputs = wl.generate(seed)
    pairs, outcomes = [], []
    reserve = 0.0
    start = clock()
    while True:
        spec = wl.setup(inputs)
        t0 = clock()
        plain = wl.run(inputs, spec)
        plain_s = clock() - t0
        spec = wl.setup(inputs)
        with Tracer() as tracer:
            traced = wl.run(inputs, spec)
        outcomes += [plain, traced]
        pairs.append((tracer, plain_s, plain, traced))
        if single_worker_baseline:
            reserve = plain_s
        pair_s = statistics.median(p[0].wall_s + p[1] for p in pairs)
        if clock() - start + pair_s + reserve > seconds:
            break

    notes = {}
    if single_worker_baseline:
        spec = wl.setup(inputs)
        gr.set_fft_workers(1)
        try:
            t0 = clock()
            single = wl.run(inputs, spec)
            notes["fft_workers_1_solve_s"] = clock() - t0
        finally:
            gr.set_fft_workers(-1)
        outcomes.append(single)
        notes["fft_workers_1_bit_identical"] = single.fingerprint == pairs[0][2].fingerprint
        notes["fft_workers_default_solve_s"] = statistics.median(p[1] for p in pairs)

    ordered = sorted(pairs, key=lambda p: p[0].wall_s)
    tracer, plain_s, _, _ = ordered[(len(ordered) - 1) // 2]
    layer = tracer.metrics()
    layer["trace.plain_wall_s"] = plain_s
    layer["trace.overhead_ratio"] = statistics.median(p[0].wall_s / p[1] - 1.0 for p in pairs)
    names = per_layer_names()

    # counts must repeat exactly; traced outputs must equal untraced ones bit for bit
    exact = [k for k in names if k.endswith(".calls") or k in COUNTS]
    counts_repeat = all(
        {k: p[0].metrics()[k] for k in exact} == {k: layer[k] for k in exact} for p in pairs
    )
    bit_identical = all(p[2].fingerprint == p[3].fingerprint for p in pairs)
    self_times_add_up = all(p[0].self_time_gap() < 1e-6 for p in pairs)
    notes.update({
        "traced_solves": len(pairs),
        "traced_bit_identical": bit_identical,
        "counts_repeat": counts_repeat,
        "self_times_add_up": self_times_add_up,
        "fft_workers_seen": sorted(str(w) for w in set().union(*(p[0].fft_workers for p in pairs))),
    })
    metrics = {k: (layer[k], layer_unit(k)) for k in names}
    ok = bit_identical and counts_repeat and self_times_add_up
    return metrics, outcomes, ok, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no torma sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import torma
    from workloads import workloads

    if Path(torma.__file__).resolve().parent != (SRC / "torma").resolve():
        sys.exit(f"perfbench: imported torma from {torma.__file__}, not from {SRC}")
    table = workloads()
    if args.workload not in table:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}")
    wl = table[args.workload]

    facts = run_facts(args.seed)
    print("facts " + json.dumps(facts, sort_keys=True), flush=True)
    if args.trace:
        metrics, outcomes, ok, notes = measure_traced(
            wl, args.seed, args.seconds, args.workload == "psi_n3_32cubed"
        )
    else:
        metrics, outcomes, ok, notes = measure(wl, args.seed, args.seconds)
    for i, o in enumerate(outcomes):
        row = {"op": i, "correct": o.correct, "attempted": o.attempted, "failed": o.failed,
               "acc": o.acc, "op_seconds": o.op_seconds, "errors": o.errors,
               "output_sha256": o.fingerprint}
        print("op " + json.dumps(row, sort_keys=True), flush=True)
    print("notes " + json.dumps(notes, sort_keys=True), flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": bool(ok and all(o.correct for o in outcomes)),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
