#!/usr/bin/env python3
"""Benchmark of the minwsuper engine: relation reports, a constants sweep
and a stream of checked products, timed end to end and per module.

    python3 perfbench/run.py          # all workloads, untraced and traced
    python3 perfbench/run.py --workload stream --seed 3 --trace 0

A single workload runs in this process; ``all`` runs each workload twice,
untraced and traced, each time in a process of its own, so that the peak
RSS of one is not inherited by the next, and prints the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  The exit code
is 1 when any output fails its check or a workload process fails, and 2
when the package is missing.

Method: one caller in one thread, closed loop.  The package is imported
and the workload set up several times, fresh each time, and ``setup_s`` is
the median.  Then the workload's ``passes`` whole passes run, a fixed
amount of work whatever the speed of the machine, so that a faster engine
does not run more passes and grow more caches.  ``--seconds`` is accepted
for the common benchmark interface and does not change the run.  Only the
engine calls of an op are timed; the checks on its outputs run after its
clock stops.  Every time is scaled to nominal machine speed by
``probe.SpeedProbe``; the wall time and the speed are printed with each run.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(1, SRC)

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

# set-ups per run: at least SETUPS, and more, up to MAX_SETUPS, while
# they have taken less than SETUP_S in all.  An import-only set-up takes
# about 45 ms, and the machine's speed drifts over seconds, so those are
# spread over SETUP_S to average the drift out.
SETUPS = 3
MAX_SETUPS = 60
SETUP_S = 3.0
SCALAR_SAMPLES = 2000

END_TO_END = {
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, scale to its unit) for mean time per call
PER_CALL = {
    "superalgebra.build_algebra_s": ("superalgebra.build_algebra", 1e-9),
    "superalgebra.validate_s": ("superalgebra.validate", 1e-9),
    "grading.grade_s": ("grading.grade", 1e-9),
    "wgen.generators_s": ("wgen.generators", 1e-9),
    "wgen.c0_s": ("wgen.c0", 1e-9),
    "cartanw.build_cartan_w_s": ("cartanw.build_cartan_w", 1e-9),
    "wgen.certify_ms": ("wgen.certify", 1e-6),
    "envelope.mul_ms": ("envelope.mul", 1e-6),
}
# the same, for calls that run on some workloads only: printed, not emitted
PRINTED = {
    "wgen.commutator_table_s": ("wgen.commutator_table", 1e-9),
    "wgen.verify_relations_s": ("wgen.verify_relations", 1e-9),
    "wgen.verify_relations_warm_s": ("wgen.verify_relations_warm", 1e-9),
    "wgen.pbw_coordinates_ms": ("wgen.pbw_coordinates", 1e-6),
    "wgen.mul_raw_ms": ("wgen.mul_raw", 1e-6),
    "cartanw.project_pi_ms": ("cartanw.project_pi", 1e-6),
}
SELF_LAYERS = ("envelope", "wgen", "cartanw")

PER_LAYER = dict(
    [(name, name.rsplit("_", 1)[1]) for name in PER_CALL]
    + [(layer + ".self_s", "s") for layer in SELF_LAYERS]
    + [(name, "count") for name in workloads.COUNTS]
    + [("scalar.mul_us", "us"), ("scalar.add_us", "us"),
       ("scalar.irrational_share", "ratio"),
       ("trace.pass_s", "s"), ("trace.wall_pass_s", "s"),
       ("trace.spans_per_pass", "count"),
       ("probe.speed", "ratio")])

# which end-to-end metric, on which workload, each per-layer metric should move
MOVES = {
    "superalgebra.build_algebra_s": "pass_s on constants and relations",
    "superalgebra.validate_s": "pass_s on constants and relations",
    "grading.grade_s": "pass_s on constants",
    "wgen.generators_s": "pass_s on constants",
    "wgen.c0_s": "pass_s on constants",
    "cartanw.build_cartan_w_s": "pass_s on constants",
    "wgen.commutator_table_s": "pass_s on relations",
    "wgen.verify_relations_s": "pass_s on relations",
    "wgen.verify_relations_warm_s": "pass_s on relations",
    "wgen.pbw_coordinates_ms": "ops_per_s, op_p50_ms on stream; pass_s on "
                               "relations",
    "wgen.certify_ms": "ops_per_s, op_p50_ms on stream; pass_s on relations",
    "envelope.mul_ms": "ops_per_s, op_p50_ms on stream; pass_s on relations",
    "wgen.mul_raw_ms": "ops_per_s, op_p50_ms on stream; pass_s on relations",
    "cartanw.project_pi_ms": "ops_per_s, op_p50_ms on stream",
    "envelope.self_s": "pass_s on relations; ops_per_s on stream",
    "wgen.self_s": "pass_s on relations; ops_per_s on stream",
    "cartanw.self_s": "ops_per_s on stream",
    "envelope.letter_cache_entries": "peak_rss_mb on relations and stream",
    "wgen.mono_cache_entries": "peak_rss_mb on relations and stream",
    "wgen.theta_cache_entries": "peak_rss_mb on relations and stream",
    "wgen.table_entries": "none: pins the work of relations",
    "wgen.verify_cases": "none: pins the work of relations",
    "scalar.mul_us": "every metric, most ops_per_s on stream",
    "scalar.add_us": "every metric, most ops_per_s on stream",
    "scalar.irrational_share": "every metric, most ops_per_s on stream",
    "trace.pass_s": "none: minus an untraced pass_s, the tracing overhead",
    "trace.wall_pass_s": "none: trace.pass_s in wall seconds, before the "
                         "probe's scaling",
    "trace.spans_per_pass": "none: spans recorded per pass",
    "probe.speed": "none: mean machine speed the probe saw, 1 is nominal",
}


class Tally:
    """Checks attempted and failed; the first few failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:2])


def percentile(ordered, p, steps=64):
    """Harrell-Davis estimate of the ``p`` quantile of an ascending list: the
    order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  It
    averages the neighbours of the sample quantile, so one op's noise moves
    it less than it moves the sample quantile."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i * steps + k + 0.5) * h
            mass += math.exp(norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log(1 - x))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def forget_package():
    """Drop minwsuper from the process, with all its module-level caches."""
    for name in [m for m in sys.modules
                 if m == "minwsuper" or m.startswith("minwsuper.")]:
        del sys.modules[name]
    gc.collect()


class Run:
    """Times of one run, each at nominal machine speed (see ``probe``)."""

    def __init__(self):
        self.setups = []
        self.passes = []
        self.walls = []
        self.speed = None
        self.outcomes = []
        self.state = None
        self.tally = Tally()


def run_workload(workload, seed, passes, tracer):
    """Set up several times, then run ``passes`` whole passes."""
    run = Run()
    with SpeedProbe() as probe:
        while len(run.setups) < SETUPS or (len(run.setups) < MAX_SETUPS
                                           and sum(run.setups) < SETUP_S):
            run.state = pkg = None
            forget_package()
            t0 = time.perf_counter()
            pkg = importlib.import_module("minwsuper")
            if tracer.enabled:
                tracer.instrument(pkg)
            run.state, problems = workload.prepare(pkg, tracer)
            run.setups.append(probe.adjusted(t0, time.perf_counter()))
            run.tally.add(problems)

        tracer.phase = "pass"
        rng = random.Random(seed)
        for _ in range(passes):
            pass_start = time.perf_counter()
            spans, run.outcomes = [], []
            for key in workload.pass_keys(run.state, rng):
                run.outcomes.append(_op(workload, run.state, key, tracer,
                                        spans))
                run.tally.add(run.outcomes[-1].problems)
            run.passes.append(spans)
            run.walls.append(time.perf_counter() - pass_start)
    run.passes = [[probe.adjusted(t0, t1) for t0, t1 in spans]
                  for spans in run.passes]
    run.speed = probe.mean_speed()
    return run


def _op(workload, state, key, tracer, spans):
    """One timed op, then the check of its outputs; errors are failures."""
    sid = tracer.begin("bench.op", workload.tag(key))
    t0 = time.perf_counter()
    try:
        check = workload.op(state, key, tracer)
    except Exception:
        return workloads.Outcome(["%s raised: %s"
                                  % (key, traceback.format_exc(limit=-3))])
    finally:
        spans.append((t0, time.perf_counter()))
        tracer.end(sid)
    try:
        return check()
    except Exception:
        return workloads.Outcome(["%s: check raised: %s"
                                  % (key, traceback.format_exc(limit=-3))])


def end_to_end(run):
    ordered = sorted(t for p in run.passes for t in p)
    return {
        "pass_s": statistics.median(sum(p) for p in run.passes),
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": percentile(ordered, 0.5) * 1e3,
        "op_p90_ms": percentile(ordered, 0.9) * 1e3,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def scalar_costs(workspaces, rng):
    """Cost of Scalar * and + on coefficients sampled from the PBW caches,
    and the share of those coefficients that are not rational."""
    coeffs = [c for wal in workspaces for out in wal.pbw._cache.values()
              for c in out.values()]
    sample = [rng.choice(coeffs) for _ in range(2 * SCALAR_SAMPLES)]
    pairs = list(zip(sample[::2], sample[1::2]))
    mul, add = [], []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        t1 = time.perf_counter_ns()
        for a, b in pairs:
            a + b
        t2 = time.perf_counter_ns()
        mul.append((t1 - t0) / len(pairs) / 1e3)
        add.append((t2 - t1) / len(pairs) / 1e3)
    irrational = sum(not c.is_rational() for c in sample) / len(sample)
    return statistics.median(mul), statistics.median(add), irrational


def per_layer(tracer, run, workload, seed):
    """Per-layer metrics from the spans, plus the rows printed per algebra.

    Span times are scaled by the run's mean machine speed, like the
    end-to-end times."""
    dur, own = tracer.durations_and_self()
    tags = tracer.span_tags()
    calls, total, by_tag = {}, {}, {}
    layer_self = dict.fromkeys(SELF_LAYERS, 0)
    pass_spans = 0
    for sid, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[sid]
        key = (name, tags[sid])
        n, t = by_tag.get(key, (0, 0))
        by_tag[key] = (n + 1, t + dur[sid])
        if tracer.phases[sid] == "pass":
            pass_spans += 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[sid]

    metrics, rows = {}, []
    for metric, (span, scale) in list(PER_CALL.items()) + list(
            PRINTED.items()):
        scale *= run.speed
        if span in calls:
            rows.append((metric, total[span] / calls[span] * scale,
                         calls[span]))
            rows.extend(("%s.%s" % (metric, tag), t / n * scale, n)
                        for (name, tag), (n, t) in sorted(
                            by_tag.items(), key=lambda kv: str(kv[0]))
                        if name == span and tag is not None)
        if metric in PER_CALL:
            if span not in calls:
                run.tally.add(["layer call %s never ran" % span])
            metrics[metric] = total.get(span, 0) / calls.get(span, 1) * scale
    for layer in SELF_LAYERS:
        metrics[layer + ".self_s"] = (layer_self[layer] * 1e-9 * run.speed
                                      / len(run.passes))
    counts, spaces = workload.final(run.state, run.outcomes)
    metrics.update(counts)
    (metrics["scalar.mul_us"], metrics["scalar.add_us"],
     metrics["scalar.irrational_share"]) = scalar_costs(spaces,
                                                        random.Random(seed))
    metrics["trace.pass_s"] = statistics.median(sum(p) for p in run.passes)
    metrics["trace.wall_pass_s"] = statistics.median(run.walls)
    metrics["trace.spans_per_pass"] = pass_spans / len(run.passes)
    metrics["probe.speed"] = run.speed
    return metrics, rows


def result(metrics, units, tally):
    """The benchmark's last line of output."""
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]()
    run_id = uuid.uuid4().hex[:12]
    tracer = Tracer(run_id) if args.trace else NullTracer()
    run = run_workload(workload, args.seed, workload.passes, tracer)
    ops = sum(len(p) for p in run.passes)

    print("# workload %s: %s" % (workload.name, workload.why))
    print("# method: run %s, seed %d, %d set-ups, %d passes of %d ops in "
          "%.1f s wall, one caller in one thread, closed loop, trace %d; "
          "machine at %.2fx nominal speed; nproc %d, Python %s on %s"
          % (run_id, args.seed, len(run.setups), len(run.passes),
             ops // len(run.passes), sum(run.walls), args.trace, run.speed,
             os.cpu_count(), platform.python_version(), platform.machine()))
    if args.trace:
        metrics, rows = per_layer(tracer, run, workload, args.seed)
        units, notes = PER_LAYER, MOVES
        for name, value, n in rows:
            print("%-44s %12.4f  mean of %d calls" % (name, value, n))
        path = os.path.join(HERE, "out", "trace-%s.jsonl" % workload.name)
        tracer.write(path)
        print("# %d spans of run %s written to %s"
              % (len(tracer.names), run_id, os.path.relpath(path)))
    else:
        metrics, units = end_to_end(run), END_TO_END
        notes = {"pass_s": "median of %d passes; %.4f s wall before the "
                           "probe's scaling" % (len(run.passes),
                                                statistics.median(run.walls)),
                 "setup_s": "median of %d set-ups" % len(run.setups),
                 "peak_rss_mb": "high-water mark of this process"}
    for name in units:
        print("%-32s %14.6f %-6s %s" % (name, metrics[name], units[name],
                                         notes.get(name, "over %d ops" % ops)))
    tally = run.tally
    print("%-32s %14.6f %-6s %d of %d checks failed"
          % ("fail_ratio", tally.failed / tally.attempted, "ratio",
             tally.failed, tally.attempted))
    for message in tally.messages[:10]:
        print("# FAILED: " + message.replace("\n", " | "))
    out = result(metrics, units, tally)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def run_all(args):
    """Each workload untraced and traced, each run in a process of its own,
    and the tracing overhead as the difference between the two."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            print(proc.stdout, end="")
            if proc.returncode:
                # a child killed by a signal has a negative code
                status = max(status, proc.returncode, 1)
                summary["correct"] = False
            if proc.returncode not in (0, 1):
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            results[trace] = out["metrics"]
            summary["correct"] &= out["correct"]
            summary["attempted"] += out["attempted"]
            summary["failed"] += out["failed"]
            for metric, value in out["metrics"].items():
                summary["metrics"]["%s.%s" % (name, metric)] = value
        if 0 in results and 1 in results:
            plain = results[0]["pass_s"]["value"]
            traced = results[1]["trace.pass_s"]["value"]
            print("# tracing overhead on %s: %+.4f s per pass (%+.1f%%)"
                  % (name, traced - plain, 100 * (traced / plain - 1)))
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for the common benchmark interface; "
                             "a run is a fixed number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single workload: per-layer metrics instead of "
                             "end-to-end ones; 'all' runs both")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minwsuper", "__init__.py")):
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
