"""One workload in one fresh process: set up, measure, referee.

    python worker.py --workload NAME --seed N --seconds S --mode MODE --workdir DIR

MODE is ``setup`` (import and build the instances, then exit), ``measure``
(the end-to-end metrics, untraced) or ``trace`` (half the time untraced,
half traced, and the per-layer metrics).  The worker prints ``built`` once
the instances exist and ``ready`` once the warm-up is done, and, except in
``setup`` mode, one JSON line at the end.

The timed loop is closed: one caller issues the next op when the previous
one has returned, and it runs whole passes over the op list until at
least S seconds and the plan's minimum number of passes have gone, so
every pass weighs each op alike.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

import referee as R
import workloads

TAIL_BEYOND = 10
IMPORT_PROBES = 5


class Segment:
    """Records of one timed loop, (op index, seconds, value, error), and the
    wall time of each pass."""

    def __init__(self, records, pass_walls):
        self.records = records
        self.pass_walls = pass_walls

    @property
    def passes(self):
        return len(self.pass_walls)

    @property
    def ops_per_s(self):
        """Ops per second of a pass, the median over passes, so that one
        pass slowed by the machine moves it less."""
        return len(self.records) / self.passes / statistics.median(self.pass_walls)

    def latencies(self, index=None):
        return [r[1] for r in self.records if index is None or r[0] == index]

    def op_typical_latencies(self):
        """Every sample replaced by the median latency of its op.

        On a shared machine one op's latency can swing by a quarter from one
        pass to the next, so a single sample says little; the median over an
        op's passes is what the op costs, and quantiles over these values
        pick the same op from run to run and report its steady cost."""
        by_op = {}
        for i, seconds, _, _ in self.records:
            by_op.setdefault(i, []).append(seconds)
        typical = {i: statistics.median(s) for i, s in by_op.items()}
        return [typical[r[0]] for r in self.records]


def run_segment(ops, seconds, rss, min_passes=1, tracer=None):
    records = []
    walls = []
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            try:
                value, error = op.call(), None
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            records.append((i, clock() - t0, value, error))
            rss.sample()
        walls.append(clock() - pass_start)
        if len(walls) >= min_passes and clock() - start >= seconds:
            break
    return Segment(records, walls)


def referee_segments(ops, segments, ref):
    """(failed count, names of failed ops)."""
    failed = []
    for seg in segments:
        for i, _, value, error in seg.records:
            if error is not None:
                ref.checked += 1
                failed.append(f"{ops[i].name}: {error}")
            elif not ref.verdict(ops[i].check, value):
                failed.append(ops[i].name)
    return len(failed), failed


def tail_percentile(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, for a
    given sample count."""
    return 100.0 * (samples - TAIL_BEYOND) / samples


def tail(latencies, pct):
    """(latency at the nearest-rank percentile, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(seg, peak_rss_mb, failed, pct):
    lat = seg.op_typical_latencies()
    value, beyond = tail(lat, pct)
    attempted = len(seg.records)
    return {
        "ops_per_s": seg.ops_per_s,
        "lat_p50_ms": statistics.median(lat) * 1000.0,
        "lat_tail_ms": value * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (attempted - failed) / attempted,
    }, {"tail_percentile": pct, "tail_samples": len(lat), "tail_beyond": beyond}


def import_probe(env):
    """(interpreter start, fresh import of brokencircuits.cli), medians in ms."""
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        for code, into in (("pass", bare), ("import brokencircuits.cli", loaded)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            into.append((time.perf_counter() - t0) * 1000.0)
    start = statistics.median(bare)
    return start, statistics.median(loaded) - start


def measure(plan, seconds, ref):
    """(metrics, record extras, segments, failed, failure names), untraced."""
    seg = run_segment(plan.ops, seconds, plan.rss, plan.min_passes)
    failed, names = referee_segments(plan.ops, [seg], ref)
    # the percentile is fixed by the minimum pass count, so a faster program
    # that fits more passes still reports the same percentile
    pct = tail_percentile(plan.min_passes * len(plan.ops))
    metrics, extra = end_to_end(seg, plan.rss.peak_mb, failed, pct)
    extra["pass_walls_s"] = seg.pass_walls
    return metrics, extra, [seg], failed, names


def trace(plan, seconds, ref, env, spans_out):
    """The same, half untraced and half traced, with the per-layer metrics."""
    from layers import layer_metrics
    from tracing import Tracer

    plain = run_segment(plan.ops, seconds / 2, plan.rss)
    tracer = Tracer().install()
    traced = run_segment(plan.traced_ops(tracer), seconds / 2, plan.rss, tracer=tracer)
    if plan.rebuild is not None:
        tracer.op = "setup"
        plan.rebuild()
    tracer.op = "referee"
    t0 = time.perf_counter()
    failed, names = referee_segments(plan.ops, [plain, traced], ref)
    referee_ms = (time.perf_counter() - t0) * 1000.0
    spans = tracer.spans + plan.child_spans()
    metrics = layer_metrics(spans, traced.passes)
    interp_ms, import_ms = import_probe(env)
    poly_extra = 0.0
    if plan.poly_pair is not None:
        index = {op.name: i for i, op in enumerate(plan.ops)}
        poly, plain_int = (statistics.median(plain.latencies(index[name])) for name in plan.poly_pair)
        poly_extra = (poly - plain_int) * 1000.0
    metrics.update({
        "cli.interp_start_ms": interp_ms,
        "cli.import_ms": import_ms,
        "algebra.poly_extra_ms": poly_extra,
        "oracles.referee_ms": referee_ms,
        "oracles.checked": ref.checked / (len(plain.records) + len(traced.records)),
        "trace.overhead_share": (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s,
    })
    if spans_out:
        with open(spans_out, "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    extra = {"passes": traced.passes, "untraced_ops_per_s": plain.ops_per_s,
             "traced_ops_per_s": traced.ops_per_s, "spans": len(spans)}
    return metrics, extra, [plain, traced], failed, names


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    plan = workloads.build(args.workload, args.seed, args.workdir, env)
    print("built", flush=True)
    if args.mode == "setup":
        return 0
    plan.warm_up()
    gc.collect()
    print("ready", flush=True)

    ref = R.Referee()
    if args.mode == "measure":
        metrics, extra, segments, failed, names = measure(plan, args.seconds, ref)
    else:
        metrics, extra, segments, failed, names = trace(plan, args.seconds, ref, env, args.spans_out)
    out = {
        "digest": plan.digest,
        "ops_per_pass": len(plan.ops),
        **extra,
        "op_ms": {op.name: statistics.median(segments[0].latencies(i)) * 1000.0
                  for i, op in enumerate(plan.ops)},
        "metrics": metrics,
        "attempted": sum(len(s.records) for s in segments),
        "failed": failed,
        "failures": names[:20],
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
