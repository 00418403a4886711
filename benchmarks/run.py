"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it name every metric with its unit, and
the run record (seed, instance digest, environment) is also written to
``.bench_work/``.

Each workload runs in a fresh worker process, with a fixed
``PYTHONHASHSEED`` passed to it and to every child it starts.  ``setup_s``
is the median over SETUP_REPEATS fresh workers of the time from starting
the worker to the end of its instance building (interpreter start, import,
instance generation and object construction), plus the warm-up pass of
the worker that then measures.  The warm-up runs once per run because it
is one pass over the ops, whose cost the timed loop already measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
HASH_SEED = "0"
# the whole run, set-ups included, must end within this many seconds
RUN_BUDGET_S = 170

UNITS = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "core.leaves": "count",
    "core.leaves_per_s": "1/s",
    "core.prune_ratio": "share",
    "oracles.checked": "share",
    "trace.overhead_share": "share",
}


def unit_of(metric):
    return UNITS.get(metric, "ms")


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode, env, workdir, deadline, spans_out=None):
    """(seconds from spawn to ``built``, seconds from ``built`` to ``ready``,
    parsed final line); the last two are None for a set-up-only worker."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.perf_counter()
    # a process group of its own, so that a worker cut off at the deadline
    # takes its children down with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    marks = {}
    lines = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise WorkerError(f"{mode} worker ran past the run budget")
                line = proc.stdout.readline()
                if not line:
                    break
                mark = line.strip().decode()
                if mark in ("built", "ready") and mark not in marks:
                    marks[mark] = time.perf_counter()
                else:
                    lines.append(line)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or "built" not in marks:
        raise WorkerError(f"{mode} worker exited {code}")
    built = marks["built"] - start
    if mode == "setup":
        return built, None, None
    if "ready" not in marks or not lines:
        raise WorkerError(f"{mode} worker ended without a result")
    return built, marks["ready"] - marks["built"], json.loads(lines[-1])


def environment(root):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "pythonhashseed": HASH_SEED,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "brokencircuits", "__init__.py")):
        print(f"no brokencircuits sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=HASH_SEED)
    work_root = os.path.join(root, ".bench_work")
    run_dir = os.path.join(work_root, f"run-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            _, _, result = run_worker(args, "trace", env, os.path.join(run_dir, "trace"), deadline,
                                      spans_out=os.path.join(work_root, f"spans-{tag}.json"))
        else:
            builds = []
            for k in range(SETUP_REPEATS - 1):
                built, _, _ = run_worker(args, "setup", env, os.path.join(run_dir, f"setup{k}"), deadline)
                builds.append(built)
            built, warm_up, result = run_worker(args, "measure", env,
                                                os.path.join(run_dir, "measure"), deadline)
            builds.append(built)
            result["metrics"]["setup_s"] = statistics.median(builds) + warm_up
            result.update(build_runs_s=builds, warm_up_s=warm_up)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        **result,
    }
    with open(os.path.join(BENCH_DIR, "excluded.json")) as fh:
        record["excluded"] = json.load(fh)["rows"]
    with open(os.path.join(work_root, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    metrics = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  digest {result['digest'][:16]}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_share {result['failed'] / result['attempted']:.4f}")
    if "tail_percentile" in result:
        print(f"lat_tail_ms is p{result['tail_percentile']:.2f} of {result['tail_samples']} samples, "
              f"{result['tail_beyond']} beyond it")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:>16.6g} {unit_of(name)}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
