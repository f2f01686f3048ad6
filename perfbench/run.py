"""Benchmark of the neqcft CLI: fresh processes, interleaved repeats, checked reports.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the `src/` directory of the checkout that
holds this file.  Every operation is one `neqcft` command in a fresh
Python process with BLAS/OpenMP pinned to one thread.  A round runs every
command of the workload once, in a fixed order; rounds repeat (at least
the workload's minimum, one when tracing) while another round still fits
in --seconds, so the repeats of a command are interleaved with the others.
Each command's figure is the median over its repeats.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of tracer.TRACED with --trace 1.  Run outputs go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CLI_SOURCE = os.path.join(ROOT, "src", "neqcft", "cli.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 165.0  # no child outlives this, so the run ends within 180 s


class ChildLost(RuntimeError):
    """A child ended without writing its timings (killed or failed to import)."""


def child_env():
    # the caller's interpreter switches (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...)
    # would change what a child costs, so children run with none of them
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k in ("PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("NEQCFT_CACHE", None)
    return env


def run_child(argv, outdir, trace, deadline, env):
    """Run one command; return its exit code, clock readings and resource usage."""
    timing = os.path.join(outdir, "timing.json")
    if os.path.exists(timing):
        os.remove(timing)
    with open(os.path.join(outdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(outdir, "stderr.txt"), "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, timing, str(int(trace)), *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        watchdog = threading.Timer(max(0.0, deadline - spawn), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(timing) as fh:
            clock = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ChildLost(f"`neqcft {' '.join(argv)}` exited {proc.returncode} "
                        f"without timings ({exc})") from exc
    return {
        "rc": proc.returncode,
        "wall": end - spawn,
        "setup": clock["import_end"] - spawn,
        "import": clock["import_end"] - clock["import_start"],
        "compute": clock["done"] - clock["main_start"],
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "trace": clock.get("trace"),
    }


def judge(op, rec, outdir):
    """None when the operation's exit code and report are right, else the reason."""
    if rec["rc"] != op.expect_rc:
        return f"exit code {rec['rc']}, expected {op.expect_rc}"
    try:
        with open(os.path.join(outdir, "stdout.txt")) as fh:
            report = json.load(fh)
        return op.check(report)
    except Exception as exc:  # any malformed report is a failed operation
        return f"unreadable report: {exc!r}"


def measure(ops, min_rounds, seconds, trace, outdir, env):
    """Run whole rounds; return per-operation records, rounds and failures."""
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.exists(importlib.util.cache_from_source(CLI_SOURCE)):
        run_child([], outdir, trace, deadline, env)  # a fresh checkout compiles bytecode once
    records = [[] for _ in ops]
    failures = []
    rounds, last = 0, 0.0
    t0 = time.monotonic()
    while True:
        now = time.monotonic()
        if rounds >= min_rounds and now - t0 + last > seconds:
            break
        if rounds >= 1 and now + last > deadline:
            break
        for op, recs in zip(ops, records):
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
            rec = run_child(op.argv, outdir, trace, deadline, env)
            recs.append(rec)
            reason = judge(op, rec, outdir)
            if reason:
                failures.append((op, reason))
        rounds += 1
        last = time.monotonic() - now
    return records, rounds, failures


def _sum_of_medians(records, key):
    return sum(statistics.median(r[key] for r in recs) for recs in records)


def end_to_end(records):
    every = [r for recs in records for r in recs]
    return {
        "wall_s": (_sum_of_medians(records, "wall"), "s"),
        "compute_s": (_sum_of_medians(records, "compute"), "s"),
        "setup_s": (statistics.median(r["setup"] for r in every), "s"),
        "cpu_s": (_sum_of_medians(records, "cpu"), "s"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in every), "MB"),
    }


def per_layer(records):
    every = [r for recs in records for r in recs]
    out = {"cli.import_s": (statistics.median(r["import"] for r in every), "s")}
    for name in tracer.TRACED:
        calls = distinct = self_s = 0
        for recs in records:
            stats = [r["trace"][name] for r in recs]
            calls += statistics.median_low(s["calls"] for s in stats)
            distinct += statistics.median_low(s["distinct"] for s in stats)
            self_s += statistics.median(s["self_s"] for s in stats)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.distinct"] = (distinct / calls if calls else 0.0, "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(CLI_SOURCE):
        print(f"no neqcft sources: {CLI_SOURCE} is missing", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    inputs = workloads.Inputs.from_seed(args.seed)
    build, min_rounds = workloads.WORKLOADS[args.workload]
    ops = build(inputs, outdir)
    env = child_env()
    try:
        records, rounds, failures = measure(ops, 1 if args.trace else min_rounds, args.seconds,
                                            bool(args.trace), outdir, env)
    except ChildLost as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    print(f"{args.workload} seed={args.seed} cos_sin={inputs.cos_a},{inputs.sin_a} "
          f"lam={inputs.lam} rounds={rounds} trace={args.trace}")
    for op, recs in zip(ops, records):
        print(f"  {op.name:20s} wall {statistics.median(r['wall'] for r in recs):8.3f} s  "
              f"compute {statistics.median(r['compute'] for r in recs):8.3f} s")
    for op, reason in failures:
        tag = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
        print(f"  FAILED {op.name}: {reason} [{tag}]")
    e2e = end_to_end(records)
    print("  " + "  ".join(f"{k} {v:.4f}" for k, (v, _) in e2e.items()))

    chosen = per_layer(records) if args.trace else e2e
    result = {
        "correct": all(op.known_fault for op, _ in failures),
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({**result, "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "records": {op.name: recs for op, recs in zip(ops, records)}}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
