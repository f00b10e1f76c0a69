#!/usr/bin/env python3
"""Builds lite_bench and runs the repo benchmark (stdlib only; see README.md).

One run, JSON result on the last stdout line:
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeat harness (no --workload):
  python3 benchmark/run.py [--reps R] [--sets N] [--seconds S] [--seed N]
                           [--smoke] [--traced] [--save FILE] [--against FILE]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "lite_bench")
WORKLOADS = ["sync_mix", "rpc_fanin", "async_stream", "incast_64n"]
RUN_TIMEOUT_S = 175

# Printed and compared between sets, but not in BENCHMARK.json: the virtual
# percentiles of sync_mix repeat exactly from seed to seed, p99.9 of
# async_stream moves with host thread order, and failed_frac is 0 by design.
DIAGNOSTICS = [
    {"name": "vt_p50_ns", "unit": "ns", "better": "lower", "bound": 0.05},
    {"name": "vt_p99_ns", "unit": "ns", "better": "lower", "bound": 0.08},
    {"name": "vt_p999_ns", "unit": "ns", "better": "lower", "bound": None},
    {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0},
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds lite_bench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "lite_bench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: {' '.join(cmd)}: {e}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_once(workload, seed, seconds, trace=False, scale=1, echo=False):
    """One lite_bench run; returns (parsed result or None, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--scale", str(scale)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} killed after {RUN_TIMEOUT_S} s")
        return None, -1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload} seed {seed} exited {proc.returncode} without a result")
        return None, proc.returncode or 1
    return result, proc.returncode


def single_run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS or args.trace not in (0, 1):
        log(f"run.py: unknown workload {args.workload!r} or --trace {args.trace}")
        return 2
    if not build():
        return 2
    result, code = run_once(args.workload, args.seed, args.seconds, trace=args.trace == 1,
                            echo=True)
    if result is None:
        return 1
    wanted = spec["per_layer" if args.trace == 1 else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        log(f"run.py: lite_bench did not report {missing}")
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(title, results, metrics):
    print(f"\n== {title}: median [q1, q3] and (q3-q1)/median ==")
    for w, per_metric in results.items():
        print(f"{w}")
        for m in metrics:
            values = per_metric.get(m["name"], [])
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med * 100 if med else 0.0
            print(f"  {m['name']:<22} {med:>14.4f} {m['unit']:<7} [{q1:.4f}, {q3:.4f}]"
                  f"  {spread:5.2f}%  n={len(values)}")


def worse_by(metric, base, new):
    """Relative change of `new` against `base` in the metric's bad direction."""
    if metric["bound"] == 0.0:
        return abs(new - base)
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    delta = (new - base) / base
    return delta if metric["better"] == "lower" else -delta


def compare(title, base, new, metrics, two_sided):
    """Median of `new` against `base` per (workload, metric); False if any
    moves past its bound (either way when `two_sided`)."""
    print(f"\n== {title} ==")
    ok = True
    for w in new:
        for m in metrics:
            if m["bound"] is None or not base.get(w, {}).get(m["name"]):
                continue
            b = statistics.median(base[w][m["name"]])
            n = statistics.median(new[w][m["name"]])
            change = worse_by(m, b, n)
            if two_sided and m["bound"] != 0.0:
                change = abs(change)
            bad = change > m["bound"]
            q1, q3 = quartiles(base[w][m["name"]])
            unresolved = b and (q3 - q1) / abs(b) > m["bound"]
            verdict = "FAIL" if bad else ("unresolved" if unresolved else "ok")
            ok = ok and not bad
            print(f"  {w:<13} {m['name']:<20} {b:>14.4f} -> {n:>14.4f}  "
                  f"{change * 100:+7.2f}% (bound {m['bound'] * 100:.0f}%)  {verdict}")
    return ok


def traced_runs(workloads, seed, seconds, scale, untraced):
    spec = load_spec()
    per_layer = {}
    for w in workloads:
        result, code = run_once(w, seed, seconds, trace=True, scale=scale)
        if result is None or code != 0:
            return False
        per_layer[w] = result["metrics"]
    print("\n== per-layer metrics (traced run; spans in benchmark/out/) ==")
    print(f"  {'metric':<28}" + "".join(f"{w:>15}" for w in workloads))
    for m in spec["per_layer"]:
        row = "".join(f"{per_layer[w][m['name']]['value']:>15.4f}" for w in workloads)
        print(f"  {m['name']:<28}{row}  {m['unit']}")
    print("\n== tracing overhead: traced vs untraced host_kops_per_s ==")
    for w in workloads:
        if not untraced[w].get("host_kops_per_s"):
            continue
        base = statistics.median(untraced[w]["host_kops_per_s"])
        traced = per_layer[w]["trace.host_kops_per_s"]["value"]
        print(f"  {w:<13} {base:10.2f} -> {traced:10.2f} kops/s  "
              f"({(1 - traced / base) * 100:+.2f}% slower)")
    return True


def harness(args):
    spec = load_spec()
    metrics = spec["end_to_end"] + DIAGNOSTICS
    workloads = WORKLOADS
    reps, sets, scale = args.reps, args.sets, 1
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.smoke:
        reps, sets, scale, seconds = 1, 1, 50, 0
    if not build():
        return 2
    started = time.monotonic()
    ok = True
    all_sets = []
    for s in range(sets):
        results = {w: {} for w in workloads}
        for r in range(reps):
            order = workloads if (r + s) % 2 == 0 else workloads[::-1]
            for w in order:
                result, code = run_once(w, args.seed + r, seconds, scale=scale)
                if result is None or code != 0 or not result["correct"]:
                    log(f"run.py: {w} seed {args.seed + r} failed (exit {code})")
                    ok = False
                    continue
                for name, v in result["metrics"].items():
                    results[w].setdefault(name, []).append(v["value"])
        all_sets.append(results)
        print_table(f"set {s + 1} of {sets}, {reps} runs per workload, {seconds} s each",
                    results, metrics)
    for s in range(1, sets):
        ok = compare(f"set {s + 1} against set 1 (two-sided)", all_sets[0], all_sets[s],
                     metrics, two_sided=True) and ok
    merged = {w: {} for w in workloads}
    for results in all_sets:
        for w, per_metric in results.items():
            for name, values in per_metric.items():
                merged[w].setdefault(name, []).extend(values)
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        ok = compare(f"this tree against {args.against}", base, merged, metrics,
                     two_sided=False) and ok
    if args.save:
        with open(args.save, "w") as f:
            json.dump(merged, f, indent=1)
    if args.traced:
        ok = traced_runs(workloads, args.seed, seconds, scale, merged) and ok
    print(f"\nrun.py: {'ok' if ok else 'FAILED'} in {time.monotonic() - started:.1f} s")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload and print the JSON result")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measured host seconds per run")
    p.add_argument("--trace", type=int, default=0, help="1: per-layer metrics (with --workload)")
    p.add_argument("--reps", type=int, default=5, help="runs per workload per set")
    p.add_argument("--sets", type=int, default=1, help="sets; medians must agree within bounds")
    p.add_argument("--smoke", action="store_true", help="ops / 50, one quick run each")
    p.add_argument("--traced", action="store_true", help="add a traced run per workload")
    p.add_argument("--save", help="write every run's metrics to this JSON file")
    p.add_argument("--against", help="compare with a file written by --save")
    args = p.parse_args()
    if args.workload is not None:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return single_run(args)
    return harness(args)


if __name__ == "__main__":
    sys.exit(main())
