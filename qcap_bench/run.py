#!/usr/bin/env python3
"""Builds the qcap_bench harness from source and runs it.

One run of one workload (the last line of stdout is the JSON result):

    python3 qcap_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The suite: every workload REPS times (seeds SEED..SEED+REPS-1), each run in a
fresh process, then each end-to-end metric's n, median, quartiles, min and
max, and the environment block; --trace adds one traced run per workload:

    python3 qcap_bench/run.py [--reps 5] [--seed 1] [--seconds S] [--out FILE]
                              [--trace]

--seconds defaults to BENCHMARK.json's run_seconds, so a suite run measures
what a single run does; --seconds 3 gives a two-minute quick look with wider
spreads.

Two suite files compared under BENCHMARK.json's bounds (exit 1 on a
regression):

    python3 qcap_bench/run.py --compare A.json B.json

The shrunk all-workload smoke run (also the qcap_bench_smoke ctest):

    python3 qcap_bench/run.py --smoke

The harness is configured and built under .bench_build/qcap_bench at the root
of the checkout; traces go to .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "qcap_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"qcap_bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {BENCHMARK_JSON}: {e}")


def build():
    """Configures (once) and builds the harness; returns the binary path.
    A failed build is tried once more with one job, for a compiler killed
    on a host short of memory; both attempts share BUILD_TIMEOUT_S."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the qcap sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for jobs in (max(1, min(4, os.cpu_count() or 1)), 1):
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
        for cmd in steps:
            try:
                # Build output goes to stderr: stdout carries only results.
                proc = subprocess.run(
                    cmd, stdout=sys.stderr, stderr=sys.stderr,
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if proc.returncode != 0:
                print(f"qcap_bench: build step failed: {' '.join(cmd)}",
                      file=sys.stderr)
                break
        else:
            return os.path.join(BUILD_DIR, "qcap_bench")
    fail("the build failed twice")


def run_binary(binary, args):
    """Runs the harness; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}", 124)
    return proc.returncode, proc.stdout


def parse_result(stdout, expected_names):
    """The JSON result line, checked against the metric names expected."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, "result keys are not correct/attempted/failed/metrics"
    if set(result["metrics"]) != set(expected_names):
        return None, ("metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ set(expected_names))}")
    return result, None


def exact_outputs(stdout):
    """The run's exact per-layer outputs: its `exact {...}` line."""
    for line in stdout.splitlines():
        if line.startswith("exact "):
            return json.loads(line[len("exact "):])
    return {}


def metric_names(benchmark, traced):
    key = "per_layer" if traced else "end_to_end"
    return [m["name"] for m in benchmark[key]]


def one_run(binary, benchmark, workload, seed, seconds, traced, echo=True):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-file",
                 os.path.join(TRACE_DIR, f"{workload}-seed{seed}.trace.json")]
    code, stdout = run_binary(binary, args)
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    result, error = parse_result(stdout, metric_names(benchmark, traced))
    if error is not None:
        if echo:
            print(f"qcap_bench: {workload}: {error}", file=sys.stderr)
        return None, code or 3, stdout
    return result, code, stdout


def summarize(values):
    ordered = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": ordered[0], "max": ordered[-1]}


def suite(args, binary, benchmark):
    env = json.loads(subprocess.run([binary, "--env"], stdout=subprocess.PIPE,
                                    text=True, check=True).stdout)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    report = {"env": env, "seed": args.seed, "reps": args.reps,
              "seconds": args.seconds, "correct": True, "workloads": {},
              "exact": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        values = {name: [] for name in units}
        exact = report["exact"][workload] = {}
        for rep in range(args.reps):
            result, code, stdout = one_run(binary, benchmark, workload,
                                           args.seed + rep, args.seconds,
                                           False, echo=False)
            if result is None or code != 0 or not result["correct"]:
                report["correct"] = False
                sys.stderr.write(stdout)
                print(f"qcap_bench: {workload} seed {args.seed + rep} "
                      f"failed (exit {code})", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            exact[str(args.seed + rep)] = exact_outputs(stdout)
        rows = report["workloads"][workload] = {}
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'unit':<6} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'min':>12} {'max':>12}")
        for name, vals in values.items():
            if not vals:
                continue
            s = summarize(vals)
            rows[name] = dict(unit=units[name], values=vals, **s)
            print(f"  {name:<14} {units[name]:<6} {s['n']:>3} "
                  f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['min']:>12.6g} {s['max']:>12.6g}")
        if args.trace:
            print()
            result, code, _ = one_run(binary, benchmark, workload, args.seed,
                                      args.seconds, True)
            if result is None or code != 0 or not result["correct"]:
                report["correct"] = False
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
        print(f"\nwrote {args.out}")
    return 0 if report["correct"] else 1


def compare(path_a, path_b, benchmark):
    """One row per workload and end-to-end metric: ok, improved, unresolved
    (either side's quartile spread is wider than the bound) or REGRESSION
    (B's median worse than A's by more than the bound). Then, per workload,
    the exact per-layer outputs of every seed both files ran: each must be
    identical, and a difference is a REGRESSION if worse, CHANGED if
    better; both fail the comparison."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    regressions = 0
    for path, suite_file in ((path_a, a), (path_b, b)):
        if not suite_file.get("correct"):
            print(f"{path}: a correctness check failed in this suite")
            regressions += 1
    print(f"{'workload':<18} {'metric':<12} {'median A':>11} {'median B':>11} "
          f"{'change':>8} {'bound':>6} {'spread A':>8} {'spread B':>8}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            try:
                ra = a["workloads"][workload][name]
                rb = b["workloads"][workload][name]
            except KeyError:
                print(f"{workload:<18} {name:<12} missing")
                regressions += 1
                continue
            lower = metric["better"] == "lower"
            ma, mb = ra["median"], rb["median"]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower else -change
            spread_a = (ra["q3"] - ra["q1"]) / ma if ma else 0.0
            spread_b = (rb["q3"] - rb["q1"]) / mb if mb else 0.0
            b_all_better = (max(rb["values"]) < min(ra["values"]) if lower
                            else min(rb["values"]) > max(ra["values"]))
            if b_all_better:
                verdict = "improved"
            elif spread_a > bound or spread_b > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<18} {name:<12} {ma:>11.5g} {mb:>11.5g} "
                  f"{change:>+8.1%} {bound:>6.0%} {spread_a:>8.1%} "
                  f"{spread_b:>8.1%}  {verdict}")
    regressions += compare_exact(a, b, benchmark)
    return 1 if regressions else 0


def compare_exact(a, b, benchmark):
    """Prints the exact-output rows; returns how many fail."""
    better = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    failures = 0
    print()
    for workload in (w["name"] for w in benchmark["workloads"]):
        ea = a.get("exact", {}).get(workload, {})
        eb = b.get("exact", {}).get(workload, {})
        seeds = sorted(set(ea) & set(eb), key=int)
        if not seeds:
            print(f"{workload:<18} exact outputs: no seed in both files")
            failures += 1
            continue
        differing = 0
        for seed in seeds:
            for name, va in ea[seed].items():
                vb = eb[seed].get(name)
                if vb == va:
                    continue
                differing += 1
                worse = (vb is None or
                         (vb > va if better.get(name) == "lower" else vb < va))
                print(f"{workload:<18} {name:<32} seed {seed}: {va!r} -> "
                      f"{vb!r}  {'REGRESSION' if worse else 'CHANGED'}")
        if differing == 0:
            count = len(ea[seeds[0]])
            print(f"{workload:<18} exact outputs: all {count} identical on "
                  f"seeds {', '.join(seeds)}")
        failures += differing
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", choices=["0", "1"])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this harness binary, no build")
    args = parser.parse_args()
    benchmark = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}", 2)
    if args.reps < 1:
        fail("--reps must be at least 1", 2)
    args.seconds = args.seconds or benchmark["run_seconds"]
    args.trace = args.trace == "1"

    binary = args.binary or build()
    if args.smoke:
        return subprocess.run([binary, "--smoke"],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload:
        _, code, _ = one_run(binary, benchmark, args.workload, args.seed,
                             args.seconds, args.trace)
        return code
    return suite(args, binary, benchmark)


if __name__ == "__main__":
    sys.exit(main())
