#!/usr/bin/env python3
"""Builds and runs the Rhythm benchmark (see perfbench/README.md).

One measurement, from the root of a checkout:

    python3 perfbench/run.py --workload cluster_diurnal --seed 1 --seconds 30 --trace 0

The last line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. The benchmark program is built from source into
.bench_build/ on first use. Exit code 0 only when every output check passed.

Steadiness mode runs every workload of BENCHMARK.json k times, interleaved,
with seeds 1..k, and prints the median, quartiles and spread of each
end-to-end metric, flagging any spread above the metric's bound:

    python3 perfbench/run.py --steady 5 [--seconds 30]

Self-test: both workloads at the default seed and a second seed, briefly:

    python3 perfbench/run.py --selftest
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "rhythm_perfbench"
CACHE_ROOT = BUILD_DIR / "threshold_cache"
RESULTS_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 175
# Knobs the library reads from the environment; the benchmark pins its own.
IGNORED_ENV = ("RHYTHM_JOBS", "RHYTHM_SHARDS", "RHYTHM_FAST", "RHYTHM_THRESHOLD_CACHE")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout,
                              cwd=ROOT).returncode


def build():
    """Configures and builds the benchmark program; returns False on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "rhythm_perfbench", "-j", jobs]
    try:
        ok = run_logged(configure, log_path, timeout=300) == 0
        if not ok and (BUILD_DIR / "CMakeCache.txt").exists():
            # A cache left by another source tree or generator: start over.
            (BUILD_DIR / "CMakeCache.txt").unlink()
            shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
            ok = run_logged(configure, log_path, timeout=300) == 0
        ok = ok and run_logged(compile_, log_path, timeout=850) == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: build step failed: {error}")
        return False
    if not ok or not BINARY.exists():
        log(f"perfbench: build failed (see {log_path}):")
        log(log_path.read_text(errors="replace")[-3000:])
        return False
    return True


def child_env():
    env = dict(os.environ)
    for name in IGNORED_ENV:
        env.pop(name, None)
    return env


def cache_dir():
    """The cluster workload's threshold cache for the current build. Cache
    entries are keyed by app parameters only, not by the code that derives
    them, so each build of the program gets a directory of its own and the
    directories of earlier builds are removed."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    path = CACHE_ROOT / digest
    for entry in CACHE_ROOT.glob("*"):
        if entry == path:
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(cache):
    """Fills the cluster workload's threshold cache; a no-op once it is full."""
    cmd = [str(BINARY), "--prepare", "--cache-dir", str(cache)]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=850).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def complete_metrics(result, trace, spec):
    """Checks the program's metrics against BENCHMARK.json. End-to-end metrics
    must all be present; a per-layer metric of a layer that does no work in
    this workload is reported as 0. Returns an error string or None."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    names = {metric["name"] for metric in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        return f"metrics not in BENCHMARK.json: {extra}"
    ordered = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            if not trace:
                return f"end-to-end metric {name} missing"
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        if metrics[name]["unit"] != metric["unit"]:
            return f"{name}: unit {metrics[name]['unit']} != {metric['unit']}"
        ordered[name] = metrics[name]
    result["metrics"] = ordered
    return None


def measure(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark program once. Returns (exit code, result dict or None)."""
    cache = cache_dir()
    if workload == "cluster_diurnal" and not prepare(cache):
        log("perfbench: prepare step failed")
        return 2, None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--cache-dir", str(cache),
           "--out-dir", str(RESULTS_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"perfbench: {workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 2, None
    error = complete_metrics(result, trace, load_benchmark())
    if error:
        log(f"perfbench: {error}")
        return 2, None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(k, seconds):
    """Runs each workload k times, interleaved, and reports the spreads."""
    spec = load_benchmark()
    workloads = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    failures = 0
    for run in range(k):
        for workload in workloads:
            seed = run + 1
            start = time.monotonic()
            code, result = measure(workload, seed, seconds, trace=False, echo=False)
            took = time.monotonic() - start
            if code != 0 or result is None or not result["correct"]:
                failures += 1
                print(f"run {run + 1}/{k} {workload} seed {seed}: FAILED (exit {code})")
                continue
            print(f"run {run + 1}/{k} {workload} seed {seed}: ok in {took:.1f} s", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    flagged = 0
    for workload in workloads:
        print(f"\n{workload}: metric  n  median  q1  q3  spread  bound")
        for name, series in values[workload].items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD ABOVE BOUND"
                flagged += 1
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:16s} {len(series):2d} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound}{flag}")
    return 1 if failures or flagged else 0


def selftest():
    failures = 0
    for workload in (workload["name"] for workload in load_benchmark()["workloads"]):
        for seed in (1, 2):
            code, result = measure(workload, seed, 4, trace=False, echo=False)
            ok = code == 0 and result is not None and result["correct"]
            print(f"selftest {workload} seed {seed}: {'ok' if ok else 'FAILED'}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["cluster_diurnal", "whatif_serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.workload is None and args.steady is None and not args.selftest:
        parser.error("one of --workload, --steady or --selftest is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    if args.steady is not None:
        return steady(args.steady, args.seconds)
    code, result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return code or 2
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
