#!/usr/bin/env python3
"""The repository benchmark: builds the worker from source, runs one workload and prints
its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The worker is built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. With --trace 0 the measured seconds are split over
PROCESSES fresh worker processes, whose samples are pooled, so that between-process variance
is part of every run; the last line of standard output is a JSON object with the end-to-end
metrics. With --trace 1 one worker runs an untraced and a traced half and the JSON carries
the per-layer metrics. Earlier lines give provenance, each metric with its unit and sample
count, and a `# detail` JSON with the workload-named metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # Keep the source tree free of __pycache__.
import metrics  # noqa: E402

WORKLOADS = ("classic_fork", "odf_fault_storm", "snapshot_server", "reclaim_pressure")
PROCESSES = 4
# The worker processes of one run must end within this many seconds of the build.
RUN_BUDGET_S = 150
BUILD_TYPE = "RelWithDebInfo"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures (once) and builds the worker; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a repository checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        result = subprocess.run(["cmake", "-S", HERE, "-B", directory,
                                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], stdout=sys.stderr, check=False)
        if result.returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", directory, "--target", "perfbench_worker",
                             "-j", jobs], stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(directory, "perfbench_worker")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code measured even
    where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def run_worker(worker, args, seed, seconds, trace, prefix, deadline):
    command = [worker, "--workload", args.workload, "--seed", str(seed), "--seconds",
               repr(seconds), "--trace", str(trace), "--out", prefix]
    process = subprocess.Popen(command, stdout=sys.stderr)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("worker exceeded the run's time budget")
    if code != 0:
        fail(f"worker exited with code {code}", 3 if code == 3 else 1)
    return metrics.WorkerResult(prefix)


def print_metrics(table):
    for name, metric in table.items():
        value = "withheld (<10 samples beyond)" if metric.value is None else f"{metric.value:.6g}"
        count = "" if metric.n is None else f" n={metric.n}"
        print(f"  {name:34s} {value:>14s} {metric.unit}{count}")


def main():
    args = parse_args()
    directory = build_dir()
    worker = build(directory)
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = os.path.join(directory, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(runs, ignore_errors=True)
    os.makedirs(runs)
    try:
        if args.trace:
            results = [run_worker(worker, args, args.seed * PROCESSES, args.seconds, 1,
                                  os.path.join(runs, "w0"), deadline)]
        else:
            results = [run_worker(worker, args, args.seed * PROCESSES + i,
                                  args.seconds / PROCESSES, 0, os.path.join(runs, f"w{i}"),
                                  deadline)
                       for i in range(PROCESSES)]
        report(args, results)
    finally:
        shutil.rmtree(runs, ignore_errors=True)


def report(args, results):
    env = dict(results[0].doc["env"])
    env.update({"commit": git_commit(), "source_sha256": source_digest(),
                "worker_seeds": [r.doc["seed"] for r in results], "processes": len(results),
                "seconds": args.seconds, "trace": args.trace})
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} processes={len(results)}")
    print("# env " + json.dumps(env, sort_keys=True))

    failures = {}
    attempted = failed = 0
    for result in results:
        for name, count in result.check_failures().items():
            failures[name] = failures.get(name, 0) + count
        a, f = result.counts()
        attempted += a
        failed += f

    if args.trace:
        phase_names = ("untraced", "traced")
        metric_table = metrics.per_layer(results[0])
        detail = {"per_layer": {k: m.as_json() for k, m in metric_table.items()}}
    else:
        phase_names = ("measured",)
        common, named = metrics.end_to_end(args.workload, results)
        metric_table = common
        detail = {"workload_metrics": {k: m.as_json() for k, m in named.items()}}
        print("# workload metrics (name, value, unit, samples):")
        print_metrics(named)
    detail["phases"] = {r.doc["seed"]: {p: {k: r.phases[p][k] for k in
                                            ("wall_s", "attempted", "failed", "ops", "scalars")}
                                        for p in phase_names} for r in results}
    detail["check_failures"] = failures
    print("# metrics (name, value, unit, samples):")
    print_metrics(metric_table)
    print("# detail " + json.dumps(detail, sort_keys=True))

    missing = [name for name, m in metric_table.items() if m.value is None]
    if missing:
        fail("metrics could not be computed: " + ", ".join(missing))
    if failures:
        print("# output checks failed: " + json.dumps(failures, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metric_table.items()},
    }))


if __name__ == "__main__":
    main()
