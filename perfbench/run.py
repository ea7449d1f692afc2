#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run builds perfbench/esa_bench
(and the prochlo library it links) from source into $CARGO_TARGET_DIR, or
.bench_build when that is unset.  Each run gets a private scratch directory
under .bench_runs/, removed on exit, and appends a record (host, commit,
seed, run length, result) under .bench_results/<workload>/ for compare.py.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end metrics
BENCHMARK.json names (--trace 0) or its per-layer metrics (--trace 1; a layer
that is not on the workload's path, as OFF_PATH lists it, reads 0).  Exit status: 0 when the run was
correct, 1 when a check failed, 2 when the benchmark could not run (no
result line then).
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("ingest-acked", "epoch-drain", "cluster-epoch")
# Per-layer metrics (by layer prefix) a workload's path does not touch; a
# traced run reports them as 0.  Any other metric a run does not report is
# an error.
OFF_PATH = {
    "ingest-acked": ("spool.", "shuffler.", "analyzer.", "crypto.", "pipeline.", "cluster."),
    "epoch-drain": ("connection.", "wire.", "runtime.", "ingest.", "wal.", "cluster."),
    "cluster-epoch": ("spool.", "shuffler.", "analyzer.", "crypto.", "pipeline."),
}
RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds esa_bench; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "esa_bench", "-j", jobs]]
        for step in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return None
    return os.path.join(build_dir, "esa_bench")


def cache_value(build_root, key):
    try:
        with open(os.path.join(build_root, "perfbench", "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    if not os.path.exists(".git"):  # a parent directory's repository is not ours
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def tree_sha256():
    """Digest of the sources the benchmark builds: identifies the code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", os.path.relpath(BENCH_DIR)]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def select_metrics(measured, wanted, off_path):
    """The metrics BENCHMARK.json asks for, in its order; None if one that
    is on the workload's path is missing."""
    selected = {}
    for spec in wanted:
        name = spec["name"]
        if name in measured:
            selected[name] = measured[name]
        elif name.startswith(off_path):
            selected[name] = {"value": 0, "unit": spec["unit"]}
        else:
            log(f"esa_bench did not report {name}")
            return None
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(BENCHMARK_JSON) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return 2

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    record_dir = os.path.join(".bench_results", args.workload)
    os.makedirs(record_dir, exist_ok=True)
    record_base = os.path.join(
        record_dir, f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(".bench_runs", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_runs")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--spans-out", record_base + ".spans.jsonl"]

    child = None

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        started = time.monotonic()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        wall_s = time.monotonic() - started
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.splitlines()
    result = parse_result(lines[-1]) if lines else None
    if result is None or child.returncode not in (0, 1):
        sys.stdout.write(stdout)
        log(f"esa_bench exited {child.returncode} without a result")
        return 2
    measured = result["metrics"]
    result["metrics"] = select_metrics(measured, wanted,
                                       OFF_PATH[args.workload] if args.trace else ())
    if result["metrics"] is None:
        return 2

    facts = {}
    for line in lines[:-1]:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            facts.setdefault(key, value)
    host = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": f"{cache_value(build_root, 'CMAKE_CXX_COMPILER')} {facts.get('compiler', '')}".strip(),
        "flags": facts.get("lib_flags", "unknown"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "utc": stamp,
        "commit": commit(),
        "tree_sha256": tree_sha256(),
        "host": host,
        "facts": facts,
        "measured": measured,
        "result": result,
    }
    with open(record_base + ".json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    print(f"# host: {host['cpu_model']}, nproc {host['nproc']}, {host['compiler']}, "
          f"flags {host['flags']}")
    print(f"# commit: {record['commit']} (sources {record['tree_sha256'][:16]})")
    print(f"# run: workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; record {record_base}.json")
    print(json.dumps(result), flush=True)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
