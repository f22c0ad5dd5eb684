#!/usr/bin/env python3
"""Host-time benchmark of e3's two product surfaces.

Builds hostbench/ (and the e3 libraries it drives, from ../src) into
.bench_build/hostbench, then runs one workload:

    python3 hostbench/run.py --workload serve.hot --seed 1 \\
        --seconds 30 --trace 0

Workloads: evolve.mcar.inax (runExperiment, what `e3_cli run` calls)
and serve.hot, serve.churn (ChampionServer, what `e3_cli serve` runs,
under open-loop load over loopback TCP). evolve.lander also runs but is
left out of BENCHMARK.json as too sensitive to a shared host's load.

stdout carries a `# context` line (machine, compiler, build type,
source revision, load average before the run), the benchmark's progress
lines, and last one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics of a separate traced run with --trace 1. The exit code is 0
only when every correctness check passed.

Other modes:
    python3 hostbench/run.py --self-test      # benchmark arithmetic
    python3 hostbench/run.py --write-golden   # re-record golden.txt
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "e3_hostbench")
GOLDEN = os.path.join(HERE, "golden.txt")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hostbench: e3 sources not found next to", HERE)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("hostbench: build step failed:", " ".join(step))
            return False
    return True


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """Git commit when the tree is a checkout, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git " + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256 " + digest.hexdigest()[:16]


def context():
    try:
        with open("/proc/loadavg") as f:
            load = f.read().split()[:3]
    except OSError:
        load = []
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "revision": source_revision(), "loadavg_before": load}


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args):
    try:
        return subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("hostbench: run exceeded", RUN_TIMEOUT_S, "s")
        return None


def write_golden():
    header = [line for line in open(GOLDEN) if line.startswith("#")]
    lines = []
    for workload in ("evolve.lander", "evolve.mcar.inax"):
        scratch = os.path.join(ROOT, ".bench_build", "golden-%d" % os.getpid())
        done = run_binary(["--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", "0", "--scratch",
                           scratch, "--golden", GOLDEN, "--write-golden"])
        shutil.rmtree(scratch, ignore_errors=True)
        if done is None or done.returncode:
            return 1
        lines.append(done.stdout.strip() + "\n")
    with open(GOLDEN, "w") as f:
        f.writelines(header + lines)
    log("hostbench: wrote", GOLDEN)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode
    if args.write_golden:
        return write_golden()
    if not args.workload or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload, a seed >= 0 and --seconds > 0 are needed")

    print("# context " + json.dumps(context()), flush=True)
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    done = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(args.trace), "--scratch", scratch,
                       "--golden", GOLDEN])
    shutil.rmtree(scratch, ignore_errors=True)
    if done is None:
        return 1
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        log("hostbench: benchmark exited with", done.returncode)
        return done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("hostbench: last line is not a result:", lines[-1])
        return 1
    for line in lines[:-1]:
        print(line)
    expected = declared_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        log("hostbench: metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ set(expected)))
        result["correct"] = False
    for name, metric in result["metrics"].items():
        print("%-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
