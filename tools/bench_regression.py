#!/usr/bin/env python3
"""Guard the speedups recorded by bench/micro_kernels.

Compares a fresh ``bench_micro_kernels`` JSON run against the committed
``BENCH_micro_kernels.json`` baseline. Raw throughput is not portable
across machines (CI runners differ from the box that recorded the
baseline), so the guarded quantity is the *speedup ratio* of each fast
benchmark over its reference twin within the same run:

    ratio = items_per_second(fast) / items_per_second(reference)

or, for a pair timed inside one benchmark (the ReLU kernel pair, whose
two sides take turns every iteration), that benchmark's ``speedup``
counter: batched pass rate over per-genome pass rate within one
repetition.

One repetition swings far past the tolerance on a shared host, so both
files come from 9 interleaved repetitions, and each ratio uses the best
one: the ``_max`` aggregate bench/micro_kernels.cc registers.
Other tenants only ever slow a repetition down, and in clusters, so
the median of 9 still crossed the tolerance between runs where the
best of 9 held. Baseline and CI use one command (the baseline's
``context.command``):

    bench_micro_kernels \
        --benchmark_filter='PopulationInference|GenerationInference|CheckpointLoad|ChampionLoad' \
        --benchmark_min_time=0.15 --benchmark_repetitions=9 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_report_aggregates_only=true \
        --benchmark_out=OUT.json --benchmark_out_format=json

Two kinds of twin are guarded: a batched inference kernel over its
per-genome path, and the champion-only snapshot read serve does over
the full checkpoint parse. The job fails when a ratio drops more than
the tolerance (default 20%) below the baseline's ratio — i.e. when a
change erodes what the fast path buys, regardless of how fast the
runner happens to be.

Serve benchmarks (``bench_serve_loadtest`` JSON, detected by the
``"bench": "serve_loadtest"`` tag) are guarded the same way, on two
within-run ratios:

    goodput  = ok_per_second / offered rate    (must not sag)
    tail     = p99_ms / p50_ms                 (must not balloon)

Usage:
    bench_regression.py BASELINE.json NEW.json [--tolerance 0.2]
        [--tail-tolerance 0.5]
"""

import argparse
import json
import sys

# (label, reference benchmark, fast benchmark, guarded) twins measured
# by bench/micro_kernels.cc; a reference of None names a paired
# benchmark whose own "speedup" counter is the ratio. For the inference
# pairs items_per_second counts individual inferences on both sides, so
# the ratio is the population-inference speedup. The generation-grain pair is printed
# but not guarded: it is dominated by compile cost shared by both
# paths, so its ratio sits near 1x where run-to-run noise exceeds any
# real regression signal. The champion-load pair counts one snapshot
# per item: the ratio is how much faster serve's head parse is than
# resume's full parse of the same snapshot.
PAIRS = [
    ("kernel pop=128", None, "BM_PopulationInferenceKernelPaired/128",
     True),
    ("kernel pop=256", None, "BM_PopulationInferenceKernelPaired/256",
     True),
    ("sigmoid pop=128", "BM_PopulationInference/128",
     "BM_PopulationInferenceBatched/128", True),
    ("sigmoid pop=256", "BM_PopulationInference/256",
     "BM_PopulationInferenceBatched/256", True),
    ("generation grain", "BM_GenerationInferencePerGenome",
     "BM_GenerationInferenceBatched", False),
    ("champion load", "BM_CheckpointLoad", "BM_ChampionLoad", True),
]


def load_best(path):
    """The ``_max`` aggregate row of each benchmark, keyed by run name."""
    with open(path) as f:
        report = json.load(f)
    best = {}
    for bench in report.get("benchmarks", []):
        if bench.get("aggregate_name") == "max" and \
                bench.get("items_per_second"):
            best[bench["run_name"]] = bench
    if not best:
        sys.exit(f"error: {path} has no _max aggregates with "
                 "items_per_second; record it with the command above")
    return best


def ratio(best, reference, fast):
    if fast not in best:
        return None
    if reference is None:
        return best[fast].get("speedup")
    if reference not in best:
        return None
    return (float(best[fast]["items_per_second"]) /
            float(best[reference]["items_per_second"]))


def serve_ratios(report):
    """(goodput fraction, p99/p50 tail ratio) of a serve-bench run."""
    client = report["client"]
    config = report["config"]
    offered = config["rate_per_connection"] * config["connections"]
    latency = client["latency"]
    return (client["ok_per_second"] / offered,
            latency["p99_ms"] / latency["p50_ms"])


def check_serve(base, fresh, tolerance, tail_tolerance):
    """Guard a serve_loadtest pair; returns failure strings."""
    base_goodput, base_tail = serve_ratios(base)
    fresh_goodput, fresh_tail = serve_ratios(fresh)
    failures = []

    goodput_floor = base_goodput * (1.0 - tolerance)
    status = "ok" if fresh_goodput >= goodput_floor else "REGRESSION"
    print(f"{'serve goodput':<18} {base_goodput:>8.2f}x "
          f"{fresh_goodput:>8.2f}x {goodput_floor:>6.2f}x  {status}")
    if fresh_goodput < goodput_floor:
        failures.append(
            f"serve goodput: {fresh_goodput:.2f} of offered QPS fell "
            f"below {goodput_floor:.2f} (baseline {base_goodput:.2f} - "
            f"{tolerance:.0%})")

    tail_ceiling = base_tail * (1.0 + tail_tolerance)
    status = "ok" if fresh_tail <= tail_ceiling else "REGRESSION"
    print(f"{'serve p99/p50':<18} {base_tail:>8.2f}x "
          f"{fresh_tail:>8.2f}x {tail_ceiling:>6.2f}x  {status}")
    if fresh_tail > tail_ceiling:
        failures.append(
            f"serve tail: p99/p50 {fresh_tail:.2f}x grew past "
            f"{tail_ceiling:.2f}x (baseline {base_tail:.2f}x + "
            f"{tail_tolerance:.0%})")

    for counter in ("decode_errors", "unanswered"):
        if fresh["client"][counter]:
            failures.append(
                f"serve: {fresh['client'][counter]} {counter}")
    if fresh["server"]["protocol_errors"]:
        failures.append(
            f"serve: {fresh['server']['protocol_errors']} "
            "protocol errors")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="JSON from the current build")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional ratio drop "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--tail-tolerance", type=float, default=0.5,
                        help="allowed fractional p99/p50 growth for "
                             "serve benches (default 0.5 = 50%%)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base_report = json.load(f)
    if base_report.get("bench") == "serve_loadtest":
        with open(args.fresh) as f:
            fresh_report = json.load(f)
        if fresh_report.get("bench") != "serve_loadtest":
            sys.exit(f"error: {args.fresh} is not a serve_loadtest "
                     "report")
        print(f"{'pair':<18} {'baseline':>9} {'current':>9} "
              f"{'limit':>7}")
        failures = check_serve(base_report, fresh_report,
                               args.tolerance, args.tail_tolerance)
        if failures:
            print("\nbench regression:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nall serve ratios within tolerance")
        return 0

    base = load_best(args.baseline)
    fresh = load_best(args.fresh)

    failures = []
    print(f"{'pair':<18} {'baseline':>9} {'current':>9} {'floor':>7}")
    for label, reference, fast, guarded in PAIRS:
        base_ratio = ratio(base, reference, fast)
        fresh_ratio = ratio(fresh, reference, fast)
        if base_ratio is None or fresh_ratio is None:
            if guarded:
                where = args.baseline if base_ratio is None else args.fresh
                failures.append(f"{label}: benchmarks missing from {where}")
            continue
        if not guarded:
            print(f"{label:<18} {base_ratio:>8.2f}x {fresh_ratio:>8.2f}x "
                  f"{'—':>7}  info only")
            continue
        floor = base_ratio * (1.0 - args.tolerance)
        status = "ok" if fresh_ratio >= floor else "REGRESSION"
        print(f"{label:<18} {base_ratio:>8.2f}x {fresh_ratio:>8.2f}x "
              f"{floor:>6.2f}x  {status}")
        if fresh_ratio < floor:
            failures.append(
                f"{label}: speedup {fresh_ratio:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_ratio:.2f}x - "
                f"{args.tolerance:.0%})")

    if failures:
        print("\nbench regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall speedup ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
