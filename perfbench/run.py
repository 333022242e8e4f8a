#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload train_msd --seed 1 --seconds 20 --trace 0
      One run. The last stdout line is the result object; with --trace 0 it
      holds every end-to-end metric of BENCHMARK.json, with --trace 1 every
      per-layer metric. Exit status is non-zero when an output check fails.

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced and traced. Prints each end-to-end metric
      under its workload's own name (train_s, eval_windows_per_s,
      serve_p99_us.high, ...) with its unit, the tracing overhead (traced
      minus untraced) and whether tracing changed any output digest; writes
      .bench_out/summary.json.

  python3 perfbench/run.py --test
      Builds and runs the benchmark's own tests (span recorder, percentile
      rule, train_msd digest at 1 vs nproc threads).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; traces and detail files go to .bench_out. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
# Runs with --workload and --all but is not in BENCHMARK.json: too unsteady
# on a shared VM to gate (see NOTES.md). Its layers are measured in every
# traced run.
EXTRA_WORKLOADS = [{"name": "serve_open",
                    "why": "open-loop Poisson requests at three fixed rates against "
                           "BatchServer with a 3x256 MSD actor from load_servable"}]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(tests=False):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench-tests" if tests else "perfbench")
    jobs = str(os.cpu_count() or 1)
    # Configured every time (about a second, outside any measurement) so a
    # changed build file never meets a stale build tree.
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if tests:
        configure.append("-DPERFBENCH_TESTS=ON")
    subprocess.run(configure, check=True, stdout=sys.stderr)
    target = [] if tests else ["--target", "perfbench_runner"]
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, *target],
                   check=True, stdout=sys.stderr)
    return build_dir


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(runner, workload, seed, seconds, trace):
    cmd = [runner, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"runner printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail_path = os.path.join(OUT_DIR, f"detail_{workload}_s{seed}_t{trace}.json")
    with open(detail_path) as f:
        detail = json.load(f)
    return proc.returncode, result, detail


def check_names(contract, workload, result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names.

    A workload outside BENCHMARK.json reports its untraced times on the wall
    clock under their own names, so only its traced line is checked."""
    gated = any(w["name"] == workload for w in contract["workloads"])
    if not trace and not gated:
        return
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in contract[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise RuntimeError(f"metric names/units differ from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}, unit mismatch {units}")


def one(args):
    contract = load_contract()
    runner = os.path.join(build(), "perfbench_runner")
    code, result, _ = run_binary(runner, args.workload, args.seed, args.seconds,
                                 args.trace)
    check_names(contract, args.workload, result, args.trace)
    print(json.dumps(result), flush=True)
    return code


def summary(args):
    contract = load_contract()
    seconds = args.seconds or contract["run_seconds"]
    runner = os.path.join(build(), "perfbench_runner")
    report = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in contract["workloads"] + EXTRA_WORKLOADS:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            code, result, detail = run_binary(runner, name, args.seed, seconds, trace)
            check_names(contract, name, result, trace)
            ok = ok and code == 0 and result["correct"]
            runs[trace] = (result, detail)
        untraced, traced = runs[0][1], runs[1][1]
        print(f"\n== {name}: {w['why']}")
        for metric, m in runs[0][0]["metrics"].items():
            print(f"  {metric:<24} {m['value']:>16.6g} {m['unit']}")
        for metric, m in untraced["detail"].items():
            print(f"  {metric:<24} {m['value']:>16.6g} {m['unit']}")
        print("  tracing overhead (traced - untraced):")
        overhead = {}
        for metric, m in untraced["end_to_end"].items():
            if metric == "peak_rss_mb":
                continue  # the traced run also holds the other workloads
            delta = traced["end_to_end"][metric]["value"] - m["value"]
            share = delta / m["value"] if m["value"] else float("nan")
            overhead[metric] = {"delta": delta, "share": share, "unit": m["unit"]}
            print(f"    {metric:<22} {delta:>+14.6g} {m['unit']} ({share:+.1%})")
        same = untraced["digests"][name] == traced["digests"][name]
        print(f"  output digest untraced {untraced['digests'][name]}, traced "
              f"{traced['digests'][name]}: {'identical' if same else 'DIFFERENT'}")
        ok = ok and same
        report["workloads"][name] = {
            "end_to_end": runs[0][0]["metrics"], "detail": untraced["detail"],
            "per_layer": runs[1][0]["metrics"], "tracing_overhead": overhead,
            "digest_identical_when_traced": same}
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nsummary written to {OUT_DIR}/summary.json; checks "
          f"{'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def tests():
    build_dir = build(tests=True)
    return subprocess.run(["ctest", "--test-dir", build_dir, "--output-on-failure"],
                          stdout=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    try:
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.test:
            return tests()
        if args.all:
            return summary(args)
        if not args.workload or not args.seconds:
            parser.error("--workload and --seconds are required")
        return one(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
