#!/usr/bin/env python3
"""Repo benchmark: build the runner from source, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every run configures and builds
perfbench_runner (Release) under .bench_build/perfbench; after the first,
that only re-checks the build. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics of BENCHMARK.json and --trace 1 its per-layer metrics. The exit code
is 0 only when every job's output matched its oracle. `--workload all` runs
every workload in turn, each printing its own summary and result line.
See README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("pagerank-dense", "pagerank-serial", "bc-swath", "sssp-grid-ckpt")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure, then (re)build only the runner and its libraries."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench_runner", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench_runner"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(runner, workload, seed, seconds, trace):
    """Run one workload; print its summary and result line; return correctness."""
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    spans = None
    if trace:
        spans = BUILD / "runs" / f"spans-{workload}-seed{seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"runner printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])

    metrics = report["metrics"]
    want = expected_metrics(trace)
    correct = report["correct"] and proc.returncode == 0
    if report["correct"] and sorted(metrics) != sorted(want):
        print(f"perfbench: metric names {sorted(metrics)} != BENCHMARK.json {sorted(want)}",
              file=sys.stderr)
        correct = False

    print(f"perfbench: workload={workload} seed={seed} trace={trace} "
          f"git_sha={report['git_sha']} build_type={report['build_type']} "
          f"nproc={report['nproc']} lanes={report['lanes']} "
          f"job_samples={report['job_samples']} job_s={report['job_s']:.4f} "
          f"oracle_s={report['oracle_s']:.4f}" +
          (f" spans={spans.relative_to(ROOT)}" if spans else ""))
    for name in want:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    runner = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(runner, w, args.seed, args.seconds, args.trace) for w in workloads]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
