#!/usr/bin/env python3
"""End-to-end benchmark of beepmis, one workload per invocation.

    python3 bench/e2e/run.py --workload chaos-er-1e6 --seed 1 --seconds 10 --trace 0

Builds bench/e2e (its own CMake project over ../../src), generates the
workload's input graph from --seed in a separate process, then measures the
workload in a process of its own so that its peak RSS is its own. With
--trace 1 it measures twice: untraced (the end-to-end numbers and the
overhead baseline) and traced over the same instances (the per-layer
numbers), and fails unless both runs produced the same checksum.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1). The exit
code is 0 only if every output verified. --record FILE also appends the
result, checksum and host facts to FILE as one JSON line, for compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "beepmis_e2e"


def run(cmd, **kwargs):
    """Runs cmd to completion; its standard output goes to ours unless redirected."""
    sys.stdout.flush()
    return subprocess.run([str(c) for c in cmd], check=False, **kwargs)


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(str(c) for c in cmd))


def measure(args, trace, extra):
    """One `beepmis_e2e run` process; returns (exit code, result document)."""
    suffix = "traced" if trace else "untraced"
    out = OUT / f"{args.workload}-{suffix}.json"
    out.unlink(missing_ok=True)
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", int(trace), "--out", out] + extra
    if trace:
        cmd += ["--trace-out", OUT / f"trace-{args.workload}.json"]
    code = run(cmd).returncode
    if not out.exists():
        sys.exit(f"beepmis_e2e run exited {code} without a result")
    return code, json.loads(out.read_text())


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result to this JSONL file")
    args = parser.parse_args()

    build()
    OUT.mkdir(exist_ok=True)
    extra, prepared = [], {}
    graph = OUT / f"{args.workload}.bmcsr"
    if args.workload != "sweep-mixed-small":
        proc = run([BINARY, "prepare", "--workload", args.workload, "--seed", args.seed,
                    "--out", graph], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("prepare failed")
        prepared = json.loads(proc.stdout.splitlines()[-1])
        # Flush the input to disk now, so its write-back does not overlap the run.
        fd = os.open(graph, os.O_RDONLY)
        os.fsync(fd)
        os.close(fd)
        print(f"prepared {graph.name}: n={prepared['n']} m={prepared['m']} "
              f"{prepared['bytes']} bytes, generated in {prepared['generate_s']:.3f} s")
        extra = ["--graph", graph]

    try:
        code, untraced = measure(args, False, extra)
        runs = [(code, untraced)]
        if args.trace:
            runs.append(measure(args, True, extra + ["--instances", untraced["instances"]]))
    finally:
        graph.unlink(missing_ok=True)

    host = untraced["host"]
    print(f"host: nproc {host['nproc']}, affinity {host['affinity_cpus']} cpus, "
          f"cgroup cpu.max '{host['cgroup_cpu_max']}', avx512 {host['avx512']}, "
          f"{host['compiler']}, {host['build_type']}, threads used {untraced['threads']}")
    correct = all(code == 0 and doc["failed"] == 0 for code, doc in runs)
    if args.trace:
        traced = runs[1][1]
        same = traced["checksum"] == untraced["checksum"]
        print(f"checksum untraced {untraced['checksum']} traced {traced['checksum']}: "
              + ("identical" if same else "DIFFERENT"))
        correct = correct and same
        available = dict(traced["per_layer"])
        if prepared:
            available["graph.generate_s"] = {"value": prepared["generate_s"], "unit": "s"}
        solve = [doc["end_to_end"]["solve_s"]["value"] for doc in (traced, untraced)]
        ratio = solve[0] / solve[1]
        available["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        print(f"trace overhead: traced/untraced solve_s = {ratio:.4f}; "
              f"{len(traced['warnings'])} reconciliation warning(s)")
        wanted = spec["per_layer"]
    else:
        available = untraced["end_to_end"]
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing:
        sys.exit("metrics missing from the result: " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": sum(doc["attempted"] for _, doc in runs),
        "failed": sum(doc["failed"] for _, doc in runs),
        "metrics": {m["name"]: {"value": available[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "checksum": untraced["checksum"],
                  "rounds": untraced["rounds"], "host": host, "threads": untraced["threads"],
                  **result}
        with args.record.open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
