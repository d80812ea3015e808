#!/usr/bin/env python3
"""End-to-end solve benchmark of cimanneal.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus the program in perfbench/cpp/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only let the build tool confirm nothing changed. Build output goes to
standard error, so the last line of standard output is the program's
result object. Scratch files (warm-start stores, telemetry exports,
Chrome traces) go to <build dir>/out.

--smoke runs every workload at a small size, twice per trace mode on one
seed, and checks that every metric BENCHMARK.json names is emitted with
its unit and that the seed-determined metrics repeat exactly.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tsp_cold", "tsp_warm", "ising_sparse", "ising_dense"]
# Metrics fixed by the seed: equal across runs of one seed, whatever the
# host speed or the number of solves a run makes.
DETERMINISTIC = {
    "0": ["quality_ratio", "hw_update_cycles"],
    "1": ["anneal.updates", "cim.macs", "cim.mac_bit_reads",
          "cim.writeback_bits"],
}


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "perfbench")


def run_perfbench(binary, out_dir, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def smoke(binary, out_dir):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            tag = f"{workload} trace={trace}"
            found = []
            results = []
            for _ in range(2):
                proc = run_perfbench(binary, out_dir, workload, 7, 1, trace,
                                  ("--scale", "small"))
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    found.append(f"exit {proc.returncode}")
                    break
                results.append(json.loads(lines[-1]))
            for r in results:
                if not r["correct"] or r["failed"] != 0:
                    found.append(f"{r['failed']} failed solves")
                units = {k: v["unit"] for k, v in r["metrics"].items()}
                if units != expected[trace]:
                    found.append("metric names or units differ from "
                                 "BENCHMARK.json")
            if len(results) == 2:
                for name in DETERMINISTIC[trace]:
                    a, b = (r["metrics"][name]["value"] for r in results)
                    if a != b:
                        found.append(f"{name} differs across runs: {a} vs {b}")
            print(f"smoke {tag}: " + ("; ".join(found) if found else "ok"))
            problems += found
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None or
                           args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.smoke:
        return smoke(binary, out_dir)

    proc = run_perfbench(binary, out_dir, args.workload, args.seed, args.seconds,
                      args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
