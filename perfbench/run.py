#!/usr/bin/env python3
"""One benchmark run of PARIS: build, generate inputs, measure, report.

    python3 perfbench/run.py --workload align_cold|realign_chain|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a PARIS source tree. The steps:

1. Build `perfbench_gen` and `perfbench_run` (Release) into `.bench_build/`;
   a no-op once built.
2. Generate the workload's inputs from the seed with `perfbench_gen`, in a
   process of its own, into `.bench_data/<workload>/`. This happens on every
   run: inputs and snapshots made by an earlier run, perhaps by another
   build of the program, are never reused.
3. Run `perfbench_run` on those inputs for S seconds. With `--trace 0` it
   reports the end-to-end metrics of BENCHMARK.json, with `--trace 1` the
   per-layer ones (a layer the workload does not exercise reads 0).
4. Print a fingerprint of every generated input file, then the result as
   the last stdout line: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero, printing no result, when the build, the generator or the
run fails; a run whose output checks fail prints its result and exits 1.
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
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(ROOT, ".bench_data")
WORKLOADS = ("align_cold", "realign_chain", "serve_mixed")
# Compile jobs; bounded so the build stays within a small memory budget.
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, log_path, timeout):
    with open(log_path, "a") as log:
        done = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"command failed: {' '.join(command)}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src", "paris"))):
        fail(f"no PARIS source tree at {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, 300)
    run_logged(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
                "perfbench_gen", "perfbench_run"], log, 840)


def generate(workload, seed):
    data = os.path.join(DATA, workload)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    done = subprocess.run(
        [os.path.join(BUILD, "perfbench_gen"), workload, str(seed), data],
        timeout=150, cwd=ROOT)
    if done.returncode != 0:
        fail(f"input generation failed for {workload} seed {seed}")
    return data


def fingerprints(data):
    """sha256 prefixes of every generated input and ontology snapshot, and
    one over the inputs alone: the snapshots are written by the program
    under test, so a change to their format moves their hashes but not the
    inputs' fingerprint. Result snapshots are left out: they embed
    wall-clock timings."""
    digests = {}
    for sub in ("inputs", "derived"):
        for name in sorted(os.listdir(os.path.join(data, sub))):
            if sub == "derived" and not name.endswith(".snap"):
                continue
            digest = hashlib.sha256()
            with open(os.path.join(data, sub, name), "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
            digests[f"{sub}/{name}"] = digest.hexdigest()[:16]
    inputs = {k: v for k, v in digests.items() if k.startswith("inputs/")}
    overall = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    return overall.hexdigest()[:16], digests


def declared_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    data = generate(args.workload, args.seed)
    done = subprocess.run(
        [os.path.join(BUILD, "perfbench_run"), "--workload", args.workload,
         "--data", data, "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + 150,
        cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result (exit {done.returncode})")

    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name} reported in {metrics[name]['unit']}, declared {unit}")
    result["metrics"] = dict(sorted(metrics.items()))

    overall, digests = fingerprints(data)
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "fingerprint": overall, "files": digests}))
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
