#!/usr/bin/env python3
"""Check one perfbench result against the workload's pinned quality figures.

    python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 0 > out.txt
    python3 scripts/check_perfbench_quality.py W out.txt

Reads the result (the last stdout line of perfbench/run.py) and fails unless
it is "correct" and, for the workloads with pinned figures, every quality
metric is within 0.001 of its pinned value. perfbench generates its ontology
pairs from a fixed synth seed, so these figures do not depend on the run seed
or the run length: a change that moves them changes what the aligner
computes, and has to say so by updating the figures here.
"""

import json
import sys

TOLERANCE = 0.001

# instance precision / recall, relation precision, class precision, as
# computed from the exported TSVs against the generator's gold standard.
PINNED = {
    "align_cold": {
        "instance_precision": 0.9000,
        "instance_recall": 0.6746,
        "relation_precision": 0.9286,
        "class_precision": 0.9956,
    },
    "realign_chain": {
        "instance_precision": 1.0,
        "instance_recall": 0.4762,
        "relation_precision": 1.0,
        "class_precision": 0.75,
    },
}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, path = sys.argv[1], sys.argv[2]
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print(f"FAIL: {workload}: {path} holds no result")
        return 1
    result = json.loads(lines[-1])
    failures = []
    if not result.get("correct"):
        failures.append("run is not correct")
    metrics = result.get("metrics", {})
    for name, want in PINNED.get(workload, {}).items():
        got = metrics.get(name, {}).get("value")
        if got is None:
            failures.append(f"{name} missing")
        elif abs(got - want) > TOLERANCE:
            failures.append(f"{name} = {got:.4f}, pinned {want:.4f}")
        else:
            print(f"{workload} {name} = {got:.4f} (pinned {want:.4f})")
    if failures:
        for failure in failures:
            print(f"FAIL: {workload}: {failure}")
        return 1
    print(f"OK: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
