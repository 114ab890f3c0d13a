#!/usr/bin/env python3
"""Check one perfbench result against the workload's pinned quality figures.

    python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 0 > out.txt
    python3 scripts/check_perfbench_quality.py W out.txt

Reads the result (the last stdout line of perfbench/run.py) and fails unless
it is "correct" and every pinned metric is within its tolerance: 0.001 for
the quality figures, 0.01 for snapshot_bytes_per_triple. perfbench generates
its ontology pairs from a fixed synth seed, so these figures do not depend on
the run seed or the run length. A change that moves a quality figure changes
what the aligner computes; one that moves snapshot_bytes_per_triple changes
the size of the ontology snapshot format. Either has to say so by updating
the figures here.
"""

import json
import sys

TOLERANCE = 0.001
# Per-metric overrides of TOLERANCE.
TOLERANCES = {"snapshot_bytes_per_triple": 0.01}

# instance precision / recall, relation precision, class precision, as
# computed from the exported TSVs against the generator's gold standard.
# serve_mixed aligns align_cold's pair, so its figures are the same.
ALIGN_COLD_QUALITY = {
    "instance_precision": 0.9000,
    "instance_recall": 0.6746,
    "relation_precision": 0.9286,
    "class_precision": 0.9956,
}
# snapshot_bytes_per_triple is the ontology snapshot's size (format v4)
# over the pair's triples.
PINNED = {
    "align_cold": {
        **ALIGN_COLD_QUALITY,
        "snapshot_bytes_per_triple": 76.8342,
    },
    "realign_chain": {
        "instance_precision": 1.0,
        "instance_recall": 0.4762,
        "relation_precision": 1.0,
        "class_precision": 0.75,
        "snapshot_bytes_per_triple": 79.2510,
    },
    "serve_mixed": {
        **ALIGN_COLD_QUALITY,
        "snapshot_bytes_per_triple": 76.8342,
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
        elif abs(got - want) > TOLERANCES.get(name, TOLERANCE):
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
