#!/usr/bin/env python3
"""Gate CI on bench_parallel wall-time regressions.

Compares a fresh bench_parallel JSON against the committed baseline file
(BENCH_parallel.json) phase by phase and fails when any phase regressed by
more than --max-regression (default 25%).

Wall times are only comparable on like hardware, so the baseline file holds
one baseline *per machine shape*:

    {"bench": "bench_parallel",
     "baselines": [ {<run with "hardware_threads": 1>},
                    {<run with "hardware_threads": 4>}, ... ]}

The gate compares the current run against the baseline whose
hardware_threads matches the current machine; when none matches, the
comparison is skipped (exit 0) with instructions for arming the gate on
that shape — run with --add-baseline to merge the fresh run into the file
and commit it. A legacy single-run baseline file (the run object at the top
level) is still accepted.

Phases below --min-seconds in the matching baseline are skipped: at
sub-hundredth-of-a-second scale, scheduler jitter dwarfs any real change.
Phases present only in the current run (new benchmarks without a baseline
yet) are reported but never fail.
"""

import argparse
import json
import sys


def load_baselines(doc):
    """Returns the list of per-shape baseline runs in `doc`."""
    if "baselines" in doc:
        return doc["baselines"]
    # Legacy format: the whole document is one run.
    return [doc]


# "*_fraction" phases report a ratio, not a wall time, and are roughly
# hardware-independent — so they are gated against these absolute caps (on
# every machine shape, baseline or not) instead of the per-shape wall-time
# comparison. checkpoint_overhead_fraction is the acceptance bar for
# periodic background checkpointing: under 5% on top of a plain run.
# converged_iteration_fraction is the semi-naive acceptance bar: an
# iteration past the fixpoint lock costs at most 1/5 of an exhaustive one.
# delta_realign_fraction is the incremental-update bar: merging a ~1% delta
# and re-aligning costs at most 1/3 of an equivalent cold run.
# probe_directory_vs_binary_fraction is the relation-directory access-path
# bar: the per-term relation directory (best-of-N) must never be slower
# than the old binary search over the full adjacency span it replaced.
OVERHEAD_CAPS = {
    "checkpoint_overhead_fraction": 0.05,
    "converged_iteration_fraction": 0.20,
    "delta_realign_fraction": 1.0 / 3.0,
    "probe_directory_vs_binary_fraction": 1.0,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_parallel.json")
    parser.add_argument("current", help="freshly generated bench JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per phase (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--parallel-max-regression",
        type=float,
        default=None,
        help="allowed fractional slowdown for phases recorded with "
        "threads > 1 (default: same as --max-regression); multi-threaded "
        "phases average away scheduler jitter over more work, so they can "
        "be held to a tighter bar than single-thread microphases",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.02,
        help="skip phases whose baseline is below this (noise floor)",
    )
    parser.add_argument(
        "--add-baseline",
        action="store_true",
        help="instead of comparing, merge the current run into the baseline "
        "file as the entry for its hardware_threads value (replacing any "
        "existing entry for that shape) and exit",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    cur_threads = current.get("hardware_threads")
    baselines = load_baselines(baseline_doc)

    if args.add_baseline:
        kept = [b for b in baselines if b.get("hardware_threads") != cur_threads]
        kept.append(current)
        kept.sort(key=lambda b: b.get("hardware_threads") or 0)
        bench_name = baseline_doc.get("bench") or current.get(
            "bench", "bench_parallel"
        )
        merged = {"bench": bench_name, "baselines": kept}
        with open(args.baseline, "w") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
        print(
            f"OK: recorded baseline for hardware_threads={cur_threads} in "
            f"{args.baseline} ({len(kept)} shape(s) total); commit the file "
            f"to arm the gate on this machine shape."
        )
        return 0

    overhead_failures = [
        (p["phase"], p["seconds"], OVERHEAD_CAPS[p["phase"]])
        for p in current["phases"]
        if p["phase"] in OVERHEAD_CAPS and p["seconds"] > OVERHEAD_CAPS[p["phase"]]
    ]
    if overhead_failures:
        for phase, value, cap in overhead_failures:
            print(f"FAIL: {phase} = {value:.4f} exceeds its {cap:.0%} cap")
        return 1

    matching = [b for b in baselines if b.get("hardware_threads") == cur_threads]
    if not matching:
        shapes = sorted(
            b.get("hardware_threads") for b in baselines
        )
        print(
            f"SKIP: no baseline for this machine shape (hardware_threads="
            f"{cur_threads}; baselines exist for {shapes}); wall times are "
            f"not comparable across shapes.\n"
            f"To arm the gate here, run:\n"
            f"    python3 scripts/check_bench_regression.py {args.baseline} "
            f"<fresh run JSON> --add-baseline\n"
            f"and commit the updated {args.baseline} (the bench artifact / "
            f"commit comment JSON is exactly that fresh run)."
        )
        return 0
    baseline = matching[0]

    base = {(p["phase"], p["threads"]): p["seconds"] for p in baseline["phases"]}
    current_keys = {(p["phase"], p["threads"]) for p in current["phases"]}
    # A phase that exists in the baseline but not in the fresh run means a
    # benchmark was dropped or renamed — the gate must not silently pass.
    missing = sorted(k for k in base if k not in current_keys)
    failures = []
    print(f"{'phase':<24} {'threads':>7} {'baseline':>10} {'current':>10} {'ratio':>7}")
    for p in current["phases"]:
        key = (p["phase"], p["threads"])
        seconds = p["seconds"]
        if p["phase"].endswith("_fraction"):
            continue  # a ratio, gated by the absolute caps above
        if key not in base:
            print(f"{key[0]:<24} {key[1]:>7} {'-':>10} {seconds:>10.4f}   (new, no baseline)")
            continue
        allowed = args.max_regression
        if args.parallel_max_regression is not None and p["threads"] > 1:
            allowed = args.parallel_max_regression
        ratio = seconds / base[key] if base[key] > 0 else float("inf")
        note = ""
        # Skip only when both sides sit under the floor — a sub-floor
        # baseline must not excuse a current time well above it.
        if base[key] < args.min_seconds and seconds < args.min_seconds:
            note = "  (below noise floor, not gated)"
        elif seconds > max(base[key], args.min_seconds) * (1.0 + allowed):
            note = "  REGRESSION"
            failures.append((key, base[key], seconds, ratio))
        print(
            f"{key[0]:<24} {key[1]:>7} {base[key]:>10.4f} {seconds:>10.4f} "
            f"{ratio:>6.2f}x{note}"
        )

    if missing:
        print(f"\nFAIL: baseline phase(s) missing from the current run:")
        for phase, threads in missing:
            print(f"  {phase} (threads={threads})")
    if failures:
        print(
            f"\nFAIL: {len(failures)} phase(s) regressed beyond their "
            f"threshold vs {args.baseline} "
            f"(hardware_threads={cur_threads}):"
        )
        for (phase, threads), was, now, ratio in failures:
            print(f"  {phase} (threads={threads}): {was:.4f}s -> {now:.4f}s ({ratio:.2f}x)")
    if failures or missing:
        return 1
    print("\nOK: no phase regressed beyond the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
