#!/usr/bin/env bash
# Crash-recovery test for paris_align's checkpoint/auto-resume machinery.
#
#   crash_recovery_test.sh PARIS_GENERATE PARIS_ALIGN
#
# SIGKILLs checkpointing alignment runs at deterministic pseudo-random
# points (plus a few simulated crashes injected *inside* the durable-write
# sequence via PARIS_FAULT_INJECT=...:abort), resumes each time with
# --auto-resume, and asserts that the final completed run produces output
# byte-identical to an uninterrupted run — across worker-thread counts.
# Timings and the "resumed after iteration" notice are masked; everything
# else must match to the byte. Each run's stdout and stderr go to logs/
# under the work directory; a failure keeps that directory, prints its path
# and the tail of the failing run's logs.
set -u

GENERATE=$(realpath "$1")
ALIGN=$(realpath "$2")

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"
# Every run writes its stdout and stderr to logs/NAME.out and logs/NAME.err;
# LOG names the run a failure is about.
mkdir logs
LOG=""

# Keeps the work directory and shows the tail of the run that failed.
fail() {
  trap - EXIT
  echo "FAIL: $*" >&2
  echo "work directory kept: $WORK" >&2
  if [ -n "$LOG" ]; then
    for f in "$LOG.out" "$LOG.err"; do
      [ -f "$f" ] || continue
      echo "--- tail of $f ---" >&2
      tail -n 20 "$f" >&2
    done
  fi
  exit 1
}

# Scale 128 stretches one run to ~0.7-1.2s (RelWithDebInfo build, 4
# vCPUs) so the kill schedule below (0.05-0.64s) actually lands mid-run
# instead of after a short run has already finished; scale 64 left as few
# as 3 of the 10 kills landing.
LOG=logs/generate
"$GENERATE" restaurant rest 128 > "$LOG.out" 2> "$LOG.err" || fail "generate"

# Deterministic kill schedule: same seed, same delays, every run.
RANDOM=20260807

# Masks wall-clock, the resume notice, and the output prefix (the reference
# and final runs write to different prefixes) so stdout compares
# byte-for-byte between a cold run and a recovered one.
mask() {
  sed -E -e 's/ in [0-9]+\.[0-9]{2}s / in X.XXs /' \
         -e '/^resumed after iteration /d' \
         -e 's/^wrote [A-Za-z0-9_]+_\{/wrote OUT_{/'
}

align() {
  "$ALIGN" rest_left.nt rest_right.nt --max-iterations 3 --threads "$1" \
    "${@:2}"
}

total_kills=0
for threads in 0 4; do
  # --- uninterrupted reference ---------------------------------------------
  LOG=logs/ref_t$threads
  align "$threads" --output ref > "$LOG.out" 2> "$LOG.err" \
    || fail "reference run (threads=$threads)"
  mask < "$LOG.out" > ref_stdout.txt

  ckpt="ckpt_$threads"

  # --- SIGKILL at randomized points, resuming each time --------------------
  for i in 1 2 3 4 5; do
    delay=$(awk -v r=$RANDOM 'BEGIN { printf "%.3f", 0.05 + (r % 1000) / 1700 }')
    LOG=logs/kill_t${threads}_$i
    align "$threads" --checkpoint-dir "$ckpt" --checkpoint-interval 0.001 \
      --auto-resume --output crash > "$LOG.out" 2> "$LOG.err" &
    pid=$!
    sleep "$delay"
    if kill -KILL "$pid" 2> /dev/null; then
      total_kills=$((total_kills + 1))
    fi
    wait "$pid" 2> /dev/null
  done

  # --- simulated crashes inside the durable-write sequence itself ----------
  for spec in atomic_write.fsync_file:rand:abort \
              atomic_write.rename:rand:abort \
              checkpoint.manifest:rand:abort; do
    LOG=logs/fault_t${threads}_${spec%%:*}
    PARIS_FAULT_INJECT="$spec" PARIS_FAULT_SEED=$RANDOM \
      align "$threads" --checkpoint-dir "$ckpt" --checkpoint-interval 0.001 \
      --auto-resume --output crash > "$LOG.out" 2> "$LOG.err"
    # Aborted mid-write or survived to completion: both are valid starting
    # states for the next resume.
  done

  # --- the final undisturbed run must be byte-identical --------------------
  LOG=logs/final_t$threads
  align "$threads" --checkpoint-dir "$ckpt" --checkpoint-interval 0.001 \
    --auto-resume --output final > "$LOG.out" 2> "$LOG.err" \
    || fail "final resume run (threads=$threads)"
  mask < "$LOG.out" > final_stdout.txt

  for table in instances relations classes; do
    cmp -s "ref_${table}.tsv" "final_${table}.tsv" \
      || fail "${table}.tsv differs after crash recovery (threads=$threads)"
  done
  cmp -s ref_stdout.txt final_stdout.txt \
    || fail "stdout differs after crash recovery (threads=$threads)"
  echo "threads=$threads: recovered to byte-identical output" >&2
done

# A kill that consistently arrives after the run already finished would turn
# this test into a no-op; require that a fair share of the schedule landed.
LOG=""
[ "$total_kills" -ge 3 ] \
  || fail "only $total_kills/10 kills landed mid-run; raise the dataset scale"

echo "crash recovery byte-identical across runs ($total_kills mid-flight kills)"
