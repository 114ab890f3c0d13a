#!/usr/bin/env bash
# Golden-output test for the paris_generate / paris_align CLIs.
#
#   cli_golden_test.sh PARIS_GENERATE PARIS_ALIGN GOLDEN_DIR [--update]
#
# Drives the full CLI lifecycle on the deterministic `restaurant` synthetic
# profile and compares every stdout byte and every output TSV against the
# files committed under GOLDEN_DIR. The goldens were captured from the
# pre-facade tools, so this test pins the rebuilt CLIs to byte-identical
# behavior. Wall-clock timings in the run summary are masked before
# comparison; PARIS_LOG lines go to stderr and are not captured.
#
# With --update, the goldens are rewritten instead of compared.
set -u

GENERATE=$(realpath "$1")
ALIGN=$(realpath "$2")
GOLDEN=$(realpath "$3")
UPDATE=${4:-}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

failures=0

# Masks run wall-clock so the summary line compares deterministically.
mask() { sed -E 's/ in [0-9]+\.[0-9]{2}s / in X.XXs /'; }

check() {
  local name=$1 actual=$2
  if [ "$UPDATE" = "--update" ]; then
    cp "$actual" "$GOLDEN/$name"
    return
  fi
  if ! cmp -s "$GOLDEN/$name" "$actual"; then
    echo "FAIL: $name differs from golden" >&2
    diff -u "$GOLDEN/$name" "$actual" | head -30 >&2
    failures=$((failures + 1))
  fi
}

run() {
  # Runs a command, asserting exit status 0; stdout goes to the named file.
  local out=$1
  shift
  if ! "$@" > "$out" 2> stderr.txt; then
    echo "FAIL: non-zero exit from: $*" >&2
    cat stderr.txt >&2
    exit 1
  fi
}

# --- generate: plain, and with a snapshot ---------------------------------
run generate_stdout.txt "$GENERATE" restaurant rest
check generate_stdout.txt generate_stdout.txt

run generate_snap_stdout.txt "$GENERATE" restaurant rest2 --save-snapshot rest.snap
check generate_snap_stdout.txt generate_snap_stdout.txt
check rest_gold.tsv rest_gold.tsv

# --- stats ----------------------------------------------------------------
run stats_stdout.txt "$ALIGN" rest_left.nt rest_right.nt --stats
check stats_stdout.txt stats_stdout.txt

# --- full run with output files -------------------------------------------
run align_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt --output run
mask < align_stdout_raw.txt > align_stdout.txt
check align_stdout.txt align_stdout.txt
check run_instances.tsv run_instances.tsv
check run_relations.tsv run_relations.tsv
check run_classes.tsv run_classes.tsv

# --- default run: instance alignment on stdout ----------------------------
run default_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt
mask < default_stdout_raw.txt > default_stdout.txt
check default_stdout.txt default_stdout.txt

# --- snapshot round trip --------------------------------------------------
run snap_stdout_raw.txt "$ALIGN" --load-snapshot rest.snap --output snaprun
mask < snap_stdout_raw.txt > snap_stdout.txt
check snap_stdout.txt snap_stdout.txt
check run_instances.tsv snaprun_instances.tsv
check run_relations.tsv snaprun_relations.tsv
check run_classes.tsv snaprun_classes.tsv

# --- save-result / resume-from round trip ---------------------------------
run save_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt --max-iterations 2 --save-result k2.result
mask < save_stdout_raw.txt > save_stdout.txt
check save_stdout.txt save_stdout.txt

run resume_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt --resume-from k2.result --output resumed
mask < resume_stdout_raw.txt > resume_stdout.txt
check resume_stdout.txt resume_stdout.txt
check run_instances.tsv resumed_instances.tsv
check run_relations.tsv resumed_relations.tsv
check run_classes.tsv resumed_classes.tsv

# --- files from the previous writers ---------------------------------------
# legacy_pair_v4.snapshot (ontology snapshot v4) and legacy_k2_v2.result
# (result snapshot v2, 2 iterations) are the restaurant pair at scale 0.2
# as the FNV-1a-trailer writers wrote them; legacy_resumed_*.tsv are that
# build's exports of the resumed run. Both load paths must reproduce them.
for mode in stream mmap; do
  run "legacy_${mode}_stdout.txt" "$ALIGN" --load-snapshot "$GOLDEN/legacy_pair_v4.snapshot" --resume-from "$GOLDEN/legacy_k2_v2.result" --snapshot-load-mode "$mode" --output "legacy_$mode"
  for t in instances relations classes; do
    check "legacy_resumed_${t}.tsv" "legacy_${mode}_${t}.tsv"
  done
done

# --- checkpointing riding along must not perturb any output ---------------
# (no new goldens: the checkpointed run is compared against the same files
# as the plain run, so the default no-flag behavior stays pinned)
run ckpt_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt --checkpoint-dir ckpts --checkpoint-interval 0.01 --output run
mask < ckpt_stdout_raw.txt > ckpt_stdout.txt
check align_stdout.txt ckpt_stdout.txt
check run_instances.tsv run_instances.tsv
check run_relations.tsv run_relations.tsv
check run_classes.tsv run_classes.tsv

# --- evidence and matcher modes -------------------------------------------
# Exact bytes beyond the default identity/positive-evidence run: negative
# evidence (Eq. 14), the relation-name prior (bootstrap scores above θ), and
# the fuzzy matcher (literal equivalences with p < 1 inside every factor).
for mode in negative-evidence name-prior matcher-fuzzy; do
  case $mode in
    negative-evidence) flags=(--negative-evidence) ;;
    name-prior) flags=(--name-prior) ;;
    matcher-fuzzy) flags=(--matcher fuzzy) ;;
  esac
  run "${mode}_stdout_raw.txt" "$ALIGN" rest_left.nt rest_right.nt "${flags[@]}" --output "$mode"
  mask < "${mode}_stdout_raw.txt" > "${mode}_stdout.txt"
  check "${mode}_stdout.txt" "${mode}_stdout.txt"
  for t in instances relations classes; do
    check "${mode}_${t}.tsv" "${mode}_${t}.tsv"
  done
done

# The same fuzzy run on 4 threads over 7 shards must match those goldens.
run mt_stdout_raw.txt "$ALIGN" rest_left.nt rest_right.nt --matcher fuzzy --threads 4 --shards 7 --output mt
mask < mt_stdout_raw.txt | sed 's/^wrote mt_/wrote matcher-fuzzy_/' > mt_stdout.txt
check matcher-fuzzy_stdout.txt mt_stdout.txt
for t in instances relations classes; do
  check "matcher-fuzzy_${t}.tsv" "mt_${t}.tsv"
done

# --- a directory is not an input file --------------------------------------
# Reading a directory as a stream yields no bytes; paris_align must exit 1
# instead of aligning two empty ontologies.
mkdir -p dir_input.nt
"$ALIGN" dir_input.nt dir_input.nt --output dirrun > /dev/null 2> stderr.txt
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: paris_align on a directory exited $status, want 1" >&2
  failures=$((failures + 1))
fi

if [ "$UPDATE" = "--update" ]; then
  echo "goldens updated in $GOLDEN"
  exit 0
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures golden comparison(s) failed" >&2
  exit 1
fi
echo "all golden comparisons passed"
