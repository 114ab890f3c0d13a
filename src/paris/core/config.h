#ifndef PARIS_CORE_CONFIG_H_
#define PARIS_CORE_CONFIG_H_

#include <cstddef>
#include <string>

#include "paris/ontology/functionality.h"

namespace paris::core {

// Tuning-free by design: the paper's two knobs are the bootstrap value θ
// (shown in §6.3 to not affect results) and the literal similarity function
// (passed separately to the `Aligner`). Every other field mirrors an
// implementation choice from §5 and defaults to the paper's setting; the
// non-default values exist for the §6.3 / Appendix A ablation benchmarks.
struct AlignmentConfig {
  // Initial sub-relation score for the very first iteration (§5.1).
  double theta = 0.1;

  // Hard cap on fixpoint iterations (the paper converges in 2-4).
  int max_iterations = 10;

  // Converged when the fraction of instances whose maximal assignment
  // changed drops below this (§6.1 uses 1 %).
  double convergence_threshold = 0.01;

  // Probabilities below this are treated as zero and never stored. §5.2
  // thresholds at θ itself; a negative value (the default) means "use
  // theta".
  double instance_threshold = -1.0;

  // Sub-relation / sub-class scores below this are dropped from the tables.
  double relation_min_score = 0.01;
  double class_min_score = 0.01;

  // Eq. (14) (negative evidence) instead of Eq. (13). Off by default: §6.3
  // found positive evidence sufficient (and negative evidence harmful with
  // noisy attribute values).
  bool use_negative_evidence = false;

  // Use the full equality distribution of the previous iteration instead of
  // only its maximal assignment (§5.2 default is maximal-only; §6.3 reports
  // the full version changes results only marginally).
  bool use_full_equalities = false;

  // Cap on the number of pairs evaluated per relation in Eq. (12) and per
  // class in Eq. (17) (§5.2 uses 10,000).
  size_t relation_pair_sample = 10000;
  size_t class_instance_sample = 10000;

  // Keep at most this many equivalence candidates per instance (top scores).
  size_t max_candidates_per_instance = 64;

  // Skip neighbor expansion through terms with more statements than this
  // (guards against degenerate hub literals; effectively off by default).
  size_t max_neighbor_fanout = 100000;

  // Global-functionality definition (Appendix A ablation).
  ontology::FunctionalityVariant functionality_variant =
      ontology::FunctionalityVariant::kHarmonicMean;

  // Dampening (extension; §5.1 notes "one could always enforce convergence
  // of such iterations by introducing a progressively increasing dampening
  // factor"). With d ∈ (0, 1), iteration k blends the fresh probabilities
  // with the previous iteration's as λ_k·old + (1-λ_k)·new, where
  // λ_k = d·(1 - 1/k) increases toward d. 0 disables (paper default).
  double dampening = 0.0;

  // Relation-name prior (extension; §7 conjectures "the name heuristics of
  // more traditional schema-alignment techniques could be factored into the
  // model"). When enabled, the very first iteration seeds Pr(r ⊆ r') with
  // max(θ, name-similarity·cap) instead of the uniform θ. Converged scores
  // are unaffected (the bootstrap only shapes iteration 1); convergence may
  // come sooner. Off by default (the paper uses no name heuristics).
  bool use_relation_name_prior = false;
  double name_prior_cap = 0.5;

  // Semi-naive (differential) fixpoint evaluation. Each iteration records
  // which left entities' evidence inputs changed — moved equivalence views
  // of their fact neighbors, moved scores of their incident relations — and
  // the next iteration's instance pass recomputes only that worklist,
  // reusing the retained candidate lists everywhere else (the relation pass
  // re-scores only relations a moved term participates in). Because reuse
  // is exact (a slot is reused only when every input to it is bit-identical
  // to the previous iteration's), a semi-naive run's output is byte-
  // identical to the exhaustive run — the flag shapes wall time, never the
  // trajectory, and is therefore excluded from the result-snapshot
  // compatibility key. Later iterations approach no-op cost as the
  // fixpoint converges. Off = recompute every entity every iteration.
  bool semi_naive = true;

  // Worker threads for the alignment passes; 0 = run inline.
  size_t num_threads = 0;

  // Shards per pipeline pass (core/pass.h); 0 = the fixed default
  // (kDefaultNumShards). Shard boundaries depend only on this and the item
  // count — never on num_threads — so mid-iteration checkpoints stay valid
  // across machines. Like num_threads, this does not shape the trajectory
  // (results are byte-identical across shard counts) and is therefore
  // excluded from the result-snapshot compatibility key; resuming under a
  // different shard count only forfeits the checkpoint's cached shards.
  size_t num_shards = 0;

  // Record each iteration's equivalence store and relation scores in the
  // result (needed by the per-iteration experiment tables). The store is a
  // shared reference to the iteration's finalized tables, not a copy.
  bool record_history = true;

  // Periodic background checkpointing (core/checkpoint.h). When
  // `checkpoint_dir` is non-empty and `checkpoint_interval` > 0, the
  // aligner captures its completed-shard state at shard boundaries every
  // `checkpoint_interval` seconds and a background thread persists it to
  // the directory (atomic snapshot file + fsync'd manifest journal), so a
  // crash loses at most the in-flight shard. Like num_threads/num_shards,
  // neither field shapes the trajectory: both are excluded from the
  // result-snapshot compatibility key, and a checkpointed run's output is
  // byte-identical to an uncheckpointed one. Checkpoint write failures log
  // a warning and disable further checkpoints; they never fail the run.
  double checkpoint_interval = 0.0;
  std::string checkpoint_dir;
};

}  // namespace paris::core

#endif  // PARIS_CORE_CONFIG_H_
