#ifndef PARIS_CORE_INSTANCE_ALIGN_H_
#define PARIS_CORE_INSTANCE_ALIGN_H_

#include <array>
#include <cassert>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "paris/core/config.h"
#include "paris/core/direction.h"
#include "paris/core/equiv.h"
#include "paris/core/pass.h"
#include "paris/core/relation_scores.h"
#include "paris/ontology/ontology.h"

namespace paris::core {

// Per-worker scratch of the instance pass (defined in instance_align.cc),
// owned by the IterationContext and bound to `scratch_` in Prepare — the
// serial phase, per the ScratchSlots contract.
struct InstanceShardScratch;

// The two coefficients of one Eq. (13) factor, for a left relation r and a
// right adjacency relation rt — the neighbour statement rt(y', x') is
// r'(x', y') with r' = rt⁻¹. The factor for Pr(y ≡ y') = p is
// (1 - a·p)(1 - b·p); a and b multiply score and functionality first, so
// each product associates as (score · fun⁻¹) · p.
struct FactorCoefficients {
  double a = 0.0;    // Pr(r' ⊆ r) · fun⁻¹(r)
  double b = 0.0;    // Pr(r ⊆ r') · fun⁻¹(r')
  bool skip = true;  // both scores ≤ 0: the statement adds no factor
};

// Dense (2L+1) × (2R+1) table of FactorCoefficients over the signed
// relations of a left (L relations) and a right (R relations) ontology,
// rebuilt by the instance pass from each iteration's input scores. About
// 20 KB on the yago-dbpedia stand-in (27 × 31 entries); for a real
// YAGO × DBpedia pair (≈0.2k × 2.2k signed relations) about 10 MB.
class FactorCoefficientTable {
 public:
  void Build(const ontology::Ontology& left, const ontology::Ontology& right,
             const RelationScores& scores,
             ontology::FunctionalityVariant variant);

  // The row of left relation `r` (signed), indexed by the signed right
  // adjacency relation rt ∈ [-R, R].
  const FactorCoefficients* Row(rdf::RelId r) const {
    assert(r >= -left_bound_ && r <= left_bound_);
    return entries_.data() + static_cast<size_t>(r + left_bound_) * stride_ +
           static_cast<size_t>(right_bound_);
  }

 private:
  std::vector<FactorCoefficients> entries_;
  rdf::RelId left_bound_ = 0;   // L
  rdf::RelId right_bound_ = 0;  // R
  size_t stride_ = 1;           // 2R + 1
};

// The instance-equivalence pass (§4.1/§4.2 of the paper), one pipeline
// stage per fixpoint iteration.
//
// For every instance x of the left ontology, computes Pr(x ≡ x') for the
// right-ontology candidates x' reachable through shared evidence, using the
// neighborhood-walk optimization of §5.2: traverse the statements r(x, y),
// expand y to its known equivalents y', and visit the statements r'(x', y')
// of the right ontology. Probabilities follow Eq. (13) (positive evidence),
// optionally multiplied by the negative-evidence factor of Eq. (14).
//
// Inputs (bound in Prepare): `ctx.previous` — the *previous* iteration's
// equivalence store — and `ctx.rel_scores` — Pr(r ⊆ r'), the θ-bootstrap
// table in the first iteration. Shards partition the left instance list;
// every shard writes only its instances' candidate slots, so the pass
// parallelizes without locks. Merge appends the slots in instance order
// to `ctx.current` and finalizes it (index + transpose), reproducing the
// exact store a serial whole-ontology sweep would build.
//
// This pass dominates wall time at YAGO scale, which is why cancellation
// is polled between its shards: SaveShard/LoadShard persist one shard's
// candidate lists so a cancelled pass resumes without recomputing them.
class InstancePass final : public Pass {
 public:
  const char* name() const override { return "instance"; }

  // Semi-naive reuse (core/worklist.h): Merge copies the candidate slots
  // into `ctx.current` and leaves them in place. When
  // `ctx.config->semi_naive` is set, a later Prepare — if `ctx.worklist`
  // has an active instance set — puts the pass in reuse mode: RunShard
  // skips clean instances, whose retained slots still hold exactly what
  // this iteration would recompute (the worklist's dirty criterion covers
  // every input).
  // Slots are retained in TWO generations, alternating per iteration, and
  // an iteration reuses the slots of the previous *same-parity* iteration
  // (two back) — matching the worklist, whose diffs compare same-parity
  // states. In floating point the fixpoint attractor is an exact cycle of
  // period 1 or 2 (the assignment oscillation of §5.2 survives in the low
  // mantissa bits even when maximal assignments stabilize), and the
  // same-parity scheme drains the worklist on both: a consecutive-state
  // diff never goes empty against a 2-cycle. Shard payloads are
  // unaffected: the active generation's slots always hold the full output,
  // so a semi-naive checkpoint is byte-identical to an exhaustive one.

  // Seeds both generations of retained slots from a completed run's final
  // equivalence store so the *first* iterations can already reuse
  // (incremental re-alignment, Aligner::Realign). Serial; call once before
  // the run starts.
  void SeedResults(const ontology::Ontology& left,
                   const InstanceEquivalences& seed);

  size_t Prepare(IterationContext& ctx) override;
  void RunShard(size_t shard, size_t worker, IterationContext& ctx) override;
  void Merge(IterationContext& ctx) override;
  void SaveShard(size_t shard, std::string* out) const override;
  bool LoadShard(size_t shard, std::string_view bytes,
                 IterationContext& ctx) override;

 private:
  // The negative-evidence pass's per-relation maximally contained
  // counterparts (§5.2), rebuilt in Prepare from the iteration's input
  // scores. Keyed by signed left relation id: (right relation r', score).
  struct BestCounterparts {
    std::unordered_map<rdf::RelId, std::pair<rdf::RelId, double>>
        right_sub_left;
    std::unordered_map<rdf::RelId, std::pair<rdf::RelId, double>>
        left_sub_right;
  };

  ShardLayout layout_;
  DirectionalContext l2r_;
  BestCounterparts best_;
  FactorCoefficientTable coefficients_;
  // Candidate lists, one slot per left instance, filled by RunShard (or
  // LoadShard) and copied by Merge. Two
  // generations, alternating per iteration: `results_[gen_]` is the active
  // one, the other holds the previous same-parity iteration's output for
  // reuse. The vectors keep their capacity across iterations.
  std::array<std::vector<std::vector<Candidate>>, 2> results_;
  // results_[g] holds a complete prior output (set by a semi_naive Merge or
  // SeedResults); precondition for reusing generation g.
  std::array<bool, 2> have_results_ = {false, false};
  // The store the last Merge of generation g built from results_[g],
  // shared with ctx.current (copying a finalized store is O(1)). When an
  // iteration recomputes no slot, results_[g] is exactly what built it, so
  // Merge hands it out again instead of rebuilding it — the whole cost of
  // an iteration past the semi-naive fixpoint lock.
  std::array<InstanceEquivalences, 2> merged_;
  std::array<bool, 2> have_merged_ = {false, false};
  // Active generation this iteration: alternates per Prepare, so it points
  // at the slots written two iterations ago (same parity).
  size_t gen_ = 0;
  size_t prepare_count_ = 0;
  // This iteration skips instances clean in ctx.worklist (set in Prepare).
  bool reuse_ = false;
  // This iteration writes no slot: reuse with an empty worklist, and no
  // shard loaded from a checkpoint.
  bool all_clean_ = false;
  // The per-worker scratch slots, bound in Prepare (RunShard must not call
  // ScratchSlots itself — it may allocate).
  std::vector<InstanceShardScratch>* scratch_ = nullptr;
  // Registered in Prepare when ctx.obs.metrics is set; bumped per shard
  // with the worker's slot.
  obs::MetricId entities_scored_ = 0;
  obs::MetricId entities_reused_ = 0;
  obs::MetricId entities_with_candidates_ = 0;
  obs::MetricId candidates_emitted_ = 0;
  // Facts of expanded neighbours y' examined, and distinct (x, x')
  // accumulator entries created: the kernel's work.
  obs::MetricId neighbor_facts_visited_ = 0;
  obs::MetricId keys_created_ = 0;
};

}  // namespace paris::core

#endif  // PARIS_CORE_INSTANCE_ALIGN_H_
