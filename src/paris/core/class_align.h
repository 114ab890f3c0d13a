#ifndef PARIS_CORE_CLASS_ALIGN_H_
#define PARIS_CORE_CLASS_ALIGN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "paris/core/class_scores.h"
#include "paris/core/config.h"
#include "paris/core/direction.h"
#include "paris/core/pass.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/term.h"

namespace paris::core {

// Per-worker scratch of the class pass (defined in class_align.cc), owned
// by the IterationContext and bound to `scratch_` in Prepare — the serial
// phase, per the ScratchSlots contract.
struct ClassShardScratch;

// The class-alignment pass (§4.3, Eq. (17)), run once after the instance
// fixpoint converged (or stopped):
//
//   Pr(c ⊆ d) = Σ_{x : type(x,c)} [1 - ∏_{y : type(y,d)} (1 - Pr(x ≡ y))]
//               ----------------------------------------------------------
//                                   #x : type(x, c)
//
// evaluated over at most `config.class_instance_sample` instances per class,
// against the final maximal assignment. Computed in both directions.
//
// Input (bound in Prepare): `ctx.previous`, the equivalence store of the
// last completed iteration. The item space is the (direction, class)
// sequence — left classes first, then right — and shards partition it;
// every shard appends only to its own entry list, and Merge concatenates
// the lists in ascending shard order, so the entry sequence is
// byte-identical across shard and thread counts.
class ClassPass final : public Pass {
 public:
  const char* name() const override { return "class"; }
  size_t Prepare(IterationContext& ctx) override;
  void RunShard(size_t shard, size_t worker, IterationContext& ctx) override;
  void Merge(IterationContext& ctx) override;
  // SaveShard/LoadShard keep the never-checkpointed defaults: the class
  // pass is the run's final consistency step and always completes (the
  // aligner never cancels it mid-pass), so there is nothing to cache.

 private:
  ShardLayout layout_;
  size_t num_left_ = 0;
  DirectionalContext l2r_;
  DirectionalContext r2l_;
  std::vector<std::vector<ClassAlignmentEntry>> outputs_;  // one per shard
  // TermId → position in classes(), per side (UINT32_MAX where the id is
  // not a class), rebuilt in Prepare: the dense index of the scratch slots.
  std::vector<uint32_t> left_class_position_;
  std::vector<uint32_t> right_class_position_;
  // The per-worker scratch slots, bound in Prepare (RunShard must not call
  // ScratchSlots itself — it may allocate).
  std::vector<ClassShardScratch>* scratch_ = nullptr;
  // Registered in Prepare when ctx.obs.metrics is set; bumped per shard
  // with the worker's slot.
  obs::MetricId classes_scored_ = 0;
  obs::MetricId entries_emitted_ = 0;
};

}  // namespace paris::core

#endif  // PARIS_CORE_CLASS_ALIGN_H_
