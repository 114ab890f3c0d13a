#include "paris/core/instance_align.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "paris/core/worklist.h"

namespace paris::core {

// Per-fact expansion of the second argument to its right-ontology
// equivalents, computed once per instance and shared between the positive-
// and negative-evidence passes. In negative-evidence mode `equivalents` is
// sorted by term id so the per-candidate-fact lookup in
// NegativeEvidenceFactor is a binary search instead of a linear scan.
// Namespace-scope (not anonymous) because InstanceShardScratch embeds it.
struct ExpandedFact {
  rdf::RelId rel = rdf::kNullRel;  // r with r(x, y), signed
  std::vector<Candidate> equivalents;  // y' with Pr(y ≡ y') > 0
};

// Per-worker scratch, owned by the IterationContext so the buffers'
// capacity survives across shards and iterations.
struct InstanceShardScratch {
  std::vector<ExpandedFact> expanded;

  // The positive-evidence accumulator of the current left instance x: the
  // running product of Eq. 13's factors per candidate x', indexed by x''s
  // position in right.instances(). A slot is live for x only while its
  // stamp equals `epoch`, which advances once per instance, so moving on
  // to the next x costs an increment instead of a clear. `touched` lists
  // x's live positions in first-touch order; nothing downstream depends on
  // that order, because the candidates are sorted by a total order.
  struct Slot {
    double product = 1.0;
    uint32_t stamp = 0;
  };
  std::vector<Slot> slots;
  std::vector<uint32_t> touched;
  uint32_t epoch = 0;

  // Makes every slot dead; call before accumulating a new instance.
  void NextInstance() {
    touched.clear();
    if (++epoch == 0) {  // wrapped: a stale stamp could now read as live
      for (Slot& slot : slots) slot.stamp = 0;
      epoch = 1;
    }
  }

  void Multiply(uint32_t position, double factor) {
    Slot& slot = slots[position];
    if (slot.stamp != epoch) {
      slot.stamp = epoch;
      slot.product = factor;  // == 1.0 * factor, exactly
      touched.push_back(position);
    } else {
      slot.product *= factor;
    }
  }
};

namespace {

// Computes the positive-evidence product of Eq. (13) for every candidate x'
// of one left instance into `scratch`'s accumulator:
//   ∏ (1 - Pr(r'⊆r)·fun⁻¹(r)·Pr(y≡y')) (1 - Pr(r⊆r')·fun⁻¹(r')·Pr(y≡y')).
// No hashing: the neighbour's adjacency, its instance position and the
// pair's coefficients are dense lookups. Returns the number of neighbour
// facts examined.
uint64_t AccumulatePositiveEvidence(
    const std::vector<ExpandedFact>& facts, const ontology::Ontology& right,
    const FactorCoefficientTable& coefficients, size_t max_neighbor_fanout,
    InstanceShardScratch* scratch) {
  uint64_t visited = 0;
  for (const ExpandedFact& ef : facts) {
    const FactorCoefficients* row = coefficients.Row(ef.rel);
    for (const Candidate& y_eq : ef.equivalents) {
      const auto neighbor_facts = right.FactsAbout(y_eq.other);
      if (neighbor_facts.size() > max_neighbor_fanout) continue;
      visited += neighbor_facts.size();
      for (const rdf::Fact& nf : neighbor_facts) {
        // Adjacency entry nf = (rt, x') of y' encodes statement rt(y', x'),
        // i.e. r'(x', y') with r' = rt⁻¹; the row is indexed by rt.
        const FactorCoefficients& c = row[nf.rel];
        if (c.skip) continue;
        const uint32_t position = right.InstancePosition(nf.other);
        if (position == ontology::Ontology::kNoInstance) continue;
        const double factor =
            (1.0 - c.a * y_eq.prob) * (1.0 - c.b * y_eq.prob);
        if (factor >= 1.0) continue;
        scratch->Multiply(position, factor);
      }
    }
  }
  return visited;
}

// The negative-evidence multiplier of Eq. (14) for one candidate x'.
//
// Per the maximal-assignment principle of §5.2, each statement r(x, y) is
// checked against the *maximally contained* counterpart relation r' of r
// (one per containment direction) instead of every relation pair: the
// factor uses inner = ∏_{y' : r'(x', y')} (1 - Pr(y ≡ y')), which is 1 when
// x' has no r'-statements — decreasing Pr(x ≡ x') when x has relations that
// x' lacks, as §4.2 prescribes. Note the paper's Eq. (14) prints
// Pr(x ≡ x') inside the inner product; following its derivation from
// Eq. (6) it must be Pr(y ≡ y'), which is what we implement.
double NegativeEvidenceFactor(
    const std::vector<ExpandedFact>& facts, const ontology::Ontology& left,
    const ontology::Ontology& right,
    const std::unordered_map<rdf::RelId, std::pair<rdf::RelId, double>>&
        right_sub_left,
    const std::unordered_map<rdf::RelId, std::pair<rdf::RelId, double>>&
        left_sub_right,
    const AlignmentConfig& config, rdf::TermId x_prime) {
  const auto variant = config.functionality_variant;
  // One dictionary lookup for x'; each r' range below is a probe of the
  // index's per-term relation directory (log of x''s *distinct relation*
  // count, not of its full degree — the win on hub entities).
  const auto cursor = right.store().CursorFor(x_prime);

  auto inner_product = [&](const ExpandedFact& ef, rdf::RelId r_prime) {
    double inner = 1.0;
    for (const rdf::Fact& cf : cursor.FactsWith(r_prime)) {
      // `equivalents` is sorted by term id (see RunShard).
      auto it = std::lower_bound(
          ef.equivalents.begin(), ef.equivalents.end(), cf.other,
          [](const Candidate& c, rdf::TermId t) { return c.other < t; });
      const double p =
          it != ef.equivalents.end() && it->other == cf.other ? it->prob : 0.0;
      inner *= (1.0 - p);
    }
    return inner;
  };

  double result = 1.0;
  for (const ExpandedFact& ef : facts) {
    auto rl = right_sub_left.find(ef.rel);
    if (rl != right_sub_left.end()) {
      const auto [r_prime, score] = rl->second;
      const double fun_r = left.functionality().Global(ef.rel, variant);
      result *= (1.0 - fun_r * score * inner_product(ef, r_prime));
    }
    auto lr = left_sub_right.find(ef.rel);
    if (lr != left_sub_right.end()) {
      const auto [r_prime, score] = lr->second;
      const double fun_rp = right.functionality().Global(r_prime, variant);
      result *= (1.0 - fun_rp * score * inner_product(ef, r_prime));
    }
  }
  return result;
}

}  // namespace

void FactorCoefficientTable::Build(const ontology::Ontology& left,
                                   const ontology::Ontology& right,
                                   const RelationScores& scores,
                                   ontology::FunctionalityVariant variant) {
  const auto num_left = static_cast<rdf::RelId>(left.num_relations());
  const auto num_right = static_cast<rdf::RelId>(right.num_relations());
  right_bound_ = num_right;
  stride_ = 2 * static_cast<size_t>(num_right) + 1;
  left_bound_ = num_left;
  entries_.assign((2 * static_cast<size_t>(num_left) + 1) * stride_,
                  FactorCoefficients{});
  // fun⁻¹(r') per right adjacency relation rt, where r' = rt⁻¹.
  std::vector<double> fun_inv_right(stride_, 0.0);
  for (rdf::RelId rt = -num_right; rt <= num_right; ++rt) {
    if (rt == rdf::kNullRel) continue;
    fun_inv_right[static_cast<size_t>(rt + num_right)] =
        right.functionality().GlobalInverse(rdf::Inverse(rt), variant);
  }
  for (rdf::RelId r = -num_left; r <= num_left; ++r) {
    if (r == rdf::kNullRel) continue;
    const double fun_inv_r = left.functionality().GlobalInverse(r, variant);
    FactorCoefficients* row =
        &entries_[static_cast<size_t>(r + num_left) * stride_ +
                  static_cast<size_t>(num_right)];
    for (rdf::RelId rt = -num_right; rt <= num_right; ++rt) {
      if (rt == rdf::kNullRel) continue;
      const rdf::RelId r_prime = rdf::Inverse(rt);
      // Through the table's own lookups, so bootstrap θ and the name
      // prior apply here exactly as they do to every score read.
      const double p_sub_rl = scores.SubRightLeft(r_prime, r);
      const double p_sub_lr = scores.SubLeftRight(r, r_prime);
      FactorCoefficients& c = row[rt];
      c.a = p_sub_rl * fun_inv_r;
      c.b = p_sub_lr * fun_inv_right[static_cast<size_t>(rt + num_right)];
      c.skip = p_sub_rl <= 0.0 && p_sub_lr <= 0.0;
    }
  }
}

size_t InstancePass::Prepare(IterationContext& ctx) {
  const AlignmentConfig& config = *ctx.config;
  layout_ = ShardLayout::Make(ctx.left->instances().size(), config.num_shards);
  l2r_ = ctx.Direction(true, ctx.previous);
  coefficients_.Build(*ctx.left, *ctx.right, *ctx.rel_scores,
                      config.functionality_variant);

  // Each left relation's maximally contained counterpart on the right, in
  // both containment directions, for the negative-evidence pass. Only
  // scores strictly above θ qualify (§5.2 thresholding) — in particular the
  // θ-uniform bootstrap table of iteration 1 contributes no negative
  // evidence, which is what lets the fixpoint start at all: under a literal
  // reading of Eq. (14), the product over *every* relation pair at score θ
  // multiplies hundreds of small penalties and extinguishes every match
  // before any real containment is known.
  best_ = BestCounterparts{};
  if (config.use_negative_evidence) {
    auto update = [](auto& map, rdf::RelId key, rdf::RelId value,
                     double score) {
      auto [it, inserted] = map.emplace(key, std::make_pair(value, score));
      if (!inserted && score > it->second.second) {
        it->second = {value, score};
      }
    };
    for (const RelationAlignmentEntry& e : ctx.rel_scores->Entries()) {
      if (e.score <= config.theta) continue;
      if (e.sub_is_left) {
        // Pr(left e.sub ⊆ right e.super); also its inverted twin.
        update(best_.left_sub_right, e.sub, e.super, e.score);
        update(best_.left_sub_right, rdf::Inverse(e.sub),
               rdf::Inverse(e.super), e.score);
      } else {
        // Pr(right e.sub ⊆ left e.super).
        update(best_.right_sub_left, e.super, e.sub, e.score);
        update(best_.right_sub_left, rdf::Inverse(e.super),
               rdf::Inverse(e.sub), e.score);
      }
    }
  }

  // Reuse is safe only when this generation's retained slots are the
  // previous same-parity iteration's complete output over the same item
  // space as the worklist's bitmap.
  gen_ = prepare_count_ % 2;
  ++prepare_count_;
  reuse_ = config.semi_naive && ctx.worklist != nullptr &&
           ctx.worklist->instances_active && have_results_[gen_] &&
           results_[gen_].size() == layout_.total &&
           ctx.worklist->dirty_instances.size() == layout_.total;
  all_clean_ = reuse_ && std::all_of(ctx.worklist->dirty_instances.begin(),
                                     ctx.worklist->dirty_instances.end(),
                                     [](uint8_t dirty) { return dirty == 0; });
  results_[gen_].resize(layout_.total);
  if (!reuse_) {
    for (auto& slot : results_[gen_]) slot.clear();
  }
  scratch_ = &ctx.ScratchSlots<InstanceShardScratch>();  // serial phase
  // One accumulator slot per right instance; a right-side delta adds
  // instances, so the size is re-checked every iteration.
  const size_t right_instances = ctx.right->instances().size();
  for (InstanceShardScratch& scratch : *scratch_) {
    if (scratch.slots.size() < right_instances) {
      scratch.slots.resize(right_instances);
    }
  }
  if (ctx.obs.metrics != nullptr) {  // serial phase: registration may allocate
    entities_scored_ = ctx.obs.metrics->Counter("instance.entities_scored");
    entities_reused_ = ctx.obs.metrics->Counter("instance.entities_reused");
    entities_with_candidates_ =
        ctx.obs.metrics->Counter("instance.entities_with_candidates");
    candidates_emitted_ =
        ctx.obs.metrics->Counter("instance.candidates_emitted");
    neighbor_facts_visited_ =
        ctx.obs.metrics->Counter("instance.neighbor_facts_visited");
    keys_created_ = ctx.obs.metrics->Counter("instance.keys_created");
  }
  return layout_.num_shards;
}

void InstancePass::SeedResults(const ontology::Ontology& left,
                               const InstanceEquivalences& seed) {
  const std::vector<rdf::TermId>& instances = left.instances();
  have_merged_ = {false, false};
  for (size_t g = 0; g < 2; ++g) {
    results_[g].assign(instances.size(), {});
    for (size_t i = 0; i < instances.size(); ++i) {
      const auto span = seed.LeftToRight(instances[i]);
      results_[g][i].assign(span.begin(), span.end());
    }
    have_results_[g] = true;
  }
}

void InstancePass::RunShard(size_t shard, size_t worker,
                            IterationContext& ctx) {
  const ontology::Ontology& left = *ctx.left;
  const ontology::Ontology& right = *ctx.right;
  const AlignmentConfig& config = *ctx.config;
  const std::vector<rdf::TermId>& instances = left.instances();
  const std::vector<rdf::TermId>& right_instances = right.instances();
  InstanceShardScratch& scratch = (*scratch_)[worker];
  std::vector<ExpandedFact>& expanded = scratch.expanded;

  std::vector<std::vector<Candidate>>& results = results_[gen_];
  size_t computed = 0;
  uint64_t visited = 0;
  uint64_t keys = 0;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    // Clean instance: the retained slot (from the previous same-parity
    // iteration) already holds exactly what this iteration would recompute.
    if (reuse_ && ctx.worklist->dirty_instances[i] == 0) continue;
    const rdf::TermId x = instances[i];
    ++computed;
    results[i].clear();
    expanded.clear();
    for (const rdf::Fact& f : left.FactsAbout(x)) {
      ExpandedFact ef;
      ef.rel = f.rel;
      l2r_.AppendEquivalents(f.other, &ef.equivalents);
      if (!ef.equivalents.empty() || config.use_negative_evidence) {
        if (config.use_negative_evidence) {
          // The sort only feeds NegativeEvidenceFactor's binary search;
          // don't pay for it in the positive-only default mode.
          std::sort(ef.equivalents.begin(), ef.equivalents.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.other < b.other;
                    });
        }
        expanded.push_back(std::move(ef));
      }
    }
    if (expanded.empty()) continue;

    scratch.NextInstance();
    visited += AccumulatePositiveEvidence(expanded, right, coefficients_,
                                          config.max_neighbor_fanout,
                                          &scratch);
    keys += scratch.touched.size();
    if (scratch.touched.empty()) continue;

    std::vector<Candidate> candidates;
    candidates.reserve(scratch.touched.size());
    for (const uint32_t position : scratch.touched) {
      const rdf::TermId x_prime = right_instances[position];
      double score = 1.0 - scratch.slots[position].product;
      if (config.use_negative_evidence) {
        score *= NegativeEvidenceFactor(expanded, left, right,
                                        best_.right_sub_left,
                                        best_.left_sub_right, config, x_prime);
      }
      if (score >= config.instance_threshold) {
        candidates.push_back(Candidate{x_prime, score});
      }
    }
    if (candidates.empty()) continue;
    auto better = [](const Candidate& a, const Candidate& b) {
      return a.prob != b.prob ? a.prob > b.prob : a.other < b.other;
    };
    std::sort(candidates.begin(), candidates.end(), better);
    if (candidates.size() > config.max_candidates_per_instance) {
      candidates.resize(config.max_candidates_per_instance);
    }
    results[i] = std::move(candidates);
  }
  if (ctx.obs.metrics != nullptr) {
    uint64_t with_candidates = 0;
    uint64_t emitted = 0;
    for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
      if (!results[i].empty()) {
        ++with_candidates;
        emitted += results[i].size();
      }
    }
    ctx.obs.metrics->Add(entities_scored_, worker, computed);
    ctx.obs.metrics->Add(entities_reused_, worker,
                         layout_.end(shard) - layout_.begin(shard) - computed);
    ctx.obs.metrics->Add(entities_with_candidates_, worker, with_candidates);
    ctx.obs.metrics->Add(candidates_emitted_, worker, emitted);
    ctx.obs.metrics->Add(neighbor_facts_visited_, worker, visited);
    ctx.obs.metrics->Add(keys_created_, worker, keys);
  }
}

void InstancePass::Merge(IterationContext& ctx) {
  if (all_clean_ && have_merged_[gen_]) {
    ctx.current = merged_[gen_];
    return;
  }
  const std::vector<rdf::TermId>& instances = ctx.left->instances();
  // The slots stay in place: under semi_naive the next iteration reuses
  // them for instances its worklist marks clean.
  const bool keep = ctx.config->semi_naive;
  const std::vector<std::vector<Candidate>>& results = results_[gen_];
  InstanceEquivalences equiv;
  for (size_t i = 0; i < layout_.total; ++i) {
    equiv.Set(instances[i], results[i]);
  }
  equiv.Finalize();
  ctx.current = std::move(equiv);
  have_results_[gen_] = keep;
  merged_[gen_] = keep ? ctx.current : InstanceEquivalences();
  have_merged_[gen_] = keep;
}

void InstancePass::SaveShard(size_t shard, std::string* out) const {
  PayloadWriter writer;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    writer.U32(static_cast<uint32_t>(results_[gen_][i].size()));
    for (const Candidate& c : results_[gen_][i]) {
      writer.U32(c.other);
      writer.F64(c.prob);
    }
  }
  *out = writer.Take();
}

bool InstancePass::LoadShard(size_t shard, std::string_view bytes,
                             IterationContext& ctx) {
  const size_t pool_size = ctx.left->pool().size();
  PayloadReader reader(bytes);
  // Decode into a staging area first so a payload rejected mid-way leaves
  // the slots untouched (the shard then simply recomputes).
  std::vector<std::vector<Candidate>> staged(layout_.end(shard) -
                                             layout_.begin(shard));
  for (auto& slot : staged) {
    uint32_t count = 0;
    if (!reader.U32(&count) ||
        count > ctx.config->max_candidates_per_instance) {
      return false;
    }
    slot.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      Candidate c;
      if (!reader.U32(&c.other) || !reader.F64(&c.prob)) return false;
      if (static_cast<size_t>(c.other) >= pool_size || !(c.prob > 0.0) ||
          c.prob > 1.0) {
        return false;
      }
      // The Set contract: sorted by descending prob, ties by ascending id.
      if (j > 0 &&
          !(slot.back().prob > c.prob ||
            (slot.back().prob == c.prob && slot.back().other < c.other))) {
        return false;
      }
      slot.push_back(c);
    }
  }
  if (!reader.AtEnd()) return false;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    results_[gen_][i] = std::move(staged[i - layout_.begin(shard)]);
  }
  all_clean_ = false;
  return true;
}

}  // namespace paris::core
