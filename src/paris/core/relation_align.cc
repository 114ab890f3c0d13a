#include "paris/core/relation_align.h"

#include <utility>
#include <vector>

#include "paris/core/worklist.h"

namespace paris::core {

// Per-worker scratch for ScoreOneRelation, owned by the IterationContext so
// capacity survives across relations, shards, and iterations. Nothing here
// hashes:
//  * `numerator` holds Σ (1 − product) per target relation r′ in first-touch
//    order, found through `numerator_slot`, a dense array over the target's
//    signed relations (r′ at r′ + n, 0 = untouched; cleared after each
//    relation). Each r′ still adds its terms in pair order, so its sum is
//    bit-identical to a map's; only the order in which one relation's
//    scores are emitted follows first touch, and no consumer observes it
//    (RelationScores::Entries() reports canonical order).
//  * y′ → Pr(y ≡ y′) is a scan of `y_eq` that keeps the last match, as a
//    map assignment over `y_eq` did.
//  * `pair_products` is the few r′ that link one pair, with the product of
//    their factors in fact order.
struct RelationShardScratch {
  std::vector<std::pair<rdf::RelId, double>> numerator;
  std::vector<uint32_t> numerator_slot;
  std::vector<Candidate> x_eq;
  std::vector<Candidate> y_eq;
  std::vector<std::pair<rdf::RelId, double>> pair_products;
};

namespace {

// ZigZag encoding for the signed relation ids in shard payloads.
uint32_t ZigZag(rdf::RelId r) {
  return (static_cast<uint32_t>(r) << 1) ^ static_cast<uint32_t>(r >> 31);
}
rdf::RelId UnZigZag(uint32_t v) {
  return static_cast<rdf::RelId>((v >> 1) ^ (~(v & 1) + 1));
}

// Computes Pr(r ⊆ r') for one source relation r (positive id) against every
// relation r' of the target ontology, and stores entries above threshold via
// `store_score(r, r_prime, score)`.
template <typename StoreFn>
void ScoreOneRelation(rdf::RelId rel, const DirectionalContext& ctx,
                      const AlignmentConfig& config,
                      RelationShardScratch& scratch,
                      const StoreFn& store_score) {
  const ontology::Ontology& source = *ctx.source;
  const ontology::Ontology& target = *ctx.target;
  const rdf::RelId num_target = static_cast<rdf::RelId>(target.num_relations());

  double denominator = 0.0;
  auto& numerator = scratch.numerator;
  std::vector<uint32_t>& numerator_slot = scratch.numerator_slot;
  std::vector<Candidate>& x_eq = scratch.x_eq;
  std::vector<Candidate>& y_eq = scratch.y_eq;
  auto& pair_products = scratch.pair_products;
  numerator.clear();
  const size_t num_slots = 2 * static_cast<size_t>(num_target) + 1;
  if (numerator_slot.size() < num_slots) numerator_slot.resize(num_slots, 0);

  source.store().ForEachPair(
      rel, config.relation_pair_sample, [&](rdf::TermId x, rdf::TermId y) {
        x_eq.clear();
        y_eq.clear();
        ctx.AppendEquivalents(x, &x_eq);
        if (x_eq.empty()) return;
        ctx.AppendEquivalents(y, &y_eq);
        if (y_eq.empty()) return;

        // Denominator term (Eq. 11): the probability that the pair (x, y)
        // has *some* counterpart pair.
        double miss_all = 1.0;
        for (const Candidate& cx : x_eq) {
          for (const Candidate& cy : y_eq) {
            miss_all *= (1.0 - cx.prob * cy.prob);
          }
        }
        denominator += 1.0 - miss_all;

        // Numerator terms (Eq. 10), one per target relation r' that links
        // some x' ≈ x to some y' ≈ y.
        pair_products.clear();
        for (const Candidate& cx : x_eq) {
          for (const rdf::Fact& f : target.FactsAbout(cx.other)) {
            // f = (r', y') encodes the statement r'(x', y').
            const Candidate* cy = nullptr;
            for (const Candidate& c : y_eq) {
              if (c.other == f.other) cy = &c;
            }
            if (cy == nullptr) continue;
            auto product = pair_products.begin();
            while (product != pair_products.end() && product->first != f.rel) {
              ++product;
            }
            if (product == pair_products.end()) {
              product = pair_products.insert(product, {f.rel, 1.0});
            }
            product->second *= (1.0 - cx.prob * cy->prob);
          }
        }
        for (const auto& [r_prime, product] : pair_products) {
          uint32_t& slot = numerator_slot[r_prime + num_target];
          if (slot == 0) {
            numerator.emplace_back(r_prime, 0.0);
            slot = static_cast<uint32_t>(numerator.size());
          }
          numerator[slot - 1].second += 1.0 - product;
        }
      });

  for (const auto& [r_prime, num] : numerator) {
    numerator_slot[r_prime + num_target] = 0;
  }
  if (denominator <= 0.0) return;
  for (const auto& [r_prime, num] : numerator) {
    const double score = num / denominator;
    if (score >= config.relation_min_score) {
      store_score(rel, r_prime, score > 1.0 ? 1.0 : score);
    }
  }
}

}  // namespace

size_t RelationPass::Prepare(IterationContext& ctx) {
  num_left_ = ctx.left->num_relations();
  const size_t total = num_left_ + ctx.right->num_relations();
  layout_ = ShardLayout::Make(total, ctx.config->num_shards);
  l2r_ = ctx.Direction(true, &ctx.current);
  r2l_ = ctx.Direction(false, &ctx.current);
  // Reuse is safe only when this generation's retained item lists are the
  // previous same-parity iteration's complete output over the same item
  // space as the worklist.
  gen_ = prepare_count_ % 2;
  ++prepare_count_;
  reuse_ = ctx.config->semi_naive && ctx.worklist != nullptr &&
           ctx.worklist->relations_active && have_results_[gen_] &&
           outputs_[gen_].size() == total &&
           ctx.worklist->dirty_left_rels.size() == num_left_ &&
           ctx.worklist->dirty_right_rels.size() == ctx.right->num_relations();
  outputs_[gen_].resize(total);
  if (!reuse_) {
    for (auto& item : outputs_[gen_]) item.clear();
  }
  scratch_ = &ctx.ScratchSlots<RelationShardScratch>();  // serial phase
  if (ctx.obs.metrics != nullptr) {  // serial phase: registration may allocate
    relations_scored_ = ctx.obs.metrics->Counter("relation.relations_scored");
    relations_reused_ = ctx.obs.metrics->Counter("relation.relations_reused");
    scores_emitted_ = ctx.obs.metrics->Counter("relation.scores_emitted");
  }
  return layout_.num_shards;
}

void RelationPass::RunShard(size_t shard, size_t worker,
                            IterationContext& ctx) {
  RelationShardScratch& scratch = (*scratch_)[worker];
  // Item i scores left relation i+1 for i < num_left, right relation
  // i-num_left+1 otherwise.
  std::vector<std::vector<Scored>>& outputs = outputs_[gen_];
  size_t computed = 0;
  size_t emitted = 0;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    const bool is_left = i < num_left_;
    // Clean relation: no member moved its view since the previous
    // same-parity iteration, so the retained list holds exactly what this
    // iteration would recompute.
    if (reuse_ && (is_left ? ctx.worklist->dirty_left_rels[i]
                           : ctx.worklist->dirty_right_rels[i - num_left_]) ==
                      0) {
      continue;
    }
    const rdf::RelId rel =
        static_cast<rdf::RelId>(is_left ? i + 1 : i - num_left_ + 1);
    std::vector<Scored>& out = outputs[i];
    out.clear();
    ++computed;
    ScoreOneRelation(rel, is_left ? l2r_ : r2l_, *ctx.config, scratch,
                     [&](rdf::RelId sub, rdf::RelId super, double score) {
                       out.push_back(Scored{sub, super, score, is_left});
                     });
    emitted += out.size();
  }
  if (ctx.obs.metrics != nullptr) {
    ctx.obs.metrics->Add(relations_scored_, worker, computed);
    ctx.obs.metrics->Add(relations_reused_, worker,
                         layout_.end(shard) - layout_.begin(shard) - computed);
    ctx.obs.metrics->Add(scores_emitted_, worker, emitted);
  }
}

void RelationPass::Merge(IterationContext& ctx) {
  RelationScores scores;
  for (const std::vector<Scored>& item : outputs_[gen_]) {
    for (const Scored& s : item) {
      if (s.sub_is_left) {
        scores.SetSubLeftRight(s.sub, s.super, s.score);
      } else {
        scores.SetSubRightLeft(s.sub, s.super, s.score);
      }
    }
  }
  ctx.fresh_scores = std::move(scores);
  // The item lists stay in place; the next same-parity iteration reuses
  // them for relations its worklist marks clean.
  have_results_[gen_] = ctx.config->semi_naive;
}

void RelationPass::SaveShard(size_t shard, std::string* out) const {
  PayloadWriter writer;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    writer.U32(static_cast<uint32_t>(outputs_[gen_][i].size()));
    for (const Scored& s : outputs_[gen_][i]) {
      writer.U8(s.sub_is_left ? 1 : 0);
      writer.U32(ZigZag(s.sub));
      writer.U32(ZigZag(s.super));
      writer.F64(s.score);
    }
  }
  *out = writer.Take();
}

bool RelationPass::LoadShard(size_t shard, std::string_view bytes,
                             IterationContext& ctx) {
  PayloadReader reader(bytes);
  const auto num_rels = [&](bool left_side) {
    return left_side ? ctx.left->num_relations() : ctx.right->num_relations();
  };
  // Decode into a staging area first so a payload rejected mid-way leaves
  // the item lists untouched (the shard then simply recomputes).
  std::vector<std::vector<Scored>> staged(layout_.end(shard) -
                                          layout_.begin(shard));
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    const bool is_left = i < num_left_;
    const rdf::RelId item_rel =
        static_cast<rdf::RelId>(is_left ? i + 1 : i - num_left_ + 1);
    uint32_t count = 0;
    // Each entry occupies 17 payload bytes (u8 + 2×u32 + f64); bounding the
    // count by that keeps a corrupt length field from provoking a giant
    // reserve() before per-entry validation runs.
    if (!reader.U32(&count) || count > bytes.size() / 17) return false;
    std::vector<Scored>& slot = staged[i - layout_.begin(shard)];
    slot.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      uint8_t entry_is_left = 0;
      uint32_t sub = 0;
      uint32_t super = 0;
      Scored s;
      if (!reader.U8(&entry_is_left) || entry_is_left > 1 ||
          !reader.U32(&sub) || !reader.U32(&super) || !reader.F64(&s.score)) {
        return false;
      }
      s.sub_is_left = entry_is_left == 1;
      s.sub = UnZigZag(sub);
      s.super = UnZigZag(super);
      // Every entry of an item was emitted for that item's relation and
      // side; anything else is a foreign payload.
      if (s.sub_is_left != is_left || s.sub != item_rel || s.super == 0 ||
          static_cast<size_t>(s.super < 0 ? -s.super : s.super) >
              num_rels(!s.sub_is_left) ||
          !(s.score >= 0.0) || s.score > 1.0) {
        return false;
      }
      slot.push_back(s);
    }
  }
  if (!reader.AtEnd()) return false;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    outputs_[gen_][i] = std::move(staged[i - layout_.begin(shard)]);
  }
  return true;
}

}  // namespace paris::core
