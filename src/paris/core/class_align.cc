#include "paris/core/class_align.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "paris/core/stamped_slots.h"

namespace paris::core {

// Per-worker scratch, owned by the IterationContext so the buffers'
// capacity survives across shards and iterations. Both accumulators are
// indexed by the target class's position in target.classes(); each class
// d gets its products and sums in the same order a map keyed by d would,
// and the per-class output is sorted by target class id before it is
// emitted, so entries are byte-identical across thread counts and shard
// assignments.
struct ClassShardScratch {
  std::vector<Candidate> x_eq;
  StampedSlots per_class_miss;    // per sampled instance x
  StampedSlots expected_overlap;  // per scored class c
  std::vector<std::pair<rdf::TermId, double>> sorted_overlap;
};

namespace {

// A term id that is not a class, in a class-position index.
constexpr uint32_t kNoClass = UINT32_MAX;

void ScoreOneClass(rdf::TermId c, const DirectionalContext& ctx,
                   const std::vector<uint32_t>& class_position,
                   const AlignmentConfig& config, bool sub_is_left,
                   ClassShardScratch* scratch,
                   std::vector<ClassAlignmentEntry>* out) {
  const ontology::Ontology& source = *ctx.source;
  const ontology::Ontology& target = *ctx.target;
  const auto members = source.InstancesOf(c);
  if (members.empty()) return;
  const size_t sample = std::min(members.size(), config.class_instance_sample);
  std::vector<Candidate>& x_eq = scratch->x_eq;
  StampedSlots& per_class_miss = scratch->per_class_miss;
  StampedSlots& expected_overlap = scratch->expected_overlap;
  expected_overlap.Next();
  for (size_t i = 0; i < sample; ++i) {
    x_eq.clear();
    ctx.AppendEquivalents(members[i], &x_eq);
    if (x_eq.empty()) continue;
    // Per instance x: for each target class d,
    //   1 - ∏_{y ∈ eq(x), type(y, d)} (1 - Pr(x ≡ y)).
    per_class_miss.Next();
    for (const Candidate& cx : x_eq) {
      for (rdf::TermId d : target.ClassesOf(cx.other)) {
        // Every type of a target instance is a target class.
        assert(d < class_position.size() && class_position[d] != kNoClass);
        per_class_miss.Touch(class_position[d], 1.0) *= (1.0 - cx.prob);
      }
    }
    for (const uint32_t d : per_class_miss.touched()) {
      expected_overlap.Touch(d, 0.0) += 1.0 - per_class_miss.value(d);
    }
  }
  const std::vector<rdf::TermId>& target_classes = target.classes();
  std::vector<std::pair<rdf::TermId, double>>& sorted = scratch->sorted_overlap;
  sorted.clear();
  for (const uint32_t d : expected_overlap.touched()) {
    sorted.emplace_back(target_classes[d], expected_overlap.value(d));
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [d, overlap] : sorted) {
    const double score = overlap / static_cast<double>(sample);
    if (score >= config.class_min_score) {
      out->push_back(
          ClassAlignmentEntry{c, d, score > 1.0 ? 1.0 : score, sub_is_left});
    }
  }
}

// The dense inverse of `onto.classes()`: the position of each class term,
// kNoClass for every other id up to the largest class id.
std::vector<uint32_t> ClassPositions(const ontology::Ontology& onto) {
  const std::vector<rdf::TermId>& classes = onto.classes();
  const rdf::TermId top =
      classes.empty() ? 0 : *std::max_element(classes.begin(), classes.end());
  std::vector<uint32_t> position(classes.empty() ? 0 : size_t{top} + 1,
                                 kNoClass);
  for (size_t i = 0; i < classes.size(); ++i) {
    position[classes[i]] = static_cast<uint32_t>(i);
  }
  return position;
}

}  // namespace

std::vector<ClassAlignmentEntry> ClassScores::AboveThreshold(
    double threshold, bool sub_is_left) const {
  std::vector<ClassAlignmentEntry> out;
  for (const auto& e : entries_) {
    if (e.sub_is_left == sub_is_left && e.score >= threshold) {
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ClassAlignmentEntry& a, const ClassAlignmentEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.sub != b.sub) return a.sub < b.sub;
              return a.super < b.super;
            });
  return out;
}

size_t ClassScores::NumAlignedSubClasses(double threshold,
                                         bool sub_is_left) const {
  std::unordered_set<rdf::TermId> seen;
  for (const auto& e : entries_) {
    if (e.sub_is_left == sub_is_left && e.score >= threshold) {
      seen.insert(e.sub);
    }
  }
  return seen.size();
}

size_t ClassPass::Prepare(IterationContext& ctx) {
  num_left_ = ctx.left->classes().size();
  const size_t total = num_left_ + ctx.right->classes().size();
  layout_ = ShardLayout::Make(total, ctx.config->num_shards);
  l2r_ = ctx.Direction(true, ctx.previous);
  r2l_ = ctx.Direction(false, ctx.previous);
  outputs_.resize(layout_.num_shards);
  for (auto& shard : outputs_) shard.clear();
  left_class_position_ = ClassPositions(*ctx.left);
  right_class_position_ = ClassPositions(*ctx.right);
  scratch_ = &ctx.ScratchSlots<ClassShardScratch>();  // serial phase
  const size_t most_classes =
      std::max(ctx.left->classes().size(), ctx.right->classes().size());
  for (ClassShardScratch& scratch : *scratch_) {
    scratch.per_class_miss.Reserve(most_classes);
    scratch.expected_overlap.Reserve(most_classes);
  }
  if (ctx.obs.metrics != nullptr) {  // serial phase: registration may allocate
    classes_scored_ = ctx.obs.metrics->Counter("class.classes_scored");
    entries_emitted_ = ctx.obs.metrics->Counter("class.entries_emitted");
  }
  return layout_.num_shards;
}

void ClassPass::RunShard(size_t shard, size_t worker, IterationContext& ctx) {
  const std::vector<rdf::TermId>& left_classes = ctx.left->classes();
  const std::vector<rdf::TermId>& right_classes = ctx.right->classes();
  ClassShardScratch& scratch = (*scratch_)[worker];
  // Item i scores left class i for i < num_left, right class i-num_left
  // otherwise.
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    const bool is_left = i < num_left_;
    const rdf::TermId c =
        is_left ? left_classes[i] : right_classes[i - num_left_];
    // A left class is scored against the right ontology's classes.
    ScoreOneClass(c, is_left ? l2r_ : r2l_,
                  is_left ? right_class_position_ : left_class_position_,
                  *ctx.config, is_left, &scratch, &outputs_[shard]);
  }
  if (ctx.obs.metrics != nullptr) {
    ctx.obs.metrics->Add(classes_scored_, worker,
                         layout_.end(shard) - layout_.begin(shard));
    ctx.obs.metrics->Add(entries_emitted_, worker, outputs_[shard].size());
  }
}

void ClassPass::Merge(IterationContext& ctx) {
  std::vector<ClassAlignmentEntry> entries;
  for (const std::vector<ClassAlignmentEntry>& shard : outputs_) {
    entries.insert(entries.end(), shard.begin(), shard.end());
  }
  ctx.classes = ClassScores(std::move(entries));
}

}  // namespace paris::core
