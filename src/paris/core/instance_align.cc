#include "paris/core/instance_align.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "paris/core/stamped_slots.h"
#include "paris/core/worklist.h"

namespace paris::core {

// One expanded left fact r(x, y): its equivalents y' are
// `equivalents[begin, end)` of the worker's flat column, in expansion
// order, or sorted by term id in negative-evidence mode, so that the
// per-candidate lookup in NegativeEvidenceFactor is a binary search. The
// plan step adds the fact's recorded runs, which end at `runs_end` in the
// worker's run list, and `keep`, the product of their factors.
struct ExpandedFact {
  rdf::RelId rel = rdf::kNullRel;  // r, signed
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t runs_end = 0;
  double keep = 1.0;
};

// A run of one expanded neighbour y': its facts (rt, x') for one adjacency
// relation rt, all of which receive the same Eq. (13) factor.
struct NeighborRun {
  const rdf::Fact* begin;
  const rdf::Fact* end;
  double factor;
};

// Per-worker scratch, owned by the IterationContext so the buffers'
// capacity survives across shards and iterations. Namespace-scope (not
// anonymous) because instance_align.h forward-declares it.
struct InstanceShardScratch {
  std::vector<ExpandedFact> facts;
  std::vector<Candidate> equivalents;
  std::vector<NeighborRun> runs;
  // The positive-evidence accumulator of the current left instance x: the
  // running product of Eq. 13's factors per candidate x', indexed by x''s
  // position in right.instances().
  StampedSlots products;
  // x's surviving candidates, copied into its result slot at exact size.
  std::vector<Candidate> candidates;
};

namespace {

// The first fact k after which no new key can reach τ: keys first touched
// at facts ≥ k are not created. Any key's product over facts ≥ k is at
// least Ŝ_k = ∏_{j≥k} keep_j, so its score stays below 1 − Ŝ_k; creation
// closes at the first k where 1 − Ŝ_k + ε < τ, with ε covering the
// rounding of both products (core/README.md, "Instance kernel", proves
// it). 1 − Ŝ_k only shrinks as k grows, so the scan from the back stops at
// the first fact that fails. `num_runs` is the number of recorded runs.
size_t CreationLimit(const std::vector<ExpandedFact>& facts, size_t num_runs,
                     double tau) {
  const double epsilon =
      4.0 * static_cast<double>(num_runs + 2) * 0x1p-53;
  size_t limit = facts.size();
  double suffix = 1.0;
  while (limit > 0) {
    suffix *= facts[limit - 1].keep;
    if (!((1.0 - suffix) + epsilon < tau)) break;
    --limit;
  }
  return limit;
}

// The plan step for one left instance: walks the relation directory of
// every expanded y' within the fanout guard and records each run whose
// Eq. (13) factor is below 1, computed once per run — the same expression
// on the same operands as a per-fact evaluation, so the same bits. Runs
// not recorded hold only facts that add no factor; their length goes to
// `skipped`. Fills each fact's `runs_end` and `keep`. Returns false when a
// factor lies outside [0, 1) — possible only with θ or a literal
// probability above 1 — so that the bound of CreationLimit does not hold.
bool PlanRuns(const ontology::Ontology& right,
              const FactorCoefficientTable& coefficients,
              size_t max_neighbor_fanout, InstanceShardScratch* scratch,
              uint64_t* skipped) {
  std::vector<NeighborRun>& runs = scratch->runs;
  runs.clear();
  bool bounded = true;
  for (ExpandedFact& ef : scratch->facts) {
    const FactorCoefficients* row = coefficients.Row(ef.rel);
    double keep = 1.0;
    for (uint32_t e = ef.begin; e < ef.end; ++e) {
      const Candidate& y_eq = scratch->equivalents[e];
      const auto cursor = right.store().CursorFor(y_eq.other);
      const size_t degree = cursor.all().size();
      if (degree > max_neighbor_fanout) continue;
      *skipped += degree;
      cursor.ForEachRun([&](rdf::RelId rt, std::span<const rdf::Fact> run) {
        // Run (rt, x') of y' holds statements rt(y', x'), i.e. r'(x', y')
        // with r' = rt⁻¹; the row is indexed by rt.
        const FactorCoefficients& c = row[rt];
        if (c.skip) return;
        const double factor =
            (1.0 - c.a * y_eq.prob) * (1.0 - c.b * y_eq.prob);
        if (factor >= 1.0) return;
        bounded = bounded && factor >= 0.0;
        keep *= factor;
        runs.push_back({run.data(), run.data() + run.size(), factor});
        *skipped -= run.size();
      });
    }
    ef.keep = keep;
    ef.runs_end = static_cast<uint32_t>(runs.size());
  }
  return bounded;
}

// The accumulate step: multiplies the recorded runs' factors into the
// products of x's candidates x', so that each key gets its factors in
// fact, equivalent and neighbour order. Runs before `open_runs` may create
// keys; later ones only multiply into live keys, and are not read at all
// when none is live. Adds the facts read to `visited`, the facts not read
// to `skipped`.
void Accumulate(const ontology::Ontology& right, size_t open_runs,
                InstanceShardScratch* scratch, uint64_t* visited,
                uint64_t* skipped) {
  StampedSlots& products = scratch->products;
  const std::vector<NeighborRun>& runs = scratch->runs;
  products.Next();
  for (size_t k = 0; k < open_runs; ++k) {
    const NeighborRun& run = runs[k];
    *visited += static_cast<uint64_t>(run.end - run.begin);
    for (const rdf::Fact* nf = run.begin; nf != run.end; ++nf) {
      const uint32_t position = right.InstancePosition(nf->other);
      if (position == ontology::Ontology::kNoInstance) continue;
      products.Touch(position, 1.0) *= run.factor;
    }
  }
  const bool live = !products.touched().empty();
  for (size_t k = open_runs; k < runs.size(); ++k) {
    const NeighborRun& run = runs[k];
    const auto length = static_cast<uint64_t>(run.end - run.begin);
    if (!live) {
      *skipped += length;
      continue;
    }
    *visited += length;
    for (const rdf::Fact* nf = run.begin; nf != run.end; ++nf) {
      const uint32_t position = right.InstancePosition(nf->other);
      if (position == ontology::Ontology::kNoInstance) continue;
      if (double* product = products.Live(position)) *product *= run.factor;
    }
  }
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
double NegativeEvidenceFactor(const InstanceShardScratch& scratch,
                              const ontology::Ontology& left,
                              const ontology::Ontology& right,
                              const std::vector<BestCounterpart>& right_sub_left,
                              const std::vector<BestCounterpart>& left_sub_right,
                              const AlignmentConfig& config,
                              rdf::TermId x_prime) {
  const auto variant = config.functionality_variant;
  const auto num_left = static_cast<rdf::RelId>(left.num_relations());
  // One dictionary lookup for x'; each r' range below is a probe of the
  // index's per-term relation directory (log of x''s *distinct relation*
  // count, not of its full degree — the win on hub entities).
  const auto cursor = right.store().CursorFor(x_prime);

  auto inner_product = [&](const ExpandedFact& ef, rdf::RelId r_prime) {
    const Candidate* lo = scratch.equivalents.data() + ef.begin;
    const Candidate* hi = scratch.equivalents.data() + ef.end;
    double inner = 1.0;
    for (const rdf::Fact& cf : cursor.FactsWith(r_prime)) {
      // The fact's equivalents are sorted by term id (see RunShard).
      const Candidate* it = std::lower_bound(
          lo, hi, cf.other,
          [](const Candidate& c, rdf::TermId t) { return c.other < t; });
      const double p = it != hi && it->other == cf.other ? it->prob : 0.0;
      inner *= (1.0 - p);
    }
    return inner;
  };

  double result = 1.0;
  for (const ExpandedFact& ef : scratch.facts) {
    const size_t row = static_cast<size_t>(ef.rel + num_left);
    const BestCounterpart& rl = right_sub_left[row];
    if (rl.rel != rdf::kNullRel) {
      const double fun_r = left.functionality().Global(ef.rel, variant);
      result *= (1.0 - fun_r * rl.score * inner_product(ef, rl.rel));
    }
    const BestCounterpart& lr = left_sub_right[row];
    if (lr.rel != rdf::kNullRel) {
      const double fun_rp = right.functionality().Global(lr.rel, variant);
      result *= (1.0 - fun_rp * lr.score * inner_product(ef, lr.rel));
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
  const auto num_left = static_cast<rdf::RelId>(ctx.left->num_relations());
  right_sub_left_.assign(2 * static_cast<size_t>(num_left) + 1, {});
  left_sub_right_.assign(2 * static_cast<size_t>(num_left) + 1, {});
  if (config.use_negative_evidence) {
    // Walks the entries in order: the first counterpart of r stays unless a
    // later one scores strictly higher. A key outside ±[1, L] names no
    // relation a left fact can carry, so it is never looked up.
    auto update = [num_left](std::vector<BestCounterpart>& best,
                             rdf::RelId key, rdf::RelId value, double score) {
      if (key < -num_left || key > num_left) return;
      BestCounterpart& slot = best[static_cast<size_t>(key + num_left)];
      if (slot.rel == rdf::kNullRel || score > slot.score) {
        slot = {value, score};
      }
    };
    for (const RelationAlignmentEntry& e : ctx.rel_scores->Entries()) {
      if (e.score <= config.theta) continue;
      if (e.sub_is_left) {
        // Pr(left e.sub ⊆ right e.super); also its inverted twin.
        update(left_sub_right_, e.sub, e.super, e.score);
        update(left_sub_right_, rdf::Inverse(e.sub), rdf::Inverse(e.super),
               e.score);
      } else {
        // Pr(right e.sub ⊆ left e.super).
        update(right_sub_left_, e.super, e.sub, e.score);
        update(right_sub_left_, rdf::Inverse(e.super), rdf::Inverse(e.sub),
               e.score);
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
    seeded_[gen_].clear();
  }
  scratch_ = &ctx.ScratchSlots<InstanceShardScratch>();  // serial phase
  // One accumulator slot per right instance; a right-side delta adds
  // instances, so the size is re-checked every iteration.
  for (InstanceShardScratch& scratch : *scratch_) {
    scratch.products.Reserve(ctx.right->instances().size());
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
    neighbor_facts_skipped_ =
        ctx.obs.metrics->Counter("instance.neighbor_facts_skipped");
    keys_created_ = ctx.obs.metrics->Counter("instance.keys_created");
  }
  return layout_.num_shards;
}

void InstancePass::SeedResults(const ontology::Ontology& left,
                               const InstanceEquivalences& seed) {
  const std::vector<rdf::TermId>& instances = left.instances();
  have_merged_ = {false, false};
  seed_ = seed;  // shares the finalized tables
  seed_rows_.resize(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    seed_rows_[i] = seed_.LeftToRight(instances[i]);
  }
  for (size_t g = 0; g < 2; ++g) {
    results_[g].assign(instances.size(), {});
    seeded_[g].assign(instances.size(), 1);
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
  std::vector<ExpandedFact>& facts = scratch.facts;
  std::vector<Candidate>& equivalents = scratch.equivalents;
  const StampedSlots& products = scratch.products;

  std::vector<std::vector<Candidate>>& results = results_[gen_];
  size_t computed = 0;
  uint64_t visited = 0;
  uint64_t skipped = 0;
  uint64_t keys = 0;
  for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
    // Clean instance: the retained slot (from the previous same-parity
    // iteration) already holds exactly what this iteration would recompute.
    if (reuse_ && ctx.worklist->dirty_instances[i] == 0) continue;
    const rdf::TermId x = instances[i];
    ++computed;
    results[i].clear();
    if (!seeded_[gen_].empty()) seeded_[gen_][i] = 0;

    // Expand: each fact r(x, y) with y's equivalents y' in one flat column.
    facts.clear();
    equivalents.clear();
    for (const rdf::Fact& f : left.FactsAbout(x)) {
      ExpandedFact ef;
      ef.rel = f.rel;
      ef.begin = static_cast<uint32_t>(equivalents.size());
      l2r_.AppendEquivalents(f.other, &equivalents);
      ef.end = static_cast<uint32_t>(equivalents.size());
      if (ef.begin == ef.end && !config.use_negative_evidence) continue;
      if (config.use_negative_evidence) {
        // The sort only feeds NegativeEvidenceFactor's binary search;
        // don't pay for it in the positive-only default mode.
        std::sort(equivalents.begin() + ef.begin, equivalents.end(),
                  [](const Candidate& a, const Candidate& b) {
                    return a.other < b.other;
                  });
      }
      facts.push_back(ef);
    }
    if (facts.empty()) continue;

    // Plan, close key creation where the bound allows, accumulate.
    const bool bounded = PlanRuns(right, coefficients_,
                                  config.max_neighbor_fanout, &scratch,
                                  &skipped);
    const size_t limit =
        bounded ? CreationLimit(facts, scratch.runs.size(),
                                config.instance_threshold)
                : facts.size();
    Accumulate(right, limit == 0 ? 0 : facts[limit - 1].runs_end, &scratch,
               &visited, &skipped);
    keys += products.touched().size();
    if (products.touched().empty()) continue;

    std::vector<Candidate>& candidates = scratch.candidates;
    candidates.clear();
    for (const uint32_t position : products.touched()) {
      const rdf::TermId x_prime = right_instances[position];
      double score = 1.0 - products.value(position);
      if (config.use_negative_evidence) {
        score *= NegativeEvidenceFactor(scratch, left, right, right_sub_left_,
                                        left_sub_right_, config, x_prime);
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
    // An exact-size copy: the slot outlives the iteration (two generations
    // are retained), the scratch buffer's capacity does not need to.
    results[i].assign(candidates.begin(), candidates.end());
  }
  if (ctx.obs.metrics != nullptr) {
    uint64_t with_candidates = 0;
    uint64_t emitted = 0;
    for (size_t i = layout_.begin(shard); i < layout_.end(shard); ++i) {
      const std::span<const Candidate> row = Row(gen_, i);
      if (!row.empty()) {
        ++with_candidates;
        emitted += row.size();
      }
    }
    ctx.obs.metrics->Add(entities_scored_, worker, computed);
    ctx.obs.metrics->Add(entities_reused_, worker,
                         layout_.end(shard) - layout_.begin(shard) - computed);
    ctx.obs.metrics->Add(entities_with_candidates_, worker, with_candidates);
    ctx.obs.metrics->Add(candidates_emitted_, worker, emitted);
    ctx.obs.metrics->Add(neighbor_facts_visited_, worker, visited);
    ctx.obs.metrics->Add(neighbor_facts_skipped_, worker, skipped);
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
  InstanceEquivalences equiv;
  for (size_t i = 0; i < layout_.total; ++i) {
    equiv.Set(instances[i], Row(gen_, i));
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
    const std::span<const Candidate> row = Row(gen_, i);
    writer.U32(static_cast<uint32_t>(row.size()));
    for (const Candidate& c : row) {
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
    if (!seeded_[gen_].empty()) seeded_[gen_][i] = 0;
  }
  all_clean_ = false;
  return true;
}

}  // namespace paris::core
