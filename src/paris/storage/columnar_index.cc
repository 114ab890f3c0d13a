#include "paris/storage/columnar_index.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>

#include "paris/util/thread_pool.h"

namespace paris::storage {

namespace {

constexpr bool FactLess(const rdf::Fact& a, const rdf::Fact& b) {
  return a.rel != b.rel ? a.rel < b.rel : a.other < b.other;
}

constexpr bool PairLess(const rdf::TermPair& a, const rdf::TermPair& b) {
  return a.first != b.first ? a.first < b.first : a.second < b.second;
}

constexpr bool EntryLess(const ColumnarIndex::Entry& a,
                         const ColumnarIndex::Entry& b) {
  if (a.rel != b.rel) return a.rel < b.rel;
  return a.other < b.other;
}

// Number of input ranges the parallel counting-sort passes split their scan
// into. Per-range histograms cost range_count × bucket_count counters, so
// the fanout is deliberately modest; below kParallelSortMinEntries the
// serial scan wins and the parallel path is skipped entirely.
size_t SortRangeCount(const util::ThreadPool* pool) {
  // A constructed-but-empty pool (ThreadPool(0) = "run inline") counts as
  // one range, like no pool at all.
  if (pool == nullptr || pool->num_threads() == 0) return 1;
  return std::min<size_t>(pool->num_threads(), 8);
}
constexpr size_t kParallelSortMinEntries = 1 << 15;

// Parallel stable counting sort: scans `total` input items in `ranges`
// fixed ranges, building one histogram per range via `count(range_begin,
// range_end, histogram)`, prefix-combines the histograms into per-range
// write cursors (range r's cursor for bucket b starts where range r-1's
// items for b end), and scatters via `scatter(range_begin, range_end,
// cursors)`. Because cursors are pre-computed from fixed range boundaries,
// every item lands exactly where the serial scan would have put it — the
// output is byte-identical, in-bucket order included — while both the
// histogram and the scatter pass run across the pool.
// `prepare(total_out)` runs once between the two passes — after the bucket
// offsets are known, before any scatter — so the caller can size the output
// array.
template <typename CountFn, typename PrepareFn, typename ScatterFn>
std::vector<uint64_t> ParallelCountingSort(util::ThreadPool* pool,
                                           size_t total, size_t num_buckets,
                                           const CountFn& count,
                                           const PrepareFn& prepare,
                                           const ScatterFn& scatter) {
  // Each extra range costs a num_buckets-sized histogram; capping the
  // fanout at total/num_buckets bounds the transient counters by ~8 bytes
  // per input item (half the entry array) even when the bucket space is as
  // large as the term dictionary.
  size_t ranges = total >= kParallelSortMinEntries ? SortRangeCount(pool) : 1;
  if (num_buckets > 0) {
    ranges = std::min(ranges, std::max<size_t>(1, total / num_buckets));
  }
  const size_t chunk = (total + ranges - 1) / ranges;
  const auto range_bounds = [&](size_t r) {
    const size_t begin = r * chunk;
    return std::pair<size_t, size_t>{std::min(begin, total),
                                     std::min(begin + chunk, total)};
  };

  // Per-range histograms (bucket counts), then offsets via prefix sums.
  std::vector<std::vector<uint64_t>> counts(ranges);
  util::ForRange(pool, ranges, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      counts[r].assign(num_buckets, 0);
      const auto [lo, hi] = range_bounds(r);
      count(lo, hi, counts[r].data());
    }
  });
  std::vector<uint64_t> offsets(num_buckets + 1, 0);
  for (size_t r = 0; r < ranges; ++r) {
    for (size_t b = 0; b < num_buckets; ++b) {
      offsets[b + 1] += counts[r][b];
    }
  }
  for (size_t b = 1; b <= num_buckets; ++b) offsets[b] += offsets[b - 1];
  prepare(offsets[num_buckets]);

  // Rewrite each range's counts into its starting cursors: bucket start +
  // everything earlier ranges contribute to that bucket.
  for (size_t b = 0; b < num_buckets; ++b) {
    uint64_t cursor = offsets[b];
    for (size_t r = 0; r < ranges; ++r) {
      const uint64_t n = counts[r][b];
      counts[r][b] = cursor;
      cursor += n;
    }
  }
  util::ForRange(pool, ranges, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const auto [lo, hi] = range_bounds(r);
      scatter(lo, hi, counts[r].data());
    }
  });
  return offsets;
}

}  // namespace

ColumnarIndex ColumnarIndex::Build(std::span<const rdf::TermId> terms,
                                   size_t num_relations,
                                   std::vector<Entry>&& entries,
                                   util::ThreadPool* pool, obs::Hooks hooks) {
  ColumnarIndex index;
  const size_t num_terms = terms.size();
  // Build runs on the calling thread (the inner loops fan across the pool
  // but block here), so every sub-phase span lands on the main slot.
  const size_t obs_slot = hooks.main_slot();
  obs::Span build_span(hooks.trace, obs_slot, "io", "index.build");

  // Bucket the entries by owner with a counting sort (owners are dense local
  // indexes), then sort each owner's slice by (rel, other) — sharded across
  // the pool. The concatenation equals one global (owner, rel, other) sort,
  // so the packed result is independent of the thread count. Histogram and
  // scatter both fan across the pool (per-range counts, prefix-combined
  // cursors); the stable per-range cursors reproduce the serial scatter's
  // in-bucket order exactly.
  std::vector<Entry> sorted;
  obs::Span bucket_span(hooks.trace, obs_slot, "io", "index.bucket_by_owner");
  const std::vector<uint64_t> bucket_offsets = ParallelCountingSort(
      pool, entries.size(), num_terms,
      [&](size_t lo, size_t hi, uint64_t* histogram) {
        for (size_t i = lo; i < hi; ++i) {
          assert(entries[i].owner < num_terms);
          ++histogram[entries[i].owner];
        }
      },
      [&](uint64_t total) { sorted.resize(total); },
      [&](size_t lo, size_t hi, uint64_t* cursors) {
        for (size_t i = lo; i < hi; ++i) {
          sorted[cursors[entries[i].owner]++] = entries[i];
        }
      });
  entries = {};
  bucket_span.End();

  // Per-term slice sort + dedup (a store is a *set* of statements;
  // duplicates always share an owner, so in-slice dedup is global dedup).
  obs::Span dedup_span(hooks.trace, obs_slot, "io", "index.sort_dedup");
  std::vector<uint64_t> kept(num_terms, 0);
  util::ForRange(pool, num_terms, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      auto lo = sorted.begin() + static_cast<ptrdiff_t>(bucket_offsets[t]);
      auto hi = sorted.begin() + static_cast<ptrdiff_t>(bucket_offsets[t + 1]);
      std::sort(lo, hi, EntryLess);
      kept[t] = static_cast<uint64_t>(std::unique(lo, hi) - lo);
    }
  });

  // SPO offsets: prefix sums over the deduplicated slice lengths.
  std::vector<uint64_t> offsets(num_terms + 1, 0);
  for (size_t t = 0; t < num_terms; ++t) {
    offsets[t + 1] = offsets[t] + kept[t];
  }
  const size_t num_facts = offsets[num_terms];
  dedup_span.End();

  // Fill both adjacency columns, sharded by term.
  obs::Span fill_span(hooks.trace, obs_slot, "io", "index.pack_columns");
  std::vector<rdf::Fact> facts(num_facts);
  std::vector<rdf::TermId> objects(num_facts);
  util::ForRange(pool, num_terms, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const Entry* src = sorted.data() + bucket_offsets[t];
      const size_t dst = offsets[t];
      for (uint64_t i = 0; i < kept[t]; ++i) {
        facts[dst + i] = rdf::Fact{src[i].rel, src[i].other};
        objects[dst + i] = src[i].other;
      }
    }
  });

  fill_span.End();

  // POS: bucket the base-direction statements by relation (counting-sort
  // histogram + scatter over fixed term ranges, both across the pool; the
  // returned offsets equal the serial pass's `pair_offsets` exactly), then
  // sort each relation's range by (first, second) — sharded by relation.
  obs::Span pairs_span(hooks.trace, obs_slot, "io", "index.pack_pairs");
  std::vector<rdf::TermPair> pairs;
  std::vector<uint64_t> pair_offsets = ParallelCountingSort(
      pool, num_terms, num_relations,
      [&](size_t lo, size_t hi, uint64_t* histogram) {
        for (size_t t = lo; t < hi; ++t) {
          const Entry* src = sorted.data() + bucket_offsets[t];
          for (uint64_t i = 0; i < kept[t]; ++i) {
            if (src[i].rel > 0) {
              assert(static_cast<size_t>(src[i].rel) <= num_relations);
              ++histogram[static_cast<size_t>(src[i].rel) - 1];
            }
          }
        }
      },
      [&](uint64_t total) { pairs.resize(total); },
      [&](size_t lo, size_t hi, uint64_t* cursors) {
        for (size_t t = lo; t < hi; ++t) {
          const Entry* src = sorted.data() + bucket_offsets[t];
          for (uint64_t i = 0; i < kept[t]; ++i) {
            if (src[i].rel > 0) {
              pairs[cursors[static_cast<size_t>(src[i].rel) - 1]++] =
                  rdf::TermPair{terms[src[i].owner], src[i].other};
            }
          }
        }
      });
  util::ForRange(pool, num_relations, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      std::sort(pairs.begin() + static_cast<ptrdiff_t>(pair_offsets[r]),
                pairs.begin() + static_cast<ptrdiff_t>(pair_offsets[r + 1]),
                PairLess);
    }
  });
  pairs_span.End();

  index.offsets_ = Column<uint64_t>::FromOwned(std::move(offsets));
  index.facts_ = Column<rdf::Fact>::FromOwned(std::move(facts));
  index.objects_ = Column<rdf::TermId>::FromOwned(std::move(objects));
  index.pair_offsets_ = Column<uint64_t>::FromOwned(std::move(pair_offsets));
  index.pairs_ = Column<rdf::TermPair>::FromOwned(std::move(pairs));
  index.RebuildDirectory(pool);
  return index;
}

std::vector<ColumnarIndex::Entry> ColumnarIndex::MergeDelta(
    std::span<const rdf::TermId> terms, size_t num_relations,
    std::vector<Entry>&& entries, util::ThreadPool* pool, obs::Hooks hooks) {
  const size_t old_terms = num_terms();
  const size_t old_rels = this->num_relations();
  const size_t new_terms = terms.size();
  assert(new_terms >= old_terms);
  assert(num_relations >= old_rels);
  const size_t obs_slot = hooks.main_slot();
  obs::Span merge_span(hooks.trace, obs_slot, "io", "index.merge_delta");

  // Sort + dedup the delta, then drop entries the index already holds — the
  // survivors are disjoint from every existing slice, so the per-term merges
  // below never have to dedup across the boundary.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.owner != b.owner) return a.owner < b.owner;
              return EntryLess(a, b);
            });
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::vector<Entry> kept;
  kept.reserve(entries.size());
  for (const Entry& e : entries) {
    assert(e.owner < new_terms);
    assert(static_cast<size_t>(rdf::BaseRel(e.rel)) <= num_relations);
    if (e.owner < old_terms) {
      const auto slice = FactsAbout(e.owner);
      if (std::binary_search(slice.begin(), slice.end(),
                             rdf::Fact{e.rel, e.other}, FactLess)) {
        continue;
      }
    }
    kept.push_back(e);
  }
  entries = {};

  // Per-term delta ranges (kept is sorted by owner) and merged SPO offsets.
  std::vector<uint64_t> delta_start(new_terms + 1, 0);
  for (const Entry& e : kept) ++delta_start[e.owner + 1];
  for (size_t t = 0; t < new_terms; ++t) delta_start[t + 1] += delta_start[t];
  std::vector<uint64_t> new_offsets(new_terms + 1, 0);
  for (size_t t = 0; t < new_terms; ++t) {
    const uint64_t old_len = t < old_terms ? offsets_[t + 1] - offsets_[t] : 0;
    new_offsets[t + 1] =
        new_offsets[t] + old_len + (delta_start[t + 1] - delta_start[t]);
  }

  // Merge the adjacency columns term by term: untouched slices are bulk
  // copies, touched slices a two-pointer merge (both sides sorted by
  // (rel, other), no duplicates across them).
  std::vector<rdf::Fact> new_facts(new_offsets[new_terms]);
  std::vector<rdf::TermId> new_objects(new_offsets[new_terms]);
  util::ForRange(pool, new_terms, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const rdf::Fact* old_lo =
          t < old_terms ? facts_.data() + offsets_[t] : nullptr;
      const rdf::Fact* old_hi =
          t < old_terms ? facts_.data() + offsets_[t + 1] : nullptr;
      const Entry* del_lo = kept.data() + delta_start[t];
      const Entry* del_hi = kept.data() + delta_start[t + 1];
      size_t dst = new_offsets[t];
      while (old_lo != old_hi || del_lo != del_hi) {
        rdf::Fact f;
        if (del_lo == del_hi ||
            (old_lo != old_hi &&
             FactLess(*old_lo, rdf::Fact{del_lo->rel, del_lo->other}))) {
          f = *old_lo++;
        } else {
          f = rdf::Fact{del_lo->rel, del_lo->other};
          ++del_lo;
        }
        new_facts[dst] = f;
        new_objects[dst] = f.other;
        ++dst;
      }
    }
  });

  // Merge POS: bucket the novel base-direction statements by relation, sort
  // each bucket by (first, second), then splice each relation's range.
  std::vector<std::pair<rdf::RelId, rdf::TermPair>> delta_pairs;
  for (const Entry& e : kept) {
    if (e.rel > 0) {
      delta_pairs.push_back({e.rel, rdf::TermPair{terms[e.owner], e.other}});
    }
  }
  std::sort(delta_pairs.begin(), delta_pairs.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return PairLess(a.second, b.second);
            });
  std::vector<uint64_t> pair_start(num_relations + 1, 0);
  for (const auto& [rel, pair] : delta_pairs) {
    ++pair_start[static_cast<size_t>(rel)];
  }
  for (size_t r = 0; r < num_relations; ++r) pair_start[r + 1] += pair_start[r];
  std::vector<uint64_t> new_pair_offsets(num_relations + 1, 0);
  for (size_t r = 0; r < num_relations; ++r) {
    const uint64_t old_len =
        r < old_rels ? pair_offsets_[r + 1] - pair_offsets_[r] : 0;
    new_pair_offsets[r + 1] =
        new_pair_offsets[r] + old_len + (pair_start[r + 1] - pair_start[r]);
  }
  std::vector<rdf::TermPair> new_pairs(new_pair_offsets[num_relations]);
  util::ForRange(pool, num_relations, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const rdf::TermPair* old_lo =
          r < old_rels ? pairs_.data() + pair_offsets_[r] : nullptr;
      const rdf::TermPair* old_hi =
          r < old_rels ? pairs_.data() + pair_offsets_[r + 1] : nullptr;
      const auto* del_lo = delta_pairs.data() + pair_start[r];
      const auto* del_hi = delta_pairs.data() + pair_start[r + 1];
      size_t dst = new_pair_offsets[r];
      while (old_lo != old_hi || del_lo != del_hi) {
        if (del_lo == del_hi ||
            (old_lo != old_hi && PairLess(*old_lo, del_lo->second))) {
          new_pairs[dst++] = *old_lo++;
        } else {
          new_pairs[dst++] = (del_lo++)->second;
        }
      }
    }
  });

  offsets_ = Column<uint64_t>::FromOwned(std::move(new_offsets));
  facts_ = Column<rdf::Fact>::FromOwned(std::move(new_facts));
  objects_ = Column<rdf::TermId>::FromOwned(std::move(new_objects));
  pair_offsets_ = Column<uint64_t>::FromOwned(std::move(new_pair_offsets));
  pairs_ = Column<rdf::TermPair>::FromOwned(std::move(new_pairs));
  keep_alive_.reset();
  RebuildDirectory(pool);
  return kept;
}

bool ColumnarIndex::Validate(std::span<const uint64_t> offsets,
                             std::span<const rdf::Fact> facts,
                             std::span<const uint64_t> pair_offsets,
                             std::span<const rdf::TermPair> pairs) {
  if (offsets.empty() || pair_offsets.empty()) return false;
  if (offsets.front() != 0 || offsets.back() != facts.size()) return false;
  if (pair_offsets.front() != 0 || pair_offsets.back() != pairs.size()) {
    return false;
  }
  if (!std::is_sorted(offsets.begin(), offsets.end())) return false;
  if (!std::is_sorted(pair_offsets.begin(), pair_offsets.end())) return false;
  // Each term's adjacency slice must be strictly increasing by (rel, other);
  // a violation means the bytes don't describe a valid index.
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    for (uint64_t i = offsets[t] + 1; i < offsets[t + 1]; ++i) {
      if (!FactLess(facts[i - 1], facts[i])) return false;
    }
  }
  for (const rdf::Fact& f : facts) {
    // Reject INT32_MIN before BaseRel: negating it is signed overflow.
    if (f.rel == rdf::kNullRel ||
        f.rel == std::numeric_limits<rdf::RelId>::min() ||
        static_cast<size_t>(rdf::BaseRel(f.rel)) >= pair_offsets.size()) {
      return false;
    }
  }
  for (size_t r = 1; r < pair_offsets.size(); ++r) {
    for (uint64_t i = pair_offsets[r - 1] + 1; i < pair_offsets[r]; ++i) {
      if (!PairLess(pairs[i - 1], pairs[i])) return false;
    }
  }
  return true;
}

void ColumnarIndex::RebuildObjectColumn() {
  std::vector<rdf::TermId> objects(facts_.size());
  for (size_t i = 0; i < facts_.size(); ++i) {
    objects[i] = facts_[i].other;
  }
  objects_ = Column<rdf::TermId>::FromOwned(std::move(objects));
}

void ColumnarIndex::RebuildDirectory(util::ThreadPool* pool) {
  const size_t terms = num_terms();
  std::vector<uint64_t> dir_offsets(terms + 1, 0);
  util::ForRange(pool, terms, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      uint64_t runs = 0;
      rdf::RelId prev = rdf::kNullRel;
      for (uint64_t i = offsets_[t]; i < offsets_[t + 1]; ++i) {
        if (runs == 0 || facts_[i].rel != prev) {
          ++runs;
          prev = facts_[i].rel;
        }
      }
      dir_offsets[t + 1] = runs;
    }
  });
  for (size_t t = 0; t < terms; ++t) dir_offsets[t + 1] += dir_offsets[t];
  std::vector<DirEntry> dir(dir_offsets[terms]);
  util::ForRange(pool, terms, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const uint64_t base = offsets_[t];
      assert(offsets_[t + 1] - base <=
             std::numeric_limits<uint32_t>::max());
      uint64_t dst = dir_offsets[t];
      rdf::RelId prev = rdf::kNullRel;
      for (uint64_t i = base; i < offsets_[t + 1]; ++i) {
        if (dst == dir_offsets[t] || facts_[i].rel != prev) {
          dir[dst++] = DirEntry{facts_[i].rel, static_cast<uint32_t>(i - base)};
          prev = facts_[i].rel;
        }
      }
    }
  });
  dir_offsets_ = Column<uint64_t>::FromOwned(std::move(dir_offsets));
  dir_ = Column<DirEntry>::FromOwned(std::move(dir));
}

bool ColumnarIndex::ValidateDirectory(std::span<const uint64_t> offsets,
                                      std::span<const rdf::Fact> facts,
                                      std::span<const uint64_t> dir_offsets,
                                      std::span<const DirEntry> dir) {
  if (dir_offsets.size() != offsets.size()) return false;
  if (dir_offsets.front() != 0 || dir_offsets.back() != dir.size()) {
    return false;
  }
  // Exact check: walking each term's facts must reproduce the directory
  // rows one-for-one (one row per (rel, other)-run start, relative begin
  // offsets). O(num_facts), like the other load-time validations.
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    const uint64_t base = offsets[t];
    if (offsets[t + 1] - base > std::numeric_limits<uint32_t>::max()) {
      return false;
    }
    uint64_t next = dir_offsets[t];
    rdf::RelId prev = rdf::kNullRel;
    for (uint64_t i = base; i < offsets[t + 1]; ++i) {
      if (next == dir_offsets[t] || facts[i].rel != prev) {
        if (next >= dir_offsets[t + 1]) return false;
        const DirEntry want{facts[i].rel, static_cast<uint32_t>(i - base)};
        if (!(dir[next] == want)) return false;
        prev = facts[i].rel;
        ++next;
      }
    }
    if (next != dir_offsets[t + 1]) return false;
  }
  return true;
}

bool ColumnarIndex::FromColumns(std::vector<uint64_t> offsets,
                                std::vector<rdf::Fact> facts,
                                std::vector<uint64_t> pair_offsets,
                                std::vector<rdf::TermPair> pairs,
                                ColumnarIndex* out) {
  return FromColumns(Column<uint64_t>::FromOwned(std::move(offsets)),
                     Column<rdf::Fact>::FromOwned(std::move(facts)),
                     Column<uint64_t>::FromOwned(std::move(pair_offsets)),
                     Column<rdf::TermPair>::FromOwned(std::move(pairs)),
                     /*keep_alive=*/nullptr, out);
}

bool ColumnarIndex::FromColumns(Column<uint64_t> offsets,
                                Column<rdf::Fact> facts,
                                Column<uint64_t> pair_offsets,
                                Column<rdf::TermPair> pairs,
                                std::shared_ptr<const void> keep_alive,
                                ColumnarIndex* out) {
  if (!Validate(offsets.span(), facts.span(), pair_offsets.span(),
                pairs.span())) {
    return false;
  }
  out->offsets_ = std::move(offsets);
  out->facts_ = std::move(facts);
  out->pair_offsets_ = std::move(pair_offsets);
  out->pairs_ = std::move(pairs);
  out->keep_alive_ = std::move(keep_alive);
  out->RebuildObjectColumn();
  out->RebuildDirectory();
  return true;
}

bool ColumnarIndex::FromColumns(Column<uint64_t> offsets,
                                Column<rdf::Fact> facts,
                                Column<uint64_t> pair_offsets,
                                Column<rdf::TermPair> pairs,
                                Column<uint64_t> dir_offsets,
                                Column<DirEntry> dir,
                                std::shared_ptr<const void> keep_alive,
                                ColumnarIndex* out) {
  if (!Validate(offsets.span(), facts.span(), pair_offsets.span(),
                pairs.span())) {
    return false;
  }
  if (!ValidateDirectory(offsets.span(), facts.span(), dir_offsets.span(),
                         dir.span())) {
    return false;
  }
  out->offsets_ = std::move(offsets);
  out->facts_ = std::move(facts);
  out->pair_offsets_ = std::move(pair_offsets);
  out->pairs_ = std::move(pairs);
  out->dir_offsets_ = std::move(dir_offsets);
  out->dir_ = std::move(dir);
  out->keep_alive_ = std::move(keep_alive);
  out->RebuildObjectColumn();
  return true;
}

std::span<const rdf::Fact> ColumnarIndex::FactsWith(uint32_t local,
                                                    rdf::RelId rel) const {
  // Binary search over the term's compact relation-directory rows instead
  // of its full fact slice: O(log distinct-relations) 8-byte probes.
  const uint64_t slice_begin = offsets_[local];
  const DirEntry* lo = dir_.data() + dir_offsets_[local];
  const DirEntry* hi = dir_.data() + dir_offsets_[local + 1];
  const DirEntry* it = std::lower_bound(
      lo, hi, rel,
      [](const DirEntry& e, rdf::RelId r) { return e.rel < r; });
  if (it == hi || it->rel != rel) return {};
  return {facts_.data() + slice_begin + it->begin,
          facts_.data() + slice_begin + RunEnd(local, it, hi)};
}

std::span<const rdf::TermId> ColumnarIndex::ObjectsOf(uint32_t local,
                                                      rdf::RelId rel) const {
  const auto with_rel = FactsWith(local, rel);
  if (with_rel.empty()) return {};
  // Map the fact slice onto the parallel object column.
  const size_t begin = static_cast<size_t>(with_rel.data() - facts_.data());
  return {objects_.data() + begin, with_rel.size()};
}

bool ColumnarIndex::Contains(uint32_t local, rdf::RelId rel,
                             rdf::TermId other) const {
  const auto objects = ObjectsOf(local, rel);
  return std::binary_search(objects.begin(), objects.end(), other);
}

}  // namespace paris::storage
