// Triple-pattern query engine benchmark: per-mask pattern-scan latency
// (p50/p99 + total) against the store's columnar index, and a head-to-head of
// the fixpoint's per-(term, relation) probe — the old binary search over
// the full adjacency span (core::FactsWithRelation) vs the new per-term
// relation directory (TripleStore::FactsCursor) — on a deliberately
// high-degree ontology where the directory's O(log distinct-relations)
// advantage is visible.
//
// Emits the same JSON shape as bench_parallel / bench_service
// (hardware_threads + phases), so scripts/check_bench_regression.py gates
// it against BENCH_query.json with no changes. Two extra signals ride
// along: `probe_directory_vs_binary_fraction` (directory time / binary-
// search time, best-of-N; the script caps it at 1.0 so the new path can
// never regress past the old one on any machine shape), and per-pattern
// percentiles as documentation below the gate's noise floor.
//
//   bench_query [OUTPUT.json]    (default: stdout)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "paris/core/direction.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/tri_index.h"
#include "paris/util/logging.h"
#include "paris/util/random.h"

namespace paris::bench {
namespace {

using storage::TriplePattern;

struct PhaseTime {
  std::string phase;
  size_t threads;
  double seconds;
};

void Emit(std::FILE* out, const std::vector<PhaseTime>& phases,
          size_t hardware, size_t entities, size_t queries) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_query\",\n");
  std::fprintf(out, "  \"hardware_threads\": %zu,\n", hardware);
  std::fprintf(out,
               "  \"workload\": {\"entities\": %zu, "
               "\"queries_per_phase\": %zu},\n",
               entities, queries);
  std::fprintf(out, "  \"phases\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(out,
                 "    {\"phase\": \"%s\", \"threads\": %zu, "
                 "\"seconds\": %.6f}%s\n",
                 phases[i].phase.c_str(), phases[i].threads,
                 phases[i].seconds, i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

double Percentile(std::vector<double>& sorted_seconds, double p) {
  if (sorted_seconds.empty()) return 0.0;
  const size_t index = std::min(
      sorted_seconds.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_seconds.size())));
  return sorted_seconds[index];
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The probe workload the negative-evidence inner product issues: resolve a
// (term, relation) pair to its fact slice. High fan-out entities, few
// distinct relations — the shape the directory exists for.
constexpr size_t kEntities = 4000;
constexpr size_t kRelations = 12;
constexpr size_t kFactsPerEntity = 96;  // degree >> distinct relations
constexpr size_t kQueries = 200000;
constexpr int kProbeRounds = 5;  // best-of-N for the ratio phases

ontology::Ontology BuildDense(rdf::TermPool* pool) {
  ontology::OntologyBuilder b(pool, "left");
  util::Rng rng(0xC0FFEE);
  for (size_t i = 0; i < kEntities; ++i) {
    const std::string e = "d:e" + std::to_string(i);
    for (size_t f = 0; f < kFactsPerEntity; ++f) {
      const auto rel = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kRelations) - 1));
      const auto other = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kEntities) - 1));
      b.AddFact(e, "d:r" + std::to_string(rel), "d:e" + std::to_string(other));
    }
  }
  auto built = b.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

int Main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }

  rdf::TermPool pool;
  const ontology::Ontology onto = BuildDense(&pool);
  const rdf::TripleStore& store = onto.store();

  // Deterministic query mix drawn from actual statements, listed in
  // (s, p, o) order so the draw does not depend on the engine's reply
  // order.
  std::vector<rdf::Triple> seeds;
  seeds.reserve(kQueries);
  {
    std::vector<rdf::Triple> all = store.Collect({});
    std::sort(all.begin(), all.end(),
              [](const rdf::Triple& a, const rdf::Triple& b) {
                return std::tie(a.subject, a.rel, a.object) <
                       std::tie(b.subject, b.rel, b.object);
              });
    util::Rng rng(0xBEEF);
    for (size_t i = 0; i < kQueries; ++i) {
      seeds.push_back(
          all[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(all.size()) - 1))]);
    }
  }

  std::vector<PhaseTime> phases;
  const size_t hardware = std::thread::hardware_concurrency();

  // --- Pattern scans, one phase per representative mask -------------------
  // Latencies are per-query; `_total` carries the gated wall time.
  uint64_t sink = 0;
  const auto measure_pattern = [&](const std::string& label,
                                   auto make_pattern) {
    std::vector<double> latencies;
    latencies.reserve(seeds.size());
    const double start = Now();
    for (const rdf::Triple& seed : seeds) {
      const double t0 = Now();
      sink += store.Count(make_pattern(seed));
      latencies.push_back(Now() - t0);
    }
    const double total = Now() - start;
    std::sort(latencies.begin(), latencies.end());
    phases.push_back({label + "_total", 1, total});
    phases.push_back({label + "_p50", 1, Percentile(latencies, 0.50)});
    phases.push_back({label + "_p99", 1, Percentile(latencies, 0.99)});
  };

  measure_pattern("pattern_spo", [](const rdf::Triple& t) {
    return TriplePattern().BindSubject(t.subject).BindRel(t.rel).BindObject(
        t.object);
  });
  measure_pattern("pattern_sp", [](const rdf::Triple& t) {
    return TriplePattern().BindSubject(t.subject).BindRel(t.rel);
  });
  measure_pattern("pattern_po", [](const rdf::Triple& t) {
    return TriplePattern().BindRel(t.rel).BindObject(t.object);
  });
  measure_pattern("pattern_so", [](const rdf::Triple& t) {
    return TriplePattern().BindSubject(t.subject).BindObject(t.object);
  });

  // --- Probe paths: old binary search vs per-term directory ---------------
  // Both resolve (term, rel) -> fact slice, exactly the negative-evidence
  // inner loop. Best-of-N wall times make the committed ratio stable.
  double best_binary = 0.0;
  double best_directory = 0.0;
  for (int round = 0; round < kProbeRounds; ++round) {
    double start = Now();
    for (const rdf::Triple& seed : seeds) {
      const auto span =
          core::FactsWithRelation(store.FactsAbout(seed.subject), seed.rel);
      sink += span.size();
    }
    const double binary = Now() - start;

    start = Now();
    for (const rdf::Triple& seed : seeds) {
      const auto cursor = store.CursorFor(seed.subject);
      sink += cursor.FactsWith(seed.rel).size();
    }
    const double directory = Now() - start;

    if (round == 0 || binary < best_binary) best_binary = binary;
    if (round == 0 || directory < best_directory) best_directory = directory;
  }
  phases.push_back({"probe_binary_search", 1, best_binary});
  phases.push_back({"probe_directory", 1, best_directory});
  phases.push_back({"probe_directory_vs_binary_fraction", 1,
                    best_binary > 0 ? best_directory / best_binary : 0.0});

  if (sink == 0) std::fprintf(stderr, "suspicious: empty workload\n");
  Emit(out, phases, hardware, kEntities, kQueries);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace paris::bench

int main(int argc, char** argv) { return paris::bench::Main(argc, argv); }
