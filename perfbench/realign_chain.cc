// realign_chain: the incremental path. A person pair at scale 64 is loaded
// from its ontology snapshot (mmap) and resumed from its converged base
// result; then a chain of left-side deltas (≈0.5% of the left side each)
// is applied in order, each ApplyDelta → Realign → SaveResult, on one
// worker. The instance kernel does little here, so fixed per-iteration
// costs and the delta merge show instead.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "paris/api/session.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "quality.h"
#include "workloads.h"

namespace perfbench {
namespace {

using paris::api::Session;

constexpr size_t kThreads = 1;
constexpr size_t kMinReps = 3;
// The documented deviation pinned by tests/delta_realign_test.cc: an
// incremental result agrees with a cold run over base + deltas on at least
// this share of the cold run's maximal instance pairs.
constexpr double kMinAgreement = 0.95;

// "left\tright" of every row of the maximal instance assignment.
std::vector<std::string> InstancePairs(const Session& session) {
  std::ostringstream out;
  OrDie(session.WriteInstanceAlignment(out), "WriteInstanceAlignment");
  std::vector<std::string> pairs;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    pairs.push_back(line.substr(0, line.rfind('\t')));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<std::string> DeltaFiles(const std::string& inputs) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(inputs)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("delta_", 0) == 0) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) Die("no delta files under " + inputs);
  return files;
}

// ontology.apply_delta_s / ontology.touched_terms: Ontology::ApplyDelta on
// the left side of the snapshot pair, per delta of the chain, in order.
void MeasureApplyDelta(const std::string& snapshot,
                       const std::vector<std::string>& deltas, Report& report) {
  paris::rdf::TermPool terms;
  auto pair = OrDie(paris::ontology::LoadAlignmentSnapshot(
                        snapshot, &terms, paris::ontology::SnapshotLoadMode::kMmap),
                    "load " + snapshot);
  double seconds = 0.0;
  size_t touched = 0;
  for (const std::string& delta : deltas) {
    paris::rdf::VectorTripleSink sink;
    OrDie(paris::rdf::NTriplesParser::ParseFile(delta, &sink), "parse " + delta);
    const double start = Now();
    const auto summary =
        OrDie(pair.left.ApplyDelta(sink.triples()), "ApplyDelta " + delta);
    seconds += Now() - start;
    touched += summary.touched_terms.size();
  }
  const double n = static_cast<double>(deltas.size());
  report.Set("ontology.apply_delta_s", seconds / n, "s");
  report.Set("ontology.touched_terms", static_cast<double>(touched) / n,
             "count");
}

}  // namespace

void RunRealignChain(const RunArgs& args, Report& report) {
  const std::string inputs = args.data_dir + "/inputs";
  const std::string snapshot = args.data_dir + "/derived/pair.snap";
  const std::string base_result = args.data_dir + "/derived/base.result";
  const std::string saved = args.work_dir + "/result.snapshot";
  const std::vector<std::string> deltas = DeltaFiles(inputs);
  size_t delta_triples = 0;
  for (const std::string& delta : deltas) delta_triples += DataLines(delta);
  const std::vector<Mode> cycle = ModeCycle(args.trace);

  Tracer tracer(true);
  Tracer off(false);
  PassClock clock;
  std::vector<double> setup[3], chain[3], peak_rss;
  std::optional<std::vector<std::string>> final_pairs;
  std::optional<paris::obs::MetricsSnapshot> counters;
  std::optional<Session> session;

  const double begin = Now();
  size_t reps = 0;
  // The traced run cycles through all three kinds at least twice.
  const size_t min_reps = args.trace ? 2 * cycle.size() : kMinReps;
  while (KeepGoing(begin, reps, min_reps, args.seconds) ||
         reps % cycle.size() != 0) {
    const Mode mode = cycle[reps % cycle.size()];
    Tracer& t = mode == kTraced ? tracer : off;
    Session::Options options =
        Session::Options().set_threads(kThreads).set_snapshot_load_mode(
            paris::api::SnapshotLoadMode::kMmap);
    if (mode == kObs) options.set_trace(true).set_metrics(true);
    session.reset();
    ResetPeakRss();

    t.set_group(static_cast<int>(reps * 100));
    const double start = Now();
    session.emplace(options);
    {
      Scoped span(t, "api.LoadFromSnapshot");
      OrDie(session->LoadFromSnapshot(snapshot), "LoadFromSnapshot");
    }
    {
      Scoped span(t, "api.Resume");
      OrDie(session->Resume(base_result), "Resume");
    }
    const double resumed = Now();
    size_t realigned = 0;
    for (size_t d = 0; d < deltas.size(); ++d) {
      t.set_group(static_cast<int>(reps * 100 + d + 1));
      report.Attempt();
      {
        Scoped span(t, "api.ApplyDelta");
        OrDie(session->ApplyDelta(Session::DeltaSide::kLeft, deltas[d]),
              "ApplyDelta " + deltas[d]);
      }
      {
        Scoped span(t, "api.Realign");
        const double realign_start = Now();
        OrDie(session->Realign(mode == kTraced ? clock.Callbacks()
                                               : paris::api::RunCallbacks{}),
              "Realign " + deltas[d]);
        if (mode == kTraced) clock.Emit(t, span.id(), realign_start);
      }
      {
        Scoped span(t, "api.SaveResult");
        OrDie(session->SaveResult(saved), "SaveResult");
      }
      ++realigned;
    }
    const double done = Now();
    peak_rss.push_back(PeakRssMb());
    setup[mode].push_back(resumed - start);
    chain[mode].push_back(done - resumed);
    ++reps;

    // Untimed: every repetition (all modes) ends on the same assignment.
    report.Check(realigned == deltas.size(), "a delta was not realigned");
    const std::vector<std::string> pairs = InstancePairs(*session);
    if (!final_pairs) final_pairs = pairs;
    report.Check(pairs == *final_pairs,
                 "final assignment differs between repetitions");
    if (mode == kObs && !counters) {
      counters = OrDie(session->Metrics(), "Session::Metrics");
    }
  }
  LogSamples("realign_chain setup_s", setup[kPlain]);
  LogSamples("realign_chain peak_rss_mb", peak_rss);
  LogSamples("realign_chain chain_s", chain[kPlain]);
  const double n = static_cast<double>(deltas.size());

  const std::string prefix = args.work_dir + "/export";
  const double export_start = Now();
  OrDie(session->Export(prefix), "Export");
  const double export_seconds = Now() - export_start;

  // The incremental result against a cold run over base + all deltas.
  {
    Session cold(Session::Options().set_threads(kThreads));
    OrDie(cold.LoadFromFiles(inputs + "/left_full.nt", inputs + "/right.nt"),
          "load the merged pair");
    OrDie(cold.Align(), "align the merged pair");
    const std::vector<std::string> cold_pairs = InstancePairs(cold);
    std::vector<std::string> common;
    std::set_intersection(cold_pairs.begin(), cold_pairs.end(),
                          final_pairs->begin(), final_pairs->end(),
                          std::back_inserter(common));
    report.Attempt();
    report.Check(!cold_pairs.empty() &&
                     static_cast<double>(common.size()) >=
                         kMinAgreement * static_cast<double>(cold_pairs.size()),
                 "incremental result agrees with a cold run on " +
                     std::to_string(common.size()) + " of " +
                     std::to_string(cold_pairs.size()) + " pairs");
  }

  const double pair_triples = static_cast<double>(
      session->left().num_triples() + session->right().num_triples());
  if (!args.trace) {
    const Quality quality = EvaluateExport(prefix, inputs);
    report.Set("setup_s", Median(setup[kPlain]), "s");
    report.Set("time_to_result_s", Median(chain[kPlain]) / n, "s");
    report.Set("throughput_per_s",
               static_cast<double>(delta_triples) / Median(chain[kPlain]),
               "1/s");
    report.Set("instance_precision", quality.instance_precision, "fraction");
    report.Set("instance_recall", quality.instance_recall, "fraction");
    report.Set("relation_precision", quality.relation_precision, "fraction");
    report.Set("class_precision", quality.class_precision, "fraction");
    report.Set("peak_rss_mb", Median(peak_rss), "MiB");
    report.Set("snapshot_bytes_per_triple",
               static_cast<double>(FileBytes(snapshot) + FileBytes(saved)) /
                   pair_triples,
               "bytes/triple");
    return;
  }

  const double traced = static_cast<double>(setup[kTraced].size());
  const double calls = traced * n;
  report.Set("api.LoadFromSnapshot_s", tracer.Total("api.LoadFromSnapshot") / traced, "s");
  report.Set("api.Resume_s", tracer.Total("api.Resume") / traced, "s");
  for (const char* method : {"ApplyDelta", "Realign", "SaveResult"}) {
    report.Set(std::string("api.") + method + "_s",
               tracer.Total(std::string("api.") + method) / calls, "s");
  }
  report.Set("api.self_s", tracer.SelfTotalWithPrefix("api.") / traced, "s");
  ReportPassTimes(tracer, calls, report);
  ReportCounters(*counters, report);
  report.Set("core.result_load_s", tracer.Total("api.Resume") / traced, "s");
  report.Set("core.result_save_s", tracer.Total("api.SaveResult") / calls, "s");
  report.Set("core.result_bytes", static_cast<double>(FileBytes(saved)),
             "bytes");
  report.Set("core.export_s", export_seconds, "s");
  const std::vector<EntityKey> keys = AllEntities(*session);
  MeasureQueries(*session, keys, report);
  MeasureReader(saved, keys, report);
  MeasureSnapshotLoad(snapshot, report);
  MeasureApplyDelta(snapshot, deltas, report);
  MeasureParse(deltas, report);
  CountInvalidUtf8({inputs + "/left_full.nt", inputs + "/right.nt"}, report);
  MeasureBuild(inputs + "/left_base.nt", inputs + "/right.nt", kThreads, report);

  report.Set("obs.overhead_fraction",
             Median(chain[kObs]) / Median(chain[kPlain]) - 1.0, "fraction");
  report.Set("bench.trace_overhead_fraction",
             MedianOfSums(setup[kTraced], chain[kTraced]) /
                     MedianOfSums(setup[kPlain], chain[kPlain]) -
                 1.0,
             "fraction");
  tracer.WriteJson(args.work_dir + "/trace.json");
}

}  // namespace perfbench
