// align_cold: the paper's headline experiment (YAGO ↔ DBpedia stand-in,
// §6.4) as the first end-to-end path — N-Triples → Session (2 workers) →
// LoadFromFiles → Align → Export. The only multi-core number of the
// benchmark, and the workload where the instance-pass kernel shows.
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "paris/api/session.h"
#include "quality.h"
#include "workloads.h"

namespace perfbench {
namespace {

using paris::api::Session;

constexpr size_t kThreads = 2;
constexpr size_t kMinReps = 3;

}  // namespace

void RunAlignCold(const RunArgs& args, Report& report) {
  const std::string inputs = args.data_dir + "/inputs";
  const std::string left = inputs + "/left.nt";
  const std::string right = inputs + "/right.nt";
  const std::string prefix = args.work_dir + "/export";
  const std::vector<Mode> cycle = ModeCycle(args.trace);

  Tracer tracer(true);
  Tracer off(false);
  PassClock clock;
  std::vector<double> setup[3], result[3], peak_rss;
  std::optional<uint64_t> export_fingerprint;
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
    t.set_group(static_cast<int>(reps));
    Session::Options options = Session::Options().set_threads(kThreads);
    if (mode == kObs) options.set_trace(true).set_metrics(true);
    session.reset();
    ResetPeakRss();

    const double start = Now();
    session.emplace(options);
    {
      Scoped span(t, "api.LoadFromFiles");
      OrDie(session->LoadFromFiles(left, right), "LoadFromFiles");
    }
    const double loaded = Now();
    {
      Scoped span(t, "api.Align");
      OrDie(session->Align(mode == kTraced ? clock.Callbacks()
                                           : paris::api::RunCallbacks{}),
            "Align");
      if (mode == kTraced) clock.Emit(t, span.id(), loaded);
    }
    {
      Scoped span(t, "api.Export");
      OrDie(session->Export(prefix), "Export");
    }
    const double done = Now();
    peak_rss.push_back(PeakRssMb());
    setup[mode].push_back(loaded - start);
    result[mode].push_back(done - loaded);
    ++reps;

    // Checks, untimed: byte-identical exports across repetitions (all
    // modes: observability must not change output), and row counts that
    // match the run summary.
    report.Attempt();
    const uint64_t fingerprint =
        Fingerprint(ReadFile(prefix + "_instances.tsv") +
                    ReadFile(prefix + "_relations.tsv") +
                    ReadFile(prefix + "_classes.tsv"));
    if (!export_fingerprint) export_fingerprint = fingerprint;
    const paris::api::RunSummary summary = session->summary();
    report.Check(fingerprint == *export_fingerprint,
                 "exports differ between repetitions") &&
        report.Check(
            DataLines(prefix + "_instances.tsv") == summary.instances_aligned &&
                DataLines(prefix + "_relations.tsv") == summary.relation_scores &&
                DataLines(prefix + "_classes.tsv") == summary.class_scores,
            "export row counts differ from Session::summary()");
    if (mode == kObs && !counters) {
      counters = OrDie(session->Metrics(), "Session::Metrics");
    }
  }
  LogSamples("align_cold setup_s", setup[kPlain]);
  LogSamples("align_cold peak_rss_mb", peak_rss);
  LogSamples("align_cold time_to_result_s", result[kPlain]);

  const double triples = static_cast<double>(session->left().num_triples() +
                                             session->right().num_triples());
  const std::string snapshot = args.work_dir + "/pair.snap";
  const std::string saved = args.work_dir + "/result.snapshot";
  OrDie(session->SaveSnapshot(snapshot), "SaveSnapshot");
  double save_seconds = Now();
  OrDie(session->SaveResult(saved), "SaveResult");
  save_seconds = Now() - save_seconds;

  if (!args.trace) {
    const Quality quality = EvaluateExport(prefix, inputs);
    const double setup_s = Median(setup[kPlain]);
    const double result_s = Median(result[kPlain]);
    report.Set("setup_s", setup_s, "s");
    report.Set("time_to_result_s", result_s, "s");
    report.Set("throughput_per_s", triples / (setup_s + result_s), "1/s");
    report.Set("instance_precision", quality.instance_precision, "fraction");
    report.Set("instance_recall", quality.instance_recall, "fraction");
    report.Set("relation_precision", quality.relation_precision, "fraction");
    report.Set("class_precision", quality.class_precision, "fraction");
    report.Set("peak_rss_mb", Median(peak_rss), "MiB");
    report.Set("snapshot_bytes_per_triple",
               static_cast<double>(FileBytes(snapshot) + FileBytes(saved)) /
                   triples,
               "bytes/triple");
    return;
  }

  const double traced = static_cast<double>(setup[kTraced].size());
  for (const char* method : {"LoadFromFiles", "Align", "Export"}) {
    report.Set(std::string("api.") + method + "_s",
               tracer.Total(std::string("api.") + method) / traced, "s");
  }
  report.Set("api.self_s", tracer.SelfTotalWithPrefix("api.") / traced, "s");
  ReportPassTimes(tracer, traced, report);
  ReportCounters(*counters, report);
  report.Set("core.export_s", tracer.Total("api.Export") / traced, "s");
  report.Set("core.result_save_s", save_seconds, "s");
  report.Set("core.result_bytes", static_cast<double>(FileBytes(saved)),
             "bytes");
  {
    Session resumed(Session::Options().set_threads(kThreads));
    OrDie(resumed.LoadFromSnapshot(snapshot), "LoadFromSnapshot");
    const double start = Now();
    OrDie(resumed.Resume(saved), "Resume");
    report.Set("core.result_load_s", Now() - start, "s");
  }
  const std::vector<EntityKey> keys = AllEntities(*session);
  MeasureQueries(*session, keys, report);
  MeasureReader(saved, keys, report);
  MeasureSnapshotLoad(snapshot, report);
  MeasureParse({left, right}, report);
  CountInvalidUtf8({left, right}, report);
  MeasureBuild(left, right, kThreads, report);

  report.Set("obs.overhead_fraction",
             Median(result[kObs]) / Median(result[kPlain]) - 1.0, "fraction");
  report.Set("bench.trace_overhead_fraction",
             MedianOfSums(setup[kTraced], result[kTraced]) /
                     MedianOfSums(setup[kPlain], result[kPlain]) -
                 1.0,
             "fraction");
  tracer.WriteJson(args.work_dir + "/trace.json");
}

}  // namespace perfbench
