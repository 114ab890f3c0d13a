// Per-layer measurements for the traced run. Layers that a Session call
// hides (parse, index build, ontology build, snapshot and result decode,
// pattern queries, result lookups) are timed by calling their public
// functions directly on the workload's own inputs; pass windows come from
// the run callbacks of the Session call itself.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "paris/api/session.h"
#include "paris/obs/metrics.h"
#include "paris/rdf/term.h"

namespace perfbench {

// One entity of the loaded pair, for query and lookup batches.
struct EntityKey {
  bool left = true;
  paris::rdf::TermId id = paris::rdf::kNullTerm;
};

// rdf.parse_s (median wall time of parsing all `files` once, over three
// passes) and rdf.triples_per_s.
void MeasureParse(const std::vector<std::string>& files, Report& report);

// rdf.invalid_utf8_literals: literal objects whose bytes are not valid
// UTF-8. The parser accepts them; the count records that the generator
// made them (a byte-level typo can split a multi-byte character).
void CountInvalidUtf8(const std::vector<std::string>& files, Report& report);

// storage.index_build_s (TripleStore::Add + Finalize over the parsed
// triples of both sides) and ontology.build_s (OntologyBuilder::Build over
// the same triples), medians of three builds each.
void MeasureBuild(const std::string& left, const std::string& right,
                  size_t threads, Report& report);

// storage.snapshot_load_s (LoadAlignmentSnapshot in mmap mode, median of
// three) and storage.snapshot_bytes.
void MeasureSnapshotLoad(const std::string& snapshot, Report& report);

// storage.query_ns.s / storage.query_ns.sp: Session::Query with a bound
// subject, and with a bound subject and relation (the two QUERY masks of
// the serve mix), timed as whole batches over `keys`, in ns per query.
void MeasureQueries(const paris::api::Session& session,
                    const std::vector<EntityKey>& keys, Report& report);

// core.reader_open_s (ResultReader::Open, median of three) and
// core.reader_lookup_ns (LeftEntity / RightEntity over `keys`, timed as
// whole batches, ns per lookup).
void MeasureReader(const std::string& result, const std::vector<EntityKey>& keys,
                   Report& report);

// Every instance of both sides, in id order.
std::vector<EntityKey> AllEntities(const paris::api::Session& session);

// core.entities_scored / entities_reused / reuse_ratio /
// candidates_per_entity from a Session's metrics registry (these counts
// repeat exactly across runs of one input).
void ReportCounters(const paris::obs::MetricsSnapshot& metrics,
                    Report& report);

// Records the shard and iteration events of one Align / Resume / Realign
// call and turns them into pass windows: a pass's window runs from the
// previous pass's last shard (or the iteration boundary, or the call's
// start) to its own last shard. The events come from the call's run
// callbacks, or from a daemon job's WATCH stream, stamped as they arrive.
class PassClock {
 public:
  PassClock() = default;
  PassClock(const PassClock&) = delete;
  PassClock& operator=(const PassClock&) = delete;

  // Callbacks that record into this clock; it must outlive the call.
  paris::api::RunCallbacks Callbacks();
  // Records one event observed at `time`: shard `completed` of `total` of
  // `pass` done, or an iteration completed.
  void Shard(double time, const std::string& pass, size_t completed,
             size_t total);
  void Iteration(double time);
  // For a call whose start is not observed (a daemon job): the time its
  // first pass began, taken as one mean shard duration of that pass before
  // the pass's first event. 0 when no shard was recorded.
  double FirstPassStart();
  // Adds core.<pass>_pass spans under `parent`, from `start` on, plus a
  // zero-length core.iteration span per iteration, and clears the events.
  void Emit(Tracer& tracer, int parent, double start);

 private:
  struct Event {
    double time = 0.0;
    std::string pass;  // empty for an iteration boundary
    size_t completed = 0;
    size_t total = 0;
  };
  std::mutex mu_;
  std::vector<Event> events_;
};

// Per-call figures from a trace: core.<pass>_pass_s (total window time)
// and core.iterations, each divided by `calls`.
void ReportPassTimes(const Tracer& tracer, double calls, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
