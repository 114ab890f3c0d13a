#include "layers.h"

#include <algorithm>
#include <memory>

#include "paris/core/result_reader.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/storage/tri_index.h"
#include "paris/util/thread_pool.h"

namespace perfbench {
namespace {

using paris::rdf::ParsedTriple;

// Timing passes per replayed layer; the reported figure is their median.
constexpr int kLayerPasses = 3;

// Counts triples without keeping them.
class CountingSink : public paris::rdf::TripleSink {
 public:
  void OnTriple(const ParsedTriple&) override { ++count; }
  size_t count = 0;
};

std::vector<ParsedTriple> Parse(const std::string& path) {
  paris::rdf::VectorTripleSink sink;
  OrDie(paris::rdf::NTriplesParser::ParseFile(path, &sink), "parse " + path);
  return sink.triples();
}

bool ValidUtf8(const std::string& s) {
  size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    size_t extra = 0;
    unsigned min = 0;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      extra = 1, min = 0x80;
    } else if ((c & 0xF0) == 0xE0) {
      extra = 2, min = 0x800;
    } else if ((c & 0xF8) == 0xF0) {
      extra = 3, min = 0x10000;
    } else {
      return false;
    }
    if (i + extra >= s.size()) return false;  // truncated sequence
    unsigned code = c & (0x3F >> extra);
    for (size_t k = 1; k <= extra; ++k) {
      const auto cont = static_cast<unsigned char>(s[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      code = (code << 6) | (cont & 0x3F);
    }
    if (code < min || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) {
      return false;
    }
    i += extra + 1;
  }
  return true;
}

// Median seconds of `passes` calls of `fn`.
template <typename Fn>
double MedianSeconds(int passes, Fn&& fn) {
  std::vector<double> seconds;
  for (int p = 0; p < passes; ++p) {
    const double start = Now();
    fn();
    seconds.push_back(Now() - start);
  }
  return Median(seconds);
}

}  // namespace

void MeasureParse(const std::vector<std::string>& files, Report& report) {
  size_t triples = 0;
  const double seconds = MedianSeconds(kLayerPasses, [&] {
    CountingSink sink;
    for (const std::string& file : files) {
      OrDie(paris::rdf::NTriplesParser::ParseFile(file, &sink),
            "parse " + file);
    }
    triples = sink.count;
  });
  report.Set("rdf.parse_s", seconds, "s");
  report.Set("rdf.triples_per_s", static_cast<double>(triples) / seconds,
             "1/s");
}

void CountInvalidUtf8(const std::vector<std::string>& files, Report& report) {
  size_t invalid = 0;
  for (const std::string& file : files) {
    for (const ParsedTriple& triple : Parse(file)) {
      if (triple.object_is_literal && !ValidUtf8(triple.object)) ++invalid;
    }
  }
  report.Set("rdf.invalid_utf8_literals", static_cast<double>(invalid),
             "count");
}

void MeasureBuild(const std::string& left, const std::string& right,
                  size_t threads, Report& report) {
  const std::vector<ParsedTriple> sides[2] = {Parse(left), Parse(right)};
  paris::util::ThreadPool workers(threads);
  paris::util::ThreadPool* pool = threads > 0 ? &workers : nullptr;

  const double index = MedianSeconds(kLayerPasses, [&] {
    paris::rdf::TermPool terms;
    for (const auto& triples : sides) {
      paris::rdf::TripleStore store(&terms);
      for (const ParsedTriple& t : triples) {
        const auto subject = terms.InternIri(t.subject);
        const auto rel = store.InternRelation(terms.InternIri(t.predicate));
        const auto object = t.object_is_literal ? terms.InternLiteral(t.object)
                                                : terms.InternIri(t.object);
        store.Add(subject, rel, object);
      }
      store.Finalize(pool);
    }
  });
  report.Set("storage.index_build_s", index, "s");

  const double build = MedianSeconds(kLayerPasses, [&] {
    paris::rdf::TermPool terms;
    for (const auto& triples : sides) {
      paris::ontology::OntologyBuilder builder(&terms, "replay");
      for (const ParsedTriple& t : triples) builder.OnTriple(t);
      OrDie(builder.Build(pool).status(), "build the replayed ontology");
    }
  });
  report.Set("ontology.build_s", build, "s");
}

void MeasureSnapshotLoad(const std::string& snapshot, Report& report) {
  const double seconds = MedianSeconds(kLayerPasses, [&] {
    paris::rdf::TermPool terms;
    OrDie(paris::ontology::LoadAlignmentSnapshot(
              snapshot, &terms, paris::ontology::SnapshotLoadMode::kMmap)
              .status(),
          "load " + snapshot);
  });
  report.Set("storage.snapshot_load_s", seconds, "s");
  report.Set("storage.snapshot_bytes",
             static_cast<double>(FileBytes(snapshot)), "bytes");
}

void MeasureQueries(const paris::api::Session& session,
                    const std::vector<EntityKey>& keys, Report& report) {
  using Side = paris::api::Session::DeltaSide;
  struct Probe {
    Side side;
    paris::storage::TriplePattern pattern;
  };
  std::vector<Probe> by_subject, by_subject_rel;
  for (const EntityKey& key : keys) {
    const Side side = key.left ? Side::kLeft : Side::kRight;
    const auto& onto = key.left ? session.left() : session.right();
    by_subject.push_back(
        {side, paris::storage::TriplePattern().BindSubject(key.id)});
    for (const auto& fact : onto.store().FactsAbout(key.id)) {
      if (fact.rel > 0) {
        by_subject_rel.push_back(
            {side,
             paris::storage::TriplePattern().BindSubject(key.id).BindRel(fact.rel)});
        break;
      }
    }
  }
  const auto batch_ns = [&](const std::vector<Probe>& probes) {
    if (probes.empty()) return 0.0;
    size_t rows = 0;
    const double seconds = MedianSeconds(kLayerPasses, [&] {
      for (const Probe& probe : probes) {
        rows += OrDie(session.Query(probe.side, probe.pattern), "query").size();
      }
    });
    if (rows == 0) Die("the query batch matched nothing");
    return seconds * 1e9 / static_cast<double>(probes.size());
  };
  report.Set("storage.query_ns.s", batch_ns(by_subject), "ns");
  report.Set("storage.query_ns.sp", batch_ns(by_subject_rel), "ns");
}

void MeasureReader(const std::string& result, const std::vector<EntityKey>& keys,
                   Report& report) {
  std::unique_ptr<paris::core::ResultReader> reader;
  const double open = MedianSeconds(kLayerPasses, [&] {
    reader = std::make_unique<paris::core::ResultReader>(
        OrDie(paris::core::ResultReader::Open(result), "open " + result));
  });
  report.Set("core.reader_open_s", open, "s");
  size_t found = 0;
  const double seconds = MedianSeconds(kLayerPasses, [&] {
    for (const EntityKey& key : keys) {
      found += key.left ? reader->LeftEntity(key.id).size()
                        : reader->RightEntity(key.id).size();
    }
  });
  if (found == 0) Die("no lookup in the reader batch found a candidate");
  report.Set("core.reader_lookup_ns",
             seconds * 1e9 / static_cast<double>(std::max<size_t>(1, keys.size())),
             "ns");
}

std::vector<EntityKey> AllEntities(const paris::api::Session& session) {
  std::vector<EntityKey> keys;
  for (const auto id : session.left().instances()) keys.push_back({true, id});
  for (const auto id : session.right().instances()) keys.push_back({false, id});
  return keys;
}

void ReportCounters(const paris::obs::MetricsSnapshot& metrics,
                    Report& report) {
  const auto counter = [&](const std::string& name) {
    for (const auto& c : metrics.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  const double scored = counter("instance.entities_scored");
  const double reused = counter("instance.entities_reused");
  report.Set("core.entities_scored", scored, "count");
  report.Set("core.entities_reused", reused, "count");
  report.Set("core.reuse_ratio",
             scored + reused == 0 ? 0.0 : reused / (scored + reused),
             "fraction");
  report.Set("core.candidates_per_entity",
             scored == 0 ? 0.0 : counter("instance.candidates_emitted") / scored,
             "count");
}

paris::api::RunCallbacks PassClock::Callbacks() {
  paris::api::RunCallbacks callbacks;
  callbacks.on_shard = [this](const paris::api::ShardProgress& progress) {
    Shard(Now(), progress.pass, progress.num_completed, progress.num_shards);
  };
  callbacks.on_iteration = [this](const paris::api::IterationProgress&) {
    Iteration(Now());
  };
  return callbacks;
}

void PassClock::Shard(double time, const std::string& pass, size_t completed,
                      size_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({time, pass, completed, total});
}

void PassClock::Iteration(double time) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({time, "", 0, 0});
}

double PassClock::FirstPassStart() {
  std::lock_guard<std::mutex> lock(mu_);
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });
  const auto first = std::find_if(events_.begin(), events_.end(),
                                  [](const Event& e) { return !e.pass.empty(); });
  if (first == events_.end()) return 0.0;
  auto last = first;
  for (auto it = first; it != events_.end() && it->pass == first->pass; ++it) {
    last = it;
    if (it->completed == it->total) break;
  }
  if (last->completed == first->completed) return first->time;
  const double per_shard = (last->time - first->time) /
                           static_cast<double>(last->completed - first->completed);
  return first->time - per_shard * static_cast<double>(first->completed);
}

void PassClock::Emit(Tracer& tracer, int parent, double start) {
  std::lock_guard<std::mutex> lock(mu_);
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });
  for (const Event& event : events_) {
    if (event.pass.empty()) {
      tracer.Add("core.iteration", event.time, event.time, parent);
      start = event.time;
    } else if (event.completed == event.total) {
      tracer.Add("core." + event.pass + "_pass", start, event.time, parent);
      start = event.time;
    }
  }
  events_.clear();
}

void ReportPassTimes(const Tracer& tracer, double calls, Report& report) {
  report.Set("core.iterations",
             static_cast<double>(tracer.Count("core.iteration")) / calls,
             "count");
  for (const char* pass : {"instance", "relation", "class"}) {
    const std::string name = std::string("core.") + pass + "_pass";
    report.Set(name + "_s", calls > 0 ? tracer.Total(name) / calls : 0.0, "s");
  }
}

}  // namespace perfbench
