// serve_mixed: parisd serving the YAGO ↔ DBpedia stand-in — the second
// end-to-end path, from SUBMIT to the first LOOKUP served from the new
// result. One pipelined connection keeps a Zipf-skewed LOOKUP/QUERY mix in
// flight the whole time (first against the idle daemon, then across
// whole job windows, so every job competes with the same saturating read
// load); a control connection submits 1-thread jobs and watches them.
// The daemon runs in this process, with 2 handler threads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "paris/api/session.h"
#include "paris/core/result_reader.h"
#include "paris/service/daemon.h"
#include "paris/service/protocol.h"
#include "paris/util/net.h"
#include "quality.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace service = paris::service;
using paris::api::Session;
using paris::util::SocketConn;

constexpr size_t kHandlers = 2;
constexpr size_t kSetupReps = 9;
constexpr size_t kMinJobs = 2;
constexpr size_t kPipelineDepth = 256;
constexpr double kIdleSeconds = 2.0;
// Every k-th reply of the idle phase is kept and compared with the
// oracle's rendering of the same LOOKUP.
constexpr size_t kSampleEvery = 997;
// Synchronous PING / LOOKUP exchanges for the latency percentiles.
constexpr size_t kLatencySamples = 2000;

bool IsOk(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

SocketConn Connect(int port) {
  return OrDie(SocketConn::Connect("127.0.0.1", static_cast<uint16_t>(port)),
               "connect to the daemon");
}

std::string Call(SocketConn& conn, const std::string& request) {
  OrDie(service::WriteFrame(conn, request), "send " + request);
  std::string reply;
  if (!OrDie(service::ReadFrame(conn, &reply), "receive")) {
    Die("the daemon closed the connection");
  }
  return reply;
}

// The daemon's gauge `name` from a METRICS reply.
double Gauge(const std::string& metrics, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = metrics.find(key);
  if (at == std::string::npos) Die("no " + name + " in METRICS");
  return std::strtod(metrics.c_str() + at + key.size(), nullptr);
}

// Cache hits and misses so far.
std::pair<double, double> CacheCounts(SocketConn& control) {
  const std::string metrics = Call(control, "METRICS");
  return {Gauge(metrics, "service.lookup_cache_hits"),
          Gauge(metrics, "service.lookup_cache_misses")};
}

// One connection with kPipelineDepth requests in flight, cycling through
// the mix until Stop(); every reply is counted, and while sampling is on
// every kSampleEvery-th LOOKUP reply is kept with its request.
class Traffic {
 public:
  Traffic(int port, const std::vector<std::string>& requests)
      : conn_(Connect(port)), requests_(requests) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Traffic() { Stop(); }
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t ok() const { return ok_.load(); }
  uint64_t err() const { return err_.load(); }
  uint64_t sent() const { return sent_.load(); }
  const std::string& failure() const { return failure_; }  // after Stop()
  void set_sampling(bool on) { sampling_.store(on); }
  std::vector<std::pair<std::string, std::string>> Samples() {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  // Buffered on both directions: one recv takes every reply that has
  // arrived and one send carries the requests that replace them, so the
  // client costs little beside the handler it measures.
  void Loop() {
    std::vector<size_t> inflight(kPipelineDepth);
    size_t head = 0, count = 0, next = 0;
    std::string out;
    const auto queue = [&] {
      const size_t index = next++ % requests_.size();
      AppendFrame(&out, requests_[index]);
      inflight[(head + count++) % kPipelineDepth] = index;
      sent_.fetch_add(1);
    };
    const auto flush = [&] {
      const auto status = conn_.SendAll(out.data(), out.size());
      out.clear();
      return status.ok() || Fail("send: " + status.ToString());
    };
    for (size_t i = 0; i < kPipelineDepth; ++i) queue();
    if (!flush()) return;

    std::string in;
    std::vector<char> chunk(1 << 16);
    uint64_t received = 0;
    while (count > 0) {
      const auto got = conn_.RecvSome(chunk.data(), chunk.size());
      if (!got.ok() || *got == 0) {
        Fail("receive: " + (got.ok() ? std::string("connection closed")
                                     : got.status().ToString()));
        return;
      }
      in.append(chunk.data(), *got);
      size_t pos = 0;
      while (in.size() - pos >= 4) {
        uint32_t length = 0;
        for (int b = 3; b >= 0; --b) {
          length = (length << 8) | static_cast<unsigned char>(in[pos + b]);
        }
        if (length > service::kDefaultMaxFrameBytes) {
          Fail("reply frame of " + std::to_string(length) + " bytes");
          return;
        }
        if (in.size() - pos - 4 < length) break;
        const std::string_view reply(in.data() + pos + 4, length);
        pos += 4 + length;
        const std::string& request = requests_[inflight[head]];
        head = (head + 1) % kPipelineDepth;
        --count;
        if (reply.rfind("OK", 0) == 0) {
          ok_.fetch_add(1);
        } else {
          err_.fetch_add(1);
          if (failure_.empty()) failure_ = request + " -> " + std::string(reply);
        }
        if (++received % kSampleEvery == 0 && sampling_.load() &&
            request.rfind("LOOKUP", 0) == 0) {
          std::lock_guard<std::mutex> lock(mu_);
          samples_.emplace_back(request, reply);
        }
        if (!stop_.load()) queue();
      }
      in.erase(0, pos);
      if (!out.empty() && !flush()) return;
    }
  }

  // A frame as the protocol defines it: a little-endian u32 payload length,
  // then the payload.
  static void AppendFrame(std::string* out, const std::string& payload) {
    const auto length = static_cast<uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b) {
      out->push_back(static_cast<char>((length >> (8 * b)) & 0xff));
    }
    out->append(payload);
  }

  bool Fail(const std::string& what) {
    if (failure_.empty()) failure_ = what;
    err_.fetch_add(1);
    return false;
  }

  SocketConn conn_;
  const std::vector<std::string>& requests_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> sampling_{false};
  std::atomic<uint64_t> ok_{0}, err_{0}, sent_{0};
  std::string failure_;  // written by the traffic thread only
  std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> samples_;
  std::thread thread_;  // last: starts after every member it uses
};

// Renders a LOOKUP reply the way the daemon does, from a ResultReader over
// the served snapshot and the pair's names.
class Oracle {
 public:
  explicit Oracle(const std::string& snapshot) {
    OrDie(session_.LoadFromSnapshot(snapshot), "load " + snapshot);
  }
  const Session& session() const { return session_; }

  std::string Render(const paris::core::ResultReader& reader,
                     const std::string& request) const {
    const std::vector<std::string> tokens = service::SplitTokens(request, 4);
    if (tokens.size() != 4 || tokens[0] != "LOOKUP") Die("bad " + request);
    const bool left = tokens[2] == "left";
    const auto& other = left ? session_.right() : session_.left();
    std::string out;
    const auto line = [&](double score, const std::string& name) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.6f", score);
      out.append("\n").append(buffer).append("\t").append(name);
    };
    size_t n = 0;
    if (tokens[1] == "entity") {
      const auto id = Term(tokens[3]);
      if (left) {
        const auto candidates = reader.LeftEntity(id);
        for (size_t i = 0; i < candidates.size(); ++i, ++n) {
          line(candidates.probs[i], other.TermName(candidates.others[i]));
        }
      } else {
        for (const auto& match : reader.RightEntity(id)) {
          line(match.prob, other.TermName(match.other)), ++n;
        }
      }
    } else if (tokens[1] == "class") {
      for (const auto& match : reader.ClassSupers(Term(tokens[3]), left)) {
        line(match.score, other.TermName(match.super)), ++n;
      }
    } else {
      std::string name = tokens[3];
      const bool inverse = name[0] == '-';
      if (inverse) name = name.substr(1);
      const auto& side = left ? session_.left() : session_.right();
      const auto rel = side.store().FindRelation(Term(name));
      if (!rel) Die("unknown relation in " + request);
      for (const auto& match : reader.RelationSupers(
               inverse ? paris::rdf::Inverse(*rel) : *rel, left)) {
        line(match.score, other.RelationName(match.super)), ++n;
      }
    }
    return "OK " + std::to_string(n) + out;
  }

 private:
  paris::rdf::TermId Term(const std::string& name) const {
    const auto id = session_.left().pool().Find(name, paris::rdf::TermKind::kIri);
    if (!id) Die("unknown term " + name);
    return *id;
  }

  Session session_;
};

struct JobWindow {
  std::string id;
  double submitted = 0.0;    // SUBMIT sent
  double running = 0.0;      // "state running" received
  double align_start = 0.0;  // the job's first pass began (PassClock)
  double align_end = 0.0;    // its last shard or iteration event received
  double done = 0.0;         // "END done" received
  double answered = 0.0;     // the first LOOKUP after END done answered
  double replies_per_s = 0.0;  // pipelined OK replies over the window
  std::string first_reply;     // that LOOKUP's reply

  double seconds() const { return answered - submitted; }
};

// Submits one 1-thread job on `control` and watches it to its END,
// recording its shard and iteration events into `clock` as they arrive.
// Then RESULT must already name the job's result as generation
// `generation` (the daemon swaps it in before it publishes done), and the
// window closes when a LOOKUP of `probe` is answered. The pipelined traffic
// keeps running throughout.
JobWindow RunJob(SocketConn& control, const Traffic& traffic,
                 const std::string& probe, const std::string& job_dir,
                 size_t generation, PassClock& clock, Report& report) {
  JobWindow window;
  window.submitted = Now();
  const uint64_t ok_before = traffic.ok();
  const std::string submitted = Call(control, "SUBMIT threads=1");
  if (!report.Check(submitted.rfind("OK ", 0) == 0, "SUBMIT: " + submitted)) {
    Die("the job was not accepted");
  }
  window.id = submitted.substr(3);
  OrDie(service::WriteFrame(control, "WATCH " + window.id), "WATCH");
  std::string frame;
  for (;;) {
    if (!OrDie(service::ReadFrame(control, &frame), "WATCH stream")) {
      Die("the daemon closed the WATCH stream");
    }
    const double now = Now();
    if (frame.rfind("END ", 0) == 0) {
      window.done = now;
      break;
    }
    // "EVT <id> state <s>", "EVT <id> iteration <k>/<max> ...",
    // "EVT <id> shard <pass> <iteration> <done>/<total>".
    std::istringstream event(frame);
    std::string evt, id, kind, pass;
    event >> evt >> id >> kind;
    if (kind == "state") {
      std::string state;
      event >> state;
      if (state == "running") window.running = now;
    } else if (kind == "iteration") {
      clock.Iteration(now);
      window.align_end = now;
    } else if (kind == "shard") {
      int iteration = 0;
      size_t completed = 0, total = 0;
      char slash = 0;
      event >> pass >> iteration >> completed >> slash >> total;
      clock.Shard(now, pass, completed, total);
      window.align_end = now;
    }
  }
  report.Check(frame == "END done", "job " + window.id + " ended " + frame);
  const std::string served = Call(control, "RESULT");
  const std::string expected = "OK generation=" + std::to_string(generation) +
                               " path=" + job_dir + window.id +
                               "/result.snapshot ";
  report.Check(served.rfind(expected, 0) == 0,
               "RESULT after job " + window.id + " ended: " + served);
  window.first_reply = Call(control, probe);
  window.answered = Now();
  report.Check(IsOk(window.first_reply),
               "first LOOKUP after the job: " + window.first_reply);
  window.align_start = clock.FirstPassStart();
  window.replies_per_s =
      static_cast<double>(traffic.ok() - ok_before) / window.seconds();
  return window;
}

}  // namespace

void RunServeMixed(const RunArgs& args, Report& report) {
  const std::string inputs = args.data_dir + "/inputs";
  const std::string snapshot = args.data_dir + "/derived/pair.snap";
  const std::string base_result = args.data_dir + "/derived/base.result";
  const std::vector<std::string> requests = ReadLines(inputs + "/requests.txt");
  const auto first_lookup =
      std::find_if(requests.begin(), requests.end(), [](const std::string& r) {
        return r.rfind("LOOKUP entity", 0) == 0;
      });
  if (first_lookup == requests.end()) Die("no LOOKUP in the request mix");
  const std::string probe = *first_lookup;

  Tracer tracer(true);
  Tracer off(false);
  Tracer& setup_tracer = args.trace ? tracer : off;
  const auto config_for = [&](size_t rep) {
    service::Daemon::Config config;
    config.num_handlers = kHandlers;
    config.auto_resume = false;
    config.serve_result = base_result;
    config.queue.data_dir = args.work_dir + "/daemon" + std::to_string(rep);
    config.queue.snapshot_path = snapshot;
    config.queue.base_options = Session::Options().set_threads(1);
    return config;
  };

  // Set-up: Daemon::Start until the first LOOKUP answers OK, repeated; the
  // last daemon stays up and serves the rest of the run.
  ResetPeakRss();
  std::vector<double> setup;
  std::unique_ptr<service::Daemon> daemon;
  std::optional<SocketConn> control;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    control.reset();
    daemon.reset();
    setup_tracer.set_group(static_cast<int>(rep));
    Scoped span(setup_tracer, "service.setup");
    const double start = Now();
    daemon = std::make_unique<service::Daemon>(config_for(rep));
    {
      Scoped start_span(setup_tracer, "api.DaemonStart");
      OrDie(daemon->Start(), "Daemon::Start");
    }
    control.emplace(Connect(daemon->port()));
    const std::string reply = Call(*control, probe);
    setup.push_back(Now() - start);
    report.Attempt();
    report.Check(IsOk(reply), "first LOOKUP after start: " + reply);
  }

  // Idle phase, then job windows, under one continuous pipelined stream.
  auto traffic = std::make_unique<Traffic>(daemon->port(), requests);
  const auto idle_cache = CacheCounts(*control);
  traffic->set_sampling(true);
  const uint64_t idle_ok = traffic->ok();
  const double idle_start = Now();
  std::this_thread::sleep_for(std::chrono::duration<double>(kIdleSeconds));
  const double idle_rate =
      static_cast<double>(traffic->ok() - idle_ok) / (Now() - idle_start);
  traffic->set_sampling(false);
  const auto mixed_cache = CacheCounts(*control);

  // In the traced run every other job window records spans, so the two
  // kinds of window give the tracing overhead. The spans of a job come from
  // its WATCH events, stamped as they arrive: queue wait, then the job's
  // run (the load up to its first pass, the Align pass windows, then save,
  // export and the swap up to END done), then the first LOOKUP.
  const std::string job_dir =
      config_for(kSetupReps - 1).queue.data_dir + "/jobs/";
  std::vector<JobWindow> windows;
  std::vector<double> window_seconds[2];
  const double jobs_begin = Now();
  const double budget = args.seconds - (jobs_begin - idle_start) -
                        Median(setup) * static_cast<double>(kSetupReps);
  while (KeepGoing(jobs_begin, windows.size(), kMinJobs, budget)) {
    const bool traced = args.trace && windows.size() % 2 == 1;
    Tracer& t = traced ? tracer : off;
    t.set_group(static_cast<int>(100 + windows.size()));
    Scoped span(t, "service.job");
    report.Attempt();
    PassClock clock;
    windows.push_back(RunJob(*control, *traffic, probe, job_dir,
                             2 + windows.size(), clock, report));
    const JobWindow& w = windows.back();
    window_seconds[traced].push_back(w.seconds());
    t.Add("service.queue_wait", w.submitted, w.running, span.id());
    const int run = t.Add("service.job_run", w.running, w.done, span.id());
    t.Add("service.job_load", w.running, w.align_start, run);
    const int align = t.Add("api.Align", w.align_start, w.align_end, run);
    clock.Emit(t, align, w.align_start);
    t.Add("service.job_finish", w.align_end, w.done, run);
    t.Add("service.publish_to_lookup", w.done, w.answered, span.id());
  }
  const auto end_cache = CacheCounts(*control);
  traffic->Stop();
  const double peak_rss = PeakRssMb();
  LogSamples("serve_mixed setup_s", setup);

  report.Attempt(traffic->sent());
  report.Check(traffic->err() == 0, std::to_string(traffic->err()) +
                                        " non-OK replies, first: " +
                                        traffic->failure());
  report.Check(traffic->ok() + traffic->err() == traffic->sent(),
               "replies missing on the pipelined connection");

  // Replies against the oracle: idle-phase samples come from the base
  // result, each job's first LOOKUP from that job's result.
  const Oracle oracle(snapshot);
  {
    const auto reader = OrDie(paris::core::ResultReader::Open(base_result),
                              "open " + base_result);
    const auto samples = traffic->Samples();
    report.Check(!samples.empty(), "no LOOKUP reply was sampled");
    for (const auto& [request, reply] : samples) {
      report.Check(reply == oracle.Render(reader, request),
                   "reply to '" + request + "' differs from ResultReader");
    }
  }
  for (const JobWindow& window : windows) {
    const std::string result = job_dir + window.id + "/result.snapshot";
    const auto reader =
        OrDie(paris::core::ResultReader::Open(result), "open " + result);
    report.Check(window.first_reply == oracle.Render(reader, probe),
                 "first LOOKUP after job " + window.id +
                     " differs from ResultReader on its result");
  }
  const std::string last_job = job_dir + windows.back().id;
  const std::string served = last_job + "/result.snapshot";

  if (!args.trace) {
    std::vector<double> seconds, rates;
    for (const JobWindow& window : windows) {
      seconds.push_back(window.seconds());
      rates.push_back(window.replies_per_s);
    }
    LogSamples("serve_mixed time_to_result_s", seconds);
    LogSamples("serve_mixed throughput_per_s", rates);
    const double pair_triples = static_cast<double>(
        oracle.session().left().num_triples() +
        oracle.session().right().num_triples());
    const Quality quality = EvaluateExport(last_job + "/export", inputs);
    report.Set("setup_s", Median(setup), "s");
    report.Set("time_to_result_s", Median(seconds), "s");
    report.Set("throughput_per_s", Median(rates), "1/s");
    report.Set("instance_precision", quality.instance_precision, "fraction");
    report.Set("instance_recall", quality.instance_recall, "fraction");
    report.Set("relation_precision", quality.relation_precision, "fraction");
    report.Set("class_precision", quality.class_precision, "fraction");
    report.Set("peak_rss_mb", peak_rss, "MiB");
    report.Set("snapshot_bytes_per_triple",
               static_cast<double>(FileBytes(snapshot) + FileBytes(served)) /
                   pair_triples,
               "bytes/triple");
    return;
  }

  // ---- Per-layer breakdown ----
  const auto hit_ratio = [](std::pair<double, double> from,
                            std::pair<double, double> to) {
    const double hits = to.first - from.first;
    const double lookups = hits + (to.second - from.second);
    return lookups > 0 ? hits / lookups : 0.0;
  };
  report.Set("service.idle_replies_per_s", idle_rate, "1/s");
  report.Set("service.cache_hit_ratio.idle", hit_ratio(idle_cache, mixed_cache),
             "fraction");
  report.Set("service.cache_hit_ratio.mixed", hit_ratio(mixed_cache, end_cache),
             "fraction");
  report.Set("service.err_replies", static_cast<double>(traffic->err()),
             "count");
  traffic.reset();
  std::vector<double> queue_wait, run, load, finish, publish;
  for (const JobWindow& window : windows) {
    queue_wait.push_back(window.running - window.submitted);
    run.push_back(window.done - window.running);
    load.push_back(window.align_start - window.running);
    finish.push_back(window.done - window.align_end);
    publish.push_back(window.answered - window.done);
  }
  report.Set("service.queue_wait_s", Median(queue_wait), "s");
  report.Set("service.job_run_s", Median(run), "s");
  report.Set("service.job_load_s", Median(load), "s");
  report.Set("service.job_finish_s", Median(finish), "s");
  report.Set("service.publish_to_lookup_s", Median(publish), "s");
  report.Set("core.checkpoints_written",
             static_cast<double>(DataLines(last_job + "/ckpt/MANIFEST")),
             "count");
  report.Set("bench.trace_overhead_fraction",
             Median(window_seconds[1]) / Median(window_seconds[0]) - 1.0,
             "fraction");

  // Synchronous round trips on the idle daemon: the floor under the
  // pipelined throughput, with its sample count.
  {
    std::vector<double> rtt, lookup;
    std::vector<std::string> lookups;
    for (const std::string& request : requests) {
      if (request.rfind("LOOKUP", 0) == 0) lookups.push_back(request);
    }
    for (size_t i = 0; i < kLatencySamples; ++i) {
      double start = Now();
      Call(*control, "PING");
      rtt.push_back((Now() - start) * 1e6);
      start = Now();
      Call(*control, lookups[i % lookups.size()]);
      lookup.push_back((Now() - start) * 1e6);
    }
    report.Set("service.rtt_us.p50", Quantile(rtt, 0.5), "us");
    report.Set("service.rtt_us.p99", Quantile(rtt, 0.99), "us");
    report.Set("service.lookup_us.p50", Quantile(lookup, 0.5), "us");
    report.Set("service.lookup_us.p99", Quantile(lookup, 0.99), "us");
    report.Set("service.latency_samples", static_cast<double>(kLatencySamples),
               "count");
  }
  // What the whole mix would occupy in the lookup cache: every distinct
  // request once, key plus rendered reply.
  {
    std::vector<std::string> distinct = requests;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    double bytes = 0.0;
    for (const std::string& request : distinct) {
      bytes += static_cast<double>(request.size() + Call(*control, request).size());
    }
    report.Set("service.distinct_reply_bytes", bytes, "bytes");
  }
  control.reset();
  daemon.reset();

  // Per traced job: the pass windows and Align span from its WATCH events,
  // and the api self time of one job plus one Daemon::Start.
  const double traced_jobs = static_cast<double>(window_seconds[1].size());
  ReportPassTimes(tracer, traced_jobs, report);
  report.Set("api.Align_s", tracer.Total("api.Align") / traced_jobs, "s");
  report.Set("api.DaemonStart_s",
             tracer.Total("api.DaemonStart") / static_cast<double>(kSetupReps),
             "s");
  report.Set("api.self_s",
             tracer.SelfTotal("api.Align") / traced_jobs +
                 tracer.SelfTotal("api.DaemonStart") /
                     static_cast<double>(kSetupReps),
             "s");
  report.Set("core.result_bytes", static_cast<double>(FileBytes(served)),
             "bytes");

  // Query and lookup batches over the entity keys of the serve mix, in mix
  // order (so with its Zipf repetition).
  std::vector<EntityKey> keys;
  for (const std::string& request : requests) {
    const auto tokens = service::SplitTokens(request, 4);
    if (tokens[0] != "LOOKUP" || tokens[1] != "entity") continue;
    const auto id =
        oracle.session().left().pool().Find(tokens[3], paris::rdf::TermKind::kIri);
    if (!id) Die("unknown entity " + tokens[3]);
    keys.push_back({tokens[2] == "left", *id});
  }
  MeasureQueries(oracle.session(), keys, report);
  MeasureReader(served, keys, report);
  MeasureSnapshotLoad(snapshot, report);
  MeasureParse({inputs + "/left.nt", inputs + "/right.nt"}, report);
  CountInvalidUtf8({inputs + "/left.nt", inputs + "/right.nt"}, report);
  MeasureBuild(inputs + "/left.nt", inputs + "/right.nt", 1, report);
  tracer.WriteJson(args.work_dir + "/trace.json");
}

}  // namespace perfbench
