#include "paris/service/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "paris/util/flags.h"
#include "paris/util/logging.h"

namespace paris::service {

namespace {

// Span names must outlive the recorder, so every verb maps to a literal.
const char* SpanNameForVerb(const std::string& verb) {
  if (verb == "PING") return "ping";
  if (verb == "SUBMIT") return "submit";
  if (verb == "STATUS") return "status";
  if (verb == "LIST") return "list";
  if (verb == "CANCEL") return "cancel";
  if (verb == "WATCH") return "watch";
  if (verb == "LOOKUP") return "lookup";
  if (verb == "QUERY") return "query";
  if (verb == "RESULT") return "result";
  if (verb == "SHUTDOWN") return "shutdown";
  return "unknown";
}

std::string FormatScore(double score) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", score);
  return buffer;
}

}  // namespace

Daemon::Daemon(Config config)
    : config_(std::move(config)),
      snapshots_(config_.cache_bytes),
      metrics_(std::max<size_t>(config_.num_handlers, 1) + 1) {
  config_.num_handlers = std::max<size_t>(config_.num_handlers, 1);
}

Daemon::~Daemon() { Stop(); }

util::Status Daemon::Start() {
  if (started_) return util::FailedPreconditionError("daemon already started");

  // Resolution pair: jobs re-load the same inputs into their own Sessions;
  // deterministic interning keeps all term ids aligned with this pool.
  api::Session::Options resolver_options = config_.queue.base_options;
  resolver_.emplace(std::move(resolver_options));
  util::Status status =
      config_.queue.snapshot_path.empty()
          ? resolver_->LoadFromFiles(config_.queue.left_path,
                                     config_.queue.right_path)
          : resolver_->LoadFromSnapshot(config_.queue.snapshot_path);
  if (!status.ok()) return status;

  if (config_.trace) {
    trace_ = std::make_unique<obs::TraceRecorder>(config_.num_handlers + 1);
  }
  requests_ = metrics_.Counter("service.requests");
  errors_ = metrics_.Counter("service.errors");
  lookups_ = metrics_.Counter("service.lookups");
  connections_ = metrics_.Counter("service.connections");
  lookup_micros_ = metrics_.Histogram(
      "service.lookup_micros",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000});
  queries_ = metrics_.Counter("service.queries");
  query_micros_ = metrics_.Histogram(
      "service.query_micros",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000});
  cache_hits_gauge_ = metrics_.Gauge("service.lookup_cache_hits");
  cache_misses_gauge_ = metrics_.Gauge("service.lookup_cache_misses");
  jobs_submitted_gauge_ = metrics_.Gauge("service.jobs_submitted");
  jobs_completed_gauge_ = metrics_.Gauge("service.jobs_completed");
  generation_gauge_ = metrics_.Gauge("service.snapshot_generation");

  JobQueue::Config queue_config = config_.queue;
  queue_config.on_result = [this](const std::string& job_id,
                                  const std::string& result_path) {
    const util::Status refresh = snapshots_.Refresh(result_path);
    if (refresh.ok()) {
      PARIS_LOG(kInfo) << "serving result of " << job_id << " ("
                       << result_path << ")";
    } else {
      PARIS_LOG(kWarning) << "cannot serve result of " << job_id << ": "
                          << refresh.ToString();
    }
  };
  queue_ = std::make_unique<JobQueue>(std::move(queue_config));
  auto requeued = queue_->Start(config_.auto_resume);
  if (!requeued.ok()) return requeued.status();
  for (const std::string& id : *requeued) {
    PARIS_LOG(kInfo) << "requeued in-flight job " << id;
  }

  if (!config_.serve_result.empty()) {
    status = snapshots_.Refresh(config_.serve_result);
    if (!status.ok()) return status;
  } else {
    // Serve the newest completed job's result, if any survived restarts.
    std::string latest;
    for (const auto& job : queue_->List()) {
      if (job.state == JobQueue::JobState::kDone) latest = job.result_path;
    }
    if (!latest.empty()) {
      const util::Status refresh = snapshots_.Refresh(latest);
      if (!refresh.ok()) {
        PARIS_LOG(kWarning) << "stale result not served: "
                            << refresh.ToString();
      }
    }
  }

  auto listener = util::SocketListener::Listen(
      config_.host, static_cast<uint16_t>(config_.port));
  if (!listener.ok()) return listener.status();
  listener_.emplace(std::move(listener).value());
  port_ = listener_->port();

  handlers_.reserve(config_.num_handlers);
  for (size_t slot = 0; slot < config_.num_handlers; ++slot) {
    handlers_.emplace_back([this, slot] { HandlerLoop(slot); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return util::OkStatus();
}

void Daemon::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopped_; });
}

bool Daemon::WaitFor(double seconds) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return shutdown_requested_ || stopped_; });
}

void Daemon::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Daemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  closing_.store(true, std::memory_order_release);
  if (listener_) listener_->Close();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (util::SocketConn* conn : active_conns_) conn->Shutdown();
  }
  conn_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  if (queue_) queue_->Stop();
  shutdown_cv_.notify_all();
}

void Daemon::AcceptLoop() {
  for (;;) {
    auto conn = listener_->Accept();
    if (!conn.ok()) {
      if (conn.status().code() == util::StatusCode::kCancelled) return;
      PARIS_LOG(kWarning) << "accept: " << conn.status().ToString();
      continue;
    }
    {
      std::shared_lock<std::shared_mutex> obs_lock(obs_mu_);
      metrics_.Add(connections_, metrics_.main_slot(), 1);
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_queue_.push_back(std::move(conn).value());
    }
    conn_cv_.notify_one();
  }
}

void Daemon::HandlerLoop(size_t slot) {
  for (;;) {
    util::SocketConn conn;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] {
        return closing_.load(std::memory_order_acquire) ||
               !conn_queue_.empty();
      });
      if (closing_.load(std::memory_order_acquire)) return;
      conn = std::move(conn_queue_.front());
      conn_queue_.pop_front();
    }
    ServeConn(std::move(conn), slot);
  }
}

void Daemon::ServeConn(util::SocketConn conn, size_t slot) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (closing_.load(std::memory_order_acquire)) return;
    active_conns_.push_back(&conn);
  }
  std::string payload;
  for (;;) {
    auto got = ReadFrame(conn, &payload, config_.max_frame_bytes);
    if (!got.ok()) {
      // Malformed framing (oversized prefix, truncated stream): tell the
      // client if the pipe still works, then drop the connection — after a
      // framing error the stream position is unreliable.
      (void)WriteFrame(conn, ErrorReply(got.status()),
                       config_.max_frame_bytes);
      break;
    }
    if (!*got) break;  // clean EOF
    const std::vector<std::string> tokens = SplitTokens(payload);
    if (tokens.empty()) {
      if (!WriteFrame(conn, "ERR INVALID_ARGUMENT empty request",
                      config_.max_frame_bytes)
               .ok()) {
        break;
      }
      continue;
    }
    if (tokens[0] == "WATCH") {
      if (!HandleWatch(conn, tokens, slot).ok()) break;
      continue;
    }
    const std::string reply = HandleRequest(payload, slot);
    if (!WriteFrame(conn, reply, config_.max_frame_bytes).ok()) break;
    if (tokens[0] == "SHUTDOWN") break;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    active_conns_.erase(
        std::remove(active_conns_.begin(), active_conns_.end(), &conn),
        active_conns_.end());
  }
}

std::string Daemon::HandleRequest(const std::string& payload, size_t slot) {
  const std::vector<std::string> tokens = SplitTokens(payload);
  const std::string& verb = tokens[0];

  // METRICS and TRACE export the registries, which requires no concurrent
  // slot updates — they take obs_mu_ exclusively inside their handlers.
  if (verb == "METRICS") return HandleMetrics(slot);
  if (verb == "TRACE") return HandleTrace(slot);

  std::shared_lock<std::shared_mutex> obs_lock(obs_mu_);
  obs::Span span(trace_.get(), slot, "request", SpanNameForVerb(verb));
  metrics_.Add(requests_, slot, 1);

  std::string reply;
  if (verb == "PING") {
    reply = "OK pong";
  } else if (verb == "SUBMIT") {
    reply = HandleSubmit(tokens);
  } else if (verb == "STATUS") {
    reply = HandleStatus(tokens);
  } else if (verb == "LIST") {
    reply = HandleList();
  } else if (verb == "CANCEL") {
    reply = HandleCancel(tokens);
  } else if (verb == "LOOKUP") {
    reply = HandleLookup(payload, slot);
  } else if (verb == "QUERY") {
    reply = HandleQuery(payload, slot);
  } else if (verb == "RESULT") {
    reply = HandleResult();
  } else if (verb == "SHUTDOWN") {
    RequestShutdown();
    reply = "OK shutting down";
  } else {
    reply = ErrorReply(
        util::InvalidArgumentError("unknown request '" + verb + "'"));
  }
  if (reply.rfind("ERR ", 0) == 0) metrics_.Add(errors_, slot, 1);
  return reply;
}

std::string Daemon::HandleSubmit(const std::vector<std::string>& tokens) {
  JobQueue::JobSpec spec;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return ErrorReply(util::InvalidArgumentError(
          "SUBMIT arguments must be key=value, got '" + tokens[i] + "'"));
    }
    spec.overrides.emplace_back(tokens[i].substr(0, eq),
                                tokens[i].substr(eq + 1));
  }
  auto id = queue_->Submit(spec);
  if (!id.ok()) return ErrorReply(id.status());
  return "OK " + *id;
}

std::string Daemon::RenderJobStatus(const JobQueue::JobStatus& status) {
  std::ostringstream out;
  out << "OK id=" << status.id << " state="
      << JobQueue::JobStateName(status.state)
      << " iteration=" << status.iteration
      << " aligned=" << status.num_aligned << " pass="
      << (status.pass.empty() ? "-" : status.pass) << " shards="
      << status.shards_completed << "/" << status.num_shards;
  if (!status.spec.empty()) out << "\nspec " << status.spec;
  if (!status.error.empty()) out << "\nerror " << status.error;
  if (!status.result_path.empty()) out << "\nresult " << status.result_path;
  return out.str();
}

std::string Daemon::HandleStatus(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return ErrorReply(util::InvalidArgumentError("usage: STATUS <job-id>"));
  }
  auto status = queue_->Status(tokens[1]);
  if (!status.ok()) return ErrorReply(status.status());
  return RenderJobStatus(*status);
}

std::string Daemon::HandleList() {
  const std::vector<JobQueue::JobStatus> jobs = queue_->List();
  std::ostringstream out;
  out << "OK " << jobs.size();
  for (const auto& job : jobs) {
    out << "\n" << job.id << " " << JobQueue::JobStateName(job.state);
  }
  return out.str();
}

std::string Daemon::HandleCancel(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return ErrorReply(util::InvalidArgumentError("usage: CANCEL <job-id>"));
  }
  const util::Status status = queue_->Cancel(tokens[1]);
  if (!status.ok()) return ErrorReply(status);
  return "OK cancelling " + tokens[1];
}

util::Status Daemon::HandleWatch(util::SocketConn& conn,
                                 const std::vector<std::string>& tokens,
                                 size_t slot) {
  {
    std::shared_lock<std::shared_mutex> obs_lock(obs_mu_);
    metrics_.Add(requests_, slot, 1);
  }
  if (tokens.size() != 2 && tokens.size() != 3) {
    return WriteFrame(conn,
                      ErrorReply(util::InvalidArgumentError(
                          "usage: WATCH <job-id> [from-seq]")),
                      config_.max_frame_bytes);
  }
  uint64_t next = 0;
  if (tokens.size() == 3) {
    long long from = 0;
    if (!util::ParseFullInt64(tokens[2], &from) || from < 0) {
      return WriteFrame(conn,
                        ErrorReply(util::InvalidArgumentError(
                            "WATCH from-seq must be a non-negative integer")),
                        config_.max_frame_bytes);
    }
    next = static_cast<uint64_t>(from);
  }
  for (;;) {
    if (closing_.load(std::memory_order_acquire)) {
      return WriteFrame(conn, "END interrupted", config_.max_frame_bytes);
    }
    bool terminal = false;
    JobQueue::JobState state = JobQueue::JobState::kQueued;
    auto events = queue_->WaitEvents(tokens[1], next, &terminal, &state, 0.25);
    if (!events.ok()) {
      return WriteFrame(conn, ErrorReply(events.status()),
                        config_.max_frame_bytes);
    }
    for (const JobQueue::Event& event : *events) {
      const util::Status sent =
          WriteFrame(conn, event.text, config_.max_frame_bytes);
      if (!sent.ok()) return sent;  // client went away mid-stream
      next = event.seq + 1;
    }
    if (terminal) {
      return WriteFrame(
          conn,
          "END " + std::string(JobQueue::JobStateName(state)),
          config_.max_frame_bytes);
    }
  }
}

std::string Daemon::HandleLookup(const std::string& payload, size_t slot) {
  // The key is the remainder token, so IRIs containing no spaces and raw
  // "#<id>" forms both pass through unmangled.
  const std::vector<std::string> tokens = SplitTokens(payload, 4);
  if (tokens.size() != 4) {
    return ErrorReply(util::InvalidArgumentError(
        "usage: LOOKUP entity|relation|class left|right <key>"));
  }
  const std::string& kind = tokens[1];
  const std::string& side = tokens[2];
  const std::string& key = tokens[3];
  if (kind != "entity" && kind != "relation" && kind != "class") {
    return ErrorReply(util::InvalidArgumentError(
        "LOOKUP kind must be entity, relation, or class"));
  }
  if (side != "left" && side != "right") {
    return ErrorReply(
        util::InvalidArgumentError("LOOKUP side must be left or right"));
  }
  const bool side_is_left = side == "left";

  const auto start = std::chrono::steady_clock::now();
  const auto finish = [&](std::string reply) {
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    metrics_.Add(lookups_, slot, 1);
    metrics_.Observe(lookup_micros_, slot, micros);
    return reply;
  };

  const uint64_t generation = snapshots_.generation();
  auto reader = snapshots_.reader();
  if (reader == nullptr) {
    return finish(ErrorReply(util::FailedPreconditionError(
        "no result snapshot is being served yet")));
  }
  // The generation in the key makes entries self-invalidating: a Put that
  // races a Refresh lands under the old generation and is never read again.
  const std::string cache_key =
      kind + ":" + side + ":" + std::to_string(generation) + ":" + key;
  std::string cached;
  if (snapshots_.cache().Get(cache_key, &cached)) return finish(cached);

  std::ostringstream out;
  if (kind == "entity") {
    auto id = resolver_->ResolveTerm(key);
    if (!id.ok()) return finish(ErrorReply(id.status()));
    const ontology::Ontology& other_side =
        side_is_left ? resolver_->right() : resolver_->left();
    if (side_is_left) {
      const auto candidates = reader->LeftEntity(*id);
      out << "OK " << candidates.size();
      for (size_t i = 0; i < candidates.size(); ++i) {
        out << "\n" << FormatScore(candidates.probs[i]) << "\t"
            << other_side.TermName(candidates.others[i]);
      }
    } else {
      const auto matches = reader->RightEntity(*id);
      out << "OK " << matches.size();
      for (const auto& match : matches) {
        out << "\n" << FormatScore(match.prob) << "\t"
            << other_side.TermName(match.other);
      }
    }
  } else if (kind == "relation") {
    auto rel = resolver_->ResolveRelation(
        side_is_left ? api::Session::DeltaSide::kLeft
                     : api::Session::DeltaSide::kRight,
        key);
    if (!rel.ok()) return finish(ErrorReply(rel.status()));
    const auto matches = reader->RelationSupers(*rel, side_is_left);
    const ontology::Ontology& other_side =
        side_is_left ? resolver_->right() : resolver_->left();
    out << "OK " << matches.size();
    for (const auto& match : matches) {
      out << "\n" << FormatScore(match.score) << "\t"
          << other_side.RelationName(match.super);
    }
  } else {
    auto id = resolver_->ResolveTerm(key);
    if (!id.ok()) return finish(ErrorReply(id.status()));
    const auto matches = reader->ClassSupers(*id, side_is_left);
    const ontology::Ontology& other_side =
        side_is_left ? resolver_->right() : resolver_->left();
    out << "OK " << matches.size();
    for (const auto& match : matches) {
      out << "\n" << FormatScore(match.score) << "\t"
          << other_side.TermName(match.super);
    }
  }
  std::string reply = out.str();
  snapshots_.cache().Put(cache_key, reply);
  return finish(std::move(reply));
}

std::string Daemon::HandleQuery(const std::string& payload, size_t slot) {
  // QUERY left|right <s> <p> <o> [limit] — the slots use the token syntax
  // of api::Session::ParsePattern. Answered from the ontology pair itself
  // (rdf::TripleStore::Scan over the columnar index), so it works before
  // the first result snapshot exists.
  const std::vector<std::string> tokens = SplitTokens(payload);
  if (tokens.size() != 5 && tokens.size() != 6) {
    return ErrorReply(util::InvalidArgumentError(
        "usage: QUERY left|right <subject> <relation> <object> [limit]"));
  }
  const std::string& side = tokens[1];
  if (side != "left" && side != "right") {
    return ErrorReply(
        util::InvalidArgumentError("QUERY side must be left or right"));
  }
  const bool side_is_left = side == "left";
  size_t limit = 100;  // bounded by default; an explicit 0 means no limit
  if (tokens.size() == 6) {
    long long parsed = 0;
    if (!util::ParseFullInt64(tokens[5], &parsed) || parsed < 0) {
      return ErrorReply(util::InvalidArgumentError(
          "QUERY limit must be a non-negative integer"));
    }
    limit = static_cast<size_t>(parsed);
  }

  const auto pattern = resolver_->ParsePattern(
      side_is_left ? api::Session::DeltaSide::kLeft
                   : api::Session::DeltaSide::kRight,
      tokens[2], tokens[3], tokens[4]);
  if (!pattern.ok()) return ErrorReply(pattern.status());

  const auto start = std::chrono::steady_clock::now();
  const auto finish = [&](std::string reply) {
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    metrics_.Add(queries_, slot, 1);
    metrics_.Observe(query_micros_, slot, micros);
    return reply;
  };

  // The pattern resolves against the immutable resolution pair, but keying
  // the cache by generation keeps the invalidation story uniform with
  // LOOKUP (and future daemons that re-load the pair per generation).
  const std::string cache_key = "query:" + side + ":" +
                                std::to_string(snapshots_.generation()) + ":" +
                                tokens[2] + " " + tokens[3] + " " + tokens[4] +
                                " " + std::to_string(limit);
  std::string cached;
  if (snapshots_.cache().Get(cache_key, &cached)) return finish(cached);

  const ontology::Ontology& onto =
      side_is_left ? resolver_->left() : resolver_->right();
  std::ostringstream body;
  const size_t matched = onto.store().Scan(
      *pattern, limit, [&](const rdf::Triple& t) {
        body << "\n"
             << (t.subject == rdf::kNullTerm ? "_" : onto.TermName(t.subject))
             << "\t"
             << (t.rel == rdf::kNullRel ? "_" : onto.RelationName(t.rel))
             << "\t"
             << (t.object == rdf::kNullTerm ? "_" : onto.TermName(t.object));
      });
  std::string reply = "OK " + std::to_string(matched) + body.str();
  snapshots_.cache().Put(cache_key, reply);
  return finish(std::move(reply));
}

std::string Daemon::HandleResult() {
  auto reader = snapshots_.reader();
  if (reader == nullptr) {
    return ErrorReply(
        util::NotFoundError("no result snapshot is being served yet"));
  }
  const auto& stats = reader->stats();
  std::ostringstream out;
  out << "OK generation=" << snapshots_.generation() << " path="
      << snapshots_.path() << " iterations=" << stats.num_iterations
      << " aligned=" << stats.num_left_aligned
      << " instances=" << stats.num_instance_keys
      << " relations=" << stats.num_relation_entries
      << " classes=" << stats.num_class_entries
      << " partial=" << (stats.has_partial ? 1 : 0);
  return out.str();
}

std::string Daemon::HandleMetrics(size_t slot) {
  std::unique_lock<std::shared_mutex> obs_lock(obs_mu_);
  obs::Span span(trace_.get(), slot, "request", "metrics");
  metrics_.Add(requests_, slot, 1);
  metrics_.SetGauge(cache_hits_gauge_,
                    static_cast<int64_t>(snapshots_.cache().hits()));
  metrics_.SetGauge(cache_misses_gauge_,
                    static_cast<int64_t>(snapshots_.cache().misses()));
  metrics_.SetGauge(jobs_submitted_gauge_,
                    static_cast<int64_t>(queue_->jobs_submitted()));
  metrics_.SetGauge(jobs_completed_gauge_,
                    static_cast<int64_t>(queue_->jobs_completed()));
  metrics_.SetGauge(generation_gauge_,
                    static_cast<int64_t>(snapshots_.generation()));
  std::ostringstream out;
  metrics_.WriteJson(out);
  return "OK\n" + out.str();
}

std::string Daemon::HandleTrace(size_t slot) {
  std::unique_lock<std::shared_mutex> obs_lock(obs_mu_);
  if (trace_ == nullptr) {
    return ErrorReply(util::FailedPreconditionError(
        "the daemon was started without --trace"));
  }
  obs::Span span(trace_.get(), slot, "request", "trace");
  metrics_.Add(requests_, slot, 1);
  span.End();  // recorded before the export so WriteJson sees it
  std::ostringstream out;
  trace_->WriteJson(out);
  return "OK\n" + out.str();
}

}  // namespace paris::service
