#ifndef PARIS_SERVICE_DAEMON_H_
#define PARIS_SERVICE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "paris/api/session.h"
#include "paris/obs/metrics.h"
#include "paris/obs/trace.h"
#include "paris/service/job_queue.h"
#include "paris/service/protocol.h"
#include "paris/service/read_path.h"
#include "paris/util/net.h"
#include "paris/util/status.h"

namespace paris::service {

// parisd's engine: one TCP listener, an accept thread feeding N handler
// threads, the job queue, and the lookup read path — everything behind the
// framed text protocol documented in src/paris/service/README.md.
//
// One daemon serves one ontology pair, loaded once at Start() into a
// resolution Session whose term pool answers name <-> id for LOOKUP.
// Alignment jobs load the same inputs into their own Sessions; because
// interning is deterministic in input order, their term ids coincide with
// the resolution pool's, so ids in a served result snapshot resolve
// correctly here.
//
// Observability: a MetricsRegistry with one slot per handler thread.
// Handler-side updates are slot-local and taken under a shared lock;
// METRICS (Snapshot) and TRACE (WriteJson) requests take the lock
// exclusively, because those exports require no concurrent updates.
class Daemon {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral; the bound port is port() after Start
    size_t num_handlers = 4;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    size_t cache_bytes = 4u << 20;  // lookup hot-key cache budget
    bool auto_resume = true;        // requeue in-flight jobs from data_dir
    bool trace = false;             // record per-request spans (TRACE verb)

    // Job execution (pair source, base options, checkpoint cadence).
    JobQueue::Config queue;

    // Optional result snapshot to serve before the first job completes.
    std::string serve_result;
  };

  explicit Daemon(Config config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Loads the pair, starts the job queue (recovering in-flight jobs when
  // configured), binds the listener, and launches the accept + handler
  // threads. On return the daemon is serving.
  util::Status Start();

  // Blocks until a client SHUTDOWN request or Stop() from another thread.
  // Returns immediately if Start() has not succeeded.
  void Wait();

  // Bounded Wait(): true when shutdown was requested (or the daemon
  // stopped), false on timeout. Lets a main loop interleave signal checks.
  bool WaitFor(double seconds);

  // Graceful shutdown, idempotent: stops accepting, drains handler
  // threads, stops the queue (the running job is re-persisted as queued
  // and resumable). Called by the destructor. Must not be called from a
  // handler thread — a client SHUTDOWN request goes through
  // RequestShutdown() and the owning thread's Wait()/Stop() instead.
  void Stop();

  // Makes Wait() return; safe from any thread (and the SHUTDOWN verb).
  void RequestShutdown();

  int port() const { return port_; }

 private:
  void AcceptLoop();
  void HandlerLoop(size_t slot);
  void ServeConn(util::SocketConn conn, size_t slot);

  // One request -> one reply payload ("OK ..." / "ERR CODE msg"). WATCH is
  // handled separately because it writes multiple frames.
  std::string HandleRequest(const std::string& payload, size_t slot);
  util::Status HandleWatch(util::SocketConn& conn,
                           const std::vector<std::string>& tokens,
                           size_t slot);

  std::string HandleSubmit(const std::vector<std::string>& tokens);
  std::string HandleStatus(const std::vector<std::string>& tokens);
  std::string HandleList();
  std::string HandleCancel(const std::vector<std::string>& tokens);
  std::string HandleLookup(const std::string& payload, size_t slot);
  std::string HandleQuery(const std::string& payload, size_t slot);
  std::string HandleResult();
  std::string HandleMetrics(size_t slot);
  std::string HandleTrace(size_t slot);

  static std::string RenderJobStatus(const JobQueue::JobStatus& status);

  Config config_;
  std::optional<api::Session> resolver_;  // loaded pair; names <-> ids
  std::unique_ptr<JobQueue> queue_;
  SnapshotServer snapshots_;
  std::optional<util::SocketListener> listener_;
  int port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> handlers_;
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::deque<util::SocketConn> conn_queue_;
  std::atomic<bool> closing_{false};
  // Connections currently inside ServeConn; Stop() Shutdown()s them so
  // handlers blocked in recv return. Guarded by conn_mu_; each entry is
  // owned by the handler thread that registered it, which unregisters
  // before destroying the conn.
  std::vector<util::SocketConn*> active_conns_;

  // Slot s belongs to handler thread s; main_slot() to the accept thread.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  mutable std::shared_mutex obs_mu_;  // shared: slot updates; unique: export
  obs::MetricId requests_ = 0;
  obs::MetricId errors_ = 0;
  obs::MetricId lookups_ = 0;
  obs::MetricId lookup_micros_ = 0;
  obs::MetricId queries_ = 0;
  obs::MetricId query_micros_ = 0;
  obs::MetricId connections_ = 0;
  obs::MetricId cache_hits_gauge_ = 0;
  obs::MetricId cache_misses_gauge_ = 0;
  obs::MetricId jobs_submitted_gauge_ = 0;
  obs::MetricId jobs_completed_gauge_ = 0;
  obs::MetricId generation_gauge_ = 0;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace paris::service

#endif  // PARIS_SERVICE_DAEMON_H_
