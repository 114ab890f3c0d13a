#include "paris/core/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "paris/util/fault_injection.h"
#include "paris/util/fs.h"
#include "paris/util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define PARIS_CHECKPOINT_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace paris::core {

namespace {

constexpr char kManifestName[] = "MANIFEST";

// Minimum spacing between captures, as a multiple of the last measured
// serialization cost (see CheckpointWriter::Due).
constexpr double kCaptureCostFactor = 100.0;

std::string CheckpointFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06llu.result",
                static_cast<unsigned long long>(seq));
  return buf;
}

struct ManifestEntry {
  uint64_t seq = 0;
  std::string name;
};

// Parses the MANIFEST journal. Only lines terminated by '\n' count (a
// crash mid-append leaves a torn final line, which is simply not a
// checkpoint yet); malformed lines — bad sequence number, missing tab,
// a name that tries to escape the directory — are skipped, so one
// corrupted append can never take the whole journal down.
std::vector<ManifestEntry> ReadManifest(const std::string& path) {
  std::vector<ManifestEntry> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return entries;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = std::move(buffer).str();
  size_t pos = 0;
  while (true) {
    const size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) break;  // torn tail: ignore
    const std::string_view line(contents.data() + pos, newline - pos);
    pos = newline + 1;
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos || tab == 0 || tab + 1 == line.size()) {
      continue;
    }
    const std::string seq_str(line.substr(0, tab));
    char* end = nullptr;
    errno = 0;
    const unsigned long long seq = std::strtoull(seq_str.c_str(), &end, 10);
    if (errno != 0 || end != seq_str.c_str() + seq_str.size()) continue;
    const std::string_view name = line.substr(tab + 1);
    if (name.find('/') != std::string_view::npos) continue;
    entries.push_back({seq, std::string(name)});
  }
  return entries;
}

// Appends one journal line durably: write, then fsync, so the entry — and
// with it the checkpoint file it names, already renamed into place — is on
// disk before anyone can observe it. EINTR is retried; anything else fails
// the append (and thereby disables checkpointing).
util::Status AppendManifestLine(const std::string& path, std::string line) {
  const util::FaultAction fault =
      util::CheckFaultRetryingTransient("checkpoint.manifest");
  if (fault.kind == util::FaultKind::kErrno) {
    return util::InternalError("cannot append to '" + path +
                               "': " + std::strerror(fault.error_number));
  }
  if (fault.kind == util::FaultKind::kBitFlip && !line.empty()) {
    line[line.size() / 2] ^= 0x20;  // corrupt line; readers must skip it
  }
  if (fault.kind == util::FaultKind::kShortWrite) {
    line.resize(line.size() / 2);  // torn append: no terminating newline
  }
#ifdef PARIS_CHECKPOINT_POSIX_IO
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return util::InternalError("cannot open '" + path +
                               "': " + std::strerror(errno));
  }
  const char* data = line.data();
  size_t remaining = line.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return util::InternalError("cannot append to '" + path +
                                 "': " + std::strerror(err));
    }
    data += written;
    remaining -= static_cast<size_t>(written);
  }
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    const int err = errno;
    ::close(fd);
    return util::InternalError("cannot fsync '" + path +
                               "': " + std::strerror(err));
  }
  ::close(fd);
  return util::OkStatus();
#else
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return util::InternalError("cannot open '" + path +
                               "': " + std::strerror(errno));
  }
  const size_t written = std::fwrite(line.data(), 1, line.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != line.size() || !flushed) {
    return util::InternalError("cannot append to '" + path + "'");
  }
  return util::OkStatus();
#endif
}

}  // namespace

CheckpointWriter::CheckpointWriter(Options options,
                                   const ontology::Ontology& left,
                                   const ontology::Ontology& right,
                                   const AlignmentConfig& config,
                                   std::string matcher)
    : options_(std::move(options)),
      left_(left),
      right_(right),
      config_(config),
      matcher_(std::move(matcher)),
      last_capture_(std::chrono::steady_clock::now()) {
#ifdef PARIS_CHECKPOINT_POSIX_IO
  // Create the directory (one level) if it does not exist yet; a failure
  // here surfaces as the first write failing, which disables checkpointing
  // with a warning like every other IO error.
  ::mkdir(options_.dir.c_str(), 0755);
#endif
  // Continue the journal of a previous (interrupted) run in this
  // directory rather than reusing its sequence numbers.
  const std::string manifest = options_.dir + "/" + kManifestName;
  for (const ManifestEntry& entry : ReadManifest(manifest)) {
    next_seq_ = std::max(next_seq_, entry.seq + 1);
  }
  // The journal exists from the moment checkpointing starts, so a run that
  // ends before its first capture leaves an empty journal, not none: a
  // reader can tell "checkpointing on, nothing captured" from "never
  // checkpointed". LoadLatestCheckpoint treats an empty journal like a
  // missing one. Best-effort like every checkpoint write; a failure here
  // resurfaces at the first append.
  std::ofstream(manifest, std::ios::binary | std::ios::app);
  worker_ = std::thread([this] { WorkerLoop(); });
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  worker_.join();
}

bool CheckpointWriter::Due() const {
  if (disabled_.load(std::memory_order_relaxed)) return false;
  if (busy_.load(std::memory_order_acquire)) return false;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - last_capture_;
  // Self-limiting cadence: serialization runs on the shard gate, so space
  // captures at least kCaptureCostFactor serializations apart — the gate
  // thread spends at most ~1/kCaptureCostFactor of wall clock capturing,
  // however small the configured interval or large the result.
  const double floor_seconds = std::max(
      options_.interval_seconds, kCaptureCostFactor * capture_cost_seconds_);
  return elapsed.count() >= floor_seconds;
}

void CheckpointWriter::Submit(const ResultSnapshotView& view) {
  if (disabled_.load(std::memory_order_relaxed) ||
      busy_.load(std::memory_order_acquire)) {
    return;
  }
  const auto capture_start = std::chrono::steady_clock::now();
  std::string bytes =
      SerializeAlignmentResult(view, left_, right_, config_, matcher_);
  busy_.store(true, std::memory_order_release);
  last_capture_ = std::chrono::steady_clock::now();
  capture_cost_seconds_ =
      std::chrono::duration<double>(last_capture_ - capture_start).count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = Job{next_seq_++, std::move(bytes)};
  }
  cv_.notify_one();
}

void CheckpointWriter::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || pending_.has_value(); });
      if (!pending_.has_value()) return;  // stop, nothing in flight
      job = std::move(*pending_);
      pending_.reset();
    }
    WriteCheckpoint(std::move(job));
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_.store(false, std::memory_order_release);
    }
    cv_done_.notify_all();
  }
}

void CheckpointWriter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] {
    return !pending_.has_value() && !busy_.load(std::memory_order_acquire);
  });
}

void CheckpointWriter::WriteCheckpoint(Job job) {
  const std::string name = CheckpointFileName(job.seq);
  const std::string path = options_.dir + "/" + name;
  util::Status status = util::WriteFileAtomic(path, job.bytes);
  if (status.ok()) {
    status = AppendManifestLine(
        options_.dir + "/" + kManifestName,
        std::to_string(job.seq) + "\t" + name + "\n");
  }
  if (!status.ok()) {
    // Best-effort by contract: warn, stop checkpointing, keep the run
    // alive. The previous durable checkpoint (if any) stays usable.
    PARIS_LOG(kWarning) << "checkpointing disabled: " << status.ToString();
    disabled_.store(true, std::memory_order_relaxed);
    return;
  }
  written_.fetch_add(1, std::memory_order_relaxed);
  PARIS_LOG(kDebug) << "checkpoint " << name << " journaled";
  if (job.seq > 2) {
    // Keep the last two checkpoints; stale manifest entries whose file is
    // gone are skipped at load time.
    std::remove((options_.dir + "/" + CheckpointFileName(job.seq - 2)).c_str());
  }
}

util::StatusOr<AlignmentResult> LoadLatestCheckpoint(
    const std::string& dir, const ontology::Ontology& left,
    const ontology::Ontology& right, const AlignmentConfig& config,
    const std::string& matcher) {
  std::vector<ManifestEntry> entries = ReadManifest(dir + "/" + kManifestName);
  if (entries.empty()) {
    return util::NotFoundError("no checkpoint manifest in '" + dir + "'");
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ManifestEntry& a, const ManifestEntry& b) {
                     return a.seq < b.seq;
                   });
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const std::string path = dir + "/" + it->name;
    util::StatusOr<AlignmentResult> loaded =
        LoadAlignmentResult(path, left, right, config, matcher);
    if (loaded.ok()) {
      PARIS_LOG(kInfo) << "resuming from checkpoint " << path;
      return loaded;
    }
    // Missing (garbage-collected), corrupt, or setup-incompatible entries
    // degrade to the next-newest checkpoint, never to a failed run.
    PARIS_LOG(kWarning) << "skipping checkpoint " << path << ": "
                        << loaded.status().ToString();
  }
  return util::NotFoundError("no usable checkpoint in '" + dir + "'");
}

}  // namespace paris::core
