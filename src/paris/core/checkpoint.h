#ifndef PARIS_CORE_CHECKPOINT_H_
#define PARIS_CORE_CHECKPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "paris/core/aligner.h"
#include "paris/core/config.h"
#include "paris/core/result_snapshot.h"
#include "paris/ontology/ontology.h"
#include "paris/util/status.h"

namespace paris::core {

// Periodic background checkpointing for a running alignment.
//
// The aligner calls `Due()` at every shard boundary (inside the serialized
// shard gate, where the pass's completed outputs are stable) and, when the
// cadence has elapsed, serializes its state through a `ResultSnapshotView`
// and hands the bytes to `Submit`. Serialization happens on the calling
// thread — it is the only thread that may touch the live tables — but all
// file IO (atomic write, manifest fsync, garbage collection) runs on one
// background thread, so a slow disk never stalls the fixpoint.
//
// On-disk layout inside the checkpoint directory:
//
//   ckpt-<seq>.result   complete result snapshots (result_snapshot.h
//                       format, written via util::AtomicFileWriter)
//   MANIFEST            append-only journal, one "<seq>\t<filename>" line
//                       per durable checkpoint, fsync'd after each append;
//                       created (empty) when the writer starts
//
// A checkpoint file is only journaled after its atomic rename, so every
// manifest entry names a file that was complete and durable when the line
// was written. Readers tolerate a torn final line (a crash mid-append) and
// entries whose file has since been garbage-collected or corrupted — they
// simply fall back to the next-newest entry. Only the last two checkpoint
// files are kept.
//
// Checkpointing is strictly best-effort: any write failure logs a warning,
// disables further checkpoints, and never fails the run.
class CheckpointWriter {
 public:
  struct Options {
    std::string dir;              // must be an existing directory
    double interval_seconds = 0;  // cadence between captures
  };

  // `left`/`right`/`config`/`matcher` are the run-key inputs of the result
  // snapshots (result_snapshot.h); the referenced objects must outlive the
  // writer. Continues the sequence numbering of any MANIFEST already in
  // the directory, so a resumed run appends to the same journal.
  CheckpointWriter(Options options, const ontology::Ontology& left,
                   const ontology::Ontology& right,
                   const AlignmentConfig& config, std::string matcher);
  ~CheckpointWriter();  // drains the in-flight write, stops the thread

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // True when a capture submitted now would be accepted: checkpointing has
  // not been disabled by a write failure, the previous write has finished,
  // and at least `interval_seconds` have passed since the last capture.
  // The cadence is additionally self-limiting: a capture stalls the shard
  // gate for however long serialization takes, so captures are spaced at
  // least 100x the last measured serialization cost apart — gate-thread
  // overhead stays bounded (~1% of wall clock) no matter how small the
  // configured interval or how large the result grows. Cheap (two atomic
  // loads + a clock read); called at every shard boundary.
  bool Due() const;

  // Serializes `view` on the calling thread and enqueues the bytes for the
  // background writer. The caller guarantees everything the view points at
  // is stable for the duration of the call; nothing is referenced after
  // Submit returns. Call only when `Due()`; a submit while busy is dropped.
  void Submit(const ResultSnapshotView& view);

  // Blocks until any submitted checkpoint has been fully journaled (or
  // failed and disabled checkpointing). After Drain, no background IO is
  // in flight and `checkpoints_written()` is final.
  void Drain();

  // Checkpoints durably journaled so far.
  uint64_t checkpoints_written() const {
    return written_.load(std::memory_order_relaxed);
  }

  // True once a write failure has permanently disabled checkpointing.
  bool disabled() const { return disabled_.load(std::memory_order_relaxed); }

 private:
  struct Job {
    uint64_t seq = 0;
    std::string bytes;
  };

  void WorkerLoop();
  void WriteCheckpoint(Job job);  // background thread only

  const Options options_;
  const ontology::Ontology& left_;
  const ontology::Ontology& right_;
  const AlignmentConfig& config_;
  const std::string matcher_;

  std::atomic<bool> busy_{false};
  std::atomic<bool> disabled_{false};
  std::atomic<uint64_t> written_{0};
  std::chrono::steady_clock::time_point last_capture_;
  double capture_cost_seconds_ = 0.0;  // gate thread only, like Due/Submit
  uint64_t next_seq_ = 1;

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_done_;
  std::optional<Job> pending_;
  bool stop_ = false;
  std::thread worker_;
};

// Loads the newest usable checkpoint from `dir` for this run setup,
// suitable for `Aligner::Resume`. Walks the MANIFEST journal newest to
// oldest; entries that are missing (garbage-collected), corrupt
// (kDataLoss), or incompatible with the given setup are skipped with a
// warning — corruption degrades to recomputation, never to a crash or a
// silently adopted bad state. Returns kNotFound when the directory holds
// no manifest or no entry loads.
util::StatusOr<AlignmentResult> LoadLatestCheckpoint(
    const std::string& dir, const ontology::Ontology& left,
    const ontology::Ontology& right, const AlignmentConfig& config,
    const std::string& matcher);

}  // namespace paris::core

#endif  // PARIS_CORE_CHECKPOINT_H_
