#ifndef PARIS_UTIL_FS_H_
#define PARIS_UTIL_FS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "paris/util/fault_injection.h"
#include "paris/util/status.h"

namespace paris::util {

// CheckFault() plus the transient-errno policy of the IO layer: an injected
// EINTR/EAGAIN is retried with bounded exponential backoff — each retry is
// counted in IoRetryCount() and consults the injector again, so a "once"
// transient spec succeeds on the retry while a sticky one keeps failing —
// and only a persistent fault reaches the caller. Every guarded IO call
// site uses this so transient injected faults exercise the retry path
// end-to-end instead of failing the operation.
FaultAction CheckFaultRetryingTransient(std::string_view point);

// Crash-safe file replacement: bytes are streamed to `<path>.tmp`, and
// Commit() makes them visible with the durable sequence
//     flush -> fsync(tmp) -> rename(tmp, path) -> fsync(parent dir)
// so at every instant `path` is either the complete previous file or the
// complete new one — never truncated, torn, or half-new. If the writer is
// destroyed without a successful Commit() (error, early return, crash
// before rename), the previous file is untouched and the tmp file is
// unlinked (or left behind by a crash; loaders never look at *.tmp).
//
// Transient IO failures (EINTR/EAGAIN) are retried with bounded exponential
// backoff; everything else surfaces as a Status from Commit(). Write errors
// in stream() are sticky: they set failbit and are reported by Commit(), so
// callers only need to check once.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  // The ostream staging into the tmp file. Valid until Commit().
  std::ostream& stream();

  // Flushes, fsyncs, renames over `path`, fsyncs the parent directory.
  // Returns the first error hit anywhere in the write sequence; on error
  // the tmp file is removed and `path` still holds its previous contents.
  Status Commit();

  const std::string& path() const { return path_; }

 private:
  struct Impl;
  std::string path_;
  std::unique_ptr<Impl> impl_;
};

// Atomically replaces `path` with `contents` (AtomicFileWriter one-shot).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

// Reads all of `path` into one buffer. A path that cannot be opened is
// NotFound and a directory is InvalidArgument, both naming the path. A
// regular file's buffer is reserved at its size; anything else (a pipe,
// process substitution) is read to EOF. EINTR/EAGAIN are retried under the
// transient-errno policy above; any other read error is returned.
StatusOr<std::string> ReadFile(const std::string& path);

// Process-wide count of transient IO errors (EINTR/EAGAIN) that were
// retried. Exported as the `io_retries` recovery gauge.
uint64_t IoRetryCount();
void ResetIoRetryCount();

namespace internal {
// Counts one transient-IO retry in IoRetryCount(); for the net layer's
// retry loops, which live outside this translation unit.
void CountIoRetry();
}  // namespace internal

}  // namespace paris::util

#endif  // PARIS_UTIL_FS_H_
