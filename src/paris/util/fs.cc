#include "paris/util/fs.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <streambuf>
#include <thread>
#include <vector>

#include "paris/util/fault_injection.h"

#if defined(__unix__) || defined(__APPLE__)
#define PARIS_HAS_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <filesystem>
#endif

namespace paris::util {
namespace {

std::atomic<uint64_t> g_io_retries{0};

// EINTR/EAGAIN are worth retrying; everything else is a real failure.
bool IsTransientErrno(int err) {
  return err == EINTR || err == EAGAIN
#if defined(EWOULDBLOCK)
         || err == EWOULDBLOCK
#endif
      ;  // NOLINT(whitespace/semicolon)
}

// Runs `op` (>= 0 on success, -1 with errno set on failure), retrying
// transient errnos with exponential backoff: 1, 2, 4, 8, 16 ms.
template <typename Op>
long RetryTransient(Op&& op) {
  constexpr int kMaxRetries = 5;
  for (int attempt = 0;; ++attempt) {
    errno = 0;
    const long result = op();
    if (result >= 0 || !IsTransientErrno(errno) || attempt >= kMaxRetries) {
      return result;
    }
    g_io_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
  }
}

}  // namespace

uint64_t IoRetryCount() { return g_io_retries.load(std::memory_order_relaxed); }
void ResetIoRetryCount() { g_io_retries.store(0, std::memory_order_relaxed); }

namespace internal {
void CountIoRetry() { g_io_retries.fetch_add(1, std::memory_order_relaxed); }
}  // namespace internal

FaultAction CheckFaultRetryingTransient(std::string_view point) {
  constexpr int kMaxRetries = 5;
  FaultAction fault = CheckFault(point);
  for (int attempt = 0; fault.kind == FaultKind::kErrno &&
                        IsTransientErrno(fault.error_number) &&
                        attempt < kMaxRetries;
       ++attempt) {
    g_io_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    fault = CheckFault(point);
  }
  return fault;
}

// The staging streambuf: buffers into 64 KiB chunks and writes them to the
// tmp file, folding every failure into one sticky `first_error`.
struct AtomicFileWriter::Impl : public std::streambuf {
  std::string tmp_path;
  std::string final_path;
#if PARIS_HAS_POSIX_IO
  int fd = -1;
#else
  std::FILE* file = nullptr;
#endif
  bool committed = false;
  Status first_error;
  std::vector<char> buffer;
  std::ostream out{this};

  explicit Impl(std::string path)
      : tmp_path(path + ".tmp"),
        final_path(std::move(path)),
        buffer(1 << 16) {
    setp(buffer.data(), buffer.data() + buffer.size());
    const FaultAction fault = CheckFaultRetryingTransient("atomic_write.open");
    if (fault.kind == FaultKind::kErrno) {
      Fail(fault.error_number, "open");
      return;
    }
#if PARIS_HAS_POSIX_IO
    fd = static_cast<int>(RetryTransient([&] {
      return static_cast<long>(
          ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    }));
    if (fd < 0) Fail(errno, "open");
#else
    file = std::fopen(tmp_path.c_str(), "wb");
    if (file == nullptr) Fail(errno, "open");
#endif
  }

  ~Impl() override {
    CloseHandle();
    if (!committed) std::remove(tmp_path.c_str());
  }

  void Fail(int err, const char* op) {
    if (!first_error.ok()) return;
    first_error = InternalError(std::string(op) + " failed for '" + tmp_path +
                                "': " + std::strerror(err));
  }

  bool RawWrite(const char* data, size_t size) {
#if PARIS_HAS_POSIX_IO
    while (size > 0) {
      const long n = RetryTransient(
          [&] { return static_cast<long>(::write(fd, data, size)); });
      if (n < 0) return false;
      data += n;
      size -= static_cast<size_t>(n);
    }
    return true;
#else
    return std::fwrite(data, 1, size, file) == size;
#endif
  }

  void WriteBytes(const char* data, size_t size) {
    if (!first_error.ok() || size == 0) return;
    const FaultAction fault =
        CheckFaultRetryingTransient("atomic_write.write");
    if (fault.kind == FaultKind::kErrno) {
      Fail(fault.error_number, "write");
      return;
    }
    std::vector<char> mutated;
    if (fault.kind == FaultKind::kBitFlip) {
      // Silent in-flight corruption: the bytes land but one is wrong. Only
      // the loader-side checksum can catch this.
      mutated.assign(data, data + size);
      mutated[size / 2] = static_cast<char>(mutated[size / 2] ^ 0x20);
      data = mutated.data();
    } else if (fault.kind == FaultKind::kShortWrite) {
      // Torn write: half the bytes reach the device, then it fails. The
      // tmp file is abandoned; the previous `final_path` must survive.
      (void)RawWrite(data, size / 2);
      Fail(EIO, "short write");
      return;
    }
    if (!RawWrite(data, size)) Fail(errno, "write");
  }

  void FlushBuffer() {
    const size_t pending = static_cast<size_t>(pptr() - pbase());
    if (pending > 0) WriteBytes(pbase(), pending);
    setp(buffer.data(), buffer.data() + buffer.size());
  }

  int_type overflow(int_type ch) override {
    FlushBuffer();
    if (!first_error.ok()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
      return ch;
    }
    return 0;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n <= 0) return 0;
    if (static_cast<size_t>(n) <= static_cast<size_t>(epptr() - pptr())) {
      std::memcpy(pptr(), s, static_cast<size_t>(n));
      pbump(static_cast<int>(n));
      return n;
    }
    FlushBuffer();
    if (static_cast<size_t>(n) < buffer.size()) {
      std::memcpy(pbase(), s, static_cast<size_t>(n));
      pbump(static_cast<int>(n));
    } else {
      WriteBytes(s, static_cast<size_t>(n));
    }
    return first_error.ok() ? n : 0;
  }

  int sync() override {
    FlushBuffer();
    return first_error.ok() ? 0 : -1;
  }

  void CloseHandle() {
#if PARIS_HAS_POSIX_IO
    if (fd >= 0) {
      (void)RetryTransient([&] { return static_cast<long>(::close(fd)); });
      fd = -1;
    }
#else
    if (file != nullptr) {
      std::fclose(file);
      file = nullptr;
    }
#endif
  }

  void FsyncFile() {
    const FaultAction fault =
        CheckFaultRetryingTransient("atomic_write.fsync_file");
    if (fault.kind == FaultKind::kErrno) {
      Fail(fault.error_number, "fsync");
      return;
    }
#if PARIS_HAS_POSIX_IO
    if (RetryTransient([&] { return static_cast<long>(::fsync(fd)); }) < 0) {
      Fail(errno, "fsync");
    }
#else
    std::fflush(file);
#endif
  }

  void Rename() {
    const FaultAction fault = CheckFaultRetryingTransient("atomic_write.rename");
    if (fault.kind == FaultKind::kErrno) {
      Fail(fault.error_number, "rename");
      return;
    }
    if (RetryTransient([&] {
          return static_cast<long>(
              std::rename(tmp_path.c_str(), final_path.c_str()));
        }) < 0) {
      Fail(errno, "rename");
    }
  }

  // Makes the rename itself durable. Filesystems that cannot fsync a
  // directory (EINVAL/ENOTSUP/EROFS) are tolerated: the data file is
  // already complete and synced.
  void FsyncParentDir() {
    const FaultAction fault =
        CheckFaultRetryingTransient("atomic_write.fsync_dir");
    if (fault.kind == FaultKind::kErrno) {
      Fail(fault.error_number, "fsync(dir)");
      return;
    }
#if PARIS_HAS_POSIX_IO
    const size_t slash = final_path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : final_path.substr(0, slash);
    if (dir.empty()) dir = "/";
    int flags = O_RDONLY;
#if defined(O_DIRECTORY)
    flags |= O_DIRECTORY;
#endif
    const int dir_fd = static_cast<int>(RetryTransient(
        [&] { return static_cast<long>(::open(dir.c_str(), flags)); }));
    if (dir_fd < 0) {
      Fail(errno, "open(dir)");
      return;
    }
    if (RetryTransient([&] { return static_cast<long>(::fsync(dir_fd)); }) <
            0 &&
        errno != EINVAL && errno != ENOTSUP && errno != EROFS) {
      Fail(errno, "fsync(dir)");
    }
    (void)RetryTransient([&] { return static_cast<long>(::close(dir_fd)); });
#endif
  }

  Status Commit() {
    out.flush();
    if (first_error.ok()) FsyncFile();
    CloseHandle();
    if (first_error.ok()) Rename();
    if (first_error.ok()) {
      committed = true;
      FsyncParentDir();
    }
    if (!committed) std::remove(tmp_path.c_str());
    return first_error;
  }
};

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), impl_(std::make_unique<Impl>(path_)) {}

AtomicFileWriter::~AtomicFileWriter() = default;

std::ostream& AtomicFileWriter::stream() { return impl_->out; }

Status AtomicFileWriter::Commit() { return impl_->Commit(); }

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  AtomicFileWriter writer(path);
  writer.stream().write(contents.data(),
                        static_cast<std::streamsize>(contents.size()));
  return writer.Commit();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::string bytes;
#if PARIS_HAS_POSIX_IO
  const int fd = static_cast<int>(RetryTransient([&] {
    return static_cast<long>(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  }));
  if (fd < 0) {
    return NotFoundError("cannot open " + path + ": " + std::strerror(errno));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return InternalError("cannot stat " + path + ": " + std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return InvalidArgumentError("cannot read " + path + ": is a directory");
  }
  // One spare byte lets a regular file's EOF read land without a regrow.
  if (S_ISREG(st.st_mode)) bytes.reserve(static_cast<size_t>(st.st_size) + 1);
  constexpr size_t kMinRead = 64 << 10;
  size_t size = 0;
  while (true) {
    if (size == bytes.size()) {
      bytes.resize(std::max(bytes.capacity(), size + kMinRead));
    }
    const long n = RetryTransient([&] {
      return static_cast<long>(
          ::read(fd, bytes.data() + size, bytes.size() - size));
    });
    if (n < 0) {
      return InternalError("read failed for " + path + ": " +
                           std::strerror(errno));
    }
    if (n == 0) break;
    size += static_cast<size_t>(n);
  }
  bytes.resize(size);
#else
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return InvalidArgumentError("cannot read " + path + ": is a directory");
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return NotFoundError("cannot open " + path);
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return InternalError("read failed for " + path);
#endif
  return bytes;
}

}  // namespace paris::util
