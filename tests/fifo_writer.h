#ifndef PARIS_TESTS_FIFO_WRITER_H_
#define PARIS_TESTS_FIFO_WRITER_H_

#include <pthread.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

namespace paris::testing_util {

// Serves `bytes` through a named pipe at `path` from a writer thread, so a
// test can read an input that has no size up front, as a shell's process
// substitution or a pipe hands one over. The writer blocks until a reader
// opens the pipe; the destructor joins it and removes the pipe.
class FifoWriter {
 public:
  FifoWriter(std::string path, std::string bytes)
      : path_(std::move(path)), bytes_(std::move(bytes)) {
    std::remove(path_.c_str());
    created_ = ::mkfifo(path_.c_str(), 0600) == 0;
    if (created_) {
      writer_ = std::thread([this] {
        // A reader that stops early must fail the test, not kill it: with
        // SIGPIPE blocked in this thread, the write fails with EPIPE.
        sigset_t pipe_only;
        sigemptyset(&pipe_only);
        sigaddset(&pipe_only, SIGPIPE);
        pthread_sigmask(SIG_BLOCK, &pipe_only, nullptr);
        std::ofstream out(path_, std::ios::binary);
        out << bytes_;
      });
    }
  }
  ~FifoWriter() {
    if (writer_.joinable()) writer_.join();
    std::remove(path_.c_str());
  }
  FifoWriter(const FifoWriter&) = delete;
  FifoWriter& operator=(const FifoWriter&) = delete;

  bool created() const { return created_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string bytes_;
  bool created_ = false;
  std::thread writer_;
};

}  // namespace paris::testing_util

#endif  // PARIS_TESTS_FIFO_WRITER_H_
