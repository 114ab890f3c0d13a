// Shared plumbing of the benchmark runner: clocks and order statistics,
// file helpers, peak-RSS sampling, the span recorder behind the traced run,
// and the result report printed as the runner's last stdout line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "paris/util/status.h"

namespace perfbench {

// Monotonic seconds (steady_clock).
double Now();

// Prints "perfbench: <what> median <m> of <every value>" to stderr, so a
// run's spread is visible next to the median it reports.
void LogSamples(const std::string& what, const std::vector<double>& values);

// Order statistics; the input may be unsorted. Median of an empty vector is 0.
double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// Prints "perfbench: <what>" to stderr and exits 1 without a result line.
// For operations the workload expects to succeed: a failure there means
// the run measured nothing worth reporting.
[[noreturn]] void Die(const std::string& what);
void OrDie(const paris::util::Status& status, const std::string& what);
template <typename T>
T OrDie(paris::util::StatusOr<T> value, const std::string& what) {
  OrDie(value.status(), what);
  return std::move(value).value();
}

std::string ReadFile(const std::string& path);
std::vector<std::string> ReadLines(const std::string& path);
// Lines that are neither empty nor a '#' comment.
size_t DataLines(const std::string& path);
uint64_t FileBytes(const std::string& path);
// FNV-1a over a byte string; used to compare outputs across repetitions.
uint64_t Fingerprint(const std::string& bytes);

// The high-water resident set of this process since the last
// ResetPeakRss(), in MiB (VmHWM; the reset writes 5 to
// /proc/self/clear_refs, which Linux supports since 4.0).
void ResetPeakRss();
double PeakRssMb();

// Span recorder for the traced run. Spans are named after the layer and
// public call they time ("api.Align", "rdf.parse"); each has a parent (the
// innermost span open when it began, or an explicit one) and a group id
// shared by the spans of one repetition, delta, job or request batch. They
// stay in memory and are written once, at the end, by WriteJson. A
// disabled recorder keeps nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int group = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_group(int group) { group_ = group; }

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled). Spans must close in LIFO order.
  int Begin(const std::string& name);
  void End(int id);
  // Records an already-measured interval (e.g. a pass window bounded by
  // run callbacks) as a child of `parent`; returns its id (-1 when
  // disabled).
  int Add(const std::string& name, double start, double end, int parent);

  // Sum of durations of the spans called `name`, and of their self time
  // (duration minus the union of their children's intervals).
  double Total(const std::string& name) const;
  double SelfTotal(const std::string& name) const;
  // SelfTotal over every span whose name starts with `prefix`.
  double SelfTotalWithPrefix(const std::string& prefix) const;
  size_t Count(const std::string& name) const;

  // {"spans":[{"id":..,"name":..,"start":..,"end":..,"parent":..,
  // "group":..}, ...]} with times in seconds from the first span.
  void WriteJson(const std::string& path) const;

 private:
  double SelfTime(size_t id) const;

  bool enabled_;
  int group_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled tracer.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scoped() { tracer_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// What one run reports: named metrics with units, and the outcome of its
// output checks. Check() failures make `correct` false and the run exit 1.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  // Counts `n` attempted operations.
  void Attempt(size_t n = 1) { attempted_ += n; }
  // Records a check; a false `ok` counts one failed operation and prints
  // `what` to stderr.
  bool Check(bool ok, const std::string& what);
  size_t failed() const { return failed_; }
  double success_ratio() const;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
  // "unit":..}}} on one line.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
