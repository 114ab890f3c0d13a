// The three workloads. Each repeats its measured unit until `seconds` are
// spent (and at least a minimum number of times), reports medians, checks
// its outputs, and with `trace` set reports the per-layer breakdown
// instead of the end-to-end metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string data_dir;  // holds inputs/ and derived/ from perfbench_gen
  std::string work_dir;  // empty scratch directory for this run's outputs
  double seconds = 10.0;
  bool trace = false;
};

void RunAlignCold(const RunArgs& args, Report& report);
void RunRealignChain(const RunArgs& args, Report& report);
void RunServeMixed(const RunArgs& args, Report& report);

// Repetition kinds. The end-to-end run makes only kPlain repetitions; the
// traced run cycles through all three: kTraced adds the benchmark's spans
// and the pass callbacks, kObs turns the Session's own trace + metrics on.
enum Mode { kPlain = 0, kTraced = 1, kObs = 2 };

inline std::vector<Mode> ModeCycle(bool trace) {
  return trace ? std::vector<Mode>{kPlain, kTraced, kObs}
               : std::vector<Mode>{kPlain};
}

// Median over repetitions of a[i] + b[i] (set-up plus measured unit).
inline double MedianOfSums(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> sums;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    sums.push_back(a[i] + b[i]);
  }
  return Median(sums);
}

// True while another repetition fits: fewer than `min_reps` done, or the
// mean repetition so far still fits in the remaining time.
inline bool KeepGoing(double begin, size_t reps, size_t min_reps,
                      double seconds) {
  if (reps < min_reps) return true;
  const double elapsed = Now() - begin;
  return elapsed + elapsed / static_cast<double>(reps) <= seconds;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
