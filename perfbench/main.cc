// The measured runner: runs one workload over inputs perfbench_gen made and
// prints the report as its last stdout line.
//
//   perfbench_run --workload align_cold|realign_chain|serve_mixed
//                 --data DIR --seconds S --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "paris/util/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--data") {
      args.data_dir = value;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (workload.empty() || args.data_dir.empty() || args.seconds <= 0) {
    Die("usage: perfbench_run --workload W --data DIR --seconds S "
        "--trace 0|1");
  }
  paris::util::SetLogLevel(paris::util::LogLevel::kWarning);
  args.work_dir = args.data_dir + "/run";
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  if (workload == "align_cold") {
    RunAlignCold(args, report);
  } else if (workload == "realign_chain") {
    RunRealignChain(args, report);
  } else if (workload == "serve_mixed") {
    RunServeMixed(args, report);
  } else {
    Die("unknown workload " + workload);
  }
  if (!args.trace) {
    report.Set("success_ratio", report.success_ratio(), "fraction");
  }
  std::printf("%s\n", report.Json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
