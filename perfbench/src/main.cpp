// ddl_perfbench: the repository benchmark driver (see ../README.md).
//
//   ddl_perfbench --workload cli_regression|cli_yield|daemon_mixed
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints one "name = value unit" line per metric and, last, the one-line
// JSON result.  Exit status: 0 when the correctness gate passed, 1 when it
// failed, 64 on a usage error.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/scenario/cli.h"
#include "report.h"
#include "runs.h"

namespace perfbench {

std::string spans_path(const RunOptions& options) {
  return (options.work_dir / "reports" /
          (std::string(workload_name(options.workload)) + "-seed" +
           std::to_string(options.seed) + "-spans.jsonl"))
      .string();
}

namespace {

std::string report_path(const RunOptions& options) {
  return (options.work_dir / "reports" /
          (std::string(workload_name(options.workload)) + "-seed" +
           std::to_string(options.seed) + "-trace" +
           (options.trace ? "1" : "0") + ".json"))
      .string();
}

/// Parses argv; returns an error message, empty on success.
std::string parse_args(const std::vector<std::string>& args,
                       RunOptions& options) {
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i + 1 >= args.size()) {
      return args[i] + " needs a value";
    }
    const std::string& flag = args[i];
    const std::string& value = args[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) {
        return "unknown workload '" + value + "'";
      }
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ddl::scenario::parse_u64(value, options.seed)) {
        return "--seed: '" + value + "' is not an unsigned integer";
      }
    } else if (flag == "--seconds") {
      if (!ddl::scenario::parse_u64(value, number) || number == 0) {
        return "--seconds: '" + value + "' is not a positive integer";
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return "--trace: expected 0 or 1";
      }
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return "unknown flag '" + flag + "'";
    }
  }
  if (!have_workload) {
    return "--workload is required";
  }
  if (options.work_dir.empty()) {
    return "--work-dir is required";
  }
  return {};
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  const std::string error = parse_args({argv + 1, argv + argc}, options);
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 64;
  }
  try {
    options.work_dir = std::filesystem::absolute(options.work_dir);
    std::filesystem::create_directories(options.work_dir / "reports");
    Report report;
    Tally tally;
    add_run_context(report, options);
    const bool clean = options.workload == Workload::kDaemonMixed
                           ? run_daemon(options, report, tally)
                           : run_cli(options, report, tally);
    const bool correct = clean && tally.failed == 0 && tally.attempted > 0;
    report.emit(tally, correct, report_path(options));
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
