// Benchmark report: named metrics with units, the run context, and the
// result line the benchmark prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// What one invocation was asked to do.
struct RunOptions {
  Workload workload = Workload::kCliRegression;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for per-run journal/state directories (removed after
  /// the run) and for the report and span files.
  std::filesystem::path work_dir;
};

/// Correctness accounting: scenario rows attempted and rows that failed
/// (error rows, unexpected verdicts, stream mismatches, rows of jobs that
/// never reached job_done).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< First few, for the log.

  void fail(std::size_t rows, const std::string& problem);
  void merge(const Tally& other);
};

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// "n=<count>, <k> beyond": the sample count printed beside a percentile,
/// with how many samples lie strictly above it.
std::string sample_note(std::size_t count, double p);

/// Peak resident set of this process plus the largest reaped child (the
/// sandbox workers), in MiB.
double peak_rss_mb();

/// Reaps and counts child processes still around (live or zombie): a
/// sandbox worker that outlived the workload.
std::size_t leftover_children();

/// A run's scratch directory: created fresh, removed on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

class Report {
 public:
  /// Adds one metric.  `note` (sample counts, definitions) goes to the
  /// human-readable log only.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});

  /// Adds a context line ("key: value") to the log and the report file.
  void context(const std::string& key, const std::string& value);

  /// Prints the log and, last, the one-line JSON result to stdout; also
  /// writes the whole report as JSON to `path`.
  void emit(const Tally& tally, bool correct, const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Records nproc, the mc_batch kernel variant and the DDL_* environment.
void add_run_context(Report& report, const RunOptions& options);

}  // namespace perfbench
