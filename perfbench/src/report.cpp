#include "report.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/mc_batch.h"

namespace perfbench {

void Tally::fail(std::size_t rows, const std::string& problem) {
  failed += rows;
  if (problems.size() < 8) {
    problems.push_back(problem);
  }
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& problem : other.problems) {
    if (problems.size() < 8) {
      problems.push_back(problem);
    }
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum / static_cast<double>(values.size());
}

std::string sample_note(std::size_t count, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(count)));
  return "n=" + std::to_string(count) + ", " +
         std::to_string(count - std::min(count, rank)) + " beyond";
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::size_t leftover_children() {
  std::size_t leftover = 0;
  for (;;) {
    const pid_t pid = ::waitpid(-1, nullptr, WNOHANG);
    if (pid > 0) {
      ++leftover;  // A zombie nobody reaped.
      continue;
    }
    if (pid == 0) {
      // A live child.  Its pipe to this process closes when we exit, which
      // ends a sandbox worker, so counting it is enough.
      ++leftover;
    }
    break;  // 0 (live child) or ECHILD (no children at all).
  }
  return leftover;
}

ScratchDir::ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::emit(const Tally& tally, bool correct,
                  const std::string& path) const {
  ddl::analysis::JsonObject file;
  for (const auto& [key, value] : context_) {
    std::cout << "# " << key << ": " << value << "\n";
    file.set("context." + key, value);
  }
  std::cout << "# rows attempted: " << tally.attempted
            << ", failed: " << tally.failed << "\n";
  for (const std::string& problem : tally.problems) {
    std::cout << "# problem: " << problem << "\n";
  }
  char value[64];
  std::string metrics;
  for (const Metric& metric : metrics_) {
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    std::cout << metric.name << " = " << value << " " << metric.unit;
    if (!metric.note.empty()) {
      std::cout << "  (" << metric.note << ")";
    }
    std::cout << "\n";
    file.set("metric." + metric.name, metric.value);
    if (!metric.note.empty()) {
      file.set("note." + metric.name, metric.note);
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  file.set("correct", correct);
  file.set("attempted", static_cast<std::uint64_t>(tally.attempted));
  file.set("failed", static_cast<std::uint64_t>(tally.failed));
  ddl::analysis::write_file_atomic(path, file.to_json() + "\n");

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
}

void add_run_context(Report& report, const RunOptions& options) {
  report.context("workload", workload_name(options.workload));
  report.context("seed", std::to_string(options.seed));
  report.context("seconds", std::to_string(options.seconds));
  report.context("trace", options.trace ? "1" : "0");
  report.context("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.context("mc_batch_kernel", ddl::analysis::mc_batch_kernel_name());
  for (const char* name : {"DDL_THREADS", "DDL_MC_BATCH_KERNEL"}) {
    if (const char* value = std::getenv(name)) {
      report.context(name, value);
    }
  }
}

}  // namespace perfbench
