// Sandbox overhead probe: the smoke suite through the Campaign engine in
// thread isolation (in process, unsupervised) versus process isolation
// (fork()ed sandbox workers, rows shipped back over the checksummed pipe
// framing), at one job.  The
// sandbox keeps one long-lived worker per executor, so the per-scenario
// tax is spec serialization plus a pipe round trip -- the acceptance bar
// is <=10% scenarios/sec against thread mode, guardrailed in CI via
// sandbox_efficiency_frac.  Byte-identity between the two streams is the
// other contract, cross-checked before any number is reported.
//
// Writes BENCH_sandbox_overhead.json; DDL_BENCH_TRIALS repeats the suite
// to stretch the workload on fast machines.
#include <cstdio>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/registry.h"

namespace {

struct Measured {
  double wall_ms = 0.0;
  double per_sec = 0.0;
  std::string jsonl;
};

Measured run_mode(const std::vector<ddl::scenario::ScenarioSpec>& specs,
                  ddl::scenario::IsolationMode mode) {
  ddl::scenario::CampaignConfig config;
  config.jobs = 1;
  config.isolation.mode = mode;
  const ddl::scenario::Campaign campaign(config);
  ddl::analysis::WallTimer timer;
  const auto outcome = campaign.run(specs);
  Measured out;
  out.wall_ms = timer.elapsed_ms();
  out.per_sec = 1e3 * static_cast<double>(specs.size()) / out.wall_ms;
  out.jsonl = outcome.jsonl();
  return out;
}

}  // namespace

int main() {
  const auto& registry = ddl::scenario::ScenarioRegistry::builtin();
  const std::size_t repeats = ddl::analysis::BenchReport::trials_or(4);
  std::vector<ddl::scenario::ScenarioSpec> specs;
  for (std::size_t i = 0; i < repeats; ++i) {
    for (auto& spec : registry.expand("smoke")) {
      spec.name += "/rep" + std::to_string(i);  // Journal-unique names.
      specs.push_back(std::move(spec));
    }
  }

  std::printf("==== Sandbox overhead (%zu scenarios = smoke x %zu, 1 job) "
              "====\n\n",
              specs.size(), repeats);

  // Warm both paths once (workspace sizing caches, first fork) so the
  // measured runs compare steady-state executors, not first-touch costs.
  run_mode(specs, ddl::scenario::IsolationMode::kThread);
  run_mode(specs, ddl::scenario::IsolationMode::kProcess);

  const Measured thread_mode =
      run_mode(specs, ddl::scenario::IsolationMode::kThread);
  const Measured process_mode =
      run_mode(specs, ddl::scenario::IsolationMode::kProcess);
  const bool identical = thread_mode.jsonl == process_mode.jsonl;
  const double efficiency = process_mode.per_sec / thread_mode.per_sec;

  std::printf("  thread  : %8.1f ms  (%7.1f scenarios/sec)\n",
              thread_mode.wall_ms, thread_mode.per_sec);
  std::printf("  process : %8.1f ms  (%7.1f scenarios/sec)\n",
              process_mode.wall_ms, process_mode.per_sec);
  std::printf("  fork/IPC efficiency: %.3f (1.0 = free; bar: >= 0.90)\n",
              efficiency);
  std::printf("\nThread and process JSONL byte-identical: %s\n",
              identical ? "yes" : "NO -- SANDBOX BROKE BYTE-IDENTITY");

  ddl::analysis::BenchReport report("sandbox_overhead");
  report.set("scenarios", static_cast<std::uint64_t>(specs.size()));
  report.set("thread_scenarios_per_sec", thread_mode.per_sec);
  report.set("process_scenarios_per_sec", process_mode.per_sec);
  report.set("guardrail_sandbox_scenarios_per_sec", process_mode.per_sec);
  report.set("sandbox_efficiency_frac", efficiency);
  report.set("sandbox_jsonl_identical", identical);
  const auto path = report.write();
  std::printf("report: %s\n", path.c_str());
  return identical ? 0 : 1;
}
