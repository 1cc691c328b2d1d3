// cli_regression and cli_yield: one user running ddl_scenario_runner jobs
// back to back.  A job is Campaign::run configured the way the CLI
// configures it (process isolation, a journal directory, --jobs 2) followed
// by write_file_atomic of the result and health streams.
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/journal.h"
#include "layers.h"
#include "reference.h"
#include "runs.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sc = ddl::scenario;
using ddl::analysis::WallTimer;

constexpr std::size_t kCliJobs = 2;          ///< ddl_scenario_runner --jobs 2
constexpr std::size_t kYieldReplicas = 256;  ///< 1024 specs per cli_yield job
constexpr int kSetupRepeats = 5;
constexpr std::size_t kWarmupSpecs = 4;

std::vector<ScenarioSpec> job_specs(const RunOptions& options) {
  return options.workload == Workload::kCliRegression
             ? regression_job(options.seed)
             : yield_job(options.seed, kYieldReplicas);
}

/// The job's first yield specs: the warm-up campaign every set-up runs, so
/// first-use costs (lazy statics, page faults, the first fork) land in
/// set-up rather than in the first timed job.
std::vector<ScenarioSpec> warmup_specs(const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioSpec> warmup;
  for (const ScenarioSpec& spec : specs) {
    if (spec.mc_dies > 0 && warmup.size() < kWarmupSpecs) {
      warmup.push_back(spec);
    }
  }
  return warmup;
}

/// One finished CLI invocation.  Its rows live on disk, so the driver's own
/// memory does not grow with the number of jobs a run completes.
struct Invocation {
  fs::path dir;  ///< Journal directory and stream files.
  double wall_ms = 0.0;      ///< Campaign::run plus the stream writes.
  double campaign_ms = 0.0;  ///< Campaign::run alone.
  std::size_t retried = 0;
  std::size_t crashes = 0;
  std::size_t respawns = 0;
  std::size_t workers_lost = 0;
};

Invocation invoke(const std::vector<ScenarioSpec>& specs, const fs::path& dir,
                  Tracer* tracer) {
  Invocation run;
  run.dir = dir;
  sc::CampaignConfig config;
  config.journal_dir = dir.string();
  config.jobs = kCliJobs;
  const std::string request = dir.filename().string();
  Tracer::Span root(tracer, "driver.job", request);
  WallTimer wall;
  sc::CampaignOutcome outcome;
  {
    Tracer::Span span(tracer, "scenario.campaign.run", request);
    outcome = sc::Campaign(config).run(specs);
  }
  run.campaign_ms = wall.elapsed_ms();
  {
    Tracer::Span span(tracer, "scenario.campaign.write", request);
    ddl::analysis::write_file_atomic((dir / "out.jsonl").string(),
                                     outcome.jsonl());
    ddl::analysis::write_file_atomic((dir / "out.health.jsonl").string(),
                                     outcome.health_jsonl);
  }
  run.wall_ms = wall.elapsed_ms();
  run.retried = outcome.retried;
  run.crashes = outcome.sandbox_crashes;
  run.respawns = outcome.workers_respawned;
  run.workers_lost = outcome.workers_lost;
  return run;
}

/// Summed job wall of `runs`, in ms.
double busy_ms(const std::vector<Invocation>& runs) {
  double total = 0.0;
  for (const Invocation& run : runs) {
    total += run.wall_ms;
  }
  return total;
}

/// Jobs back to back until `seconds` of job wall have passed (at least one
/// job), or exactly `count` jobs when count > 0.  Between jobs, outside
/// their timing, each job's streams are checked against the reference and
/// its directory is removed, so every job starts from the same file-system
/// state rather than behind the write-back of its predecessors.  With
/// `keep_last` the last job's directory stays for the caller.
std::vector<Invocation> job_loop(const std::vector<ScenarioSpec>& specs,
                                 const fs::path& dir, double seconds,
                                 std::size_t count, Tracer* tracer,
                                 const Reference& reference, Tally& tally,
                                 bool keep_last = false) {
  std::vector<Invocation> runs;
  for (std::size_t k = 0;
       count > 0 ? k < count : k == 0 || busy_ms(runs) < seconds * 1e3;
       ++k) {
    if (!runs.empty()) {
      fs::remove_all(runs.back().dir);
    }
    runs.push_back(invoke(specs, dir / ("job-" + std::to_string(k)), tracer));
    const fs::path& job = runs.back().dir;
    check_delivery(reference, sc::read_file((job / "out.jsonl").string()),
                   sc::read_file((job / "out.health.jsonl").string()),
                   job.filename().string(), tally);
  }
  if (!keep_last) {
    fs::remove_all(runs.back().dir);
  }
  return runs;
}

void add_end_to_end(Report& report, const std::vector<Invocation>& runs,
                    const std::vector<ScenarioSpec>& specs,
                    const std::vector<double>& setup_ms, double rss_mb) {
  std::vector<double> walls;
  std::string walls_text;
  for (const Invocation& run : runs) {
    walls.push_back(run.wall_ms);
    walls_text += (walls_text.empty() ? "" : " ") + std::to_string(run.wall_ms);
  }
  // Every job runs the same specs, so per-job rates over the median job
  // are robust to one slow job.
  const double job_s = median(walls) / 1e3;
  report.add("setup_s", median(setup_ms) / 1e3, "s",
             "median of " + std::to_string(setup_ms.size()) + " set-ups");
  report.add("peak_rss_mb", rss_mb, "MiB",
             "benchmark process + largest reaped sandbox worker");
  report.add("scenarios_per_s", static_cast<double>(specs.size()) / job_s,
             "1/s", std::to_string(specs.size()) + " scenarios per job");
  report.add("mc_dies_per_s", static_cast<double>(mc_dies(specs)) / job_s,
             "1/s", std::to_string(mc_dies(specs)) + " dies per job");
  report.add("jobs_per_s", 1.0 / job_s, "1/s",
             "one job at a time; " + std::to_string(runs.size()) + " jobs");
  report.add("job_latency_p50_ms", median(walls), "ms",
             sample_note(walls.size(), 0.5));
  report.add("first_row_latency_p50_ms", median(walls), "ms",
             sample_note(walls.size(), 0.5) +
                 "; the CLI writes no row before its stream file");
  report.context("job_latency_p99_ms",
                 std::to_string(percentile(walls, 0.99)) + " (" +
                     sample_note(walls.size(), 0.99) + ")");
  report.context("sim_periods_per_s",
                 std::to_string(
                     static_cast<double>(closed_loop_periods(specs)) / job_s));
  report.context("job_ms", walls_text);
}

}  // namespace

bool run_cli(const RunOptions& options, Report& report, Tally& tally) {
  const ScratchDir scratch(options.work_dir /
                           ("run-" + std::to_string(::getpid())));
  const fs::path& dir = scratch.path();
  report.context("jobs", std::to_string(kCliJobs));
  report.context("workers", std::to_string(kCliJobs) + " sandbox workers");
  report.context("clients", "1");
  report.context("isolation", "process");

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  std::vector<ScenarioSpec> specs;
  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Tracer::Span root(traced, "driver.setup");
    WallTimer timer;
    {
      Tracer::Span span(traced, "scenario.expand");
      specs = job_specs(options);
    }
    fs::remove_all(dir / "warmup");
    invoke(warmup_specs(specs), dir / "warmup", traced);
    setup_ms.push_back(timer.elapsed_ms());
  }
  report.context("scenarios_per_job", std::to_string(specs.size()));

  // The reference runs before any job, outside every timed region, so each
  // job is checked (and its directory dropped) as soon as it finishes.
  const Reference reference = make_reference(specs);
  std::vector<Invocation> runs;
  LayerFacts facts;
  if (!options.trace) {
    runs = job_loop(specs, dir, options.seconds, 0, nullptr, reference,
                    tally);
    add_end_to_end(report, runs, specs, setup_ms, peak_rss_mb());
  } else {
    // Untraced, then the same number of jobs traced: the difference is the
    // tracing overhead.  Then the layer pass over the job's specs.
    runs = job_loop(specs, dir / "untraced", options.seconds / 4, 0, nullptr,
                    reference, tally);
    facts.untraced_pass_ms = busy_ms(runs);
    std::vector<double> campaign_ms;
    for (const Invocation& run : runs) {
      campaign_ms.push_back(run.campaign_ms);
    }
    facts.campaign_wall_ms = median(campaign_ms);
    facts.campaign_jobs = kCliJobs;
    const std::vector<Invocation> traced_runs =
        job_loop(specs, dir / "traced", 0, runs.size(), traced, reference,
                 tally, /*keep_last=*/true);
    facts.traced_pass_ms = busy_ms(traced_runs);
    {
      Tracer::Span root(&tracer, "driver.journal");
      Tracer::Span span(&tracer, "scenario.journal.load", "job");
      sc::load_journal(traced_runs.back().dir.string());
    }
    runs.insert(runs.end(), traced_runs.begin(), traced_runs.end());
    layer_pass(tracer, {LayerJob{"job", specs}}, /*coalesce=*/false,
               dir / "layers", facts, tally);
  }
  for (const Invocation& run : runs) {
    facts.retried += run.retried;
    facts.sandbox_crashes += run.crashes;
    facts.sandbox_respawns += run.respawns;
    facts.sandbox_workers_lost += run.workers_lost;
  }
  const std::size_t leftover = leftover_children();
  if (options.trace) {
    add_layer_metrics(report, tracer, facts);
    tracer.write_jsonl(spans_path(options));
  }
  report.context("leftover_sandbox_workers", std::to_string(leftover));
  return leftover == 0;
}

}  // namespace perfbench
