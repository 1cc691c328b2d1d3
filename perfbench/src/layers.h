// The traced run's layer pass and the per-layer metrics.
//
// The end-to-end passes see each CLI invocation or daemon submission as
// one opaque call.  The layer pass takes the same generated jobs, in the
// order the CLI or daemon runs them, and makes every call of the pipeline
// itself -- validate, spec codec, plan, sandboxed run_unit, the same unit
// in process, row render, journal append, the mc_batch kernel -- each in
// its own span.  The spans give the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// One job the layer pass replays: its id (the span request id of the
/// per-job calls) and its specs.
struct LayerJob {
  std::string id;
  std::vector<ScenarioSpec> specs;
};

/// Everything the per-layer metrics need besides the spans.
struct LayerFacts {
  // service (daemon_mixed)
  std::size_t frames = 0;      ///< Frames exchanged by the traced jobs.
  std::size_t frame_jobs = 0;  ///< Jobs those frames belong to.
  std::size_t fresh_jobs = 0;  ///< Fresh submissions accepted.
  std::size_t submissions = 0;
  std::size_t batched_units = 0;
  std::size_t backpressure_frames = 0;
  std::size_t error_frames = 0;
  // scenario
  std::size_t plan_specs = 0;
  std::size_t plan_grouped = 0;
  std::size_t sandbox_crashes = 0;
  std::size_t sandbox_respawns = 0;
  std::size_t sandbox_workers_lost = 0;
  std::size_t retried = 0;
  double campaign_wall_ms = 0.0;  ///< Untraced Campaign::run (CLI only).
  std::size_t campaign_jobs = 0;
  // analysis
  std::uint64_t kernel_dies = 0;
  std::uint64_t kernel_fallbacks = 0;
  // control: closed-loop spec name -> (architecture, simulated periods)
  std::map<std::string, std::pair<std::string, std::uint64_t>> loop_specs;
  // trace closure
  double untraced_pass_ms = 0.0;
  double traced_pass_ms = 0.0;
};

/// Replays `jobs` through every pipeline call, one span each.  `coalesce`
/// forms dispatch units the way the daemon does (batch-eligible yield
/// specs of a job share a unit); otherwise every spec is its own unit, as
/// in Campaign.  Journal appends go to `journal_dir`.  Rows that differ
/// between the sandbox and in process count as failures in `tally`.
void layer_pass(Tracer& tracer, const std::vector<LayerJob>& jobs,
                bool coalesce, const std::filesystem::path& journal_dir,
                LayerFacts& facts, Tally& tally);

/// Adds every per-layer metric (the same names on every workload; a layer
/// a workload does not exercise reads 0).
void add_layer_metrics(Report& report, const Tracer& tracer,
                       const LayerFacts& facts);

}  // namespace perfbench
