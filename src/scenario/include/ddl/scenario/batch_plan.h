// Batch planner: routes a suite's Monte-Carlo yield scenarios through the
// 8-lane mc_batch kernel *across* scenario boundaries.
//
// A yield suite is dominated by scenarios that differ only in seed, fault
// plan and verdict thresholds -- their kernel parameters (line geometry,
// mismatch sigma, clock period, corner) are identical.  Run one at a time,
// each scenario pays its own batch ramp (partial tail blocks, kernel
// dispatch, workspace sizing); grouped, their dies pack into shared
// kBatchLanes-wide blocks and the whole group is one batched dispatch.
//
// Byte-identity contract: a kernel lane's output is a pure function of
// (kernel params, die seed, die fault) -- lane position and neighbours are
// invisible -- so grouping dies from different scenarios produces exactly
// the samples each scenario's solo run would, and the rendered JSONL row
// is byte-identical to run_scenario()'s for any --jobs value.  Scenarios
// the planner cannot prove safe (scalar-forced, runtime fault schedules,
// debug hooks, anything failing validation) fall back to the per-scenario
// guarded path unchanged.  See DESIGN.md "Batched scenario execution".
#pragma once

#include <cstddef>
#include <vector>

#include "ddl/analysis/mc_batch.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {

/// True when `spec` may be grouped into a cross-scenario batch: a valid
/// MC-yield scenario (proposed line, power-on delay-cell faults only --
/// validate() enforces the rest) with no scalar-forcing or debug hooks.
/// Classification is deterministic, so every layer (runner, CampaignJob
/// for the CLI and the service) routes a given spec the same way.
bool batch_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace);

/// The batched-kernel experiment for one MC-yield scenario, *without*
/// faults: the trial-indexed path expands spec faults per trial, the
/// planner attaches them per die.  `sizing` must be feasible (it is for
/// every batch-eligible spec).
analysis::McBatchSpec mc_yield_kernel_spec(
    const ScenarioSpec& spec, const ScenarioWorkspace::Sizing& sizing);

/// Turns one scenario's per-die max-|INL| samples (exactly spec.mc_dies of
/// them, die order) into its yield verdict fields on `result` -- the
/// shared tail of the per-scenario and planned paths, so both emit
/// byte-identical rows.
void finish_mc_yield(const ScenarioSpec& spec, std::vector<double> samples,
                     ScenarioResult& result);

/// One planner group: spec indices (ascending) whose scenarios share
/// kernel parameters and may pack into the same batched dispatch.
struct BatchGroup {
  std::vector<std::size_t> members;
};

/// A suite partitioned for execution: batched groups plus the scalar
/// remainder (ascending spec indices; every index appears exactly once).
struct BatchPlan {
  std::vector<BatchGroup> groups;
  std::vector<std::size_t> scalar;
};

/// Classifies every spec and groups the eligible ones by kernel
/// parameters.  Groups are ordered by first member; deterministic for a
/// given spec list.
BatchPlan plan_batches(const std::vector<ScenarioSpec>& specs,
                       ScenarioWorkspace& workspace);

/// Runs one planned group through a single batched dispatch
/// (monte_carlo_batched_dies) and writes each member's result into
/// `results[index]`.  Any group-level failure degrades every member to the
/// per-scenario guarded path -- never a lost row.  `threads` as in
/// mc_batch (0 = default pool).
void run_batch_group(const std::vector<ScenarioSpec>& specs,
                     const BatchGroup& group, ScenarioWorkspace& workspace,
                     std::size_t threads, std::vector<ScenarioResult>& results);

}  // namespace ddl::scenario
