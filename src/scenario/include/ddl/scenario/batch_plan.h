// Batch planner: routes a suite's Monte-Carlo yield scenarios through the
// 8-lane mc_batch kernel *across* scenario boundaries, and its closed-loop
// scenarios through the 8-lane plant kernel (closed-loop lanes, below).
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
#include <cstdint>
#include <functional>
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
/// faults: they ride on the dies append_mc_yield_dies builds.  `sizing`
/// must be feasible (it is for every batch-eligible spec).
analysis::McBatchSpec mc_yield_kernel_spec(
    const ScenarioSpec& spec, const ScenarioWorkspace::Sizing& sizing);

/// Appends one MC-yield scenario's spec.mc_dies dies to `dies`: die i is
/// seeded die_seed(spec.seed, i) and carries every power-on delay-cell
/// fault of the spec, in spec order.  The one die builder of the
/// per-scenario path and the planner, so a lone scenario and a packed
/// group reach monte_carlo_batched_dies with the same lanes.
void append_mc_yield_dies(const ScenarioSpec& spec,
                          std::vector<analysis::BatchDie>& dies);

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

// ---------------------------------------------------------------------------
// Closed-loop lanes.  A closed-loop scenario spends ~99% of its time in the
// buck plant's latency-bound midpoint chain, and independent scenarios do
// not share that chain: run_lanes steps up to kBuckLanes of them through
// one analog::BuckLanes kernel per period, each lane bit-identical to the
// scalar plant, so every row, health line and history is byte-identical
// to run_scenario's.  BatchPlan and batch_eligible keep their MC-yield
// meaning; lanes are a separate classification that CampaignJob::units and
// the dispatch units use.
// ---------------------------------------------------------------------------

/// True when `spec` may run in a closed-loop lane: it has a closed loop
/// (mc_dies == 0), feasible sizing, passes validate() and sets no debug
/// hook (hooks run only on the per-scenario path).  Deterministic, like
/// batch_eligible.
bool lane_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace);

/// Runs the lane-eligible scenarios `specs[members]` through closed-loop
/// lanes.  Lanes take the longest scenario first (ties by index) and a
/// lane refills from the queue as soon as its scenario finishes; when one
/// scenario is left it finishes on the scalar plant.  `finished(index,
/// artifacts)` receives each member's artifacts -- byte-identical to
/// run_scenario_guarded's -- as soon as it completes, so the caller can
/// keep the row and drop the history.  Each lane is guarded on its own: an
/// exception becomes that scenario's exception row and the other lanes go
/// on.
void run_lanes(
    const std::vector<ScenarioSpec>& specs,
    std::vector<std::size_t> members, ScenarioWorkspace& workspace,
    const std::function<void(std::size_t, ScenarioArtifacts)>& finished);

/// The lane steps run_lanes takes over loops of `periods`: its own rule
/// replayed on the period counts -- kBuckLanes lanes, longest first, a
/// lane refilled as soon as its loop ends.  The wall of a lane unit in
/// periods, which CampaignJob::units budgets.  0 for no loop.
std::uint64_t lane_steps(std::vector<std::uint64_t> periods);

}  // namespace ddl::scenario
