#include "ddl/scenario/batch_plan.h"

#include <bit>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "ddl/analysis/monte_carlo.h"

namespace ddl::scenario {
namespace {

/// Everything the batched kernel's arithmetic depends on, doubles keyed by
/// bit pattern: two scenarios grouped under one key produce bit-identical
/// per-die samples to their solo runs, by the kernel's lane-purity
/// contract.  Seeds, faults and verdict thresholds stay per-scenario.
using GroupKey = std::tuple<std::size_t, int, std::uint64_t, std::uint64_t,
                            std::uint64_t, int, std::uint64_t, std::uint64_t>;

GroupKey group_key(const ScenarioSpec& spec,
                   const ScenarioWorkspace::Sizing& sizing) {
  return {sizing.batch_line.num_cells,
          sizing.batch_line.buffers_per_cell,
          std::bit_cast<std::uint64_t>(sizing.batch_line.nominal_cell_ps),
          std::bit_cast<std::uint64_t>(sizing.batch_line.sigma_cell),
          std::bit_cast<std::uint64_t>(spec.clock_mhz),
          static_cast<int>(spec.corner.corner),
          std::bit_cast<std::uint64_t>(spec.corner.supply_v),
          std::bit_cast<std::uint64_t>(spec.corner.temperature_c)};
}

}  // namespace

bool batch_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace) {
  if (spec.mc_dies == 0 || spec.mc_force_scalar || spec.debug_throw ||
      spec.debug_hang_ms > 0 || !spec.debug_crash.empty()) {
    return false;  // Hooks run only on the per-scenario path.
  }
  const ScenarioWorkspace::Sizing& sizing = workspace.sizing_for(spec);
  if (!sizing.feasible) {
    return false;  // Must surface as the guarded path's error row.
  }
  // validate() enforces the rest of the MC-yield shape: proposed
  // architecture, power-on delay-cell faults only, no DVFS/supervision.
  // An invalid spec must render its invalid_spec row via the scalar path.
  return validate(spec, sizing.line_cells).empty();
}

BatchPlan plan_batches(const std::vector<ScenarioSpec>& specs,
                       ScenarioWorkspace& workspace) {
  BatchPlan plan;
  std::map<GroupKey, std::size_t> group_index;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    if (!batch_eligible(spec, workspace)) {
      plan.scalar.push_back(i);
      continue;
    }
    const GroupKey key = group_key(spec, workspace.sizing_for(spec));
    const auto [it, inserted] =
        group_index.emplace(key, plan.groups.size());
    if (inserted) {
      plan.groups.emplace_back();
    }
    plan.groups[it->second].members.push_back(i);
  }
  return plan;
}

void run_batch_group(const std::vector<ScenarioSpec>& specs,
                     const BatchGroup& group, ScenarioWorkspace& workspace,
                     std::size_t threads,
                     std::vector<ScenarioResult>& results) {
  const ScenarioSpec& first = specs[group.members.front()];
  const analysis::McBatchSpec mc =
      mc_yield_kernel_spec(first, workspace.sizing_for(first));

  // Scenario-major die order: member scenarios' dies pack back-to-back, so
  // each scenario's samples are one contiguous slice of the group result.
  std::vector<analysis::BatchDie> dies;
  std::size_t total = 0;
  for (const std::size_t index : group.members) {
    total += specs[index].mc_dies;
  }
  dies.reserve(total);
  for (const std::size_t index : group.members) {
    const ScenarioSpec& spec = specs[index];
    // Power-on delay-cell faults apply to every die of the scenario (same
    // expansion run_mc_yield performs, expressed per die).
    std::vector<analysis::BatchFault> faults;
    faults.reserve(spec.faults.size());
    for (const FaultSpec& fault : spec.faults) {
      faults.push_back({0, fault.victim_cell, fault.severity});
    }
    for (std::size_t die = 0; die < spec.mc_dies; ++die) {
      dies.push_back({analysis::die_seed(spec.seed, die), faults});
    }
  }

  try {
    const std::vector<double> samples =
        analysis::monte_carlo_batched_dies(mc, dies, threads);
    std::size_t offset = 0;
    for (const std::size_t index : group.members) {
      const ScenarioSpec& spec = specs[index];
      ScenarioResult result = make_base_result(spec);
      finish_mc_yield(
          spec,
          std::vector<double>(samples.begin() + offset,
                              samples.begin() + offset + spec.mc_dies),
          result);
      results[index] = std::move(result);
      offset += spec.mc_dies;
    }
  } catch (...) {
    // Group-level failure (allocation, a kernel invariant trip): every
    // member degrades to its own guarded run -- slower, never a lost row.
    for (const std::size_t index : group.members) {
      results[index] = run_scenario_guarded(specs[index], workspace).result;
    }
  }
}

}  // namespace ddl::scenario
