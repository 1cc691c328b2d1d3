#include "ddl/scenario/batch_plan.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "ddl/analog/buck.h"

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
    append_mc_yield_dies(specs[index], dies);
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

bool lane_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace) {
  if (spec.mc_dies > 0 || spec.debug_throw || spec.debug_hang_ms > 0 ||
      !spec.debug_crash.empty()) {
    return false;
  }
  const ScenarioWorkspace::Sizing& sizing = workspace.sizing_for(spec);
  return sizing.feasible && validate(spec, sizing.line_cells).empty();
}

void run_lanes(
    const std::vector<ScenarioSpec>& specs, std::vector<std::size_t> members,
    ScenarioWorkspace& workspace,
    const std::function<void(std::size_t, ScenarioArtifacts)>& finished) {
  // Longest first, so the tail of the unit is short scenarios filling
  // lanes rather than one long scenario stepping alone.
  std::sort(members.begin(), members.end(),
            [&](std::size_t a, std::size_t b) {
              if (specs[a].periods != specs[b].periods) {
                return specs[a].periods > specs[b].periods;
              }
              return a < b;
            });

  struct Lane {
    std::size_t index = 0;
    std::unique_ptr<ScenarioStepper> stepper;
  };
  std::vector<Lane> lanes;
  lanes.reserve(analog::kBuckLanes);
  std::size_t queued = 0;

  // Fills free lanes from the queue.  A scenario whose row needs no loop
  // finishes on the spot.
  const auto refill = [&] {
    while (lanes.size() < analog::kBuckLanes && queued < members.size()) {
      const std::size_t index = members[queued++];
      ScenarioArtifacts artifacts;
      try {
        auto stepper = std::make_unique<ScenarioStepper>(specs[index],
                                                         workspace);
        if (!stepper->done()) {
          lanes.push_back({index, std::move(stepper)});
          continue;
        }
        artifacts = stepper->finish();
      } catch (...) {
        artifacts = exception_artifacts(specs[index]);
      }
      finished(index, std::move(artifacts));
    }
  };

  const analog::BuckLanes kernel;
  std::vector<analog::BuckConverter*> plants;
  std::vector<dpwm::PwmPeriod> periods;
  std::vector<double> loads;
  std::vector<std::size_t> stepping;  ///< Positions in `lanes`.
  for (refill(); !lanes.empty(); refill()) {
    if (lanes.size() == 1 && queued == members.size()) {
      // The last scenario has nothing to share a step with.
      const std::size_t index = lanes.front().index;
      ScenarioStepper& stepper = *lanes.front().stepper;
      ScenarioArtifacts artifacts;
      try {
        while (!stepper.done()) {
          const control::PeriodDrive& drive = stepper.begin();
          stepper.plant().run_period(drive.pwm, drive.load_a);
          stepper.end();
        }
        artifacts = stepper.finish();
      } catch (...) {
        artifacts = exception_artifacts(specs[index]);
      }
      lanes.clear();
      finished(index, std::move(artifacts));
      break;
    }

    plants.clear();
    periods.clear();
    loads.clear();
    stepping.clear();
    std::array<bool, analog::kBuckLanes> retired{};
    const auto retire = [&](std::size_t k, ScenarioArtifacts artifacts) {
      retired[k] = true;
      lanes[k].stepper.reset();
      finished(lanes[k].index, std::move(artifacts));
    };
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      try {
        const control::PeriodDrive& drive = lanes[k].stepper->begin();
        plants.push_back(&lanes[k].stepper->plant());
        periods.push_back(drive.pwm);
        loads.push_back(drive.load_a);
        stepping.push_back(k);
      } catch (...) {
        retire(k, exception_artifacts(specs[lanes[k].index]));
      }
    }
    if (!plants.empty()) {
      kernel.run_period(plants, periods, loads);
    }
    for (const std::size_t k : stepping) {
      ScenarioStepper& stepper = *lanes[k].stepper;
      std::optional<ScenarioArtifacts> row;
      try {
        stepper.end();
        if (stepper.done()) {
          row = stepper.finish();
        }
      } catch (...) {
        row = exception_artifacts(specs[lanes[k].index]);
      }
      if (row) {
        retire(k, std::move(*row));
      }
    }
    std::size_t kept = 0;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (!retired[k]) {
        if (kept != k) {
          lanes[kept] = std::move(lanes[k]);
        }
        ++kept;
      }
    }
    lanes.resize(kept);
  }
}

std::uint64_t lane_steps(std::vector<std::uint64_t> periods) {
  std::sort(periods.begin(), periods.end(), std::greater<>());
  std::array<std::uint64_t, analog::kBuckLanes> free_at{};
  for (const std::uint64_t length : periods) {
    *std::min_element(free_at.begin(), free_at.end()) += length;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

}  // namespace ddl::scenario
