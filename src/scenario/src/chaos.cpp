#include "ddl/scenario/chaos.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "ddl/core/hash.h"

namespace ddl::scenario {
namespace {

/// The shared splitmix64 stream (core/hash.h) -- platform-stable, so
/// storms stay byte-identical on gcc and clang alike.
using SplitMix64 = core::SplitMix64;

std::string storm_name(const ScenarioSpec& base, std::size_t index) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "storm-%02llu",
                static_cast<unsigned long long>(index));
  return "chaos/" + std::string(to_string(base.architecture)) + "/" +
         std::string(cells::to_string(base.corner.corner)) + "/" + suffix;
}

FaultSpec random_fault(SplitMix64& rng, const ScenarioSpec& base,
                       std::size_t cells) {
  // Which kinds the architecture supports (validate() mirrors this).
  const bool clock_ok = base.architecture == Architecture::kProposed ||
                        base.architecture == Architecture::kConventional;
  const std::uint64_t roll = rng.below(clock_ok ? 3 : 2);

  const std::uint64_t at = 1 + rng.below(base.periods - 1);
  // Half the faults are permanent; the rest clear inside (or right at the
  // end of) the run.
  const std::uint64_t clear =
      rng.below(2) == 0 ? 0 : at + 1 + rng.below(base.periods - at);

  switch (roll) {
    case 0:
      // Delay faults between 1.5x and 10x: strong enough to move the lock
      // point, the regime the re-lock machinery exists for.
      return FaultSpec::delay_cell(rng.below(cells), 1.5 + rng.unit() * 8.5,
                                   at, clear);
    case 1:
      return FaultSpec::stuck_tap(rng.below(cells), at, clear);
    default:
      // Clock steps on either side of nominal, clear of the 1.0 no-op.
      return FaultSpec::clock_period_step(rng.below(2) == 0
                                              ? 0.80 + rng.unit() * 0.15
                                              : 1.05 + rng.unit() * 0.25,
                                          at, clear);
  }
}

}  // namespace

std::vector<ScenarioSpec> expand_chaos(const ChaosCampaignSpec& chaos) {
  const ScenarioSpec& base = chaos.base;
  if (base.architecture == Architecture::kCounter) {
    throw std::invalid_argument(
        "expand_chaos: the counter baseline has no delay line to storm");
  }
  if (!base.dvfs.empty()) {
    throw std::invalid_argument(
        "expand_chaos: runtime fault storms cannot ride a DVFS schedule");
  }
  if (!base.faults.empty()) {
    throw std::invalid_argument(
        "expand_chaos: the base scenario must not carry its own fault plan");
  }
  if (base.periods < 2) {
    throw std::invalid_argument("expand_chaos: base run too short to storm");
  }
  if (chaos.max_faults_per_storm > kMaxSpecEntries) {
    throw std::invalid_argument(
        "expand_chaos: max_faults_per_storm " +
        std::to_string(chaos.max_faults_per_storm) + " exceeds the " +
        std::to_string(kMaxSpecEntries) + "-fault cap");
  }
  const std::size_t cells = base.expected_line_cells();
  if (cells == 0) {
    throw std::invalid_argument(
        "expand_chaos: base sizing is infeasible (no line cells to fault)");
  }

  std::vector<ScenarioSpec> storms;
  storms.reserve(chaos.storms);
  for (std::size_t i = 0; i < chaos.storms; ++i) {
    // One independent stream per storm: adding storms never reshuffles
    // earlier ones.
    SplitMix64 rng{chaos.seed ^ (0x5851f42d4c957f2dull * (i + 1))};
    ScenarioSpec storm = base;
    storm.family = "chaos";
    storm.name = storm_name(base, i);
    const std::size_t faults =
        1 + static_cast<std::size_t>(
                rng.below(std::max<std::size_t>(chaos.max_faults_per_storm, 1)));
    storm.faults.reserve(faults);
    for (std::size_t f = 0; f < faults; ++f) {
      storm.faults.push_back(random_fault(rng, base, cells));
    }
    storms.push_back(std::move(storm));
  }
  return storms;
}

ShrinkReport shrink_failure(const ScenarioSpec& failing) {
  ShrinkReport report;
  const ScenarioResult initial = run_scenario_guarded(failing).result;
  report.runs = 1;
  report.failure_reason = initial.failure_reason;
  report.error = initial.error;
  report.failing = !initial.pass;
  report.minimal = failing;
  if (initial.pass) {
    return report;
  }

  // Reproduction check: same classification, not merely "still fails" --
  // a shrink that trades regulation_error for no_lock is a different bug.
  const auto reproduces = [&report](const ScenarioSpec& candidate) {
    const ScenarioResult result = run_scenario_guarded(candidate).result;
    ++report.runs;
    return !result.pass && result.failure_reason == report.failure_reason;
  };

  // Pass 1, to fixpoint: drop whole faults.
  ScenarioSpec current = failing;
  bool progress = true;
  while (progress && current.faults.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < current.faults.size();) {
      ScenarioSpec candidate = current;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (reproduces(candidate)) {
        current = std::move(candidate);
        ++report.removed_faults;
        progress = true;  // Re-test the fault that slid into slot i.
      } else {
        ++i;
      }
    }
  }

  // Pass 2: simplify survivors -- a permanent fault (no clear edge) is a
  // smaller repro than an inject/clear pair.
  for (std::size_t i = 0; i < current.faults.size(); ++i) {
    if (current.faults[i].clear_period == 0) {
      continue;
    }
    ScenarioSpec candidate = current;
    candidate.faults[i].clear_period = 0;
    if (reproduces(candidate)) {
      current = std::move(candidate);
      ++report.simplified_faults;
    }
  }

  report.minimal = std::move(current);
  return report;
}

std::string replay_bundle_json(const ShrinkReport& report) {
  analysis::JsonObject bundle;
  bundle.set("schema_version", analysis::kBenchJsonSchemaVersion);
  bundle.set("bundle", "chaos_replay");
  bundle.set("expected_failure_reason", report.failure_reason);
  bundle.set("expected_error", std::string(to_string(report.error)));
  bundle.set("shrink_runs", static_cast<std::uint64_t>(report.runs));
  bundle.set("removed_faults",
             static_cast<std::uint64_t>(report.removed_faults));
  bundle.set("simplified_faults",
             static_cast<std::uint64_t>(report.simplified_faults));
  spec_to_json_into(bundle, report.minimal, "spec.");
  return bundle.to_json();
}

ReplayBundle parse_replay_bundle(const std::string& content) {
  const auto fields = analysis::parse_flat_json_line(content);
  if (!fields) {
    throw std::invalid_argument("replay bundle: not a flat JSON document");
  }
  const auto kind = fields->find("bundle");
  if (kind == fields->end() || kind->second != "chaos_replay") {
    throw std::invalid_argument(
        "replay bundle: missing bundle=chaos_replay marker");
  }
  SpecParse parsed = spec_from_json_checked(*fields, "spec.");
  if (!parsed.ok()) {
    throw std::invalid_argument("replay bundle: " + parsed.errors.front());
  }
  ReplayBundle bundle;
  bundle.spec = std::move(parsed.spec);
  const auto expected = fields->find("expected_failure_reason");
  if (expected != fields->end()) {
    bundle.expected_failure_reason = expected->second;
  }
  return bundle;
}

bool replay_reproduced(const ScenarioResult& result,
                       const std::string& expected_failure_reason) {
  return expected_failure_reason.empty()
             ? result.pass
             : result.failure_reason == expected_failure_reason;
}

}  // namespace ddl::scenario
