// Closed-loop lanes against the scalar reference, bit for bit.
//
// Plant level: analog::BuckLanes against BuckConverter::run_period with 1-8
// lanes active, random per-lane duty (zero, the full period, odd
// picosecond widths), loads light enough to drive the dead-time clamp, and
// per-lane parameters; every field is compared after every period.
// Scenario level: every closed-loop spec of the regression, smoke and
// chaos suites plus a 64-storm chaos expansion, run through lane units of
// 2, 3, 8 and 13 scenarios, through one permuted unit and through the lane
// units the campaign plans, must reproduce run_scenario's rows, health
// lines and full history byte for byte.
//
// Every test runs on the dispatched kernel variant and once more with
// DDL_MC_BATCH_KERNEL=base, the cap the lanes share with the batched
// Monte-Carlo engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ddl/analog/buck.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"

namespace {

using ddl::analog::BuckConverter;
using ddl::analog::BuckLanes;
using ddl::analog::BuckParams;
using ddl::analog::kBuckLanes;
using ddl::dpwm::PwmPeriod;
using ddl::scenario::ScenarioArtifacts;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioSpec;

/// Runs `body` on the dispatched kernel variant, then with the kernel cap
/// forced to base; the caller's DDL_MC_BATCH_KERNEL is restored after.
void for_each_kernel(const std::function<void(const std::string&)>& body) {
  const char* prior = std::getenv("DDL_MC_BATCH_KERNEL");
  const std::string saved = prior != nullptr ? prior : "";
  body(BuckLanes().variant());
  ASSERT_EQ(setenv("DDL_MC_BATCH_KERNEL", "base", 1), 0);
  EXPECT_STREQ(BuckLanes().variant(), "base");
  body("base");
  if (prior != nullptr) {
    ASSERT_EQ(setenv("DDL_MC_BATCH_KERNEL", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("DDL_MC_BATCH_KERNEL"), 0);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every observable field of two plants, bitwise; names the first that
/// differs.
std::string plant_mismatch(const BuckConverter& a, const BuckConverter& b) {
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"inductor_current_a", {a.inductor_current_a(), b.inductor_current_a()}},
      {"capacitor_voltage", {a.capacitor_voltage(), b.capacitor_voltage()}},
      {"output_voltage", {a.output_voltage(), b.output_voltage()}},
      {"elapsed_s", {a.elapsed_s(), b.elapsed_s()}},
      {"last_period_vmin", {a.last_period_vmin(), b.last_period_vmin()}},
      {"last_period_vmax", {a.last_period_vmax(), b.last_period_vmax()}},
      {"input_j", {a.energy().input_j, b.energy().input_j}},
      {"output_j", {a.energy().output_j, b.energy().output_j}},
      {"conduction_loss_j",
       {a.energy().conduction_loss_j, b.energy().conduction_loss_j}},
      {"switching_loss_j",
       {a.energy().switching_loss_j, b.energy().switching_loss_j}},
  };
  for (const auto& [name, values] : fields) {
    if (!same_bits(values.first, values.second)) {
      return name;
    }
  }
  return "";
}

// ---- Plant level -----------------------------------------------------------

TEST(BuckLanesTest, EveryLaneMatchesTheScalarPlantBitForBit) {
  for_each_kernel([](const std::string& variant) {
    std::mt19937_64 rng(20261017);
    for (std::size_t active = 1; active <= kBuckLanes; ++active) {
      // Per-lane parameters: the default stage, one without dead time
      // (empty dead intervals) and one with a coarser step.
      std::vector<BuckConverter> scalar;
      std::vector<BuckConverter> laned;
      for (std::size_t lane = 0; lane < active; ++lane) {
        BuckParams params;
        double dt_s = 1e-9;
        if (lane % 3 == 1) {
          params.dead_time_ps = 0.0;
        } else if (lane % 3 == 2) {
          params.inductance_h = 2.2e-6;
          dt_s = 2.5e-9;
        }
        scalar.emplace_back(params, dt_s);
        laned.emplace_back(params, dt_s);
      }
      std::vector<BuckConverter*> plants;
      for (BuckConverter& plant : laned) {
        plants.push_back(&plant);
      }
      const BuckLanes lanes;
      std::vector<PwmPeriod> periods(active);
      std::vector<double> loads(active);
      for (int period = 0; period < 160; ++period) {
        for (std::size_t lane = 0; lane < active; ++lane) {
          PwmPeriod& pwm = periods[lane];
          pwm.period_ps = lane == 0 ? 1'000'000 : 999'983;
          const std::uint64_t roll = rng() % 8;
          pwm.high_ps = roll == 0   ? 0
                        : roll == 1 ? pwm.period_ps
                                    : static_cast<ddl::sim::Time>(
                                          1 + 2 * (rng() % 499'991));
          // Light loads let the inductor current fall through zero in the
          // dead time, where the body-diode clamp holds it.
          loads[lane] = rng() % 3 == 0
                            ? 0.002 * static_cast<double>(rng() % 5)
                            : 1.2 * static_cast<double>(rng() % 1000) / 1000.0;
          scalar[lane].run_period(pwm, loads[lane]);
        }
        lanes.run_period(plants, periods, loads);
        for (std::size_t lane = 0; lane < active; ++lane) {
          ASSERT_EQ(plant_mismatch(scalar[lane], laned[lane]), "")
              << variant << ": lane " << lane << " of " << active
              << ", period " << period;
        }
      }
    }
  });
}

TEST(BuckLanesTest, RejectsLaneCountsOutsideOneToEight) {
  std::vector<BuckConverter> plants(kBuckLanes + 1,
                                    BuckConverter(BuckParams{}));
  std::vector<BuckConverter*> pointers;
  for (BuckConverter& plant : plants) {
    pointers.push_back(&plant);
  }
  const std::vector<PwmPeriod> periods(kBuckLanes + 1,
                                       PwmPeriod{0, 400'000, 1'000'000});
  const std::vector<double> loads(kBuckLanes + 1, 0.4);
  const BuckLanes lanes;
  EXPECT_THROW(lanes.run_period({}, {}, {}), std::invalid_argument);
  EXPECT_THROW(lanes.run_period(pointers, periods, loads),
               std::invalid_argument);
  EXPECT_THROW(lanes.run_period(std::span(pointers).first(2),
                                std::span(periods).first(3),
                                std::span(loads).first(2)),
               std::invalid_argument);
}

// ---- Scenario level --------------------------------------------------------

std::vector<ScenarioSpec> closed_loops(std::vector<ScenarioSpec> specs) {
  std::erase_if(specs, [](const ScenarioSpec& spec) {
    return spec.mc_dies > 0;
  });
  return specs;
}

/// The --chaos expansion's shape: storms over the chaos suite's base.
std::vector<ScenarioSpec> chaos_storms(std::size_t storms) {
  ddl::scenario::ChaosCampaignSpec chaos;
  chaos.base = ScenarioRegistry::builtin().expand("chaos").front();
  chaos.base.faults.clear();
  chaos.storms = storms;
  chaos.seed = 2026;
  return ddl::scenario::expand_chaos(chaos);
}

struct Rendered {
  std::string row;
  std::vector<std::string> health;
};

Rendered render(const ddl::scenario::ScenarioResult& result) {
  Rendered out{ddl::scenario::to_json_line(result), {}};
  for (const auto& event : result.health) {
    out.health.push_back(
        ddl::scenario::health_to_json(result, event).to_json_line());
  }
  return out;
}

/// Names the first field where two runs' artifacts differ.
std::string artifacts_mismatch(const ScenarioArtifacts& a,
                               const ScenarioArtifacts& b) {
  const Rendered ra = render(a.result);
  const Rendered rb = render(b.result);
  if (ra.row != rb.row) {
    return "row:\n  " + ra.row + "\n  " + rb.row;
  }
  if (ra.health != rb.health) {
    return "health lines";
  }
  if (a.history.size() != b.history.size()) {
    return "history length";
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    if (x.period_index != y.period_index || !same_bits(x.vout, y.vout) ||
        !same_bits(x.ripple_v, y.ripple_v) || x.error_code != y.error_code ||
        x.duty_word != y.duty_word || !same_bits(x.load_a, y.load_a)) {
      return "history sample " + std::to_string(i);
    }
  }
  if (a.transitions.size() != b.transitions.size()) {
    return "transition count";
  }
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    const auto& x = a.transitions[i];
    const auto& y = b.transitions[i];
    if (x.mode.at_period != y.mode.at_period ||
        x.settle_periods != y.settle_periods || x.settled != y.settled ||
        !same_bits(x.overshoot_v, y.overshoot_v)) {
      return "transition " + std::to_string(i);
    }
  }
  return "";
}

/// run_scenario over every spec, on the analysis pool.
std::vector<ScenarioArtifacts> references(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioArtifacts> out(specs.size());
  ddl::analysis::ThreadPool pool(4);
  std::atomic<std::size_t> next{0};
  pool.run_shards(4, [&](std::size_t) {
    ddl::scenario::ScenarioWorkspace workspace;
    for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
      out[i] = ddl::scenario::run_scenario(specs[i], workspace);
    }
  });
  return out;
}

/// Runs each unit (spec indices) through run_lanes, units spread over the
/// analysis pool, and returns every member's artifacts by index.
std::vector<ScenarioArtifacts> run_units(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::vector<std::size_t>>& units) {
  std::vector<ScenarioArtifacts> out(specs.size());
  ddl::analysis::ThreadPool pool(4);
  std::atomic<std::size_t> next{0};
  pool.run_shards(4, [&](std::size_t) {
    ddl::scenario::ScenarioWorkspace workspace;
    for (std::size_t u; (u = next.fetch_add(1)) < units.size();) {
      ddl::scenario::run_lanes(
          specs, units[u], workspace,
          [&](std::size_t index, ScenarioArtifacts artifacts) {
            out[index] = std::move(artifacts);
          });
    }
  });
  return out;
}

std::vector<std::vector<std::size_t>> consecutive_units(std::size_t count,
                                                        std::size_t size) {
  std::vector<std::vector<std::size_t>> units;
  for (std::size_t begin = 0; begin < count; begin += size) {
    units.emplace_back();
    for (std::size_t i = begin; i < std::min(count, begin + size); ++i) {
      units.back().push_back(i);
    }
  }
  return units;
}

/// The whole lane contract over `specs`: lane units of 2, 3, 8 and 13
/// scenarios, one permuted unit of all of them and the lane units the
/// campaign plans (CampaignJob::units) match run_scenario's artifacts, and
/// the thread-mode executor's packed unit -- the dispatch path itself --
/// renders the same rows and health lines.
void expect_lanes_match_the_scalar_runs(const std::vector<ScenarioSpec>& specs) {
  ASSERT_GE(specs.size(), 2u);
  ddl::scenario::ScenarioWorkspace workspace;
  for (const ScenarioSpec& spec : specs) {
    ASSERT_TRUE(ddl::scenario::lane_eligible(spec, workspace)) << spec.name;
  }
  const std::vector<ScenarioArtifacts> reference = references(specs);
  const std::vector<std::vector<std::size_t>> planned =
      ddl::scenario::CampaignJob(specs, "", false, workspace).units(true);

  std::vector<std::size_t> permuted(specs.size());
  for (std::size_t i = 0; i < permuted.size(); ++i) {
    permuted[i] = i;
  }
  std::shuffle(permuted.begin(), permuted.end(), std::mt19937_64(7));

  for_each_kernel([&](const std::string& variant) {
    std::map<std::string, std::vector<std::vector<std::size_t>>> configs;
    for (const std::size_t size : {2, 3, 8, 13}) {
      configs["units of " + std::to_string(size)] =
          consecutive_units(specs.size(), size);
    }
    configs["one permuted unit"] = {permuted};
    configs["the campaign's units"] = planned;
    for (const auto& [config, units] : configs) {
      const std::vector<ScenarioArtifacts> laned = run_units(specs, units);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(artifacts_mismatch(reference[i], laned[i]), "")
            << variant << ", " << config << ": " << specs[i].name;
      }
    }

    ddl::scenario::IsolationConfig isolation;
    isolation.mode = ddl::scenario::IsolationMode::kThread;
    ddl::scenario::ScenarioExecutor executor(isolation);
    const auto rows = executor.run_unit(specs);
    ASSERT_EQ(rows.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Rendered expected = render(reference[i].result);
      EXPECT_EQ(rows[i].line, expected.row) << variant << ": " << specs[i].name;
      EXPECT_EQ(rows[i].health_lines, expected.health)
          << variant << ": " << specs[i].name;
    }
  });
}

TEST(LaneUnitTest, RegressionSuiteMatchesTheScalarRuns) {
  // Its two expect_lock=false specs finish at construction, so units also
  // mix scenarios that never take a lane.
  expect_lanes_match_the_scalar_runs(
      closed_loops(ScenarioRegistry::builtin().expand("regression")));
}

TEST(LaneUnitTest, SmokeSuiteMatchesTheScalarRuns) {
  expect_lanes_match_the_scalar_runs(
      closed_loops(ScenarioRegistry::builtin().expand("smoke")));
}

TEST(LaneUnitTest, ChaosSuiteMatchesTheScalarRuns) {
  expect_lanes_match_the_scalar_runs(ScenarioRegistry::builtin().expand("chaos"));
}

TEST(LaneUnitTest, SixtyFourChaosStormsMatchTheScalarRuns) {
  expect_lanes_match_the_scalar_runs(chaos_storms(64));
}

ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "lanes/proposed/typical/" + variant;
  spec.family = "test";
  spec.seed = seed;
  spec.load = ddl::scenario::LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

TEST(LaneUnitTest, EligibilityNeedsAClosedLoopAndNoHooks) {
  ddl::scenario::ScenarioWorkspace workspace;
  EXPECT_TRUE(ddl::scenario::lane_eligible(quick_spec("plain", 1), workspace));
  ScenarioSpec yield = ScenarioRegistry::builtin().expand("yield").front();
  ScenarioSpec thrown = quick_spec("thrown", 2);
  thrown.debug_throw = true;
  ScenarioSpec hung = quick_spec("hung", 3);
  hung.debug_hang_ms = 10;
  ScenarioSpec crashed = quick_spec("crashed", 4);
  crashed.debug_crash = "segv";
  ScenarioSpec invalid = quick_spec("invalid", 5);
  invalid.measure_from = invalid.periods;
  for (const ScenarioSpec* spec : {&yield, &thrown, &hung, &crashed, &invalid}) {
    EXPECT_FALSE(ddl::scenario::lane_eligible(*spec, workspace)) << spec->name;
  }
}

TEST(LaneUnitTest, ThrowingSpecsInsideAUnitYieldTheirOwnErrorRows) {
  // A debug_throw spec takes the per-scenario path inside the unit; a spec
  // whose history cannot be reserved throws inside its lane.  Each yields
  // exactly run_scenario_guarded's error row while the other lanes go on.
  ScenarioSpec hooked = quick_spec("hooked", 21);
  hooked.debug_throw = true;
  ScenarioSpec oversized = quick_spec("oversized", 22);
  oversized.periods = std::uint64_t{1} << 62;
  const std::vector<ScenarioSpec> specs = {
      quick_spec("a", 11), hooked,           quick_spec("b", 12),
      oversized,           quick_spec("c", 13)};
  ddl::scenario::ScenarioWorkspace workspace;
  ASSERT_TRUE(ddl::scenario::lane_eligible(oversized, workspace));

  for_each_kernel([&](const std::string& variant) {
    for (const auto mode : {ddl::scenario::IsolationMode::kThread,
                            ddl::scenario::IsolationMode::kProcess}) {
      ddl::scenario::IsolationConfig isolation;
      isolation.mode = mode;
      isolation.timeout_ms = 60'000;
      ddl::scenario::ScenarioExecutor executor(isolation);
      const auto rows = executor.run_unit(specs);
      ASSERT_EQ(rows.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(rows[i].line,
                  ddl::scenario::to_json_line(
                      ddl::scenario::run_scenario_guarded(specs[i]).result))
            << variant << ", " << to_string(mode) << ": " << specs[i].name;
      }
      EXPECT_EQ(rows[1].result.failure_reason, "error:exception");
      EXPECT_EQ(rows[3].result.failure_reason, "error:exception");
      EXPECT_TRUE(rows[4].result.pass) << rows[4].line;
    }
  });
}

}  // namespace
