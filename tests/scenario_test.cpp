// Tests for the ddl::scenario subsystem: registry contents, spec lowering,
// classification edge cases, the ramp_load helper it rides on, and the
// determinism contract -- the same suite run at 1, 2, 4 and the default
// thread count must produce byte-identical JSONL and verdict counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "ddl/control/closed_loop.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/workspace.h"

namespace {

using ddl::scenario::Architecture;
using ddl::scenario::FaultSpec;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;

TEST(RampLoadTest, InterpolatesBetweenEndpoints) {
  const auto load = ddl::control::ramp_load(0.2, 1.0, 100, 300);
  EXPECT_DOUBLE_EQ(load(0), 0.2);
  EXPECT_DOUBLE_EQ(load(100), 0.2);
  EXPECT_DOUBLE_EQ(load(200), 0.6);
  EXPECT_DOUBLE_EQ(load(300), 1.0);
  EXPECT_DOUBLE_EQ(load(5000), 1.0);
}

TEST(RampLoadTest, DegenerateRampActsAsStep) {
  const auto load = ddl::control::ramp_load(0.2, 1.0, 300, 300);
  EXPECT_DOUBLE_EQ(load(299), 0.2);
  EXPECT_DOUBLE_EQ(load(300), 1.0);
}

TEST(RampLoadTest, DownwardRamp) {
  const auto load = ddl::control::ramp_load(1.0, 0.2, 0, 400);
  EXPECT_DOUBLE_EQ(load(0), 1.0);
  EXPECT_DOUBLE_EQ(load(200), 0.6);
  EXPECT_DOUBLE_EQ(load(400), 0.2);
}

TEST(LoadSpecTest, LowersToMatchingProfiles) {
  EXPECT_DOUBLE_EQ(LoadSpec::constant(0.4).make(1)(123), 0.4);
  const auto step = LoadSpec::step(0.2, 1.0, 50).make(1);
  EXPECT_DOUBLE_EQ(step(49), 0.2);
  EXPECT_DOUBLE_EQ(step(50), 1.0);
  const auto ramp = LoadSpec::ramp(0.0, 1.0, 0, 100).make(1);
  EXPECT_DOUBLE_EQ(ramp(50), 0.5);
  // The Markov chain is seed-deterministic.
  const auto a = LoadSpec::burst(0.1, 0.9).make(7);
  const auto b = LoadSpec::burst(0.1, 0.9).make(7);
  for (std::uint64_t p = 0; p < 200; ++p) {
    EXPECT_DOUBLE_EQ(a(p), b(p));
  }
}

TEST(RegistryTest, BuiltinSuitesArePresent) {
  const auto& registry = ScenarioRegistry::builtin();
  for (const char* suite : {"regulation", "transient", "dvfs", "pvt", "fault",
                            "recovery", "smoke", "chaos", "regression"}) {
    EXPECT_TRUE(registry.has_suite(suite)) << suite;
  }
  EXPECT_FALSE(registry.has_suite("nonesuch"));
  EXPECT_THROW(registry.expand("nonesuch"), std::invalid_argument);
}

TEST(RegistryTest, RegressionSuiteMeetsCoverageFloor) {
  const auto specs = ScenarioRegistry::builtin().expand("regression");
  EXPECT_GE(specs.size(), 40u);

  std::set<std::string> names;
  std::set<Architecture> architectures;
  std::set<ddl::cells::ProcessCorner> corners;
  for (const auto& spec : specs) {
    names.insert(spec.name);
    architectures.insert(spec.architecture);
    corners.insert(spec.corner.corner);
    EXPECT_GT(spec.periods, spec.measure_from) << spec.name;
  }
  EXPECT_EQ(names.size(), specs.size()) << "scenario names must be unique";
  EXPECT_GE(architectures.size(), 3u);
  EXPECT_GE(corners.size(), 3u);
}

TEST(RegistryTest, FilterSlicesBySubstring) {
  const auto& registry = ScenarioRegistry::builtin();
  const auto all = registry.expand("regression");
  const auto hybrids = registry.expand_filtered("regression", "/hybrid/");
  EXPECT_GT(hybrids.size(), 0u);
  EXPECT_LT(hybrids.size(), all.size());
  for (const auto& spec : hybrids) {
    EXPECT_EQ(spec.architecture, Architecture::kHybrid) << spec.name;
  }
  EXPECT_TRUE(registry.expand_filtered("regression", "nonesuch").empty());
}

TEST(RegistryTest, FindLocatesThePortedExampleWorkloads) {
  const auto& registry = ScenarioRegistry::builtin();
  const auto islands = registry.find("dvfs/proposed/typical/islands");
  EXPECT_EQ(islands.seed, 13u);
  EXPECT_EQ(islands.dvfs.size(), 3u);
  const auto trace = registry.find("dvfs/proposed/typical/power-trace");
  EXPECT_EQ(trace.seed, 5u);
  EXPECT_EQ(trace.load.kind, LoadSpec::Kind::kMarkov);
  EXPECT_THROW(registry.find("nonesuch"), std::invalid_argument);
}

ScenarioSpec quick_spec() {
  ScenarioSpec spec;
  spec.name = "test/proposed/typical/quick";
  spec.family = "test";
  spec.load = LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;  // 6-bit DPWM vs the 10 mV ADC window.
  spec.tolerance_v = 0.05;
  return spec;
}

TEST(RunScenarioTest, ClassifiesAHealthyRunAsPass) {
  const auto artifacts = ddl::scenario::run_scenario(quick_spec());
  EXPECT_TRUE(artifacts.result.locked);
  EXPECT_TRUE(artifacts.result.pass) << artifacts.result.failure_reason;
  EXPECT_TRUE(artifacts.result.failure_reason.empty());
  EXPECT_EQ(artifacts.result.periods, 900u);
  EXPECT_FALSE(artifacts.history.empty());
}

TEST(RunScenarioTest, ImpossibleToleranceFailsAsRegulationError) {
  auto spec = quick_spec();
  spec.tolerance_v = 1e-9;
  const auto artifacts = ddl::scenario::run_scenario(spec);
  EXPECT_FALSE(artifacts.result.pass);
  EXPECT_EQ(artifacts.result.failure_reason, "regulation_error");
}

TEST(RunScenarioTest, ExpectLockFalsePassesExactlyWhenCalibrationFails) {
  // The conventional line at the fast environmental corner cannot reach the
  // 1 MHz period (its max delay falls short), so lock must fail -- which the
  // spec declares as the *expected* outcome.
  ScenarioSpec spec = quick_spec();
  spec.architecture = Architecture::kConventional;
  spec.corner = ddl::cells::OperatingPoint::fast();
  spec.expect_lock = false;
  const auto artifacts = ddl::scenario::run_scenario(spec);
  EXPECT_FALSE(artifacts.result.locked);
  EXPECT_TRUE(artifacts.result.pass);

  // The same spec expecting a lock is classified as no_lock instead.
  spec.expect_lock = true;
  const auto failed = ddl::scenario::run_scenario(spec);
  EXPECT_FALSE(failed.result.pass);
  EXPECT_EQ(failed.result.failure_reason, "no_lock");
}

TEST(RunScenarioTest, FaultInjectionShiftsTheLockPoint) {
  auto healthy = quick_spec();
  auto faulty = quick_spec();
  faulty.faults = {FaultSpec::delay_cell(31, 10.0)};
  const auto h = ddl::scenario::run_scenario(healthy);
  const auto f = ddl::scenario::run_scenario(faulty);
  ASSERT_TRUE(h.result.locked);
  ASSERT_TRUE(f.result.locked);
  // A 10x slower cell inside the locked range shortens the tap chain.
  EXPECT_NE(h.result.lock_cycles, f.result.lock_cycles);
}

TEST(RunScenarioTest, JsonLineIsOneObjectWithStableHeader) {
  const auto artifacts = ddl::scenario::run_scenario(quick_spec());
  const std::string line = ddl::scenario::to_json_line(artifacts.result);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.rfind("{\"schema_version\": 2, \"name\": ", 0), 0u) << line;
  // Thread-count and wall-clock never appear in a scenario record (the
  // determinism contract).
  EXPECT_EQ(line.find("threads"), std::string::npos);
  EXPECT_EQ(line.find("wall_ms"), std::string::npos);
}

TEST(ScenarioRunnerTest, DeterministicAcrossThreadCounts) {
  // The full determinism contract on the smoke suite: byte-identical JSONL
  // and identical verdict counts for 1, 2, 4 and default-thread runs.
  const auto specs = ScenarioRegistry::builtin().expand("smoke");
  const auto reference = ScenarioRunner(1).run(specs);
  const std::string reference_jsonl = ScenarioRunner::jsonl(reference);
  const auto reference_summary = ddl::scenario::summarize(reference);

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    const auto results = ScenarioRunner(threads).run(specs);
    EXPECT_EQ(ScenarioRunner::jsonl(results), reference_jsonl)
        << "threads=" << threads;
    const auto summary = ddl::scenario::summarize(results);
    EXPECT_EQ(summary.passed, reference_summary.passed);
    EXPECT_EQ(summary.locked, reference_summary.locked);
    EXPECT_EQ(summary.failures, reference_summary.failures);
    EXPECT_EQ(summary.by_family, reference_summary.by_family);
  }
}

/// fnv1a64 of one suite's result and health streams from the reference
/// runner.  The values were computed before the closed loop was split into
/// per-period halves; every change to the loop, the plant or the lane
/// kernel must leave them untouched.
void expect_golden_streams(const std::string& suite, const char* rows,
                           const char* health) {
  const auto results =
      ScenarioRunner(4).run(ScenarioRegistry::builtin().expand(suite));
  EXPECT_EQ(ddl::core::fnv1a64_hex(ScenarioRunner::jsonl(results)), rows)
      << suite;
  EXPECT_EQ(ddl::core::fnv1a64_hex(ScenarioRunner::health_jsonl(results)),
            health)
      << suite;
}

TEST(GoldenStreamTest, RegressionSuite) {
  expect_golden_streams("regression", "41e55ed328bf6026", "d8a68bea9c3a65e8");
}

TEST(GoldenStreamTest, SmokeSuite) {
  expect_golden_streams("smoke", "0ca9d782685c0ff4", "14650fb0739d0383");
}

TEST(GoldenStreamTest, ChaosSuite) {
  expect_golden_streams("chaos", "48031f9faa112f75", "14650fb0739d0383");
}

TEST(ScenarioRunnerTest, ResultsKeepSpecOrder) {
  auto specs = ScenarioRegistry::builtin().expand("smoke");
  const auto results = ScenarioRunner(2).run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].name, specs[i].name);
  }
}

// ---- Spec validation (cross-field checks) ---------------------------------

TEST(SpecValidationTest, FlagsOutOfRangeVictimAndBadSeverity) {
  auto spec = quick_spec();
  spec.faults = {FaultSpec::delay_cell(10'000, 10.0),
                 FaultSpec::delay_cell(3, -1.0)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("fault 0 (delay_cell)"), std::string::npos)
      << errors[0];
  EXPECT_NE(errors[0].find("victim_cell 10000 out of range"),
            std::string::npos)
      << errors[0];
  EXPECT_NE(errors[1].find("severity"), std::string::npos) << errors[1];
  // Every message leads with the scenario name so batched reports stay
  // attributable.
  for (const auto& error : errors) {
    EXPECT_EQ(error.rfind(spec.name, 0), 0u) << error;
  }
}

TEST(SpecValidationTest, CounterArchitectureCannotCarryFaults) {
  auto spec = quick_spec();
  spec.architecture = Architecture::kCounter;
  spec.faults = {FaultSpec::delay_cell(0, 2.0)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("no delay line"), std::string::npos) << errors[0];
}

TEST(SpecValidationTest, ClockPeriodStepsAreRejectedOnTheHybrid) {
  auto spec = quick_spec();
  spec.architecture = Architecture::kHybrid;
  spec.counter_bits = 3;
  spec.faults = {FaultSpec::clock_period_step(1.2, 100)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("hybrid"), std::string::npos) << errors[0];
}

TEST(SpecValidationTest, FlagsMisorderedFaultSchedules) {
  auto spec = quick_spec();  // 900 periods.
  spec.faults = {FaultSpec::delay_cell(3, 2.0, /*at=*/900),
                 FaultSpec::delay_cell(3, 2.0, /*at=*/100, /*clear=*/50)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("at_period 900"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("clear_period 50"), std::string::npos) << errors[1];

  // A DVFS step at or past the end of the run, and a schedule that is not
  // strictly increasing, are misordered the same way.
  spec.faults.clear();
  spec.dvfs = {{300, 0.9}, {900, 1.0}};
  auto dvfs_errors = ddl::scenario::validate(spec);
  ASSERT_EQ(dvfs_errors.size(), 1u);
  EXPECT_NE(dvfs_errors[0].find("DVFS step 1"), std::string::npos)
      << dvfs_errors[0];
  EXPECT_NE(dvfs_errors[0].find("at_period 900"), std::string::npos)
      << dvfs_errors[0];
  spec.dvfs = {{600, 0.9}, {300, 1.0}};
  dvfs_errors = ddl::scenario::validate(spec);
  ASSERT_EQ(dvfs_errors.size(), 1u);
  EXPECT_NE(dvfs_errors[0].find("strictly increasing"), std::string::npos)
      << dvfs_errors[0];
  spec.dvfs = {{300, 0.9}, {300, 1.0}};
  EXPECT_EQ(ddl::scenario::validate(spec).size(), 1u);
  spec.dvfs = {{0, 0.9}, {899, 1.0}};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
}

TEST(SpecValidationTest, RecoveryExpectationsRequireSupervision) {
  auto spec = quick_spec();
  spec.expect_relock = true;
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("require supervision"), std::string::npos)
      << errors[0];
  // Enabling supervision clears the complaint.
  spec.supervision.enabled = true;
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
}

TEST(SpecValidationTest, EqualInjectAndClearPeriodsAreRejected) {
  auto spec = quick_spec();
  spec.faults = {FaultSpec::delay_cell(3, 2.0, /*at=*/400, /*clear=*/400)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("clear_period 400"), std::string::npos)
      << errors[0];
  // One period of overlap is the minimum meaningful window.
  spec.faults = {FaultSpec::delay_cell(3, 2.0, 400, 401)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
}

TEST(SpecValidationTest, PowerOnFaultMayStillScheduleAClear) {
  auto spec = quick_spec();
  // at_period 0 means "present from power-on", and a nonzero clear is any
  // period after it -- including period 1.
  spec.faults = {FaultSpec::delay_cell(3, 2.0, /*at=*/0, /*clear=*/1)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
  // A clear may also land on (or past) the final period: the fault simply
  // never clears inside the run.
  spec.faults = {FaultSpec::delay_cell(3, 2.0, 400, spec.periods)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
}

TEST(SpecValidationTest, VictimIndexBoundaryIsExact) {
  auto spec = quick_spec();
  const std::size_t cells = spec.expected_line_cells();
  ASSERT_GT(cells, 0u);
  spec.faults = {FaultSpec::delay_cell(cells - 1, 2.0)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
  spec.faults = {FaultSpec::delay_cell(cells, 2.0)};
  const auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("out of range"), std::string::npos) << errors[0];
}

TEST(SpecValidationTest, LastPeriodInjectionIsValid) {
  auto spec = quick_spec();  // 900 periods.
  spec.faults = {FaultSpec::delay_cell(3, 2.0, /*at=*/899)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
}

TEST(SpecValidationTest, FaultAndDvfsListsAreCappedAt256Entries) {
  auto spec = quick_spec();
  spec.faults.assign(256, FaultSpec::delay_cell(3, 2.0));
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());
  // One over the cap is one error, not one per entry.
  spec.faults.push_back(FaultSpec::delay_cell(10'000, -1.0));
  auto errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("257 faults"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("256-entry cap"), std::string::npos) << errors[0];

  spec.faults.clear();
  spec.dvfs.assign(257, {100, 1.0});
  errors = ddl::scenario::validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("257 DVFS steps"), std::string::npos) << errors[0];
}

TEST(RegistryTest, ChaosSuiteIsDeterministicallySeededAndValid) {
  const auto& registry = ScenarioRegistry::builtin();
  const auto first = registry.expand("chaos");
  const auto second = registry.expand("chaos");
  ASSERT_EQ(first.size(), 8u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].family, "chaos");
    EXPECT_EQ(first[i].name, second[i].name);
    ASSERT_EQ(first[i].faults.size(), second[i].faults.size());
    EXPECT_GE(first[i].faults.size(), 1u);
  }
}

TEST(RunScenarioTest, InvalidSpecFailsStructurallyInsteadOfThrowing) {
  auto spec = quick_spec();
  spec.faults = {FaultSpec::delay_cell(10'000, 10.0)};
  const auto artifacts = ddl::scenario::run_scenario(spec);
  EXPECT_FALSE(artifacts.result.pass);
  EXPECT_EQ(artifacts.result.failure_reason, "invalid_spec");
  EXPECT_NE(artifacts.result.failure_detail.find("victim_cell"),
            std::string::npos)
      << artifacts.result.failure_detail;

  // DVFS schedules the per-period stepper cannot honour: a step past the
  // run (which would otherwise extend it) and an unsorted schedule (which
  // would otherwise throw from the mode manager after a good lock).
  for (const std::vector<ddl::control::VoltageMode>& schedule :
       {std::vector<ddl::control::VoltageMode>{{300, 0.9}, {1200, 1.0}},
        std::vector<ddl::control::VoltageMode>{{600, 0.9}, {300, 1.0}}}) {
    auto dvfs = quick_spec();
    dvfs.dvfs = schedule;
    const auto run = ddl::scenario::run_scenario(dvfs);
    EXPECT_EQ(run.result.failure_reason, "invalid_spec")
        << run.result.failure_detail;
    EXPECT_EQ(run.result.error, ddl::scenario::ScenarioError::kNone);
    EXPECT_TRUE(run.history.empty());
  }
}

// ---- Recovery suite -------------------------------------------------------

TEST(RegistryTest, RecoverySuiteIsSupervisedAndValid) {
  const auto specs = ScenarioRegistry::builtin().expand("recovery");
  EXPECT_GE(specs.size(), 5u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.family, "recovery") << spec.name;
    EXPECT_TRUE(spec.supervision.enabled) << spec.name;
    EXPECT_FALSE(spec.faults.empty()) << spec.name;
    EXPECT_TRUE(ddl::scenario::validate(spec).empty()) << spec.name;
  }
}

TEST(RunScenarioTest, RecoveryScenarioReportsLossAndRelockTelemetry) {
  const auto spec = ScenarioRegistry::builtin().find(
      "recovery/proposed/typical/cell-fault-relock");
  const auto artifacts = ddl::scenario::run_scenario(spec);
  const auto& result = artifacts.result;
  EXPECT_TRUE(result.pass) << result.failure_reason;
  EXPECT_TRUE(result.supervised);
  EXPECT_GE(result.lock_losses, 1u);
  EXPECT_GE(result.relocks, 1u);
  ASSERT_FALSE(result.health.empty());
  EXPECT_EQ(result.health.front().kind,
            ddl::core::HealthEventKind::kLockLost);
  // The mid-run fault strikes at its scheduled period, so the first loss
  // cannot predate it.
  EXPECT_GE(result.health.front().period, spec.faults.front().at_period);

  const std::string line =
      ddl::scenario::health_to_json(result, result.health.front())
          .to_json_line();
  EXPECT_EQ(line.rfind("{\"schema_version\": 2, \"scenario\": ", 0), 0u)
      << line;
  EXPECT_NE(line.find("\"event\": \"lock_lost\""), std::string::npos) << line;
}

TEST(ScenarioRunnerTest, RecoveryHealthStreamDeterministicAcrossThreads) {
  const auto specs = ScenarioRegistry::builtin().expand("recovery");
  const auto reference = ScenarioRunner(1).run(specs);
  const std::string reference_jsonl = ScenarioRunner::jsonl(reference);
  const std::string reference_health = ScenarioRunner::health_jsonl(reference);
  EXPECT_FALSE(reference_health.empty());

  for (std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
    const auto results = ScenarioRunner(threads).run(specs);
    EXPECT_EQ(ScenarioRunner::jsonl(results), reference_jsonl)
        << "threads=" << threads;
    EXPECT_EQ(ScenarioRunner::health_jsonl(results), reference_health)
        << "threads=" << threads;
  }
}

TEST(SummarizeTest, CountsFailuresByReasonAndFamily) {
  std::vector<ddl::scenario::ScenarioResult> results(3);
  results[0].family = "a";
  results[0].pass = true;
  results[0].locked = true;
  results[1].family = "a";
  results[1].failure_reason = "no_lock";
  results[2].family = "b";
  results[2].locked = true;
  results[2].failure_reason = "regulation_error";
  const auto summary = ddl::scenario::summarize(results);
  EXPECT_EQ(summary.total, 3u);
  EXPECT_EQ(summary.passed, 1u);
  EXPECT_EQ(summary.locked, 2u);
  EXPECT_EQ(summary.failures.at("no_lock"), 1u);
  EXPECT_EQ(summary.failures.at("regulation_error"), 1u);
  EXPECT_EQ(summary.by_family.at("a").first, 1u);
  EXPECT_EQ(summary.by_family.at("a").second, 2u);
  EXPECT_EQ(summary.by_family.at("b").second, 1u);
}

/// A yield scenario whose 70x power-on fault at cell 60 pushes the
/// typical-corner line's half-period crossing tap past the whole clock
/// period: every die leaves the batched kernel's closed form and re-runs
/// on its scalar fallback.  The dies still meet a 50-LSB limit, so the
/// row passes.
ScenarioSpec fallback_yield_spec() {
  ScenarioSpec spec = ScenarioRegistry::builtin().expand("yield").back();
  spec.name = "yield/proposed/typical/cell60x70-32die";
  spec.mc_dies = 32;
  spec.mc_inl_limit_lsb = 50.0;
  spec.faults = {FaultSpec::delay_cell(60, 70.0)};
  return spec;
}

TEST(McYieldTest, BatchedAndForcedScalarPathsEmitIdenticalJsonl) {
  // The satellite contract of the batched-engine adoption: pointing the
  // yield scenarios at mc_batch must be invisible in the JSONL stream --
  // every row byte-identical to the per-die scalar reference path, for
  // kernel dies and scalar-fallback dies alike.
  auto batched =
      ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  ASSERT_FALSE(batched.empty());
  batched.push_back(fallback_yield_spec());
  {
    const ScenarioSpec& severe = batched.back();
    ddl::scenario::ScenarioWorkspace workspace;
    std::vector<ddl::analysis::BatchDie> dies;
    ddl::scenario::append_mc_yield_dies(severe, dies);
    ddl::analysis::McBatchStats stats;
    ddl::analysis::monte_carlo_batched_dies(
        ddl::scenario::mc_yield_kernel_spec(severe,
                                            workspace.sizing_for(severe)),
        dies, 1, &stats);
    EXPECT_EQ(stats.scalar_fallbacks, severe.mc_dies)
        << "every die of the severe-fault spec should leave the kernel";
  }
  std::vector<ddl::scenario::ScenarioSpec> scalar = batched;
  for (ddl::scenario::ScenarioSpec& spec : scalar) {
    spec.mc_force_scalar = true;
  }

  const ddl::scenario::ScenarioRunner runner(2);
  const auto batched_results = runner.run(batched);
  const auto scalar_results = runner.run(scalar);
  EXPECT_EQ(ddl::scenario::ScenarioRunner::jsonl(batched_results),
            ddl::scenario::ScenarioRunner::jsonl(scalar_results));
  for (const auto& result : batched_results) {
    EXPECT_TRUE(result.pass) << result.name << ": " << result.failure_reason;
    EXPECT_GT(result.mc_dies, 0u);
    EXPECT_GT(result.mc_yield, 0.0);
  }
}

TEST(McYieldTest, YieldRowCarriesTheMcFieldsOnly) {
  auto specs = ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  const auto result = ddl::scenario::run_scenario(specs.front()).result;
  const std::string line = ddl::scenario::to_json_line(result);
  EXPECT_NE(line.find("\"mc_yield\":"), std::string::npos);
  EXPECT_NE(line.find("\"mc_inl_max_lsb\":"), std::string::npos);
  // Non-yield rows must not grow the fields (the stream stays byte-stable
  // with pre-yield consumers).
  auto smoke = ddl::scenario::ScenarioRegistry::builtin().expand("smoke");
  const auto plain = ddl::scenario::run_scenario(smoke.front()).result;
  EXPECT_EQ(ddl::scenario::to_json_line(plain).find("\"mc_"),
            std::string::npos);
}

TEST(McYieldTest, DiesThatCannotLockFailTheYield) {
  // A 70x power-on fault on cell 0 or cell 1 of the typical-corner line
  // leaves no die a transfer curve: cell 0 alone crosses T/2 (kAtLimit),
  // or the line locks at tap 0 and maps every duty word to one tap.  Each
  // such die reports +inf INL and fails the limit, on the lone path, in a
  // planner group and on the forced-scalar reference alike.
  const auto yield = ScenarioRegistry::builtin().expand("yield");
  const auto typical =
      std::find_if(yield.begin(), yield.end(), [](const ScenarioSpec& spec) {
        return spec.name == "yield/proposed/typical/inl-256die";
      });
  ASSERT_NE(typical, yield.end());
  std::vector<ScenarioSpec> specs;
  for (const std::size_t cell : {std::size_t{0}, std::size_t{1}}) {
    ScenarioSpec spec = *typical;
    spec.name = "yield/proposed/typical/cell" + std::to_string(cell) +
                "x70-16die";
    spec.mc_dies = 16;
    spec.faults = {FaultSpec::delay_cell(cell, 70.0)};
    specs.push_back(spec);
  }
  std::vector<ScenarioSpec> scalar = specs;
  for (ScenarioSpec& spec : scalar) {
    spec.mc_force_scalar = true;
  }
  const auto planned = ScenarioRunner(1).run(specs);
  const auto reference = ScenarioRunner(1).run(scalar);
  ASSERT_EQ(planned.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto lone = ddl::scenario::run_scenario(specs[i]).result;
    EXPECT_FALSE(lone.pass) << lone.name;
    EXPECT_EQ(lone.failure_reason, "yield_below_min") << lone.name;
    EXPECT_EQ(lone.mc_yield, 0.0) << lone.name;
    EXPECT_TRUE(std::isinf(lone.mc_inl_max_lsb)) << lone.name;
    const std::string line = ddl::scenario::to_json_line(lone);
    EXPECT_NE(line.find("\"mc_inl_max_lsb\": \"inf\""), std::string::npos)
        << line;
    EXPECT_EQ(ddl::scenario::to_json_line(planned[i]), line);
    EXPECT_EQ(ddl::scenario::to_json_line(reference[i]), line);
  }
}

TEST(BatchPlanTest, ClassifiesEligibilityAndGroupsByKernelConstants) {
  ddl::scenario::ScenarioWorkspace workspace;
  const auto yield = ScenarioRegistry::builtin().expand("yield");
  ASSERT_EQ(yield.size(), 4u);
  for (const ScenarioSpec& spec : yield) {
    EXPECT_TRUE(ddl::scenario::batch_eligible(spec, workspace)) << spec.name;
  }

  // Anything that must take the scalar path -- a forced-scalar flag, a
  // debug hook, a runtime fault schedule (invalid for MC yield, so its
  // invalid_spec row must render through the guarded path), or a plain
  // non-MC scenario -- is ineligible.
  ScenarioSpec forced = yield.front();
  forced.mc_force_scalar = true;
  ScenarioSpec hooked = yield.front();
  hooked.debug_throw = true;
  ScenarioSpec crashing = yield.front();
  crashing.debug_crash = "segv";
  ScenarioSpec scheduled = yield.front();
  scheduled.faults = {FaultSpec::delay_cell(1, 2.0, 100)};
  const ScenarioSpec plain =
      ScenarioRegistry::builtin().expand("smoke").front();
  for (const ScenarioSpec* spec : std::initializer_list<const ScenarioSpec*>{
           &forced, &hooked, &crashing, &scheduled, &plain}) {
    EXPECT_FALSE(ddl::scenario::batch_eligible(*spec, workspace))
        << spec->name;
  }

  // The planner keeps the three corners apart (their kernel constants
  // differ) and packs the faulted typical-corner variant with its clean
  // sibling -- faults are per-die state, invisible to the group key --
  // while ineligible specs keep their positions on the scalar list.
  std::vector<ScenarioSpec> mixed;
  mixed.push_back(plain);
  for (const ScenarioSpec& spec : yield) {
    mixed.push_back(spec);
  }
  mixed.push_back(forced);
  mixed.push_back(crashing);
  const auto plan = ddl::scenario::plan_batches(mixed, workspace);
  EXPECT_EQ(plan.scalar, (std::vector<std::size_t>{0, 5, 6}));
  ASSERT_EQ(plan.groups.size(), 3u);
  std::size_t members = 0;
  std::size_t widest = 0;
  for (const auto& group : plan.groups) {
    members += group.members.size();
    widest = std::max(widest, group.members.size());
  }
  EXPECT_EQ(members, 4u);
  EXPECT_EQ(widest, 2u);
}

TEST(BatchPlanTest, PlannedRunMatchesPerScenarioRowsAtEveryJobCount) {
  // The whole byte-identity contract in one sweep: a mixed list -- MC
  // yield (planned into packed kernel lanes, scalar-fallback dies
  // included) plus the smoke suite (scalar shards) -- must emit exactly
  // the rows of one-scenario-at-a-time run_scenario calls, at every
  // thread count.
  std::vector<ScenarioSpec> specs = ScenarioRegistry::builtin().expand("yield");
  specs.push_back(fallback_yield_spec());
  for (ScenarioSpec& spec : ScenarioRegistry::builtin().expand("smoke")) {
    specs.push_back(std::move(spec));
  }

  std::vector<ddl::scenario::ScenarioResult> reference;
  reference.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    reference.push_back(ddl::scenario::run_scenario(spec).result);
  }
  const std::string jsonl = ScenarioRunner::jsonl(reference);
  const std::string health = ScenarioRunner::health_jsonl(reference);

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
    const auto results = ScenarioRunner(threads).run(specs);
    EXPECT_EQ(ScenarioRunner::jsonl(results), jsonl) << "threads=" << threads;
    EXPECT_EQ(ScenarioRunner::health_jsonl(results), health)
        << "threads=" << threads;
  }
}

TEST(SpecValidationTest, McYieldRulesAreEnforced) {
  ddl::scenario::ScenarioSpec spec;
  spec.name = "yield/bad";
  spec.mc_dies = 16;
  spec.architecture = ddl::scenario::Architecture::kConventional;
  EXPECT_FALSE(ddl::scenario::validate(spec).empty());

  spec.architecture = ddl::scenario::Architecture::kProposed;
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());

  // Runtime faults cannot ride a yield experiment; power-on delay faults
  // can (they become per-die BatchFaults).
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(1, 2.0, 100)};
  EXPECT_FALSE(ddl::scenario::validate(spec).empty());
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(1, 2.0)};
  EXPECT_TRUE(ddl::scenario::validate(spec).empty());

  spec.mc_min_yield = 1.5;
  EXPECT_FALSE(ddl::scenario::validate(spec).empty());
  spec.mc_min_yield = 0.5;
  spec.supervision.enabled = true;
  EXPECT_FALSE(ddl::scenario::validate(spec).empty());
}

}  // namespace
