// Self-test of the benchmark's seeded input generators: inputs are a pure
// function of (workload, seed), valid, uniquely named, and the cli_yield
// inputs are all eligible for the batch planner.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/workspace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every workload's generated inputs for one seed, one spec list per job.
std::vector<std::vector<ScenarioSpec>> inputs(Workload workload,
                                              std::uint64_t seed) {
  switch (workload) {
    case Workload::kCliRegression:
      return {regression_job(seed)};
    case Workload::kCliYield:
      return {yield_job(seed, 8)};
    case Workload::kDaemonMixed:
      return {daemon_job(seed, 0, 0), daemon_job(seed, 0, 1),
              daemon_job(seed, 3, 0)};
  }
  return {};
}

constexpr Workload kWorkloads[] = {Workload::kCliRegression,
                                   Workload::kCliYield, Workload::kDaemonMixed};

std::string fingerprint(Workload workload, std::uint64_t seed) {
  std::vector<ScenarioSpec> all;
  for (const auto& job : inputs(workload, seed)) {
    all.insert(all.end(), job.begin(), job.end());
  }
  return ddl::scenario::content_fingerprint_of(all);
}

TEST(WorkloadsTest, SameSeedSameInputsDifferentSeedDifferentInputs) {
  for (const Workload workload : kWorkloads) {
    SCOPED_TRACE(workload_name(workload));
    EXPECT_EQ(fingerprint(workload, 1), fingerprint(workload, 1));
    EXPECT_EQ(fingerprint(workload, 977), fingerprint(workload, 977));
    EXPECT_NE(fingerprint(workload, 1), fingerprint(workload, 2));
    EXPECT_NE(fingerprint(workload, 1), fingerprint(workload, 977));
  }
}

TEST(WorkloadsTest, EveryGeneratedSpecValidates) {
  for (const Workload workload : kWorkloads) {
    for (const auto& job : inputs(workload, 31)) {
      for (const ScenarioSpec& spec : job) {
        EXPECT_TRUE(ddl::scenario::validate(spec).empty()) << spec.name;
      }
    }
  }
}

TEST(WorkloadsTest, NamesAreUniqueWithinAJobAndAcrossDaemonJobs) {
  for (const Workload workload : kWorkloads) {
    std::set<std::string> names;
    std::size_t count = 0;
    for (const auto& job : inputs(workload, 5)) {
      for (const ScenarioSpec& spec : job) {
        names.insert(spec.name);
        ++count;
      }
    }
    EXPECT_EQ(names.size(), count) << workload_name(workload);
  }
}

TEST(WorkloadsTest, CliYieldSpecsAreAllBatchEligible) {
  ddl::scenario::ScenarioWorkspace workspace;
  for (const ScenarioSpec& spec : yield_job(11, 8)) {
    EXPECT_TRUE(ddl::scenario::batch_eligible(spec, workspace)) << spec.name;
  }
}

TEST(WorkloadsTest, ParseWorkloadRoundTripsNames) {
  for (const Workload workload : kWorkloads) {
    EXPECT_EQ(parse_workload(workload_name(workload)), workload);
  }
  EXPECT_FALSE(parse_workload("nope").has_value());
}

}  // namespace
}  // namespace perfbench
