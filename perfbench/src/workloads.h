// Seeded input generators for the benchmark workloads.
//
// Every generator is a pure function of its arguments: the same seed gives
// the same spec list (same content fingerprint), a different seed gives a
// different one.  The code under test only ever sees the generated specs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ddl/scenario/spec.h"

namespace perfbench {

using ddl::scenario::ScenarioSpec;

enum class Workload { kCliRegression, kCliYield, kDaemonMixed };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// The built-in `regression` suite, every spec re-seeded and renamed from
/// `seed`: one `ddl_scenario_runner --suite regression` job.  Scenario
/// kinds, period counts and verdict bounds are the suite's own.
std::vector<ScenarioSpec> regression_job(std::uint64_t seed);

/// `replicas` copies of the built-in `yield` family (three corners plus a
/// power-on-fault variant, 256 dies each), re-seeded and renamed from
/// `seed`.
std::vector<ScenarioSpec> yield_job(std::uint64_t seed, std::size_t replicas);

/// One fresh daemon job of client `client`: a short closed-loop run plus
/// two 256-die yield scenarios that share kernel constants, so the server
/// coalesces them into one dispatch unit.
std::vector<ScenarioSpec> daemon_job(std::uint64_t seed, std::size_t client,
                                     std::size_t index);

/// Simulated switching periods of the closed-loop specs (yield specs run
/// no loop and count zero).
std::uint64_t closed_loop_periods(const std::vector<ScenarioSpec>& specs);

/// Monte-Carlo dies of the yield specs.
std::uint64_t mc_dies(const std::vector<ScenarioSpec>& specs);

}  // namespace perfbench
