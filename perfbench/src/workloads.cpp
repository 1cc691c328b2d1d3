#include "workloads.h"

#include <cinttypes>
#include <cstdio>

#include "ddl/core/hash.h"
#include "ddl/scenario/registry.h"

namespace perfbench {
namespace {

using ddl::core::splitmix64_mix;

/// A nonzero per-spec seed drawn from (workload seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  const std::uint64_t mixed =
      splitmix64_mix(splitmix64_mix(seed ^ (stream << 32)) + index);
  return mixed == 0 ? 1 : mixed;
}

std::string hex8(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%08" PRIx64, value & 0xffffffffu);
  return text;
}

/// Re-seeds and renames `specs` in place; names stay unique because every
/// suite name is unique and the suffix only appends to it.
void reseed(std::vector<ScenarioSpec>& specs, std::uint64_t seed,
            std::uint64_t stream, const std::string& tag) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = derive_seed(seed, stream, i);
    specs[i].name += "/" + tag + "-" + hex8(specs[i].seed);
  }
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload workload : {Workload::kCliRegression, Workload::kCliYield,
                                  Workload::kDaemonMixed}) {
    if (name == workload_name(workload)) {
      return workload;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCliRegression:
      return "cli_regression";
    case Workload::kCliYield:
      return "cli_yield";
    case Workload::kDaemonMixed:
      return "daemon_mixed";
  }
  return "?";
}

std::vector<ScenarioSpec> regression_job(std::uint64_t seed) {
  std::vector<ScenarioSpec> specs =
      ddl::scenario::ScenarioRegistry::builtin().expand("regression");
  reseed(specs, seed, 1, "b");
  return specs;
}

std::vector<ScenarioSpec> yield_job(std::uint64_t seed, std::size_t replicas) {
  const std::vector<ScenarioSpec> family =
      ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  std::vector<ScenarioSpec> specs;
  specs.reserve(family.size() * replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    specs.insert(specs.end(), family.begin(), family.end());
  }
  reseed(specs, seed, 2, "y");
  return specs;
}

std::vector<ScenarioSpec> daemon_job(std::uint64_t seed, std::size_t client,
                                     std::size_t index) {
  const std::uint64_t stream = 3 + client;
  const std::string job = "daemon/c" + std::to_string(client) + "/j" +
                          std::to_string(index);

  // A short proposed-line regulation run (the server throughput bench's
  // shape): enough kernel work to be a real scenario, short enough that
  // framing, scheduling and persistence stay visible in its latency.
  ScenarioSpec loop;
  loop.name = job + "/loop";
  loop.family = "regulation";
  loop.seed = derive_seed(seed, stream, 3 * index);
  loop.load = ddl::scenario::LoadSpec::constant(0.4);
  loop.periods = 600;
  loop.measure_from = 400;
  loop.allow_limit_cycling = true;
  loop.tolerance_v = 0.05;

  // Two typical-corner yield scenarios: same kernel constants, different
  // seeds -- the coalescer packs them into one batched dispatch unit.
  static const ScenarioSpec yield = [] {
    for (ScenarioSpec& spec :
         ddl::scenario::ScenarioRegistry::builtin().expand("yield")) {
      if (spec.name == "yield/proposed/typical/inl-256die") {
        return spec;
      }
    }
    return ScenarioSpec{};
  }();
  ScenarioSpec yield_a = yield;
  yield_a.name = job + "/yield-a";
  yield_a.seed = derive_seed(seed, stream, 3 * index + 1);
  ScenarioSpec yield_b = yield;
  yield_b.name = job + "/yield-b";
  yield_b.seed = derive_seed(seed, stream, 3 * index + 2);
  return {loop, yield_a, yield_b};
}

std::uint64_t closed_loop_periods(const std::vector<ScenarioSpec>& specs) {
  std::uint64_t periods = 0;
  for (const ScenarioSpec& spec : specs) {
    if (spec.mc_dies == 0) {
      periods += spec.periods;
    }
  }
  return periods;
}

std::uint64_t mc_dies(const std::vector<ScenarioSpec>& specs) {
  std::uint64_t dies = 0;
  for (const ScenarioSpec& spec : specs) {
    dies += spec.mc_dies;
  }
  return dies;
}

}  // namespace perfbench
