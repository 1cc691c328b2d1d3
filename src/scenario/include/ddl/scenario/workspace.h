// Per-worker scenario workspace: an arena of derived, immutable artifacts
// that every attempt of every scenario on a worker would otherwise
// recompute from scratch.
//
// The expensive prefix of a scenario run is pure sizing arithmetic: the
// DesignCalculator walk from (architecture, clock, resolution) to a line
// configuration, repeated once inside validate() (fault victims are range
// checked against the sized line) and again inside the runner's build
// path -- per attempt, including every sandbox retry of the same spec.
// A campaign suite draws from a handful of architecture fingerprints, so
// one worker-local cache keyed by those fingerprints collapses all of it
// to a map lookup after the first scenario.
//
// Determinism: sizing is a pure function of the key, so a cached entry is
// byte-identical to recomputing -- including the *failure* case.  An
// infeasible sizing memoizes the exception's what() text; the runner
// rethrows it as std::runtime_error with the same message, so guarded
// error rows do not depend on whether the cache was warm.
//
// Threading: a workspace is single-owner state (one worker at a time, like
// the mc_batch BatchWorkspace): each ScenarioExecutor, sandbox child and
// runner shard owns its own.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "ddl/analysis/mc_batch.h"
#include "ddl/cells/technology.h"
#include "ddl/core/conventional_line.h"
#include "ddl/core/proposed_line.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {

class ScenarioWorkspace {
 public:
  /// Everything sizing derives for one architecture fingerprint.
  struct Sizing {
    bool feasible = true;
    /// what() of the sizing exception when !feasible, frozen so rethrown
    /// error rows are byte-identical to the uncached path.
    std::string error;
    /// Delay-line cells of the sized architecture (what fault victims
    /// validate against); 0 for the counter baseline and when infeasible.
    std::size_t line_cells = 0;
    core::ProposedLineConfig proposed_line{};  ///< Proposed and hybrid.
    core::ConventionalLineConfig conventional_line{};
    /// The batched-MC statistical model of the proposed line (the
    /// MC-yield path's kernel input).
    analysis::BatchLineSpec batch_line{};
  };

  /// The (cached) sizing for `spec`'s architecture fingerprint:
  /// (architecture, clock_mhz, resolution_bits, counter_bits).  Never
  /// throws; infeasible sizing comes back as feasible=false.  The returned
  /// reference stays valid for the workspace's lifetime.
  const Sizing& sizing_for(const ScenarioSpec& spec);

  const cells::Technology& technology() const noexcept { return tech_; }

 private:
  /// Doubles keyed by bit pattern: the cache must distinguish exactly the
  /// inputs sizing distinguishes, nothing coarser.
  using Key = std::tuple<int, std::uint64_t, int, int>;

  cells::Technology tech_ = cells::Technology::i32nm_class();
  std::map<Key, Sizing> cache_;
};

}  // namespace ddl::scenario
