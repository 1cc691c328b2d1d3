// Statistical (yield-aware) delay-line sizing -- the thesis's future work
// (section 5.2) made concrete.
//
// The worst-case design rule sizes the proposed line for the fastest corner,
// over-provisioning cells that most dies never use.  If the per-die corner
// is instead a *distribution*, the designer can trade cells for yield: for
// each candidate cell count, estimate the fraction of dies whose full-line
// delay still covers one clock period.
#pragma once

#include <cstdint>
#include <vector>

#include "ddl/cells/technology.h"
#include "ddl/core/proposed_line.h"

namespace ddl::analysis {

/// Distribution of per-die process speed: the process delay factor is drawn
/// from N(mean_factor, sigma_factor), truncated to [fast, slow] corner
/// factors (0.5 .. 2.0 for the default library).
struct ProcessDistribution {
  double mean_factor = 1.0;
  double sigma_factor = 0.25;
};

/// One row of the yield-vs-cells tradeoff table.
struct YieldPoint {
  std::size_t num_cells = 0;
  double yield = 0.0;           ///< Fraction of dies that can lock.
  double area_um2 = 0.0;        ///< Line-only area at this cell count.
};

/// Sweeps candidate cell counts (powers of two between `min_cells` and
/// `max_cells`) and estimates lock yield for each over `trials` dies on
/// the batched Monte-Carlo engine (monte_carlo_yield_batched, mc_batch.h):
/// a die passes when its typical-corner full-line delay times its process
/// factor covers the clock period.  Every die -- its per-cell mismatch and
/// its process factor -- comes from the counter-based sampler, seeded by
/// (`base_seed` ^ cell count, die index), so the table is deterministic
/// and bit-identical for any thread count (0 = default pool) and kernel
/// variant.
std::vector<YieldPoint> yield_vs_cells(
    const cells::Technology& tech, const core::ProposedLineConfig& base_config,
    double clock_period_ps, const ProcessDistribution& process,
    std::size_t min_cells, std::size_t max_cells, std::size_t trials,
    std::uint64_t base_seed, std::size_t threads = 0);

/// Smallest cell count in the sweep meeting `target_yield`, or 0 if none.
std::size_t cells_for_yield(const std::vector<YieldPoint>& sweep,
                            double target_yield);

}  // namespace ddl::analysis
