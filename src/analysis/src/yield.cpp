#include "ddl/analysis/yield.h"

#include "ddl/analysis/mc_batch.h"
#include "ddl/cells/operating_point.h"

namespace ddl::analysis {

std::vector<YieldPoint> yield_vs_cells(
    const cells::Technology& tech, const core::ProposedLineConfig& base_config,
    double clock_period_ps, const ProcessDistribution& process,
    std::size_t min_cells, std::size_t max_cells, std::size_t trials,
    std::uint64_t base_seed, std::size_t threads) {
  std::vector<YieldPoint> sweep;
  const double fast_factor =
      cells::process_delay_factor(cells::ProcessCorner::kFast);
  const double slow_factor =
      cells::process_delay_factor(cells::ProcessCorner::kSlow);

  for (std::size_t cells_n = min_cells; cells_n <= max_cells; cells_n *= 2) {
    core::ProposedLineConfig config = base_config;
    config.num_cells = cells_n;

    // The full line at the die's speed (nominal V/T) must cover the clock
    // period -- equivalently, half the line covers half the period, the
    // proposed controller's lock condition.
    BatchYieldSpec spec;
    spec.line = BatchLineSpec::from_technology(tech, config);
    spec.clock_period_ps = clock_period_ps;
    spec.factor_mean = process.mean_factor;
    spec.factor_sigma = process.sigma_factor;
    spec.factor_min = fast_factor;
    spec.factor_max = slow_factor;
    const double yield =
        monte_carlo_yield_batched(spec, trials, base_seed ^ cells_n, threads);

    YieldPoint point;
    point.num_cells = cells_n;
    point.yield = yield;
    point.area_um2 = static_cast<double>(cells_n) *
                     static_cast<double>(config.buffers_per_cell) *
                     tech.area_um2(cells::CellKind::kBuffer);
    sweep.push_back(point);
  }
  return sweep;
}

std::size_t cells_for_yield(const std::vector<YieldPoint>& sweep,
                            double target_yield) {
  for (const YieldPoint& point : sweep) {
    if (point.yield >= target_yield) {
      return point.num_cells;
    }
  }
  return 0;
}

}  // namespace ddl::analysis
