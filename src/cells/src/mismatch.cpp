#include "ddl/cells/mismatch.h"

#include <algorithm>

namespace ddl::cells {

MismatchSampler::MismatchSampler(const Technology& tech, std::uint64_t seed,
                                 double sigma_override)
    : tech_(&tech),
      rng_(seed),
      sigma_(sigma_override >= 0.0 ? sigma_override : tech.mismatch_sigma()) {}

double MismatchSampler::draw(double nominal_ps) {
  const double multiplier =
      std::clamp(1.0 + sigma_ * unit_gauss_(rng_), 0.5, 1.5);
  return nominal_ps * multiplier;
}

double MismatchSampler::sample_delay_ps(CellKind kind,
                                        const OperatingPoint& op) {
  return draw(tech_->delay_ps(kind, op));
}

double MismatchSampler::sample_series_delay_ps(CellKind kind,
                                               const OperatingPoint& op,
                                               std::size_t cells_in_series) {
  // The derated corner delay is a pure function of (kind, op), so one
  // evaluation serves every buffer with the same bits.
  const double nominal = tech_->delay_ps(kind, op);
  double total = 0.0;
  for (std::size_t i = 0; i < cells_in_series; ++i) {
    total += draw(nominal);
  }
  return total;
}

}  // namespace ddl::cells
