// Random per-instance delay mismatch (post-placement-and-route variation).
//
// Figures 50/51 of the thesis are measured after Automatic Placement and
// Routing, so each physical delay cell deviates slightly from its corner
// delay.  The thesis notes two consequences this module must reproduce:
//   * combining more buffers per delay cell (lower clock frequencies)
//     averages out random variation, improving linearity;
//   * careful placement improves matching (we expose that as a sigma knob).
#pragma once

#include <cstdint>
#include <random>

#include "ddl/cells/cell_kind.h"
#include "ddl/cells/operating_point.h"
#include "ddl/cells/technology.h"

namespace ddl::cells {

/// Deterministic sampler of per-instance cell delays.
///
/// Each call to `sample_delay_ps` draws an independent Gaussian multiplier
/// N(1, sigma) and applies it to the cell's corner delay; the same seed
/// always reproduces the same die.  Sigma defaults to the technology's
/// post-APR mismatch figure.
class MismatchSampler {
 public:
  /// `sigma_override < 0` keeps the technology's default sigma.
  explicit MismatchSampler(const Technology& tech, std::uint64_t seed,
                           double sigma_override = -1.0);

  /// One sampled instance delay at the given operating point.  Mismatch is
  /// multiplicative and clamped to [0.5, 1.5] nominal so a pathological draw
  /// can never produce a zero or negative delay.
  double sample_delay_ps(CellKind kind, const OperatingPoint& op);

  /// Samples the delay of a *compound* element made of `cells_in_series`
  /// identical cells in series, each independently mismatched.  This is the
  /// averaging effect: the relative sigma of the sum shrinks as
  /// 1/sqrt(cells_in_series).
  double sample_series_delay_ps(CellKind kind, const OperatingPoint& op,
                                std::size_t cells_in_series);

  double sigma() const noexcept { return sigma_; }

 private:
  /// One instance of a cell whose derated corner delay is `nominal_ps`.
  double draw(double nominal_ps);

  const Technology* tech_;
  std::mt19937_64 rng_;
  std::normal_distribution<double> unit_gauss_{0.0, 1.0};
  double sigma_;
};

}  // namespace ddl::cells
