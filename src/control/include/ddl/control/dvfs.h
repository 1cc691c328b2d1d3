// Dynamic voltage scaling on top of the closed loop -- the thesis's
// motivating use case (section 1.2: circuits with "a normal operation mode
// and a power saving mode", each needing its own supply value; intro ref
// [14]: fast per-core DVFS through on-chip regulators).
//
// A VoltageModeManager walks the loop through a schedule of reference-
// voltage changes and reports per-transition settling metrics.  Both
// halves also stand alone: apply_due is the per-period mode change (for a
// caller that drives the loop one period at a time) and measure turns a
// finished run's history into the transition reports.
#pragma once

#include <cstdint>
#include <vector>

#include "ddl/control/closed_loop.h"

namespace ddl::control {

/// One scheduled operating mode.
struct VoltageMode {
  std::uint64_t at_period = 0;  ///< Switching period the mode takes effect.
  double vref_v = 1.0;          ///< Regulation target for the mode.
};

/// Outcome of one mode transition.
struct TransitionReport {
  VoltageMode mode;
  std::uint64_t settle_periods = 0;  ///< Periods to enter/hold the band.
  double overshoot_v = 0.0;          ///< Worst excursion beyond the target.
  bool settled = false;
};

/// Runs a closed loop through a voltage-mode schedule.
class VoltageModeManager {
 public:
  /// `band_v`: settling band around each target; `hold_periods`: how long
  /// the output must stay inside the band to count as settled.
  VoltageModeManager(std::vector<VoltageMode> schedule, double band_v = 0.02,
                     std::uint64_t hold_periods = 20);

  /// Runs `total_periods` of the loop, applying each mode at its period and
  /// measuring the transition.  Modes must be sorted by at_period.  A mode
  /// at or past `total_periods` extends the run to its period and applies
  /// after it (and measures as an empty, unsettled transition).
  std::vector<TransitionReport> run(DigitallyControlledBuck& loop,
                                    std::uint64_t total_periods,
                                    const LoadProfile& load);

  /// The per-period step of run(): sets the loop's reference for every mode
  /// due at `period` (counted from the run's first period), starting at
  /// schedule index `next`.  Call it before each period's begin_period;
  /// returns the index of the first mode still ahead.
  std::size_t apply_due(DigitallyControlledBuck& loop, std::uint64_t period,
                        std::size_t next) const;

  /// The transition reports of a finished run whose first period is
  /// `history[base]`, that started at reference `initial_vref_v` and
  /// lasted `total_periods`: mode i is measured over [its at_period, the
  /// next mode's at_period or total_periods).
  std::vector<TransitionReport> measure(const std::vector<LoopSample>& history,
                                        std::size_t base,
                                        double initial_vref_v,
                                        std::uint64_t total_periods) const;

  const std::vector<VoltageMode>& schedule() const noexcept {
    return schedule_;
  }

 private:
  std::vector<VoltageMode> schedule_;
  double band_v_;
  std::uint64_t hold_periods_;
};

}  // namespace ddl::control
