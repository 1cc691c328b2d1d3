#include "ddl/control/dvfs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ddl::control {

VoltageModeManager::VoltageModeManager(std::vector<VoltageMode> schedule,
                                       double band_v,
                                       std::uint64_t hold_periods)
    : schedule_(std::move(schedule)),
      band_v_(band_v),
      hold_periods_(hold_periods) {
  if (!std::is_sorted(schedule_.begin(), schedule_.end(),
                      [](const VoltageMode& a, const VoltageMode& b) {
                        return a.at_period < b.at_period;
                      })) {
    throw std::invalid_argument(
        "VoltageModeManager: schedule must be sorted by at_period");
  }
}

std::vector<TransitionReport> VoltageModeManager::run(
    DigitallyControlledBuck& loop, std::uint64_t total_periods,
    const LoadProfile& load) {
  const std::size_t base = loop.history().size();
  const double initial_vref = loop.reference_v();
  std::size_t next = 0;
  for (std::uint64_t period = 0;; ++period) {
    next = apply_due(loop, period, next);
    if (period >= total_periods && next == schedule_.size()) {
      break;
    }
    loop.run(1, load);
  }
  return measure(loop.history(), base, initial_vref, total_periods);
}

std::size_t VoltageModeManager::apply_due(DigitallyControlledBuck& loop,
                                          std::uint64_t period,
                                          std::size_t next) const {
  while (next < schedule_.size() && schedule_[next].at_period <= period) {
    loop.set_reference_v(schedule_[next].vref_v);
    ++next;
  }
  return next;
}

std::vector<TransitionReport> VoltageModeManager::measure(
    const std::vector<LoopSample>& history, std::size_t base,
    double initial_vref_v, std::uint64_t total_periods) const {
  std::vector<TransitionReport> reports;
  reports.reserve(schedule_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const VoltageMode& mode = schedule_[i];
    const double previous_vref =
        i == 0 ? initial_vref_v : schedule_[i - 1].vref_v;
    const std::uint64_t until = i + 1 < schedule_.size()
                                    ? schedule_[i + 1].at_period
                                    : total_periods;

    // Measure the transition over [at_period, until).
    TransitionReport report;
    report.mode = mode;
    const double direction = mode.vref_v - previous_vref;
    std::uint64_t consecutive = 0;
    for (std::uint64_t p = mode.at_period; p < until; ++p) {
      const double vout = history[base + p].vout;
      const double excursion =
          direction >= 0.0 ? vout - mode.vref_v : mode.vref_v - vout;
      report.overshoot_v = std::max(report.overshoot_v, excursion);
      if (std::abs(vout - mode.vref_v) <= band_v_) {
        if (++consecutive >= hold_periods_ && !report.settled) {
          report.settled = true;
          report.settle_periods = p + 1 - hold_periods_ - mode.at_period;
        }
      } else if (!report.settled) {
        consecutive = 0;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace ddl::control
