// The complete digitally controlled buck converter of thesis Figure 15:
// plant -> window ADC -> PID compensator -> DPWM -> plant.  One period
// splits at the plant into begin_period (sample, compensate, modulate) and
// end_period (record), the per-period view of the loop that lets several
// independent loops share one plant step.
//
// The DPWM is injected through the dpwm::DpwmModel interface, so the same
// loop runs with the ideal counter DPWM, the hybrid, the proposed calibrated
// delay line, or the conventional one -- which is exactly the comparison the
// thesis motivates (DPWM time resolution becomes output-voltage resolution,
// Eqs 11/12).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ddl/analog/adc.h"
#include "ddl/analog/buck.h"
#include "ddl/control/pid.h"
#include "ddl/dpwm/behavioral.h"

namespace ddl::control {

/// Per-switching-period telemetry.
struct LoopSample {
  std::uint64_t period_index = 0;
  double vout = 0.0;          ///< Sampled at the end of the period.
  double ripple_v = 0.0;      ///< vmax - vmin within the period.
  int error_code = 0;
  std::uint64_t duty_word = 0;
  double load_a = 0.0;
};

/// What the pre-plant half of one period decided: the plant runs `pwm` at
/// `load_a`, and the post-plant half records the rest into the sample.
struct PeriodDrive {
  std::uint64_t period_index = 0;
  double load_a = 0.0;
  int error_code = 0;
  std::uint64_t duty_word = 0;
  dpwm::PwmPeriod pwm;
};

/// Summary statistics over a run (steady-state window).
struct LoopMetrics {
  double mean_vout = 0.0;
  double vout_stddev = 0.0;
  double max_ripple_v = 0.0;
  double mean_abs_error_v = 0.0;
  std::uint64_t distinct_duty_words = 0;  ///< > 2-3 suggests limit cycling.
  bool limit_cycling = false;
};

/// Load profile: current demanded at a given switching period.
using LoadProfile = std::function<double(std::uint64_t period_index)>;

/// Constant-load helper.
LoadProfile constant_load(double amps);

/// Step-load helper: `before` amps, then `after` amps from `at_period` on.
LoadProfile step_load(double before, double after, std::uint64_t at_period);

/// Ramp-load helper: `from` amps until `start_period`, then a linear ramp
/// to `to` amps at `end_period`, holding `to` afterwards.  A degenerate
/// ramp (`end_period <= start_period`) behaves like step_load.
LoadProfile ramp_load(double from, double to, std::uint64_t start_period,
                      std::uint64_t end_period);

/// Bursty (two-state Markov) load: `idle_a` amps with per-period
/// probability `p_burst` of entering a burst of `burst_a` amps, which ends
/// with per-period probability `p_idle`.  Deterministic for a given seed.
/// Models a processor workload for power-management studies.
LoadProfile markov_load(std::uint64_t seed, double idle_a, double burst_a,
                        double p_burst = 0.01, double p_idle = 0.05);

class DigitallyControlledBuck {
 public:
  /// The DPWM model is borrowed (caller keeps ownership and may inspect its
  /// calibration state between runs).
  DigitallyControlledBuck(analog::BuckConverter plant, analog::WindowAdc adc,
                          PidController pid, dpwm::DpwmModel& dpwm);

  /// Runs `periods` switching periods against the load profile, recording
  /// one LoopSample each: begin_period, plant().run_period, end_period.
  void run(std::uint64_t periods, const LoadProfile& load);

  /// The loop split at the plant, so a caller can run the power stage
  /// itself -- alone or in a lane beside other loops' plants
  /// (analog::BuckLanes).  begin_period is the pre-plant half of the next
  /// period: it draws the period's load, samples the previous period's
  /// output, updates the PID and generates the PWM period.  The caller then
  /// runs plant() through `drive.pwm` at `drive.load_a`, and end_period
  /// (the post-plant half) records the sample and calls the observer.
  PeriodDrive begin_period(const LoadProfile& load);
  void end_period(const PeriodDrive& drive);

  const std::vector<LoopSample>& history() const noexcept { return history_; }
  /// Pre-sizes the history for a run of known length.
  void reserve_history(std::size_t periods) { history_.reserve(periods); }
  /// Moves the history out; metrics and settling then see an empty run.
  std::vector<LoopSample> take_history() noexcept {
    return std::move(history_);
  }
  const analog::BuckConverter& plant() const noexcept { return plant_; }
  analog::BuckConverter& plant() noexcept { return plant_; }

  /// Metrics over history periods [from, to).
  LoopMetrics metrics(std::uint64_t from, std::uint64_t to) const;

  /// First period index where |verr| stayed within `band_v` for
  /// `hold_periods` consecutive periods; returns ~0ULL if never settled.
  std::uint64_t settling_period(double band_v,
                                std::uint64_t hold_periods = 20) const;

  /// Changes the regulation target (DVFS mode change); takes effect on the
  /// next period's ADC sample.
  void set_reference_v(double vref);
  double reference_v() const noexcept { return adc_.params().vref; }

  /// Observer called once per period with the sample just recorded (after
  /// the plant ran the period).  A lock supervisor hooks its duty-error
  /// watchdog here; replaces any previous observer, empty disables.
  using SampleObserver = std::function<void(const LoopSample&)>;
  void set_sample_observer(SampleObserver observer);

 private:
  analog::BuckConverter plant_;
  analog::WindowAdc adc_;
  PidController pid_;
  dpwm::DpwmModel* dpwm_;
  std::vector<LoopSample> history_;
  std::uint64_t next_period_index_ = 0;
  SampleObserver observer_;
};

}  // namespace ddl::control
