#include "ddl/control/closed_loop.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>

namespace ddl::control {

LoadProfile constant_load(double amps) {
  return [amps](std::uint64_t) { return amps; };
}

LoadProfile step_load(double before, double after, std::uint64_t at_period) {
  return [before, after, at_period](std::uint64_t period) {
    return period < at_period ? before : after;
  };
}

LoadProfile ramp_load(double from, double to, std::uint64_t start_period,
                      std::uint64_t end_period) {
  if (end_period <= start_period) {
    return step_load(from, to, start_period);
  }
  return [=](std::uint64_t period) {
    if (period <= start_period) {
      return from;
    }
    if (period >= end_period) {
      return to;
    }
    const double fraction = static_cast<double>(period - start_period) /
                            static_cast<double>(end_period - start_period);
    return from + (to - from) * fraction;
  };
}

LoadProfile markov_load(std::uint64_t seed, double idle_a, double burst_a,
                        double p_burst, double p_idle) {
  // State advances with the period index; the profile may be re-evaluated
  // for the same period, so state is cached per call index.
  auto state = std::make_shared<std::pair<std::uint64_t, bool>>(0, false);
  auto rng = std::make_shared<std::mt19937_64>(seed);
  return [=](std::uint64_t period) {
    auto& [next_period, bursting] = *state;
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    while (next_period <= period) {
      bursting = bursting ? uniform(*rng) >= p_idle
                          : uniform(*rng) < p_burst;
      ++next_period;
    }
    return bursting ? burst_a : idle_a;
  };
}

DigitallyControlledBuck::DigitallyControlledBuck(analog::BuckConverter plant,
                                                 analog::WindowAdc adc,
                                                 PidController pid,
                                                 dpwm::DpwmModel& dpwm)
    : plant_(std::move(plant)),
      adc_(std::move(adc)),
      pid_(std::move(pid)),
      dpwm_(&dpwm) {}

void DigitallyControlledBuck::run(std::uint64_t periods,
                                  const LoadProfile& load) {
  for (std::uint64_t i = 0; i < periods; ++i) {
    const PeriodDrive drive = begin_period(load);
    plant_.run_period(drive.pwm, drive.load_a);
    end_period(drive);
  }
}

PeriodDrive DigitallyControlledBuck::begin_period(const LoadProfile& load) {
  PeriodDrive drive;
  drive.period_index = next_period_index_++;
  drive.load_a = load(drive.period_index);

  // Sample -> quantize -> compensate: the duty word for *this* period is
  // computed from the previous period's output (one-cycle loop latency,
  // as in real digital controllers).
  drive.error_code = adc_.sample(plant_.output_voltage());
  drive.duty_word = pid_.update(drive.error_code);

  // Modulate: the PWM period the power stage runs next.
  drive.pwm = dpwm_->generate(
      static_cast<sim::Time>(drive.period_index) * dpwm_->period_ps(),
      drive.duty_word);
  return drive;
}

void DigitallyControlledBuck::end_period(const PeriodDrive& drive) {
  LoopSample sample;
  sample.period_index = drive.period_index;
  sample.vout = plant_.output_voltage();
  sample.ripple_v = plant_.last_period_vmax() - plant_.last_period_vmin();
  sample.error_code = drive.error_code;
  sample.duty_word = drive.duty_word;
  sample.load_a = drive.load_a;
  history_.push_back(sample);
  if (observer_) {
    observer_(history_.back());
  }
}

void DigitallyControlledBuck::set_sample_observer(SampleObserver observer) {
  observer_ = std::move(observer);
}

LoopMetrics DigitallyControlledBuck::metrics(std::uint64_t from,
                                             std::uint64_t to) const {
  LoopMetrics m;
  to = std::min<std::uint64_t>(to, history_.size());
  if (from >= to) {
    return m;
  }
  const double vref = adc_.params().vref;
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_abs_err = 0.0;
  std::set<std::uint64_t> duty_words;
  for (std::uint64_t i = from; i < to; ++i) {
    const LoopSample& s = history_[i];
    sum += s.vout;
    sum_sq += s.vout * s.vout;
    sum_abs_err += std::abs(s.vout - vref);
    m.max_ripple_v = std::max(m.max_ripple_v, s.ripple_v);
    duty_words.insert(s.duty_word);
  }
  const double n = static_cast<double>(to - from);
  m.mean_vout = sum / n;
  const double variance = std::max(0.0, sum_sq / n - m.mean_vout * m.mean_vout);
  m.vout_stddev = std::sqrt(variance);
  m.mean_abs_error_v = sum_abs_err / n;
  m.distinct_duty_words = duty_words.size();
  // Steady state should sit on at most two adjacent duty words; more means
  // the loop is hunting (limit cycle from DPWM resolution coarser than the
  // ADC window).
  m.limit_cycling = m.distinct_duty_words > 3;
  return m;
}

void DigitallyControlledBuck::set_reference_v(double vref) {
  analog::WindowAdcParams params = adc_.params();
  params.vref = vref;
  adc_ = analog::WindowAdc(params);
}

std::uint64_t DigitallyControlledBuck::settling_period(
    double band_v, std::uint64_t hold_periods) const {
  const double vref = adc_.params().vref;
  std::uint64_t consecutive = 0;
  for (std::uint64_t i = 0; i < history_.size(); ++i) {
    if (std::abs(history_[i].vout - vref) <= band_v) {
      if (++consecutive >= hold_periods) {
        return i + 1 - hold_periods;
      }
    } else {
      consecutive = 0;
    }
  }
  return ~std::uint64_t{0};
}

}  // namespace ddl::control
