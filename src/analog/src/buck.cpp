#include "ddl/analog/buck.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "buck_step.h"

namespace ddl::analog {

BuckConverter::BuckConverter(BuckParams params, double dt_s)
    : params_(params), dt_s_(dt_s) {
  if (dt_s <= 0.0 || params.inductance_h <= 0.0 || params.capacitance_f <= 0.0) {
    throw std::invalid_argument("BuckConverter: invalid parameters");
  }
}

double BuckConverter::output_voltage() const noexcept {
  // vout = vC + ESR * i_C; i_C = iL - i_load.
  return cap_v_ + params_.esr_ohm * (inductor_a_ - last_load_a_);
}

void BuckConverter::integrate(double seconds, SwitchState state,
                              double load_a) {
  last_load_a_ = load_a;
  const detail::BuckStepParams<double> params{
      params_.vin, params_.esr_ohm, params_.inductance_h,
      params_.capacitance_f};
  detail::BuckStepState<double> s{inductor_a_,      cap_v_,
                                  elapsed_s_,       last_vmin_,
                                  last_vmax_,       energy_.input_j,
                                  energy_.output_j, energy_.conduction_loss_j};
  // Conduction path of the interval: the high or low switch in series with
  // the inductor DCR, or the DCR alone while the body diode conducts.
  const bool dead = state == SwitchState::kDeadTime;
  const bool high = state == SwitchState::kHigh;
  double r_path = params_.r_inductor_ohm;
  if (high) {
    r_path += params_.r_on_high_ohm;
  } else if (!dead) {
    r_path += params_.r_on_low_ohm;
  }
  const double v_on = high ? params_.vin : 0.0;

  double remaining = seconds;
  while (remaining > 0.0) {
    const double dt = std::min(dt_s_, remaining);
    remaining -= dt;
    // Dead time: the low switch's body diode conducts while iL > 0.
    const double v_switch =
        dead ? (s.inductor_a > 0.0 ? -params_.diode_vf : 0.0) : v_on;
    const double input_current = high ? s.inductor_a : 0.0;
    detail::buck_midpoint_step(s, params, v_switch, r_path, input_current,
                               dead, dt, load_a);
  }

  inductor_a_ = s.inductor_a;
  cap_v_ = s.cap_v;
  elapsed_s_ = s.elapsed_s;
  last_vmin_ = s.vmin;
  last_vmax_ = s.vmax;
  energy_.input_j = s.input_j;
  energy_.output_j = s.output_j;
  energy_.conduction_loss_j = s.conduction_loss_j;
}

void BuckConverter::run_period(const dpwm::PwmPeriod& period, double load_a) {
  last_vmin_ = output_voltage();
  last_vmax_ = last_vmin_;
  const detail::PeriodIntervals intervals =
      detail::period_intervals(params_, period);
  integrate(intervals.high_s, SwitchState::kHigh, load_a);
  integrate(intervals.dead_s, SwitchState::kDeadTime, load_a);
  integrate(intervals.low_s, SwitchState::kLow, load_a);
  integrate(intervals.dead_s, SwitchState::kDeadTime, load_a);
  add_switching_loss();
}

void BuckConverter::add_switching_loss() {
  // Fixed per-cycle switching loss, drawn from the input rail (gate charge
  // and V/I overlap of the two switch transitions).
  energy_.input_j += params_.switch_energy_per_cycle_j;
  energy_.switching_loss_j += params_.switch_energy_per_cycle_j;
}

void BuckConverter::run_static(double seconds, bool high_on, double load_a) {
  last_vmin_ = output_voltage();
  last_vmax_ = last_vmin_;
  integrate(seconds, high_on ? SwitchState::kHigh : SwitchState::kLow, load_a);
}

void BuckConverter::reset() {
  inductor_a_ = 0.0;
  cap_v_ = 0.0;
  elapsed_s_ = 0.0;
  last_load_a_ = 0.0;
  last_vmin_ = 0.0;
  last_vmax_ = 0.0;
  energy_ = EnergyAccount{};
}

}  // namespace ddl::analog
