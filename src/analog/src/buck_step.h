// The power stage's explicit-midpoint step, written once over the lane
// value type: BuckConverter::integrate instantiates it on double, the lane
// kernel (buck_lanes_body.inc) on an 8-lane vector.  Every operation is a
// plain IEEE add, multiply, divide, compare or select in one fixed order,
// so each lane's doubles are bit-identical to the scalar plant's -- as
// long as the including TU does not contract multiply-adds
// (-ffp-contract=off, see CMakeLists.txt).
#pragma once

#include <algorithm>

#include "ddl/analog/buck.h"
#include "ddl/sim/time.h"

namespace ddl::analog::detail {

/// The plant state one step advances (one value per lane).
template <typename V>
struct BuckStepState {
  V inductor_a;
  V cap_v;
  V elapsed_s;
  V vmin;  ///< Ripple window of the running period.
  V vmax;
  V input_j;
  V output_j;
  V conduction_loss_j;
};

/// The per-plant constants the step reads.
template <typename V>
struct BuckStepParams {
  V vin;
  V esr_ohm;
  V inductance_h;
  V capacitance_f;
};

/// One explicit-midpoint step of `dt` with the switch node at `v_switch`
/// behind `r_path`.  `input_current` is the current drawn from the input
/// rail; `dead` marks the dead time, where only the body diode conducts and
/// the inductor current cannot go negative.
template <typename V, typename Mask>
inline void buck_midpoint_step(BuckStepState<V>& s, const BuckStepParams<V>& p,
                               const V& v_switch, const V& r_path,
                               const V& input_current, const Mask& dead,
                               const V& dt, const V& load_a) {
  const V vout = s.cap_v + p.esr_ohm * (s.inductor_a - load_a);
  const V di1 = (v_switch - vout - r_path * s.inductor_a) / p.inductance_h;
  const V dv1 = (s.inductor_a - load_a) / p.capacitance_f;
  const V i_mid = s.inductor_a + 0.5 * dt * di1;
  const V v_mid = s.cap_v + 0.5 * dt * dv1;
  const V vout_mid = v_mid + p.esr_ohm * (i_mid - load_a);
  const V di2 = (v_switch - vout_mid - r_path * i_mid) / p.inductance_h;
  const V dv2 = (i_mid - load_a) / p.capacitance_f;
  V inductor_a = s.inductor_a + dt * di2;
  s.cap_v = s.cap_v + dt * dv2;
  // Synchronous converters allow negative inductor current; the body
  // diode path does not.
  inductor_a = (dead & (inductor_a < 0.0)) ? V{} : inductor_a;
  s.inductor_a = inductor_a;

  // Energy bookkeeping (Eqs 1-2) and the ripple window.
  const V vload = s.cap_v + p.esr_ohm * (inductor_a - load_a);
  s.input_j = s.input_j + p.vin * input_current * dt;
  s.output_j = s.output_j + vload * load_a * dt;
  s.conduction_loss_j =
      s.conduction_loss_j + inductor_a * inductor_a * r_path * dt;
  s.vmin = vload < s.vmin ? vload : s.vmin;
  s.vmax = s.vmax < vload ? vload : s.vmax;
  s.elapsed_s = s.elapsed_s + dt;
}

/// The switch intervals of one PWM period, in the order the plant runs
/// them: high (its on-time minus one dead time), dead, low, dead.
struct PeriodIntervals {
  double high_s = 0.0;
  double dead_s = 0.0;
  double low_s = 0.0;
};

inline PeriodIntervals period_intervals(const BuckParams& params,
                                        const dpwm::PwmPeriod& period) {
  PeriodIntervals intervals;
  intervals.dead_s = params.dead_time_ps * 1e-12;
  intervals.high_s =
      std::max(0.0, sim::to_ps(period.high_ps) * 1e-12 - intervals.dead_s);
  const double total_s = sim::to_ps(period.period_ps) * 1e-12;
  intervals.low_s =
      std::max(0.0, total_s - intervals.high_s - 2.0 * intervals.dead_s);
  return intervals;
}

/// Structure-of-arrays block the lane kernels step: gathered from up to
/// kBuckLanes plants, stepped through one period, scattered back.  Unused
/// lanes hold a copy of lane 0 and stay inactive.
struct BuckLaneBlock {
  // State, in and out.
  double inductor_a[kBuckLanes];
  double cap_v[kBuckLanes];
  double elapsed_s[kBuckLanes];
  double vmin[kBuckLanes];
  double vmax[kBuckLanes];
  double input_j[kBuckLanes];
  double output_j[kBuckLanes];
  double conduction_loss_j[kBuckLanes];
  // Constants of the period.
  double vin[kBuckLanes];
  double esr_ohm[kBuckLanes];
  double inductance_h[kBuckLanes];
  double capacitance_f[kBuckLanes];
  double diode_vf[kBuckLanes];
  double dt_s[kBuckLanes];
  double load_a[kBuckLanes];
  double r_high[kBuckLanes];  ///< Inductor DCR + high-side switch.
  double r_low[kBuckLanes];   ///< Inductor DCR + low-side switch.
  double r_dead[kBuckLanes];  ///< Inductor DCR alone (body diode).
  /// Interval lengths in run order: high, dead, low, dead.
  double seconds[4][kBuckLanes];
  std::size_t lanes = 0;  ///< Lanes in use, from lane 0.
};

using BuckLaneKernel = void (*)(BuckLaneBlock& block);

namespace lanes_base {
void step_period(BuckLaneBlock& block);
}  // namespace lanes_base

#if defined(DDL_BUCK_LANES_HAS_AVX2)
namespace lanes_avx2 {
void step_period(BuckLaneBlock& block);
}  // namespace lanes_avx2
#endif

}  // namespace ddl::analog::detail
