// Synchronous buck-converter power stage (thesis Figures 10-13, 15).
//
// A fixed-step ODE model of the converter "body": two switches with
// on-resistance chop the input voltage onto an LC low-pass filter with ESR,
// feeding a current load.  It integrates fine-grained within each PWM period
// so the DPWM's picosecond-level duty resolution is what actually sets the
// average output voltage (Eq 11) -- the whole point of the delay line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ddl/dpwm/behavioral.h"
#include "ddl/sim/time.h"

namespace ddl::analog {

/// Electrical parameters of the power stage.  Defaults model a small
/// on/near-chip point-of-load converter in the style of the thesis's design
/// targets (Vg ~ input rail, ~1 MHz-class switching).
struct BuckParams {
  double vin = 3.0;          ///< Unregulated input Vg, volts.
  double inductance_h = 4.7e-6;
  double capacitance_f = 22e-6;
  double esr_ohm = 5e-3;     ///< Output capacitor ESR.
  double r_on_high_ohm = 30e-3;  ///< High-side switch on-resistance.
  double r_on_low_ohm = 25e-3;   ///< Low-side (sync) switch on-resistance.
  double r_inductor_ohm = 10e-3; ///< Inductor DCR.
  double dead_time_ps = 2000.0;  ///< Both-off interval at each edge; the
                                 ///< body diode conducts (vf below).
  double diode_vf = 0.6;
  /// Switching (gate-charge + V/I overlap) energy dissipated per switching
  /// period, drawn from the input rail.  This is the loss term behind the
  /// thesis's "direct tradeoff between the switching frequencies ... and
  /// their power conversion efficiency" (section 1.3.2): P_sw = E_sw x f_sw
  /// grows with frequency while conduction losses do not.
  double switch_energy_per_cycle_j = 8e-9;
};

/// Energy bookkeeping for efficiency measurement (Eqs 1-2).
struct EnergyAccount {
  double input_j = 0.0;
  double output_j = 0.0;
  double conduction_loss_j = 0.0;
  double switching_loss_j = 0.0;

  double efficiency() const noexcept {
    return input_j > 0.0 ? output_j / input_j : 0.0;
  }
  double power_loss_w(double elapsed_s) const noexcept {
    return elapsed_s > 0.0 ? (input_j - output_j) / elapsed_s : 0.0;
  }
};

/// Plants the closed-loop lane kernel steps at once (BuckLanes).
inline constexpr std::size_t kBuckLanes = 8;

namespace detail {
struct BuckLaneBlock;
}  // namespace detail

/// The converter state machine.  Deterministic fixed-step trapezoidal-ish
/// integration (explicit midpoint) with a default step of 1 ns.  The step
/// arithmetic is written once (src/buck_step.h) and shared with BuckLanes,
/// which steps up to kBuckLanes plants together; both build with
/// -ffp-contract=off, so a plant stepped in a lane ends every period
/// bit-identical to the same plant stepped by run_period.
class BuckConverter {
 public:
  explicit BuckConverter(BuckParams params, double dt_s = 1e-9);

  /// Runs the plant through one PWM period: high switch on for
  /// `period.high_ps`, low switch for the remainder (minus dead times).
  /// `load_a` is the load current drawn throughout.
  void run_period(const dpwm::PwmPeriod& period, double load_a);

  /// Runs `seconds` with the switch node held (high_on ? vin : 0); start-up
  /// and failure-mode tests use this.
  void run_static(double seconds, bool high_on, double load_a);

  double output_voltage() const noexcept;
  double inductor_current_a() const noexcept { return inductor_a_; }
  double capacitor_voltage() const noexcept { return cap_v_; }
  double elapsed_s() const noexcept { return elapsed_s_; }
  const BuckParams& params() const noexcept { return params_; }
  const EnergyAccount& energy() const noexcept { return energy_; }

  /// Min/max output voltage seen during the most recent run_period call --
  /// the per-period ripple window.
  double last_period_vmin() const noexcept { return last_vmin_; }
  double last_period_vmax() const noexcept { return last_vmax_; }

  /// Resets state (hot restart keeps parameters).
  void reset();

 private:
  friend class BuckLanes;

  enum class SwitchState { kHigh, kLow, kDeadTime };
  void integrate(double seconds, SwitchState state, double load_a);
  /// The fixed per-cycle switching loss every period ends with.
  void add_switching_loss();

  BuckParams params_;
  double dt_s_;
  double inductor_a_ = 0.0;
  double cap_v_ = 0.0;
  double elapsed_s_ = 0.0;
  double last_load_a_ = 0.0;
  double last_vmin_ = 0.0;
  double last_vmax_ = 0.0;
  EnergyAccount energy_;
};

/// The closed-loop lane kernel: steps up to kBuckLanes independent plants
/// through one PWM period each as one SIMD kernel.  State stays in each
/// BuckConverter (gathered into lanes, stepped, scattered back), so a plant
/// may join or leave at any period boundary.  Each lane follows its own
/// interval schedule -- its own duty, load and parameters -- and ends the
/// period bit-identical to `plant.run_period(period, load)`.  Two variants
/// share one source: AVX2 when the CPU has it, else the portable base
/// kernel; DDL_MC_BATCH_KERNEL=base, the batched Monte-Carlo engine's cap,
/// forces base here too.
class BuckLanes {
 public:
  /// Picks the variant (reads DDL_MC_BATCH_KERNEL and cpuid once).
  BuckLanes();

  /// Runs plants[k] through periods[k] at loads[k].  1..kBuckLanes
  /// distinct plants with one period and one load each;
  /// std::invalid_argument otherwise.
  void run_period(std::span<BuckConverter* const> plants,
                  std::span<const dpwm::PwmPeriod> periods,
                  std::span<const double> loads) const;

  /// "avx2" or "base".
  const char* variant() const noexcept { return variant_; }

 private:
  void (*kernel_)(detail::BuckLaneBlock& block);
  const char* variant_;
};

}  // namespace ddl::analog
