// BuckLanes: variant dispatch plus the gather and scatter between
// BuckConverter objects and the kernels' structure-of-arrays block.
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "buck_step.h"
#include "ddl/analog/buck.h"

namespace ddl::analog {

BuckLanes::BuckLanes()
    : kernel_(&detail::lanes_base::step_period), variant_("base") {
#if defined(DDL_BUCK_LANES_HAS_AVX2)
  // The batched Monte-Carlo engine's cap also caps this kernel.
  const char* cap = std::getenv("DDL_MC_BATCH_KERNEL");
  if ((cap == nullptr || std::string_view(cap) != "base") &&
      __builtin_cpu_supports("avx2")) {
    kernel_ = &detail::lanes_avx2::step_period;
    variant_ = "avx2";
  }
#endif
}

void BuckLanes::run_period(std::span<BuckConverter* const> plants,
                           std::span<const dpwm::PwmPeriod> periods,
                           std::span<const double> loads) const {
  const std::size_t lanes = plants.size();
  if (lanes == 0 || lanes > kBuckLanes || periods.size() != lanes ||
      loads.size() != lanes) {
    throw std::invalid_argument(
        "BuckLanes: need 1..kBuckLanes plants with one period and load each");
  }
  detail::BuckLaneBlock block;
  block.lanes = lanes;
  for (std::size_t slot = 0; slot < kBuckLanes; ++slot) {
    const std::size_t lane = slot < lanes ? slot : 0;
    const BuckConverter& plant = *plants[lane];
    const BuckParams& params = plant.params_;
    block.inductor_a[slot] = plant.inductor_a_;
    block.cap_v[slot] = plant.cap_v_;
    block.elapsed_s[slot] = plant.elapsed_s_;
    // run_period opens the ripple window at the output voltage under the
    // previous period's load.
    block.vmin[slot] = plant.output_voltage();
    block.vmax[slot] = block.vmin[slot];
    block.input_j[slot] = plant.energy_.input_j;
    block.output_j[slot] = plant.energy_.output_j;
    block.conduction_loss_j[slot] = plant.energy_.conduction_loss_j;
    block.vin[slot] = params.vin;
    block.esr_ohm[slot] = params.esr_ohm;
    block.inductance_h[slot] = params.inductance_h;
    block.capacitance_f[slot] = params.capacitance_f;
    block.diode_vf[slot] = params.diode_vf;
    block.dt_s[slot] = plant.dt_s_;
    block.load_a[slot] = loads[lane];
    block.r_high[slot] = params.r_inductor_ohm + params.r_on_high_ohm;
    block.r_low[slot] = params.r_inductor_ohm + params.r_on_low_ohm;
    block.r_dead[slot] = params.r_inductor_ohm;
    const detail::PeriodIntervals intervals =
        detail::period_intervals(params, periods[lane]);
    block.seconds[0][slot] = intervals.high_s;
    block.seconds[1][slot] = intervals.dead_s;
    block.seconds[2][slot] = intervals.low_s;
    block.seconds[3][slot] = intervals.dead_s;
  }

  kernel_(block);

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    BuckConverter& plant = *plants[lane];
    plant.inductor_a_ = block.inductor_a[lane];
    plant.cap_v_ = block.cap_v[lane];
    plant.elapsed_s_ = block.elapsed_s[lane];
    plant.last_load_a_ = loads[lane];
    plant.last_vmin_ = block.vmin[lane];
    plant.last_vmax_ = block.vmax[lane];
    plant.energy_.input_j = block.input_j[lane];
    plant.energy_.output_j = block.output_j[lane];
    plant.energy_.conduction_loss_j = block.conduction_loss_j[lane];
    plant.add_switching_loss();
  }
}

}  // namespace ddl::analog
