#include "ddl/sim/flipflop.h"

#include <functional>
#include <memory>

namespace ddl::sim {

DFlipFlop::DFlipFlop(NetlistContext& ctx, SignalId clk, SignalId d, SignalId q,
                     SignalId reset, std::uint64_t metastable_seed)
    : sim_(ctx.sim),
      d_(d),
      q_(q),
      driver_(ctx.sim->attach_driver(q)),
      clk_to_q_(from_ps(ctx.delay_ps(cells::CellKind::kDff))),
      setup_(from_ps(ctx.tech->sequential_timing().setup_ps *
                     cells::delay_derating(ctx.op))),
      hold_(from_ps(ctx.tech->sequential_timing().hold_ps *
                    cells::delay_derating(ctx.op))),
      // The X interval is several tau; past it the flop has settled with
      // overwhelming probability.
      resolution_(from_ps(10.0 * ctx.tech->sequential_timing().tau_ps *
                          cells::delay_derating(ctx.op))),
      rng_(metastable_seed) {
  sim_->on_change(d_, [this](const SignalEvent& event) {
    on_data_change(event);
  });
  sim_->on_rising(clk, [this](const SignalEvent&) { on_clock_edge(); });
  if (reset.index != SignalId{}.index) {
    sim_->on_change(reset, [this](const SignalEvent& event) {
      if (event.new_value == Logic::k1) {
        sim_->schedule_lane(q_, Logic::k0, 0, driver_);
      }
    });
  }
}

void DFlipFlop::on_data_change(const SignalEvent& event) {
  last_data_change_ = event.time;
  // Hold check: data toggled within the hold window after a capture edge.
  if (!ideal_ && last_capture_edge_ >= 0 &&
      event.time - last_capture_edge_ < hold_) {
    ++stats_.hold_violations;
    go_metastable();
  }
}

void DFlipFlop::on_clock_edge() {
  ++stats_.capture_edges;
  last_capture_edge_ = sim_->now();
  const Logic sampled = sim_->value(d_);
  sampled_at_edge_ = sampled;

  const bool setup_violated =
      last_data_change_ >= 0 && sim_->now() - last_data_change_ < setup_;
  const bool input_unknown = !is_known(sampled);

  if (!ideal_ && (setup_violated || input_unknown)) {
    if (setup_violated) {
      ++stats_.setup_violations;
    }
    go_metastable();
    return;
  }
  sim_->schedule_lane(q_, is_known(sampled) ? sampled : Logic::kX, clk_to_q_,
                      driver_);
}

void DFlipFlop::go_metastable() {
  // Metastable capture: drive X, then settle to a random stable value after
  // the resolution time (Figure 39's "oscillates ... for an indeterminate
  // amount of time").  The settle step runs as a task so the X-then-known
  // sequence survives the kernel's same-lane inertial bookkeeping.
  sim_->schedule_lane(q_, Logic::kX, clk_to_q_, driver_);
  const Logic resolved = from_bool((rng_() & 1) != 0);
  sim_->schedule_task(clk_to_q_ + resolution_, [this, resolved]() {
    if (sim_->value(q_) == Logic::kX) {
      sim_->schedule_lane(q_, resolved, 0, driver_);
    }
  });
}

TwoFlopSynchronizer::TwoFlopSynchronizer(NetlistContext& ctx, SignalId clk,
                                         SignalId async_in, SignalId sync_out,
                                         std::uint64_t seed) {
  // The internal node powers up at a defined 0 (as a reset flop would) so
  // start-up X from an undriven net is not mistaken for metastability.
  SignalId middle =
      ctx.sim->add_signal(ctx.sim->name(sync_out) + ".meta", Logic::k0);
  ff1_ = std::make_unique<DFlipFlop>(ctx, clk, async_in, middle, SignalId{},
                                     seed);
  // The second stage samples a signal that is synchronous (one cycle old),
  // so it resolves cleanly in virtually all cases; its own metastability
  // model stays enabled for honesty.
  ff2_ = std::make_unique<DFlipFlop>(ctx, clk, middle, sync_out, SignalId{},
                                     seed + 0x9e3779b97f4a7c15ULL);
}

void make_clock(Simulator& sim, SignalId clk, Time period, Time start) {
  // A self-rescheduling toggler: each edge drives the next level and
  // schedules a copy of itself.  A plain value, so no task owns itself.
  struct Toggle {
    Simulator* sim;
    SignalId clk;
    Time half;
    std::uint32_t lane;
    void operator()() const {
      const Logic next = sim->is_high(clk) ? Logic::k0 : Logic::k1;
      sim->schedule_lane(clk, next, 0, lane);
      sim->schedule_task(half, *this);
    }
  };
  const Toggle toggle{&sim, clk, period / 2, sim.attach_driver(clk)};
  sim.schedule_task(start, [toggle]() {
    toggle.sim->schedule_lane(toggle.clk, Logic::k0, 0, toggle.lane);
    toggle.sim->schedule_task(toggle.half, toggle);
  });
}

}  // namespace ddl::sim
