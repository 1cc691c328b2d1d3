#include "ddl/core/lock_supervisor.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace ddl::core {

namespace {

/// Re-lock walks are bounded: a full search crosses the line once, so a few
/// line-lengths of cycles is generous.  A stuck selector or a dead line
/// burns at most this budget per attempt instead of the 2^20 default.
constexpr std::uint64_t kRelockMaxCycles = 4096;

std::size_t position_distance(std::size_t a, std::size_t b) {
  return a > b ? a - b : b - a;
}

/// Adapter over a tap-line system: the proposed single line
/// (ProposedDpwmSystem) or the calibrated hybrid (HybridCalibratedDpwm,
/// counter MSBs + proposed-line LSBs).  The calibration position is the
/// controller's tap; the baseline is the last locked tap.
template <typename System>
class SupervisedTapLine final : public SupervisedSystem {
 public:
  explicit SupervisedTapLine(System& system) : system_(&system) {}

  dpwm::DpwmModel& modulator() override { return *system_; }
  LockStatus lock_status() const override {
    return system_->controller().status();
  }
  std::size_t tap_position() const override {
    return system_->controller().tap_sel();
  }
  double sampling_margin_ps(sim::Time at) const override {
    return system_->controller().sampling_margin_ps(
        system_->operating_point(at));
  }
  std::optional<std::uint64_t> recalibrate(sim::Time at) override {
    return system_->calibrate(at, kRelockMaxCycles);
  }
  void hold_calibration(bool hold) override {
    system_->set_calibration_hold(hold);
  }
  void capture_baseline() override {
    baseline_tap_ = system_->controller().tap_sel();
  }
  void restore_baseline() override {
    system_->controller().restore_lock(baseline_tap_);
  }

 private:
  System* system_;
  std::size_t baseline_tap_ = 0;
};

/// Adapter over the conventional adjustable-cells system.  The calibration
/// position is the total increment count; the baseline is the whole
/// shift-register image (per-cell branch settings).
class SupervisedConventional final : public SupervisedSystem {
 public:
  explicit SupervisedConventional(ConventionalDpwmSystem& system)
      : system_(&system) {}

  dpwm::DpwmModel& modulator() override { return *system_; }
  LockStatus lock_status() const override {
    return system_->controller().status();
  }
  std::size_t tap_position() const override {
    return system_->line().total_increments();
  }
  double sampling_margin_ps(sim::Time at) const override {
    // The conventional lock aligns the *full line* with the period; its
    // metastability exposure is the distance of the line delay from the
    // period edge.
    const double line_delay =
        system_->line().line_delay_ps(system_->operating_point(at));
    return std::abs(static_cast<double>(system_->period_ps()) - line_delay);
  }
  std::optional<std::uint64_t> recalibrate(sim::Time at) override {
    // Already bounded: the walk stops at Up_lim (the register fills).
    return system_->calibrate(at);
  }
  void hold_calibration(bool hold) override {
    system_->set_calibration_hold(hold);
  }
  void capture_baseline() override {
    baseline_settings_ = system_->line().settings();
  }
  void restore_baseline() override {
    if (!system_->controller().register_frozen()) {
      system_->line().restore_settings(baseline_settings_);
    }
  }

 private:
  ConventionalDpwmSystem* system_;
  std::vector<int> baseline_settings_;
};

/// Largest resolution <= `want` whose counter divides `period` evenly;
/// 0 when not even a 1-bit counter fits (odd period).
int feasible_counter_bits(sim::Time period, int want) {
  int bits = std::min(want, 30);
  while (bits >= 1 && period % (sim::Time{1} << bits) != 0) {
    --bits;
  }
  return std::max(bits, 0);
}

}  // namespace

std::unique_ptr<SupervisedSystem> make_supervised(ProposedDpwmSystem& system) {
  return std::make_unique<SupervisedTapLine<ProposedDpwmSystem>>(system);
}

std::unique_ptr<SupervisedSystem> make_supervised(
    ConventionalDpwmSystem& system) {
  return std::make_unique<SupervisedConventional>(system);
}

std::unique_ptr<SupervisedSystem> make_supervised(
    HybridCalibratedDpwm& system) {
  return std::make_unique<SupervisedTapLine<HybridCalibratedDpwm>>(system);
}

std::string_view to_string(SupervisorState state) noexcept {
  switch (state) {
    case SupervisorState::kMonitoring:
      return "monitoring";
    case SupervisorState::kRelocking:
      return "relocking";
    case SupervisorState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

std::string_view to_string(DegradationLevel level) noexcept {
  switch (level) {
    case DegradationLevel::kNone:
      return "none";
    case DegradationLevel::kFrozenTap:
      return "frozen_tap";
    case DegradationLevel::kCoarseResolution:
      return "coarse_resolution";
    case DegradationLevel::kCounterFallback:
      return "counter_fallback";
  }
  return "unknown";
}

std::string_view to_string(HealthEventKind kind) noexcept {
  switch (kind) {
    case HealthEventKind::kLockLost:
      return "lock_lost";
    case HealthEventKind::kRelockAttempt:
      return "relock_attempt";
    case HealthEventKind::kRelocked:
      return "relocked";
    case HealthEventKind::kRelockFailed:
      return "relock_failed";
    case HealthEventKind::kDegraded:
      return "degraded";
  }
  return "unknown";
}

LockSupervisor::LockSupervisor(SupervisedSystem& system, SupervisorConfig config)
    : system_(&system), config_(config) {
  if (config_.max_relock_attempts < 1) {
    throw std::invalid_argument(
        "LockSupervisor: max_relock_attempts must be >= 1");
  }
  if (config_.coarse_resolution_loss_bits < 0 ||
      config_.coarse_resolution_loss_bits >= system_->modulator().bits()) {
    throw std::invalid_argument(
        "LockSupervisor: coarse_resolution_loss_bits out of range");
  }
  system_->capture_baseline();
  baseline_tap_ = system_->tap_position();
}

std::uint64_t LockSupervisor::coarse_mask() const {
  const int bits = system_->modulator().bits();
  const std::uint64_t full = (std::uint64_t{1} << bits) - 1;
  return full & ~((std::uint64_t{1} << config_.coarse_resolution_loss_bits) - 1);
}

dpwm::PwmPeriod LockSupervisor::generate(sim::Time start, std::uint64_t duty) {
  const std::uint64_t period = period_index_++;

  // -- Recovery action scheduled for this period -------------------------
  if (state_ == SupervisorState::kRelocking) {
    if (cooldown_ > 0) {
      --cooldown_;
    } else {
      attempt_relock(period, start);
    }
  }

  // -- Produce the pulse --------------------------------------------------
  dpwm::PwmPeriod out;
  if (degradation_ == DegradationLevel::kCounterFallback && fallback_) {
    const int drop = bits() - fallback_->bits();
    out = fallback_->generate(start, duty >> drop);
  } else {
    if (degradation_ >= DegradationLevel::kCoarseResolution) {
      duty &= coarse_mask();
    }
    out = system_->modulator().generate(start, duty);
  }

  // -- Detection ----------------------------------------------------------
  if (state_ == SupervisorState::kMonitoring) {
    if (const char* reason = detect_loss(start)) {
      enter_relocking(period, reason);
    }
  } else if (state_ == SupervisorState::kDegraded) {
    // The watchdog keeps running while degraded: a persistent error streak
    // at the current rung escalates to the next one.
    if (bad_error_streak_ >= config_.watchdog_periods &&
        degradation_ < DegradationLevel::kCounterFallback) {
      DegradationLevel next =
          degradation_ == DegradationLevel::kFrozenTap
              ? DegradationLevel::kCoarseResolution
              : DegradationLevel::kCounterFallback;
      if (next == DegradationLevel::kCounterFallback &&
          (!config_.counter_fallback ||
           feasible_counter_bits(system_->modulator().period_ps(),
                                 system_->modulator().bits()) == 0)) {
        // Ladder ends here: nothing further to escalate to.
        bad_error_streak_ = 0;
      } else {
        degrade(period, next);
      }
    }
  }
  return out;
}

const char* LockSupervisor::detect_loss(sim::Time now) {
  if (system_->lock_status() == LockStatus::kAtLimit) {
    return "at_limit";
  }
  if (position_distance(system_->tap_position(), baseline_tap_) >
      config_.tap_drift_window) {
    return "tap_excursion";
  }
  if (config_.margin_floor_ps > 0.0) {
    if (system_->sampling_margin_ps(now) < config_.margin_floor_ps) {
      ++low_margin_streak_;
    } else {
      low_margin_streak_ = 0;
    }
    if (low_margin_streak_ >= config_.margin_periods) {
      return "margin_collapse";
    }
  }
  if (bad_error_streak_ >= config_.watchdog_periods) {
    return "duty_watchdog";
  }
  return nullptr;
}

void LockSupervisor::enter_relocking(std::uint64_t period, const char* reason) {
  ++lock_losses_;
  lock_lost_period_ = period;
  attempts_ = 0;
  cooldown_ = 0;
  low_margin_streak_ = 0;

  // Thrash: a loss this soon after a re-lock means the re-locked point does
  // not actually hold (e.g. a fault-widened step straddles the period, so
  // every "lock" is immediately out of tolerance).  Consecutive thrash
  // rounds are counted against the same budget as failed attempts.
  if (relock_recent_ && config_.relock_stability_periods > 0 &&
      period - last_relock_period_ <= config_.relock_stability_periods) {
    ++thrash_rounds_;
  } else {
    thrash_rounds_ = 0;
  }

  HealthEvent event;
  event.period = period;
  event.kind = HealthEventKind::kLockLost;
  event.detail = reason;
  event.tap_position = system_->tap_position();
  event.degradation = static_cast<int>(degradation_);
  events_.push_back(std::move(event));

  // Pin the mapping to the last-good calibration while attempts run; the
  // first attempt fires on the next period.
  system_->restore_baseline();
  system_->hold_calibration(true);
  if (thrash_rounds_ >= config_.max_relock_attempts) {
    degrade(period, DegradationLevel::kFrozenTap);
    return;
  }
  state_ = SupervisorState::kRelocking;
}

void LockSupervisor::attempt_relock(std::uint64_t period, sim::Time at) {
  ++attempts_;

  HealthEvent attempt;
  attempt.period = period;
  attempt.kind = HealthEventKind::kRelockAttempt;
  attempt.detail = "attempt_" + std::to_string(attempts_);
  attempt.tap_position = system_->tap_position();
  attempt.degradation = static_cast<int>(degradation_);
  events_.push_back(std::move(attempt));

  system_->hold_calibration(false);
  const std::optional<std::uint64_t> cycles = system_->recalibrate(at);
  const bool relocked =
      cycles.has_value() && system_->lock_status() == LockStatus::kLocked;

  if (relocked) {
    system_->capture_baseline();
    baseline_tap_ = system_->tap_position();
    bad_error_streak_ = 0;
    low_margin_streak_ = 0;
    state_ = SupervisorState::kMonitoring;
    relock_recent_ = true;
    last_relock_period_ = period;
    ++relocks_;
    const std::uint64_t latency = period - lock_lost_period_;
    max_relock_latency_periods_ = std::max(max_relock_latency_periods_, latency);

    HealthEvent event;
    event.period = period;
    event.kind = HealthEventKind::kRelocked;
    event.tap_position = system_->tap_position();
    event.relock_latency_periods = latency;
    event.relock_cycles = *cycles;
    event.degradation = static_cast<int>(degradation_);
    events_.push_back(std::move(event));
    return;
  }

  // Failed: back to the frozen last-good mapping.
  system_->restore_baseline();
  system_->hold_calibration(true);

  HealthEvent event;
  event.period = period;
  event.kind = HealthEventKind::kRelockFailed;
  event.detail = "attempt_" + std::to_string(attempts_);
  event.tap_position = system_->tap_position();
  event.degradation = static_cast<int>(degradation_);
  events_.push_back(std::move(event));

  if (attempts_ >= config_.max_relock_attempts) {
    degrade(period, DegradationLevel::kFrozenTap);
  } else {
    // Exponential backoff before the next attempt.
    cooldown_ = config_.relock_backoff_periods << (attempts_ - 1);
  }
}

void LockSupervisor::degrade(std::uint64_t period, DegradationLevel level) {
  degradation_ = level;
  state_ = SupervisorState::kDegraded;
  bad_error_streak_ = 0;

  if (level == DegradationLevel::kCounterFallback && !fallback_) {
    const sim::Time period_ps = system_->modulator().period_ps();
    const int bits =
        feasible_counter_bits(period_ps, system_->modulator().bits());
    fallback_ = std::make_unique<dpwm::CounterDpwm>(bits, period_ps);
  }

  HealthEvent event;
  event.period = period;
  event.kind = HealthEventKind::kDegraded;
  event.detail = std::string(to_string(level));
  event.tap_position = system_->tap_position();
  event.degradation = static_cast<int>(level);
  events_.push_back(std::move(event));
}

void LockSupervisor::observe_error(int error_code) {
  if (std::abs(error_code) >= config_.watchdog_error_code) {
    if (watchdog_armed_) {
      ++bad_error_streak_;
    }
  } else {
    watchdog_armed_ = true;
    bad_error_streak_ = 0;
  }
}

}  // namespace ddl::core
