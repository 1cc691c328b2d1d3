#include "ddl/scenario/spec.h"

#include <algorithm>
#include <cmath>

#include "ddl/cells/technology.h"
#include "ddl/core/design_calculator.h"
#include "ddl/core/hybrid_calibrated.h"

namespace ddl::scenario {

std::string_view to_string(Architecture architecture) noexcept {
  switch (architecture) {
    case Architecture::kCounter:
      return "counter";
    case Architecture::kHybrid:
      return "hybrid";
    case Architecture::kProposed:
      return "proposed";
    case Architecture::kConventional:
      return "conventional";
  }
  return "unknown";
}

std::string_view to_string(ScenarioError error) noexcept {
  switch (error) {
    case ScenarioError::kNone:
      return "none";
    case ScenarioError::kException:
      return "exception";
    case ScenarioError::kTimeout:
      return "timeout";
    case ScenarioError::kCrash:
      return "crash";
    case ScenarioError::kResourceLimit:
      return "resource_limit";
    case ScenarioError::kWorkerLost:
      return "worker_lost";
  }
  return "unknown";
}

LoadSpec LoadSpec::constant(double amps) {
  LoadSpec spec;
  spec.kind = Kind::kConstant;
  spec.level_a = amps;
  spec.level2_a = amps;
  return spec;
}

LoadSpec LoadSpec::step(double before, double after, std::uint64_t at_period) {
  LoadSpec spec;
  spec.kind = Kind::kStep;
  spec.level_a = before;
  spec.level2_a = after;
  spec.from_period = at_period;
  return spec;
}

LoadSpec LoadSpec::ramp(double from, double to, std::uint64_t start_period,
                        std::uint64_t end_period) {
  LoadSpec spec;
  spec.kind = Kind::kRamp;
  spec.level_a = from;
  spec.level2_a = to;
  spec.from_period = start_period;
  spec.until_period = end_period;
  return spec;
}

LoadSpec LoadSpec::burst(double idle_a, double burst_a, double p_burst,
                         double p_idle) {
  LoadSpec spec;
  spec.kind = Kind::kMarkov;
  spec.level_a = idle_a;
  spec.level2_a = burst_a;
  spec.p_burst = p_burst;
  spec.p_idle = p_idle;
  return spec;
}

control::LoadProfile LoadSpec::make(std::uint64_t seed) const {
  switch (kind) {
    case Kind::kConstant:
      return control::constant_load(level_a);
    case Kind::kStep:
      return control::step_load(level_a, level2_a, from_period);
    case Kind::kRamp:
      return control::ramp_load(level_a, level2_a, from_period, until_period);
    case Kind::kMarkov:
      return control::markov_load(seed, level_a, level2_a, p_burst, p_idle);
  }
  return control::constant_load(level_a);
}

std::string_view LoadSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kConstant:
      return "constant";
    case Kind::kStep:
      return "step";
    case Kind::kRamp:
      return "ramp";
    case Kind::kMarkov:
      return "markov";
  }
  return "unknown";
}

std::string_view FaultSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kDelayCell:
      return "delay_cell";
    case Kind::kStuckTap:
      return "stuck_tap";
    case Kind::kClockPeriodStep:
      return "clock_period_step";
  }
  return "unknown";
}

FaultSpec FaultSpec::delay_cell(std::size_t victim, double severity,
                                std::uint64_t at_period,
                                std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kDelayCell;
  fault.victim_cell = victim;
  fault.severity = severity;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

FaultSpec FaultSpec::stuck_tap(std::size_t tap, std::uint64_t at_period,
                               std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kStuckTap;
  fault.victim_cell = tap;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

FaultSpec FaultSpec::clock_period_step(double factor, std::uint64_t at_period,
                                       std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kClockPeriodStep;
  fault.severity = factor;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

double ScenarioSpec::final_vref_v() const noexcept {
  return dvfs.empty() ? vref_v : dvfs.back().vref_v;
}

std::size_t ScenarioSpec::expected_line_cells() const {
  const auto tech = cells::Technology::i32nm_class();
  core::DesignCalculator calc(tech);
  try {
    switch (architecture) {
      case Architecture::kCounter:
        return 0;
      case Architecture::kHybrid:
        return core::size_hybrid_calibrated(tech, clock_mhz, resolution_bits,
                                            counter_bits)
            .line.num_cells;
      case Architecture::kProposed:
        return calc
            .size_proposed(core::DesignSpec{clock_mhz, resolution_bits})
            .line.num_cells;
      case Architecture::kConventional:
        return calc
            .size_conventional(core::DesignSpec{clock_mhz, resolution_bits})
            .line.num_cells;
    }
  } catch (const std::exception&) {
    // Infeasible sizing: the runner will surface that on its own terms;
    // victim-range validation simply has nothing to check against.
    return 0;
  }
  return 0;
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  return validate(spec, spec.expected_line_cells());
}

std::vector<std::string> validate(const ScenarioSpec& spec,
                                  std::size_t line_cells) {
  std::vector<std::string> errors;
  const auto error = [&](const std::string& message) {
    errors.push_back(spec.name + ": " + message);
  };

  if (!spec.debug_crash.empty() &&
      std::find(kCrashKinds.begin(), kCrashKinds.end(), spec.debug_crash) ==
          kCrashKinds.end()) {
    std::string kinds;
    for (const std::string& kind : kCrashKinds) {
      kinds += (kinds.empty() ? "" : "|") + kind;
    }
    error("debug_crash '" + spec.debug_crash + "' is not one of " + kinds);
  }

  if (spec.faults.size() > kMaxSpecEntries ||
      spec.dvfs.size() > kMaxSpecEntries) {
    // Reported alone: the per-entry checks below are what an oversized
    // list would make expensive.
    error(std::to_string(spec.faults.size()) + " faults and " +
          std::to_string(spec.dvfs.size()) + " DVFS steps exceed the " +
          std::to_string(kMaxSpecEntries) + "-entry cap per list");
    return errors;
  }

  const std::size_t cells = line_cells;
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    const std::string prefix =
        "fault " + std::to_string(i) + " (" + std::string(fault.kind_name()) +
        "): ";
    if (!(fault.severity > 0.0) || !std::isfinite(fault.severity)) {
      error(prefix + "severity must be a positive finite multiplier, got " +
            std::to_string(fault.severity));
    }
    if (spec.architecture == Architecture::kCounter) {
      error(prefix + "the counter baseline has no delay line to fault");
      continue;
    }
    switch (fault.kind) {
      case FaultSpec::Kind::kDelayCell:
        if (cells > 0 && fault.victim_cell >= cells) {
          error(prefix + "victim_cell " + std::to_string(fault.victim_cell) +
                " out of range for the " + std::to_string(cells) +
                "-cell line");
        }
        break;
      case FaultSpec::Kind::kStuckTap:
        // The conventional lowering freezes the whole register; the tap
        // index only addresses the proposed-family selector.
        if (spec.architecture != Architecture::kConventional && cells > 0 &&
            fault.victim_cell >= cells) {
          error(prefix + "stuck tap " + std::to_string(fault.victim_cell) +
                " out of range for the " + std::to_string(cells) +
                "-cell line");
        }
        break;
      case FaultSpec::Kind::kClockPeriodStep:
        if (spec.architecture == Architecture::kHybrid) {
          error(prefix +
                "clock-period steps are not supported on the hybrid (the "
                "period must stay an exact multiple of the counter tick)");
        }
        break;
    }
    if (fault.at_period >= spec.periods && fault.at_period != 0) {
      error(prefix + "at_period " + std::to_string(fault.at_period) +
            " is outside the " + std::to_string(spec.periods) + "-period run");
    }
    if (fault.clear_period != 0 && fault.clear_period <= fault.at_period) {
      error(prefix + "clear_period " + std::to_string(fault.clear_period) +
            " must be after at_period " + std::to_string(fault.at_period));
    }
    if (fault.runtime() && !spec.dvfs.empty()) {
      error(prefix +
            "runtime-scheduled faults cannot be combined with a DVFS "
            "schedule (the run cannot be segmented across mode changes)");
    }
  }

  // The closed loop applies each mode before its period, so a step must
  // fall inside the run and after the one before it.
  for (std::size_t i = 0; i < spec.dvfs.size(); ++i) {
    const std::uint64_t at = spec.dvfs[i].at_period;
    const std::string prefix = "DVFS step " + std::to_string(i) + ": ";
    if (at >= spec.periods) {
      error(prefix + "at_period " + std::to_string(at) + " is outside the " +
            std::to_string(spec.periods) + "-period run");
    }
    if (i > 0 && at <= spec.dvfs[i - 1].at_period) {
      error(prefix + "at_period " + std::to_string(at) +
            " is not after step " + std::to_string(i - 1) + "'s " +
            std::to_string(spec.dvfs[i - 1].at_period) +
            " (the schedule must be strictly increasing)");
    }
  }

  if (spec.supervision.enabled) {
    if (spec.architecture == Architecture::kCounter) {
      error("supervision: the counter baseline has no lock to supervise");
    }
    const core::SupervisorConfig& config = spec.supervision.config;
    if (config.max_relock_attempts < 1) {
      error("supervision: max_relock_attempts must be >= 1, got " +
            std::to_string(config.max_relock_attempts));
    }
    if (config.coarse_resolution_loss_bits < 0 ||
        config.coarse_resolution_loss_bits >= spec.resolution_bits) {
      error("supervision: coarse_resolution_loss_bits " +
            std::to_string(config.coarse_resolution_loss_bits) +
            " out of range for a " + std::to_string(spec.resolution_bits) +
            "-bit word");
    }
  } else if (spec.expect_min_lock_losses > 0 || spec.expect_relock ||
             spec.max_relock_latency_periods > 0 ||
             spec.expect_min_degradation > 0) {
    error("recovery expectations require supervision.enabled");
  }

  if (spec.mc_dies > 0) {
    if (spec.architecture != Architecture::kProposed) {
      error("mc_dies: Monte-Carlo yield scenarios model the proposed line's "
            "mismatch statistics; architecture must be proposed");
    }
    if (!spec.dvfs.empty()) {
      error("mc_dies: a Monte-Carlo yield scenario has no closed loop to "
            "run a DVFS schedule on");
    }
    if (spec.supervision.enabled) {
      error("mc_dies: supervision does not apply to a Monte-Carlo yield "
            "scenario");
    }
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      const FaultSpec& fault = spec.faults[i];
      if (fault.kind != FaultSpec::Kind::kDelayCell || fault.runtime()) {
        error("mc_dies: fault " + std::to_string(i) +
              " must be a power-on delay_cell fault (applied to every die)");
      }
    }
    if (!spec.expect_lock) {
      error("mc_dies: expect_lock=false has no meaning for a yield "
            "experiment (non-locking dies simply count against yield)");
    }
    if (!(spec.mc_inl_limit_lsb > 0.0)) {
      error("mc_dies: mc_inl_limit_lsb must be positive, got " +
            std::to_string(spec.mc_inl_limit_lsb));
    }
    if (spec.mc_min_yield < 0.0 || spec.mc_min_yield > 1.0) {
      error("mc_dies: mc_min_yield must be in [0, 1], got " +
            std::to_string(spec.mc_min_yield));
    }
  }

  if (spec.measure_from >= spec.periods) {
    error("measure_from " + std::to_string(spec.measure_from) +
          " leaves no steady-state window in a " +
          std::to_string(spec.periods) + "-period run");
  }
  return errors;
}

}  // namespace ddl::scenario
