// Declarative scenario model: one `ScenarioSpec` value describes a complete
// closed-loop regulator experiment -- which DPWM architecture regulates,
// at which PVT corner, under which load / reference-voltage / drift / fault
// stimulus, with which seed -- without writing a bespoke main().
//
// A spec composes only things the library already models (DesignCalculator
// sizing, EnvironmentSchedule drift, LoadProfile workloads, VoltageModeManager
// DVFS schedules, ProposedDelayLine fault injection), so executing one is
// pure plumbing: see runner.h.  Specs are plain values -- copyable,
// comparable by name, and cheap to generate in bulk from the registry.
// A spec crosses every process and file boundary (sandbox pipe, submit
// frames, specs.jsonl, replay bundles) as flat JSON through one codec: one
// key list, walked by a writer and a strict reader under a key prefix.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/cells/operating_point.h"
#include "ddl/control/closed_loop.h"
#include "ddl/control/dvfs.h"
#include "ddl/core/lock_supervisor.h"

namespace ddl::scenario {

/// Which DPWM family regulates the loop.
enum class Architecture {
  kCounter,       ///< Ideal counter DPWM (corner-immune digital baseline).
  kHybrid,        ///< Counter MSBs + calibrated proposed-line LSBs (ref [30]).
  kProposed,      ///< The paper's calibrated delay line.
  kConventional,  ///< The adjustable-cells delay line.
};

std::string_view to_string(Architecture architecture) noexcept;

/// Load stimulus, declaratively.  `make()` lowers it onto the closed-loop
/// LoadProfile helpers (constant_load / step_load / ramp_load / markov_load).
struct LoadSpec {
  enum class Kind { kConstant, kStep, kRamp, kMarkov };

  Kind kind = Kind::kConstant;
  double level_a = 0.4;       ///< Constant level / before / idle current.
  double level2_a = 0.4;      ///< After / ramp-end / burst current.
  std::uint64_t from_period = 0;   ///< Step instant / ramp start.
  std::uint64_t until_period = 0;  ///< Ramp end (ignored otherwise).
  double p_burst = 0.01;      ///< Markov: idle -> burst probability.
  double p_idle = 0.05;       ///< Markov: burst -> idle probability.

  static LoadSpec constant(double amps);
  static LoadSpec step(double before, double after, std::uint64_t at_period);
  static LoadSpec ramp(double from, double to, std::uint64_t start_period,
                       std::uint64_t end_period);
  static LoadSpec burst(double idle_a, double burst_a, double p_burst = 0.01,
                        double p_idle = 0.05);

  /// Lowers the spec to a runnable profile; `seed` feeds the Markov chain
  /// (ignored by the deterministic kinds).
  control::LoadProfile make(std::uint64_t seed) const;

  /// Short human/JSON tag: "constant", "step", "ramp", "markov".
  std::string_view kind_name() const noexcept;
};

/// One scheduled fault.  A scenario carries a *plan* (vector of these);
/// each fault names its kind, victim, strength, and when during the run it
/// strikes and (optionally) clears.
struct FaultSpec {
  enum class Kind {
    kDelayCell,        ///< Victim cell's delay multiplied by `severity`
                       ///< (resistive via / weak driver).  Clearing divides
                       ///< it back out.  All delay-line architectures.
    kStuckTap,         ///< Proposed/hybrid: tap selector stuck at
                       ///< `victim_cell`; conventional: shift register
                       ///< frozen in place.  Clearing releases the search.
    kClockPeriodStep,  ///< Reference clock period multiplied by `severity`
                       ///< (clock-tree fault / DVFS reference step the line
                       ///< must re-track).  Proposed and conventional only.
  };

  Kind kind = Kind::kDelayCell;
  std::size_t victim_cell = 0;  ///< Cell / stuck tap index (kind-dependent).
  double severity = 1.0;        ///< Delay or period multiplier.
  /// Switching period the fault strikes on; 0 = present from power-on
  /// (injected before calibration).
  std::uint64_t at_period = 0;
  /// Switching period the fault clears on; 0 = permanent.
  std::uint64_t clear_period = 0;

  bool active() const noexcept {
    return kind == Kind::kStuckTap || severity != 1.0;
  }
  bool runtime() const noexcept { return at_period > 0 || clear_period > 0; }
  std::string_view kind_name() const noexcept;

  static FaultSpec delay_cell(std::size_t victim, double severity,
                              std::uint64_t at_period = 0,
                              std::uint64_t clear_period = 0);
  static FaultSpec stuck_tap(std::size_t tap, std::uint64_t at_period,
                             std::uint64_t clear_period = 0);
  static FaultSpec clock_period_step(double factor, std::uint64_t at_period,
                                     std::uint64_t clear_period = 0);
};

/// Execution-error taxonomy: how a scenario *run* failed, as opposed to a
/// verdict failure (the scenario ran to completion but missed its bounds).
/// A non-kNone error renders as `verdict:"error"` in the JSONL stream so a
/// crashed or hung scenario is a structured row, never a lost batch.
enum class ScenarioError {
  kNone = 0,   ///< Ran to completion (verdict is pass/fail).
  kException,  ///< Spec execution threw; `error_detail` carries what().
  kTimeout,    ///< Sandbox deadline expired on every allowed attempt.
  kCrash,          ///< Sandbox worker died on a fatal signal (SIGSEGV,
                   ///< SIGABRT, ...); `error_detail` carries the signal and
                   ///< the faulting spec's content fingerprint.
  kResourceLimit,  ///< Sandbox worker hit its RLIMIT_AS / RLIMIT_CPU cap.
  kWorkerLost,     ///< Sandbox worker vanished for an unattributable
                   ///< reason (pipe EOF mid-scenario, external kill) --
                   ///< transient, so it retries like a timeout.
};

std::string_view to_string(ScenarioError error) noexcept;

/// Lock supervision: when enabled the runner wraps the calibrated system in
/// a core::LockSupervisor (detection thresholds and recovery policy come
/// from `config`) and records its health events alongside the result.
struct SupervisionSpec {
  bool enabled = false;
  core::SupervisorConfig config;
};

/// The complete declarative scenario.
struct ScenarioSpec {
  std::string name;    ///< Unique id: "<family>/<arch>/<corner>/<variant>".
  std::string family;  ///< regulation | transient | dvfs | pvt | fault |
                       ///< recovery.

  // --- System under test -------------------------------------------------
  Architecture architecture = Architecture::kProposed;
  double clock_mhz = 1.0;    ///< Switching / calibration clock.
  int resolution_bits = 6;   ///< Guaranteed DPWM resolution (DesignSpec).
  int counter_bits = 7;      ///< Hybrid only: MSBs taken by the counter.
  std::uint64_t seed = 1;    ///< Die mismatch + workload seed.
  std::vector<FaultSpec> faults;  ///< Fault plan (power-on and scheduled).
  SupervisionSpec supervision;    ///< Lock supervision (recovery family).

  // --- Environment -------------------------------------------------------
  cells::OperatingPoint corner;
  double temp_ramp_c_per_us = 0.0;  ///< Drift: linear temperature ramp.
  double supply_spike_v = 0.0;      ///< Drift: rectangular supply spike...
  std::uint64_t spike_from_period = 0;   ///< ...during [from, until)
  std::uint64_t spike_until_period = 0;  ///< switching periods.

  // --- Stimulus ----------------------------------------------------------
  double vref_v = 1.0;  ///< Initial regulation target.
  LoadSpec load;
  /// Reference-voltage steps (DVFS schedule); empty = fixed reference.
  std::vector<control::VoltageMode> dvfs;

  // --- Run length & verdict criteria ------------------------------------
  std::uint64_t periods = 2500;       ///< Switching periods simulated.
  std::uint64_t measure_from = 1800;  ///< Steady-state window start.
  double tolerance_v = 0.03;    ///< |mean vout - target| bound.
  double settle_band_v = 0.03;  ///< Settling / DVFS transition band.
  bool expect_lock = true;      ///< False: calibration *must* fail (the
                                ///< conventional slow-corner blind spot).
  bool allow_limit_cycling = false;  ///< Coarse DPWMs limit-cycle by design
                                     ///< (Eq 11/12); true skips that check
                                     ///< and the settling check.
  /// A run only *fails* as a limit cycle when the loop hunts across duty
  /// words AND vout swings beyond this (one ADC LSB by default) -- Eq 11/12
  /// defines the limit cycle as an oscillation across the ADC window, so
  /// sub-LSB dither at fine word widths is not a failure.
  double limit_cycle_stddev_v = 0.010;

  // --- Recovery verdicts (checked only when supervision is enabled) ------
  /// The supervisor must have detected at least this many lock losses
  /// (0 = unchecked).  Fails as `lock_loss_undetected`.
  std::uint64_t expect_min_lock_losses = 0;
  /// At least one successful re-lock is required.  Fails as `no_recovery`.
  bool expect_relock = false;
  /// Worst observed re-lock latency must not exceed this many periods
  /// (0 = unchecked).  Fails as `relock_too_slow`.
  std::uint64_t max_relock_latency_periods = 0;
  /// Final degradation level must reach at least this rung (0 = unchecked;
  /// values are core::DegradationLevel).  Fails as
  /// `insufficient_degradation`.
  int expect_min_degradation = 0;

  // --- Monte-Carlo yield (scenario-level linearity/yield campaigns) ------
  /// When > 0 the scenario is a Monte-Carlo yield experiment instead of a
  /// closed-loop run: `mc_dies` mismatch-sampled dies of the proposed line
  /// are evaluated through the batched MC engine (analysis::mc_batch) where
  /// the closed form applies, with the scalar per-die path as automatic
  /// fallback.  Proposed architecture only; no DVFS/supervision, and only
  /// power-on delay-cell faults (applied to every die).
  std::uint64_t mc_dies = 0;
  /// A die passes when its transfer curve's max |INL| stays within this
  /// many duty LSBs.
  double mc_inl_limit_lsb = 0.5;
  /// Verdict threshold: pass iff passing-die fraction >= this.  Fails as
  /// `yield_below_min`.
  double mc_min_yield = 0.0;
  /// Test hook: force every die down the scalar reference path
  /// (batch_die_inl_scalar) -- the JSONL row must stay byte-identical to
  /// the batched path, which is what the equivalence test proves.
  bool mc_force_scalar = false;

  // --- Test hooks (exercised by the campaign isolation tests and the
  // runner's --inject-hang / --inject-crash flags; no built-in suite sets
  // them).  Only the sandbox worker honours debug_hang_* and debug_crash:
  // in-process (thread-mode) execution ignores them. -----------------------
  /// Hang: the sandbox worker sleeps this long before executing, so
  /// deadline kills and retries are testable without a real deadlock.
  std::uint64_t debug_hang_ms = 0;
  /// How many attempts hang; later attempts run normally (retry testing).
  int debug_hang_attempts = 1;
  /// The guarded runner throws instead of executing (exception capture).
  bool debug_throw = false;
  /// Crash injection: "segv" / "abort" raise the fatal signal inside the
  /// sandbox worker, "oom" allocates until the worker's RLIMIT_AS cap
  /// kills it, "spin" busy-loops until RLIMIT_CPU or the deadline does.
  /// Empty = no injection.
  std::string debug_crash;

  /// The regulation target the steady-state window is judged against: the
  /// last DVFS mode's vref, or `vref_v` when the schedule is empty.
  double final_vref_v() const noexcept;

  /// Delay-line cells the named architecture will be sized with (what
  /// fault victims are validated against) -- the same DesignCalculator
  /// sizing the runner uses.  0 when there is no line (counter baseline)
  /// or the sizing itself is infeasible.
  std::size_t expected_line_cells() const;
};

/// Cross-field validation the type system cannot express: fault victims in
/// range for the sized line, severities positive, schedules ordered and
/// inside the run, supervision knobs meaningful for the architecture.
/// Returns human-readable messages, each prefixed with the scenario name;
/// empty means valid.  The registry validates every built-in suite at
/// expansion; run_scenario() turns a non-empty result into a structured
/// `invalid_spec` failure instead of throwing mid-run.
std::vector<std::string> validate(const ScenarioSpec& spec);

/// Same checks with the sized line's cell count supplied by the caller
/// (must equal `spec.expected_line_cells()`), so a worker that already
/// holds the sizing -- the ScenarioWorkspace arena -- validates without
/// re-running the DesignCalculator.
std::vector<std::string> validate(const ScenarioSpec& spec,
                                  std::size_t line_cells);

/// The most faults, and the most DVFS steps, validate() lets one spec
/// carry (a spec at the cap renders to about 78 KB).
inline constexpr std::size_t kMaxSpecEntries = 256;

/// The crash kinds `debug_crash` may name: validate() rejects any other
/// non-empty value, and the tools' --inject-crash flag reads this list.
inline const std::vector<std::string> kCrashKinds = {"segv", "abort", "oom",
                                                     "spin"};

/// Serializes a spec as a flat JsonObject (lists flatten to `<list>.count`
/// plus `<list>.<i>.<field>`).  A persisted contract:
/// content_fingerprint_of hashes these bytes into job ids and crash rows.
analysis::JsonObject spec_to_json(const ScenarioSpec& spec);

/// Appends the same fields, each as `<prefix><key>`, onto an object whose
/// own fields (a frame type, a sequence number) stay in front.  No key
/// the object holds may start with `prefix`: the fields are appended
/// without a look for one already set.
void spec_to_json_into(analysis::JsonObject& object, const ScenarioSpec& spec,
                       const std::string& prefix);

/// A parse attempt: the rebuilt spec (defaults where a field failed) plus
/// every problem found, each as "<full key>: <what went wrong>".
struct SpecParse {
  ScenarioSpec spec;
  std::vector<std::string> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// The one reader, strict, for every source: reads the spec under `prefix`
/// in a flat field map and ignores keys outside it.  Never throws.  Any
/// wrong-typed value ("8oops" is not 8), unknown enum name, list count
/// above the keys present, missing spec (no key at all) or key the codec
/// does not know is an error: there are no forward-compatible unknown
/// keys.  A missing key keeps its default.
SpecParse spec_from_json_checked(
    const std::map<std::string, std::string>& fields,
    const std::string& prefix = "");

/// The strict read of one unprefixed spec line, as specs.jsonl and the
/// sandbox pipe carry it: tokenize, then spec_from_json_checked.  A line
/// that does not tokenize as one flat JSON object is an error too.
SpecParse spec_from_line(const std::string& line);

}  // namespace ddl::scenario
