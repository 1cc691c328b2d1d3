// Scenario execution: lower a ScenarioSpec onto the library (sizing ->
// line -> DPWM -> closed loop), run it, and classify the outcome into a
// structured ScenarioResult.
//
// Batch execution runs on the ddl::analysis thread pool with the layer's
// determinism contract: scenarios shard by contiguous index range, every
// scenario is self-contained (its own line, DPWM, plant -- the sim kernel
// threading rules of DESIGN.md apply), and per-shard result vectors merge
// in index order.  The JSONL stream and the suite summary are therefore
// *byte-identical for any thread count* -- per-scenario lines carry no
// wall-clock or thread-count fields by design.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {

/// Structured outcome of one scenario run.
struct ScenarioResult {
  // Identity (copied from the spec so a result line is self-describing).
  std::string name;
  std::string family;
  Architecture architecture = Architecture::kProposed;
  cells::OperatingPoint corner;
  std::uint64_t seed = 0;
  std::uint64_t periods = 0;

  // Calibration.
  bool locked = false;
  std::uint64_t lock_cycles = 0;

  // Verdict.
  bool pass = false;
  std::string failure_reason;  ///< Empty when pass; else the first failed
                               ///< check: invalid_spec, no_lock,
                               ///< unexpected_lock, lock_loss_undetected,
                               ///< no_recovery, relock_too_slow,
                               ///< insufficient_degradation,
                               ///< transition_unsettled, regulation_error,
                               ///< limit_cycle, never_settled -- or
                               ///< error:exception / error:timeout when the
                               ///< run itself died (see `error`).
  std::string failure_detail;  ///< Extra context (invalid_spec messages).

  // Execution error (kNone unless the run itself threw or timed out; see
  // ScenarioError).  `attempts` counts sandbox attempts consumed -- 1 for
  // a clean first-try run, >1 after transient retries.
  ScenarioError error = ScenarioError::kNone;
  std::string error_detail;
  int attempts = 1;

  /// Three-way verdict rendered into every JSONL row: "error" when the run
  /// itself failed (exception/timeout), else "pass"/"fail" by the checks.
  std::string_view verdict() const noexcept {
    return error != ScenarioError::kNone ? "error" : pass ? "pass" : "fail";
  }

  // Supervision (zero/empty unless the spec enabled it).
  bool supervised = false;
  std::uint64_t lock_losses = 0;
  std::uint64_t relocks = 0;
  std::uint64_t relock_latency_max = 0;
  int degradation_level = 0;  ///< Final core::DegradationLevel.
  std::vector<core::HealthEvent> health;  ///< Full event stream.

  // Steady-state window metrics (zero when calibration failed).
  control::LoopMetrics metrics;
  double target_vref_v = 1.0;
  /// First period where vout held the settle band, or -1 if never (only
  /// measured for schedules without DVFS steps).
  std::int64_t settle_period = -1;
  std::size_t transitions_settled = 0;
  std::size_t transitions_total = 0;
  double efficiency = 0.0;

  // Monte-Carlo yield (zero unless the spec set mc_dies; see ScenarioSpec).
  // The JSONL row carries these only for yield scenarios, and deliberately
  // not the engine choice (batched vs forced-scalar) -- the two paths must
  // emit byte-identical rows.
  std::uint64_t mc_dies = 0;       ///< Dies evaluated.
  double mc_yield = 0.0;           ///< Fraction with |INL| <= the limit.
  double mc_inl_mean_lsb = 0.0;    ///< Max-|INL| distribution, in LSBs.
  double mc_inl_p95_lsb = 0.0;
  double mc_inl_max_lsb = 0.0;
};

/// Renders one result as a flat ordered JsonObject (the JSONL record
/// schema: result_fields in spec_codec.cpp).  Health events appear only as
/// a count here; the full stream renders via `health_to_json`.
analysis::JsonObject to_json(const ScenarioResult& result);

/// One result as a single JSONL line (no trailing newline).
std::string to_json_line(const ScenarioResult& result);

/// One health event as a flat JsonObject, tagged with its scenario.
analysis::JsonObject health_to_json(const ScenarioResult& result,
                                    const core::HealthEvent& event);

/// One executed scenario: its result and the row line and health lines
/// rendered from it, in every isolation mode and after a resume.
struct ExecutedScenario {
  ScenarioResult result;
  std::string line;
  std::vector<std::string> health_lines;
};

/// Renders `result` into its row line and health lines.
ExecutedScenario render_executed(ScenarioResult result);

/// Reads the lines back into the result they were rendered from, keeping
/// the lines as they are.  Fields whose line does not parse, or whose key
/// does not read, keep their defaults.
ExecutedScenario read_executed(std::string line,
                               std::vector<std::string> health_lines);

/// read_executed's two steps, over lines already tokenized by
/// analysis::parse_flat_json_line.  read_row reads the result from the
/// row's `fields`, keeping `line` as it is; read_health_line appends one
/// health line to `entry` and reads its event from `fields`.
ExecutedScenario read_row(std::string line,
                          const std::map<std::string, std::string>& fields);
void read_health_line(ExecutedScenario& entry, std::string line,
                      const std::map<std::string, std::string>& fields);

/// Everything a single run produces -- the full telemetry for examples and
/// debugging, not just the verdict.
struct ScenarioArtifacts {
  ScenarioResult result;
  std::vector<control::LoopSample> history;
  std::vector<control::TransitionReport> transitions;
};

class ScenarioWorkspace;

/// Runs one scenario synchronously on the calling thread: a
/// ScenarioStepper driven with the scalar plant.
ScenarioArtifacts run_scenario(const ScenarioSpec& spec);

/// Like `run_scenario`, with a caller-owned workspace arena supplying the
/// cached sizing (see workspace.h).  Byte-identical output: sizing is pure,
/// so the arena only removes recomputation, never changes a row.
ScenarioArtifacts run_scenario(const ScenarioSpec& spec,
                               ScenarioWorkspace& workspace);

/// Like `run_scenario`, but never throws: any exception escaping spec
/// execution (infeasible sizing, allocation failure, a model bug) becomes a
/// structured `ScenarioError::kException` result carrying the exception
/// message, so one broken scenario cannot take down a whole batch.  Honors
/// the `debug_throw` test hook.
ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec);

/// Guarded run with a caller-owned workspace arena.
ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec,
                                       ScenarioWorkspace& workspace);

/// The row `run_scenario_guarded` gives for the exception in flight, as
/// artifacts.  Call it only from inside a catch block.
ScenarioArtifacts exception_artifacts(const ScenarioSpec& spec);

/// One scenario resumable one switching period at a time: run_scenario
/// split at the plant, so several closed loops can share one plant step
/// (run_lanes, batch_plan.h).  The constructor does everything before the
/// loop -- validation, sizing, build, calibration, supervision, the
/// runtime fault instants and the DVFS schedule -- and a spec whose row
/// needs no loop (invalid, Monte-Carlo yield, a calibration verdict) is
/// done() from the start.  Each period is begin() (the fault instants and
/// DVFS modes due, then the loop's pre-plant half), one plant step through
/// the returned drive -- plant().run_period, or a lane of
/// analog::BuckLanes -- and end().  finish() computes the metrics and the
/// verdict.  run_scenario drives exactly this with the scalar plant, so a
/// lane run differs from it only in the plant kernel, which is
/// bit-identical.  Fault instants and DVFS modes at or past the last
/// period never apply.  `spec` must outlive the stepper; exceptions
/// propagate (see exception_artifacts).
class ScenarioStepper {
 public:
  ScenarioStepper(const ScenarioSpec& spec, ScenarioWorkspace& workspace);
  ~ScenarioStepper();

  /// No period left to run.
  bool done() const noexcept;
  /// Pre-plant half of the next period; the drive stays valid until end().
  const control::PeriodDrive& begin();
  /// The loop's plant (valid unless the spec needed no loop).
  analog::BuckConverter& plant();
  /// Post-plant half of the period begin() opened.
  void end();
  /// The run's artifacts and verdict; call once, after done().
  ScenarioArtifacts finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The identity prefix every result row shares (name, family, architecture,
/// corner, seed, periods, target), factored out so the batch planner and
/// the error/timeout synthesizers stamp rows with exactly the runner's
/// shape.
ScenarioResult make_base_result(const ScenarioSpec& spec);

/// The error result `run_scenario_guarded` would produce, factored out so
/// the sandbox supervisor can synthesize crash/timeout rows with the same
/// shape.
ScenarioResult make_error_result(const ScenarioSpec& spec, ScenarioError error,
                                 std::string detail);

/// Suite-level aggregate of a batch run.
struct SuiteSummary {
  std::size_t total = 0;
  std::size_t passed = 0;
  std::size_t locked = 0;
  /// Failure reason -> count, key-sorted (deterministic iteration).
  std::map<std::string, std::size_t> failures;
  /// Family -> {passed, total}, key-sorted.
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_family;
};

SuiteSummary summarize(const std::vector<ScenarioResult>& results);

/// Parallel batch runner.  `threads == 0` resolves the analysis layer's
/// default (DDL_THREADS / hardware concurrency); any value yields identical
/// results.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(std::size_t threads = 0) : threads_(threads) {}

  /// Runs every spec and returns results in spec order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs) const;

  /// The results as a JSONL document (one object per line, spec order).
  static std::string jsonl(const std::vector<ScenarioResult>& results);

  /// The health-event streams of every supervised result as a JSONL
  /// document (spec order, then event order).  Same determinism contract
  /// as `jsonl`: byte-identical for any thread count.
  static std::string health_jsonl(const std::vector<ScenarioResult>& results);

  std::size_t threads() const noexcept { return threads_; }

 private:
  std::size_t threads_;
};

}  // namespace ddl::scenario
