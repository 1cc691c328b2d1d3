// Crash-safe campaign execution on top of the scenario runner.
//
// A Campaign runs its spec list as plan -> execute -> commit: the batch
// planner (ddl/scenario/batch_plan.h) groups the list once, and each job
// cuts its contiguous shard's members of every planner group into dispatch
// units of a bounded die count (one batched kernel dispatch each), runs
// every other spec as a unit of its own, and takes units in order of their
// first member.  On top of that it adds three things a long-running batch
// service needs that the plain ScenarioRunner does not provide:
//
//   durability  every completed unit is appended to an on-disk JSONL
//               journal in one commit (write-ahead: health events first,
//               then the result lines as the commit records) next to a
//               checkpoint manifest written via atomic tmp-file+rename.  A
//               killed campaign resumes with `CampaignConfig::resume`:
//               committed scenarios are skipped and their journaled lines
//               reused *byte-exactly*, so the final stream is identical to
//               an uninterrupted run; a unit killed mid-commit re-runs its
//               uncommitted members.
//
//   isolation   each shard runs its units through one ScenarioExecutor
//               (ddl/scenario/sandbox.h).  By default that is a fork()ed
//               sandbox worker with a per-spec deadline
//               (`isolation.timeout_ms`, or derived from the spec's period
//               count): timeouts and lost workers are transient and retried
//               with exponential backoff up to `isolation.max_retries`, and
//               crashes, rlimit kills and exhausted retries become
//               structured `verdict:"error"` rows while the batch keeps
//               going.  A packed unit whose worker dies degrades to
//               per-scenario retries.  Exceptions are captured per scenario
//               by `run_scenario_guarded` and are not retried
//               (deterministic).
//
//   determinism the journal is completion-ordered (a durability log, not
//               the artifact); the final result and health streams are
//               re-emitted in spec order from deterministic per-scenario
//               content, so they are byte-identical for any `jobs` value
//               and across any interrupt/resume split.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"

namespace ddl::scenario {

struct CampaignConfig {
  /// Journal + checkpoint-manifest directory; empty disables durability
  /// (isolation still applies).  Created on demand.
  std::string journal_dir;
  /// Resume from an existing journal in `journal_dir`: the manifest must
  /// fingerprint-match the spec list, completed scenarios are skipped.
  bool resume = false;
  /// Worker threads (one executor each); 0 resolves DDL_THREADS /
  /// hardware concurrency.
  std::size_t jobs = 0;
  /// Optional graceful-stop flag (SIGTERM/SIGINT): when it reads true, the
  /// campaign stops *starting* dispatch units.  In-flight units finish and
  /// are journaled normally, so the journal stays resumable and non-torn;
  /// scenarios of unstarted units are counted in CampaignOutcome::skipped.
  const std::atomic<bool>* stop = nullptr;
  /// Where scenarios execute -- sandbox workers by default, or in process
  /// -- and the sandbox's deadline, retry and rlimit policy.
  IsolationConfig isolation;
};

/// Everything a campaign run produces.  `result_lines` (spec order, no
/// trailing newline) is the canonical byte-stable stream; `results` backs
/// summarize() -- entries for resumed scenarios are reconstructed from
/// their journal lines (verdict fields only, metrics left zero).
struct CampaignOutcome {
  std::vector<ScenarioResult> results;
  std::vector<std::string> result_lines;
  /// Health-event stream, spec order then event order (byte-stable).
  std::string health_jsonl;

  std::size_t executed = 0;   ///< Scenarios run in this process.
  std::size_t resumed = 0;    ///< Scenarios restored from the journal.
  std::size_t retried = 0;    ///< Scenarios that needed more than 1 attempt.
  std::size_t timeouts = 0;   ///< Scenarios exhausted as kTimeout errors.
  std::size_t exceptions = 0; ///< Scenarios captured as kException errors.
  std::size_t skipped = 0;    ///< Scenarios never started (graceful stop).
  std::size_t sandbox_crashes = 0;   ///< Workers killed by a fatal signal.
  std::size_t workers_respawned = 0; ///< Replacement sandbox workers forked.
  std::size_t resource_kills = 0;    ///< Workers killed by RLIMIT caps.
  std::size_t workers_lost = 0;      ///< kWorkerLost rows.
  /// Multi-spec (packed) dispatch units run, as ServiceStats counts them.
  std::size_t batched_units = 0;
  /// True when a graceful stop cut the run short: `skipped` scenarios have
  /// neither a result row nor a journal entry; resume picks them up.
  bool interrupted = false;

  /// The result stream as one JSONL document.
  std::string jsonl() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_(std::move(config)) {}

  /// Runs (or resumes) the campaign over `specs`.  Spec names must be
  /// unique (the journal is keyed by name); throws std::invalid_argument
  /// otherwise, and std::runtime_error when `resume` is set but the
  /// journal directory does not hold a matching campaign manifest.
  CampaignOutcome run(const std::vector<ScenarioSpec>& specs) const;

  const CampaignConfig& config() const noexcept { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace ddl::scenario
