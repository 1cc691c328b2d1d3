// Crash-safe campaign execution: the durable job, and the CLI's engine
// that drives it through ScenarioExecutors.
//
// A CampaignJob is the durable state of one spec list: its rows by index,
// the on-disk journal behind them and the dispatch-unit policy.  It is the
// one module that knows how a journaled spec list is opened, resumed, cut
// into units and committed; both Campaign::run (the CLI) and every
// ddl_scenario_server job go through it.  The batch planner
// (ddl/scenario/batch_plan.h) groups the list once; a unit is a run of
// one planner group's members of a bounded die count (one batched kernel
// dispatch), a set of closed loops whose lane schedule has a bounded wall
// (one closed-loop lane unit, CLI only), or any other spec alone.  Without
// lane units, units come in order of their first member; with them, the
// specs alone come first, then the lane units, longest wall first, then
// the group units.
//
// Campaign::run drives a CampaignJob: it cuts the uncommitted specs into
// one unit list, and its executors (one per job thread) pull the units in
// order.  A job, run this way or by the daemon, gives three things:
//
//   durability  every completed unit is appended to an on-disk JSONL
//               journal in one commit (write-ahead: health events first,
//               then the result lines as the commit records) next to a
//               manifest (spec fingerprint and count) written once, via
//               atomic tmp-file+rename, when the journal opens.  A
//               killed campaign resumes with `CampaignConfig::resume`:
//               committed scenarios are skipped and their journaled lines
//               reused *byte-exactly*, so the final stream is identical to
//               an uninterrupted run; a unit killed mid-commit re-runs its
//               uncommitted members.  The journal files close when the
//               last scenario commits.
//
//   isolation   each job thread runs its units through one ScenarioExecutor
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
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {

class JournalWriter;

/// The durable state of one spec list (see the header comment).  Runs
/// nothing and starts no thread.  commit() may run from several threads at
/// once; no other member may run while a commit is in flight.
class CampaignJob {
 public:
  /// Opens the job over `specs`; an empty `journal_dir` keeps it in
  /// memory.  Otherwise the directory is created on demand and, with
  /// `resume`, must hold a manifest fingerprint-matching `specs`
  /// (std::runtime_error otherwise): one load_journal repairs the journal
  /// files and every committed row is restored by index -- its journaled
  /// line and health lines byte-exactly, its result read back from them.  The
  /// journal files open (fresh, or appending on resume) only while some
  /// row is uncommitted.  The list is planned once on `workspace`.  Spec
  /// names must be unique (the journal is keyed by name); throws
  /// std::invalid_argument otherwise.
  CampaignJob(const std::vector<ScenarioSpec>& specs,
              const std::string& journal_dir, bool resume,
              ScenarioWorkspace& workspace);
  ~CampaignJob();

  CampaignJob(const CampaignJob&) = delete;
  CampaignJob& operator=(const CampaignJob&) = delete;

  bool committed(std::size_t index) const { return committed_[index]; }
  /// Row of a committed spec (an empty row otherwise).
  const ExecutedScenario& row(std::size_t index) const { return rows_[index]; }
  /// Rows committed so far, restored ones included.
  std::size_t completed() const noexcept { return completed_; }
  /// Rows restored from the journal when the job opened.
  std::size_t resumed() const noexcept { return resumed_; }
  bool done() const noexcept { return completed_ == rows_.size(); }

  /// Dispatch units over the uncommitted specs: each planner group's
  /// uncommitted members in runs of at most 16384 dies -- one batched
  /// kernel dispatch per unit -- and every other spec alone, ordered by
  /// first member.  With `pack_lanes`, the uncommitted lane-eligible closed
  /// loops (lane_eligible) become closed-loop lane units instead: the loops
  /// go longest first (ties by index), and each unit opens at the longest
  /// loop left and takes the next ones, first fit, while its lane_steps --
  /// run_lanes' schedule replayed on the period counts -- stay within
  /// max(6000, the opener's periods).  The list is then the specs alone in
  /// index order, the lane units longest lane_steps first, and the group
  /// units by first member.  A scenario is never split.  The list depends
  /// on the specs and the committed rows alone.  Campaign::run packs lanes;
  /// the daemon (ScenarioServer) does not.
  std::vector<std::vector<std::size_t>> units(bool pack_lanes) const;

  /// Commits one executed unit: `runs[k]` is the row of spec `unit[k]`.
  /// One journal record per unit; the journal closes after the last row.
  /// The rows are kept even when the record fails: a JournalIoError
  /// closes the journal (fail-closed, the job goes on in memory) and is
  /// rethrown.
  void commit(const std::vector<std::size_t>& unit,
              std::vector<ExecutedScenario> runs);

  /// Closes the journal for a job that will commit nothing more (a
  /// cancelled one); later commits stay in memory.
  void close();

  /// Moves every row out, by index, for a caller done with the job.
  std::vector<ExecutedScenario> take_rows() && { return std::move(rows_); }

 private:
  BatchPlan plan_;
  std::vector<std::uint64_t> dies_;  ///< mc_dies by spec index.
  /// Periods of each lane-eligible spec by index; 0 for the others.
  std::vector<std::uint64_t> lane_periods_;
  std::vector<ExecutedScenario> rows_;
  std::vector<bool> committed_;
  std::size_t completed_ = 0;
  std::size_t resumed_ = 0;
  std::mutex commit_mutex_;  ///< Guards the members commit() writes.
  std::unique_ptr<JournalWriter> journal_;
};

struct CampaignConfig {
  /// Journal + manifest directory; empty disables durability (isolation
  /// still applies).  Created on demand.
  std::string journal_dir;
  /// Resume from an existing journal in `journal_dir`: the manifest must
  /// fingerprint-match the spec list, completed scenarios are skipped.
  bool resume = false;
  /// Worker threads, each with one executor pulling units from the one
  /// unit list; never more than there are units.  0 resolves DDL_THREADS /
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
/// trailing newline) is the canonical byte-stable stream; `results` holds
/// the result each line was rendered from.
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

  /// Runs (or resumes) the campaign over `specs` through one CampaignJob;
  /// throws what its constructor throws.
  CampaignOutcome run(const std::vector<ScenarioSpec>& specs) const;

  const CampaignConfig& config() const noexcept { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace ddl::scenario
