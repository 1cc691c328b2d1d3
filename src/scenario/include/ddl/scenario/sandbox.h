// Scenario supervision: the one execution engine for dispatch units, and
// the fork()ed sandbox that contains them.
//
// A ScenarioExecutor is the one dispatch-unit execution engine shared by
// the Campaign engine and the campaign service daemon.  In
// IsolationMode::kThread it runs units in process on the calling thread
// (batch planner groups, closed-loop lanes, run_scenario_guarded for the
// rest) with no deadline, no retry and no containment.  In
// IsolationMode::kProcess it supervises a fork()ed *worker process*:
//
//   supervisor (this process)              worker (forked child)
//   ----------------------------          ---------------------------
//   header line  ----------------------->  {"attempt":A,"specs":N}
//   N spec lines ----------------------->  strict spec read, run
//                <-----------------------  per member: health lines, row
//   waitpid on death; classify; respawn
//
// The pipe pair carries JSONL, one line per '\n'.  A spec line is the
// codec's unprefixed line, the bytes specs.jsonl holds; health and row
// lines are the exact lines the runner would emit, health before its row
// as in the journal.  The supervisor tokenizes each returning line once,
// checks that it names the member it belongs to, and reads the result
// back with the row codec, so thread mode and process mode produce
// byte-identical streams and the same results.  A line that does not
// tokenize or names another member kills the worker.
//
// Deadlines, retries, backoff and resource caps exist only here: a
// scenario that segfaults, aborts, blows past an address-space or
// CPU-time cap (setrlimit inside the child), or wedges beyond its
// deadline kills only the worker, and only a SIGKILL of the worker's
// process group really cancels work.  The supervisor reaps it (waitpid),
// classifies the exit status into a structured ScenarioError (kCrash /
// kResourceLimit / kWorkerLost / kTimeout), respawns the worker and --
// for transient classes -- retries with exponential backoff.  Crash rows
// are deterministic (signal name + spec content fingerprint; never a pid
// or address), so a journaled crash row replays byte-identically on
// resume.
//
// Every unit, a lone spec included, runs through one supervision loop in
// the parent and one unit routine in the worker: one batched kernel
// dispatch per planner group (threads=1), one closed-loop lane run for
// the lane-eligible loops, and the guarded per-scenario path, debug hooks
// included, for the rest.  A lone spec gets the retry policy; a packed
// unit gets one attempt, and if its worker dies mid-unit the partial rows
// are discarded and every member runs as its own lone unit -- never a
// lost or duplicated row.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ddl/scenario/runner.h"

namespace ddl::scenario {

/// Where a dispatch unit executes.
enum class IsolationMode {
  /// In process on the calling thread: no deadline, no retry, no
  /// containment -- a crashing scenario takes the host down and a wedged
  /// one wedges it.  For the library, sanitizers and benches.
  kThread,
  /// fork()ed sandbox worker: crashes, resource blowups and hard hangs
  /// become structured error rows while the supervisor survives.
  kProcess,
};

std::string_view to_string(IsolationMode mode) noexcept;

/// Per-worker resource caps, applied via setrlimit() inside the sandbox
/// child (process mode only).
struct SandboxLimits {
  /// RLIMIT_AS cap in MiB; 0 leaves the address space unlimited.
  std::uint64_t mem_limit_mb = 0;
  /// RLIMIT_CPU cap in seconds; 0 leaves CPU time unlimited.
  std::uint64_t cpu_limit_s = 0;
};

/// Supervision policy.  Every field but `mode` is a sandbox knob; thread
/// mode ignores them.
struct IsolationConfig {
  /// Deadline per attempt in wall milliseconds; 0 derives a generous
  /// per-spec default from the period count (auto_timeout_ms).
  std::uint64_t timeout_ms = 0;
  /// Extra attempts granted to a transiently failed (timed-out or lost)
  /// scenario.
  int max_retries = 1;
  /// First retry backoff; doubles on every further retry.
  std::uint64_t backoff_base_ms = 50;
  /// Thread or process execution.
  IsolationMode mode = IsolationMode::kProcess;
  /// Resource caps for process-mode workers.
  SandboxLimits limits;
};

/// The derived deadline when `timeout_ms == 0`: generous enough that only
/// a genuine hang trips it (10 s floor + 20 ms per switching period), and
/// a pure function of the spec so error rows stay deterministic.
std::uint64_t auto_timeout_ms(const ScenarioSpec& spec);

/// Shared sandbox telemetry, aggregated across every executor of a
/// campaign or server (plain atomics; hand the same instance to all).
struct SandboxCounters {
  /// Workers killed by a fatal signal (rows classified kCrash).
  std::atomic<std::size_t> crashes{0};
  /// Fresh workers forked to replace a dead one (initial spawns excluded).
  std::atomic<std::size_t> respawns{0};
  /// Workers killed by their RLIMIT_AS / RLIMIT_CPU cap (kResourceLimit).
  std::atomic<std::size_t> resource_kills{0};
  /// Rows classified kWorkerLost (unattributable death, retries exhausted).
  std::atomic<std::size_t> workers_lost{0};
};

/// Executes dispatch units (one spec, or one packed unit) under
/// the configured isolation mode.  One executor per campaign/server worker
/// thread; not itself thread-safe except interrupt(), which any thread may
/// call to kill the in-flight unit's worker process.
class ScenarioExecutor {
 public:
  /// In process mode the constructor forks the sandbox worker, so build
  /// executors while the process is still single-threaded: a child forked
  /// while another thread holds an allocator lock inherits that lock held
  /// forever (GCC's ASan allocator has no fork handler).  `counters`, when
  /// given, must outlive the executor.
  explicit ScenarioExecutor(IsolationConfig config,
                            SandboxCounters* counters = nullptr);
  /// Kills and reaps the idle worker (it holds nothing worth a graceful
  /// exit).
  ~ScenarioExecutor();

  ScenarioExecutor(const ScenarioExecutor&) = delete;
  ScenarioExecutor& operator=(const ScenarioExecutor&) = delete;

  /// Runs one dispatch unit in spec order: one batched dispatch per
  /// planner group, closed-loop lanes for the lane-eligible loops and the
  /// guarded per-scenario path for the rest, whatever the unit's size.  In
  /// process mode the unit runs in the worker under the sum of its
  /// members' deadlines; a one-spec unit is retried under the full
  /// deadline/retry policy, while the members of a packed unit whose
  /// worker dies run again one by one as one-spec units.
  /// Never throws: every failure mode (crash, limit, timeout, lost worker)
  /// comes back as an error row.  Returns one entry per spec, in order --
  /// or an empty vector when interrupt() withdrew the unit (check
  /// interrupted()).
  std::vector<ExecutedScenario> run_unit(
      const std::vector<ScenarioSpec>& specs);

  /// Kills the current worker's process group (cancel support).  The
  /// in-flight run_unit returns empty with interrupted() set; rows of the
  /// withdrawn unit are never emitted.  Safe from any thread.  Thread mode
  /// has no process to kill: the in-flight unit finishes normally.
  void interrupt();

  bool interrupted() const noexcept;

  /// Re-arms the executor after a withdrawn unit (the server reuses its
  /// per-worker executor across jobs).
  void clear_interrupt() noexcept;

  IsolationMode mode() const noexcept;

  /// Implementation state (public so the supervisor's file-local helpers
  /// can take it by reference; the definition stays in sandbox.cpp).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace ddl::scenario
