// The campaign service daemon: a TCP (loopback) and Unix-domain-socket
// server that accepts spec lists -- a registry suite, or specs written by
// the client -- over the framed protocol (protocol.h), schedules them onto
// a sandbox-isolated worker pool, and streams result / health frames back.
//
// Every job is a scenario::CampaignJob (ddl/scenario/campaign.h), the
// same journaled spec list the CLI's Campaign runs: it owns the job's
// rows, its journal under `state_dir/jobs/<job_id>/` and its dispatch-unit
// plan.  The server adds `job.json` and `specs.jsonl` beside the journal
// (and `cancelled.json` on cancel).  A restarted server rescans that
// tree, resumes incomplete jobs as *orphans* (they keep executing with no
// client attached), and replays committed rows byte-exactly to a client
// that resubmits the same job -- job identity is content-addressed
// (client name + job tag + content fingerprint of every spec field), so
// resubmission is idempotent and no scenario ever runs twice.  A job's
// journal files close when it finishes or its cancel completes, and the
// job then leaves memory: the server keeps an index entry of a few
// hundred bytes, and a resubmission reopens the directory with the loader
// a restart uses.  Only a job whose rows are not all on disk (no
// state_dir, or a journal write fault) stays resident for replay.
//
// Scheduling is fair round-robin across clients at dispatch-unit
// granularity, bounded by per-client quotas: at most
// `max_inflight_per_client` dispatched scenarios at once, at most
// `max_pending_jobs_per_client` incomplete jobs -- a submit beyond that
// quota is answered with an explicit `backpressure` frame (retryable),
// never a disconnect.  A client's next unit is the first planned unit of
// its jobs with pending scenarios, trimmed to its remaining inflight
// quota (each scenario spends one slot): one scenario, or MC-yield
// scenarios sharing kernel constants that the worker runs as packed SoA
// kernel lanes -- byte-identical rows, several-fold throughput.  Closed
// loops stay one per unit (no closed-loop lanes): stop, cancel and commit
// keep their per-scenario granularity inside a quota.  Each finished unit
// is one journal commit.
//
// A `cancel` frame tears a job down cooperatively: pending scenarios are
// never dispatched, queued ones are withdrawn, in-flight ones finish and
// journal (the journal stays consistent), and a persistent `cancelled`
// marker in the job directory makes the decision durable -- a restarted
// server reschedules nothing cancelled.  A job's frames, `cancelled` and
// `job_done` included, go to every open session that submitted,
// resubmitted or cancelled it, once each: a cancel from a second session
// ends the submitter's wait too.  A chaos campaign arrives as the spec
// list the client expanded, and a replay bundle as a one-spec list whose
// verdict the client judges from the returned row: the server has one
// kind of job.
//
// Adversarial peers are bounded on every axis: a dead-peer timeout reaps
// silent connections, a partial-frame timeout reaps slowloris trickle, an
// outbox cap bounds memory against a peer that stops reading, and
// per-poll-pass frame/byte budgets keep one flooding session from
// starving the loop.  Every violation is structured error accounting
// (ServiceStats), never a crash and never an unbounded buffer.
//
// Threading: one event-loop thread owns every session and job (poll over
// the listeners, client sockets and a self-pipe);
// `workers` pool threads each own a scenario::ScenarioExecutor -- in the
// default process isolation a fork()ed sandbox worker whose crash or
// resource-limit death becomes a structured error row (and whose process
// group a cancel kills) -- and hand completions back through the
// self-pipe.  `request_stop()` is
// async-signal-safe (atomic store + pipe write), so a SIGTERM handler can
// trigger the graceful shutdown: stop dispatching, let in-flight
// scenarios finish and journal, close.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ddl/scenario/sandbox.h"

namespace ddl::service {

struct ServiceConfig {
  /// Loopback TCP listener; 0 binds an ephemeral port (see tcp_port()).
  bool enable_tcp = true;
  int tcp_port = 0;
  /// Unix-domain listener path; empty disables it.  An existing socket
  /// file at the path is replaced.
  std::string unix_path;
  /// Job durability root (journal per job under `<state_dir>/jobs/`); a
  /// replay of a job that has ended reads it back from there.  Empty keeps
  /// jobs in memory only: no resume across restarts, and every ended job
  /// stays resident for replay.
  std::string state_dir;
  /// Scenario worker threads.
  std::size_t workers = 2;
  /// Per-client cap on scenarios dispatched-but-not-completed.  The
  /// scheduler simply stops dispatching for a client at the cap; this is
  /// the fairness knob, not an error.
  std::size_t max_inflight_per_client = 4;
  /// Per-client cap on incomplete jobs.  A submit beyond it is answered
  /// with a `backpressure` frame and not accepted.
  std::size_t max_pending_jobs_per_client = 4;
  /// Idle heartbeat interval (a `heartbeat` frame to every session).
  std::uint64_t heartbeat_ms = 1000;
  /// Close a session whose peer has sent nothing for this long (0
  /// disables).  Pair it with the client's `heartbeat_ms` ping cadence:
  /// the timeout must exceed the ping interval by a healthy margin.
  std::uint64_t dead_peer_timeout_ms = 0;
  /// Close a session stuck mid-frame -- bytes buffered but no complete
  /// frame decoded -- for this long: the slowloris defense against a peer
  /// trickling a header one byte a minute (0 disables).
  std::uint64_t partial_frame_timeout_ms = 0;
  /// Per-session outbox cap: a peer that stops reading while result
  /// frames accumulate is disconnected (its job continues as an orphan)
  /// instead of growing the buffer without bound.  0 means 32 MiB.
  std::size_t max_outbox_bytes = 0;
  /// Per-poll-pass fairness budget for one session: at most this many
  /// frames handled (0 means 256) and 256 KiB read per pass.  Over-budget
  /// sessions simply yield to the next pass -- a flooding client cannot
  /// starve the rest of the event loop.
  std::size_t max_frames_per_tick = 0;
  /// Isolation mode and sandbox policy for every worker (shared with the
  /// CLI).
  scenario::IsolationConfig isolation;
  /// Test hook: record the client name of every dispatched scenario, in
  /// dispatch order (the fairness test reads it back via dispatch_log()).
  bool record_dispatch_log = false;
};

/// Monotonic counters, readable from any thread via stats().
struct ServiceStats {
  std::size_t sessions_accepted = 0;
  std::size_t sessions_closed = 0;
  std::size_t jobs_accepted = 0;    ///< New jobs created by a submit.
  std::size_t jobs_attached = 0;    ///< Resubmissions attached to a job.
  std::size_t jobs_recovered = 0;   ///< Jobs reloaded from state_dir.
  std::size_t jobs_completed = 0;
  std::size_t scenarios_executed = 0;  ///< Run by this process's workers.
  std::size_t scenarios_resumed = 0;   ///< Restored from a journal.
  std::size_t backpressure_frames = 0;
  std::size_t error_frames = 0;
  std::size_t heartbeats = 0;
  std::size_t jobs_cancelled = 0;     ///< Jobs torn down by a `cancel`.
  std::size_t sessions_timed_out = 0;  ///< Dead-peer / partial-frame kills.
  std::size_t outbox_overflows = 0;    ///< Sessions over max_outbox_bytes.
  /// Dispatch units of more than one scenario (packed MC-yield kernel
  /// lanes in one worker claim).
  std::size_t batched_units = 0;
  /// Sandbox containment (process isolation; see ddl/scenario/sandbox.h).
  std::size_t sandbox_crashes = 0;    ///< Workers killed by a fatal signal.
  std::size_t workers_respawned = 0;  ///< Replacement workers forked.
  std::size_t resource_kills = 0;     ///< Workers killed by RLIMIT caps.
  std::size_t workers_lost = 0;       ///< kWorkerLost rows emitted.
  /// Journal appends that failed on a disk fault (ENOSPC/EIO); the job's
  /// durability is dropped fail-closed and the client sees an error frame.
  std::size_t journal_io_errors = 0;
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServiceConfig config);
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// Binds the listeners, recovers `state_dir` jobs, builds one executor
  /// per worker (forking its sandbox while the server has no thread yet),
  /// then starts the worker pool and event loop.  False (with `*error`
  /// filled) on bind/recovery failure.
  bool start(std::string* error = nullptr);

  /// Graceful shutdown: stop dispatching, finish and journal in-flight
  /// scenarios, close every session, join all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Async-signal-safe stop trigger (atomic store + self-pipe write): the
  /// event loop begins the same graceful shutdown as stop(), which a
  /// non-signal thread must still join via stop() / wait_stopped().
  void request_stop();

  /// Blocks until the event loop has exited (after request_stop(), a
  /// SIGTERM, or stop() from another thread).
  void wait_stopped();

  /// The bound TCP port (the ephemeral one when config.tcp_port was 0);
  /// 0 when TCP is disabled.  Valid after start().
  int tcp_port() const noexcept;

  ServiceStats stats() const;

  /// Dispatch-order client names (empty unless record_dispatch_log).
  std::vector<std::string> dispatch_log() const;

  /// Blocks until no incomplete job remains (or the timeout expires).
  /// True when idle.  Covers orphan jobs, so a restart test can wait for
  /// recovery to finish without any client attached.
  bool wait_all_jobs_done(std::uint64_t timeout_ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ddl::service
