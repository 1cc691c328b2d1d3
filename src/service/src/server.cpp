#include "ddl/service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"
#include "ddl/service/net_util.h"
#include "ddl/service/protocol.h"

namespace ddl::service {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using scenario::ScenarioSpec;

constexpr std::size_t kMaxErrorDetail = 2000;
constexpr std::size_t kDefaultMaxOutboxBytes = std::size_t{32} << 20;
constexpr std::size_t kDefaultMaxFramesPerTick = 256;
constexpr std::size_t kMaxRxBytesPerTick = std::size_t{256} << 10;

/// Content-addressed job identity: same client, same tag, same spec bytes
/// -> same id, so resubmission after a crash or disconnect attaches to the
/// original job instead of running anything twice.  Rendered in the same
/// 16-hex-digit style the journal fingerprints use.
std::string job_id_of(const std::string& client, const std::string& tag,
                      const std::string& content_fingerprint) {
  return core::fnv1a64_hex(client + "\n" + tag + "\n" + content_fingerprint);
}

std::string clip(std::string text) {
  if (text.size() > kMaxErrorDetail) {
    text.resize(kMaxErrorDetail);
    text += "...";
  }
  return text;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) {
      out += "; ";
    }
    out += part;
  }
  return out;
}

/// A dispatch unit in flight: a planned unit of one job (trimmed to the
/// owner's inflight quota, each scenario spending one slot) that one
/// worker runs in a single run_unit -- packed kernel lanes for several
/// yield scenarios.  The worker fills `runs` with rows rendered to their
/// final JSONL text (the expensive part), so the event loop only commits
/// and frames bytes; `runs` stays empty when a cancel killed the unit.
struct Unit {
  std::string job_id;
  std::vector<std::size_t> indices;
  std::vector<ScenarioSpec> specs;
  std::vector<scenario::ExecutedScenario> runs;
};

struct Job {
  std::string id;
  std::string tag;
  std::string owner;  ///< Client name (job identity includes it).
  std::vector<ScenarioSpec> specs;
  std::string content_fingerprint;  ///< job identity (every spec field)
  /// Rows, journal and unit plan.  Behind a pointer because a CampaignJob
  /// does not move.
  std::unique_ptr<scenario::CampaignJob> campaign;
  /// The job's dispatch units, planned once when it opens.
  std::vector<std::vector<std::size_t>> units;
  std::vector<bool> inflight;  ///< By index: queued or running on a worker.
  /// Open sessions that submitted, resubmitted or cancelled the job; each
  /// gets its frames, once.  Empty = orphan.
  std::vector<int> session_fds;
  bool cancelled = false;  ///< Cooperative teardown requested (durable).
  /// Every committed row is in the job's directory: it opened a journal
  /// and no commit failed.  A job that ends otherwise stays resident.
  bool durable = false;

  bool done() const noexcept { return campaign->done(); }

  /// Has scenarios left to run: the test that places a job loaded from
  /// its directory live, or in the index of closed jobs.
  bool schedulable() const noexcept { return !done() && !cancelled; }

  /// Scenarios currently queued or running on a worker.  Cancel waits for
  /// these to finish and journal before the teardown completes.
  std::size_t inflight_specs() const noexcept {
    return static_cast<std::size_t>(
        std::count(inflight.begin(), inflight.end(), true));
  }

  /// Finished, or cancelled with nothing left queued or running.
  bool ended() const noexcept {
    return done() || (cancelled && inflight_specs() == 0);
  }

  /// Opens the job's rows and plans its units; `journal_dir` empty keeps
  /// it in memory.
  void open(const std::string& journal_dir, bool resume,
            scenario::ScenarioWorkspace& workspace) {
    campaign = std::make_unique<scenario::CampaignJob>(specs, journal_dir,
                                                       resume, workspace);
    durable = !journal_dir.empty();
    // Closed loops stay one per unit: a unit is trimmed to the owner's
    // inflight quota (four scenarios by default) and a graceful stop
    // lets in-flight units finish, so a lane unit would make a quota of
    // loops stop, cancel and commit all at once.
    units = campaign->units(/*pack_lanes=*/false);
    inflight.assign(specs.size(), false);
  }
};

/// A closed job's identity, ordered so that one owner's jobs of one tag
/// sit side by side: a cancel by tag reads one range of the index.
struct ClosedKey {
  std::string owner;
  std::string tag;
  std::string id;
  auto operator<=>(const ClosedKey&) const = default;
};

/// What a job leaves in memory once it has ended: how it ended, and the
/// two job_done counts its directory cannot tell (a reopened directory
/// reports every row as resumed).  A replay reads everything else from
/// the reopened directory, except for a job whose rows are not all there
/// (not durable), which stays resident.
struct ClosedJob {
  bool cancelled = false;    ///< Ended by a cancel, not by its last row.
  std::size_t executed = 0;  ///< job_done's counts as first delivered.
  std::size_t resumed = 0;
  std::unique_ptr<Job> resident;
};

/// Per-client-name scheduling state.  Slots persist across sessions (a
/// reconnecting client keeps its quota and its queue position) and across
/// restarts (recovery recreates the slot from job.json's client field).
struct ClientSlot {
  std::string name;
  std::vector<std::string> jobs;  ///< Incomplete job ids, submit order.
  std::size_t inflight = 0;       ///< Dispatched-but-not-completed count.
};

struct Session {
  int fd = -1;
  FrameReader reader;
  std::string outbox;
  std::size_t outbox_offset = 0;
  std::string client_name;
  bool said_hello = false;
  bool closing = false;  ///< Close as soon as the outbox drains.

  // --- Liveness tracking (dead-peer / slowloris timeouts) ---------------
  Clock::time_point last_rx;  ///< Last time recv() returned bytes.
  /// Start of the current stuck-mid-frame window: set when bytes sit
  /// buffered without a complete frame decoding, cleared on progress.
  Clock::time_point partial_since;
  bool partial_pending = false;
  std::size_t frames_seen = 0;  ///< reader.frames_decoded() snapshot.
};

}  // namespace

struct ScenarioServer::Impl {
  explicit Impl(ServiceConfig config) : config(std::move(config)) {}

  ServiceConfig config;

  // --- Listener / wakeup fds (created in start, owned by event loop) ----
  int tcp_listen_fd = -1;
  int unix_listen_fd = -1;
  int bound_tcp_port = 0;
  int wake_read_fd = -1;
  int wake_write_fd = -1;

  // --- Event-loop-owned state (no locks: single-threaded owner) ---------
  std::map<int, Session> sessions;
  /// Live jobs: with scenarios to run, or in a cancel's teardown.
  std::map<std::string, Job> jobs;
  /// Every job that has ended (see retire).
  std::map<ClosedKey, ClosedJob> closed;
  using ClosedIt = std::map<ClosedKey, ClosedJob>::iterator;
  std::vector<ClientSlot> clients;
  std::size_t rr_cursor = 0;
  bool draining = false;
  /// Event-loop-owned sizing cache the jobs plan their units on
  /// (single-threaded owner, like everything above).
  scenario::ScenarioWorkspace plan_workspace;

  // --- Worker pool ------------------------------------------------------
  std::vector<std::thread> worker_threads;
  std::thread event_thread;
  std::mutex task_mutex;
  std::condition_variable task_cv;
  std::deque<Unit> task_queue;
  bool workers_quit = false;
  std::mutex completion_mutex;
  std::deque<Unit> completions;
  scenario::SandboxCounters sandbox_counters;
  /// One executor per worker, built in start() before any thread exists
  /// and destroyed after the workers join.
  std::vector<std::unique_ptr<scenario::ScenarioExecutor>> executors;

  /// In-flight dispatch units by worker index, so handle_cancel can kill
  /// the sandbox worker process of a cancelled job (executor->interrupt()).
  /// Entries are registered before run_unit and erased after, all under
  /// active_mutex.
  struct ActiveUnit {
    std::string job_id;
    scenario::ScenarioExecutor* executor = nullptr;
  };
  std::mutex active_mutex;
  std::map<std::size_t, ActiveUnit> active_units;

  // --- Cross-thread status ----------------------------------------------
  std::atomic<bool> stop_requested{false};
  bool started = false;
  bool stopped_joined = false;
  std::mutex lifecycle_mutex;
  std::mutex stopped_mutex;
  std::condition_variable stopped_cv;
  bool event_loop_exited = false;

  mutable std::mutex stats_mutex;
  ServiceStats stats_data;
  std::vector<std::string> dispatch_log_data;

  std::mutex jobs_done_mutex;
  std::condition_variable jobs_done_cv;
  std::size_t active_jobs = 0;  ///< Incomplete jobs (orphans included).

  // ----------------------------------------------------------------------

  void bump(std::size_t ServiceStats::* counter, std::size_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_data.*counter += by;
  }

  void note_dispatch(const std::string& client) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    if (config.record_dispatch_log) {
      dispatch_log_data.push_back(client);
    }
  }

  void set_active_jobs_delta(long delta) {
    std::lock_guard<std::mutex> lock(jobs_done_mutex);
    active_jobs = static_cast<std::size_t>(
        static_cast<long>(active_jobs) + delta);
    if (active_jobs == 0) {
      jobs_done_cv.notify_all();
    }
  }

  ClientSlot& slot_of(const std::string& name) {
    for (ClientSlot& slot : clients) {
      if (slot.name == name) {
        return slot;
      }
    }
    clients.push_back(ClientSlot{name, {}, 0});
    return clients.back();
  }

  void wake() {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t wrote = ::write(wake_write_fd, &byte, 1);
  }

  // --- Frame output -----------------------------------------------------

  std::size_t max_outbox_bytes() const noexcept {
    return config.max_outbox_bytes == 0 ? kDefaultMaxOutboxBytes
                                        : config.max_outbox_bytes;
  }

  void send_frame(Session& session, const analysis::JsonObject& frame) {
    if (session.closing) {
      return;
    }
    session.outbox += encode_frame(frame);
    flush_outbox(session);
    // A peer that stops reading while frames accumulate is disconnected
    // rather than holding unbounded memory; its jobs continue as orphans
    // and a reconnect replays every committed row.
    if (session.outbox.size() - session.outbox_offset > max_outbox_bytes()) {
      session.outbox.clear();
      session.outbox_offset = 0;
      session.closing = true;
      bump(&ServiceStats::outbox_overflows);
    }
  }

  /// Nonblocking flush; leftover bytes wait for POLLOUT.  EINTR is a
  /// retry, never a peer-gone signal (net::retry_eintr) -- the bug class
  /// this helper exists to kill is a SIGCHLD from a dying sandbox
  /// worker tearing down an innocent session mid-send.
  void flush_outbox(Session& session) {
    while (session.outbox_offset < session.outbox.size()) {
      const ssize_t sent = net::retry_eintr([&] {
        return ::send(session.fd,
                      session.outbox.data() + session.outbox_offset,
                      session.outbox.size() - session.outbox_offset,
                      MSG_NOSIGNAL);
      });
      if (sent > 0) {
        session.outbox_offset += static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      session.closing = true;  // Peer gone; reaped on the next poll pass.
      return;
    }
    session.outbox.clear();
    session.outbox_offset = 0;
  }

  void send_error(Session& session, const std::string& code,
                  const std::string& detail, const std::string& job_tag = "") {
    analysis::JsonObject frame = make_frame("error");
    frame.set("code", code);
    frame.set("detail", clip(detail));
    if (!job_tag.empty()) {
      frame.set("job", job_tag);
    }
    // Bump before the send: once the client has read the frame off the
    // socket, stats() is guaranteed to already reflect it.
    bump(&ServiceStats::error_frames);
    send_frame(session, frame);
  }

  // --- Job lifecycle ----------------------------------------------------

  std::string job_dir(const std::string& job_id) const {
    return config.state_dir + "/jobs/" + job_id;
  }

  /// Persists a fresh job (with a state_dir: job.json and specs.jsonl,
  /// then its journal) and registers it.  Throws std::runtime_error when
  /// the state directory is not writable.
  Job& create_job(Job job) {
    std::string dir;
    if (!config.state_dir.empty()) {
      dir = job_dir(job.id);
      fs::create_directories(dir);
      analysis::JsonObject meta;
      meta.set("schema_version", analysis::kBenchJsonSchemaVersion);
      meta.set("record", "service_job");
      meta.set("job_id", job.id);
      meta.set("client", job.owner);
      meta.set("tag", job.tag);
      meta.set("scenarios", static_cast<std::uint64_t>(job.specs.size()));
      meta.set("fingerprint", job.content_fingerprint);
      std::string spec_lines;
      for (const ScenarioSpec& spec : job.specs) {
        spec_lines += scenario::spec_to_json(spec).to_json_line();
        spec_lines += "\n";
      }
      // Specs persist before the journal opens: a job directory always
      // holds enough to resume, even when the server dies immediately
      // after the accept.
      analysis::write_file_atomic(dir + "/specs.jsonl", spec_lines);
      analysis::write_file_atomic(dir + "/job.json", meta.to_json_line() + "\n");
    }
    job.open(dir, /*resume=*/false, plan_workspace);
    bump(&ServiceStats::jobs_accepted);
    return place(std::move(job));
  }

  /// Makes a job live: it joins its owner's slot and executes, as an
  /// orphan until a session attaches.
  Job& place(Job job) {
    const std::string id = job.id;
    Job& stored = jobs.emplace(id, std::move(job)).first->second;
    slot_of(stored.owner).jobs.push_back(id);
    set_active_jobs_delta(+1);
    return stored;
  }

  void send_accepted(Session& session, const Job& job, bool resumed) {
    analysis::JsonObject frame = make_frame("accepted");
    frame.set("job", job.tag);
    frame.set("job_id", job.id);
    frame.set("scenarios", static_cast<std::uint64_t>(job.specs.size()));
    frame.set("fingerprint", job.content_fingerprint);
    frame.set("resumed", resumed);
    frame.set("completed",
              static_cast<std::uint64_t>(job.campaign->completed()));
    send_frame(session, frame);
  }

  void send_result_frames(Session& session, const Job& job,
                          std::size_t index) {
    const scenario::ExecutedScenario& row = job.campaign->row(index);
    std::size_t seq = 0;
    for (const std::string& line : row.health_lines) {
      analysis::JsonObject frame = make_frame("health");
      frame.set("job_id", job.id);
      frame.set("index", static_cast<std::uint64_t>(index));
      frame.set("seq", static_cast<std::uint64_t>(seq++));
      frame.set("row", line);
      send_frame(session, frame);
    }
    analysis::JsonObject frame = make_frame("result");
    frame.set("job_id", job.id);
    frame.set("index", static_cast<std::uint64_t>(index));
    frame.set("row", row.line);
    send_frame(session, frame);
  }

  void send_job_done(Session& session, const Job& job,
                     const ClosedJob& entry) {
    const scenario::CampaignJob& campaign = *job.campaign;
    std::size_t passed = 0;
    for (std::size_t i = 0; i < job.specs.size(); ++i) {
      passed += campaign.row(i).result.pass ? 1 : 0;
    }
    analysis::JsonObject frame = make_frame("job_done");
    frame.set("job_id", job.id);
    frame.set("job", job.tag);
    frame.set("scenarios", static_cast<std::uint64_t>(job.specs.size()));
    frame.set("passed", static_cast<std::uint64_t>(passed));
    frame.set("failed",
              static_cast<std::uint64_t>(campaign.completed() - passed));
    frame.set("executed", static_cast<std::uint64_t>(entry.executed));
    frame.set("resumed", static_cast<std::uint64_t>(entry.resumed));
    send_frame(session, frame);
  }

  void send_cancelled(Session& session, const Job& job) {
    analysis::JsonObject frame = make_frame("cancelled");
    frame.set("job_id", job.id);
    frame.set("job", job.tag);
    frame.set("completed",
              static_cast<std::uint64_t>(job.campaign->completed()));
    frame.set("total", static_cast<std::uint64_t>(job.specs.size()));
    send_frame(session, frame);
  }

  /// The frame that ends an ended job's stream: `cancelled`, or job_done
  /// with the counts of its first delivery.
  void send_terminal(Session& session, const Job& job,
                     const ClosedJob& entry) {
    if (entry.cancelled) {
      send_cancelled(session, job);
    } else {
      send_job_done(session, job, entry);
    }
  }

  /// Attaches `session` to `job`'s frames, beside the sessions already
  /// attached.
  static void attach(Job& job, const Session& session) {
    if (std::find(job.session_fds.begin(), job.session_fds.end(),
                  session.fd) == job.session_fds.end()) {
      job.session_fds.push_back(session.fd);
    }
  }

  /// Calls `send` with every open session attached to `job`.
  template <typename Send>
  void each_session(const Job& job, Send send) {
    for (const int fd : job.session_fds) {
      const auto it = sessions.find(fd);
      if (it != sessions.end()) {
        send(it->second);
      }
    }
  }

  /// Replays every committed row of `job` (byte-exact journal/journal-less
  /// lines) to a resubmitting session.
  void replay(Session& session, const Job& job) {
    send_accepted(session, job, /*resumed=*/true);
    for (std::size_t i = 0; i < job.specs.size(); ++i) {
      if (job.campaign->committed(i)) {
        send_result_frames(session, job, i);
      }
    }
    bump(&ServiceStats::jobs_attached);
  }

  /// A closed job's rows: its resident Job, or else its directory loaded
  /// into `loaded` the way a restart loads it.  Null when the directory
  /// cannot be read: the entry is forgotten, as a restart skips such a
  /// directory.
  Job* reopen(ClosedIt it, std::optional<Job>& loaded) {
    if (it->second.resident) {
      return it->second.resident.get();
    }
    try {
      return &loaded.emplace(
          load_job(job_dir(it->first.id), it->second.cancelled));
    } catch (const std::exception&) {
      closed.erase(it);
      return nullptr;
    }
  }

  /// Replays a closed job to a resubmitting session, ending with its
  /// terminal frame.  A directory that is no longer closed (rows cut from
  /// its journal) goes live as a restart would place it, so only the
  /// missing scenarios run.  False when the directory cannot be read: the
  /// caller admits the job afresh.
  bool replay_closed(Session& session, ClosedIt it) {
    std::optional<Job> loaded;
    Job* job = reopen(it, loaded);
    if (job == nullptr) {
      return false;
    }
    if (job->schedulable()) {
      closed.erase(it);
      Job& live = place(std::move(*job));
      attach(live, session);
      replay(session, live);
      dispatch();
      return true;
    }
    replay(session, *job);
    send_terminal(session, *job, it->second);
    return true;
  }

  // --- Scheduling -------------------------------------------------------

  /// Dispatches the first planned unit of the client's jobs that still has
  /// pending members, trimmed to the client's remaining inflight quota.
  bool try_dispatch_one(ClientSlot& slot) {
    if (slot.inflight >= config.max_inflight_per_client) {
      return false;
    }
    for (const std::string& job_id : slot.jobs) {
      Job& job = jobs.at(job_id);
      if (job.cancelled) {
        continue;  // Pending specs of a cancelled job never dispatch.
      }
      for (const std::vector<std::size_t>& planned : job.units) {
        Unit unit;
        for (const std::size_t index : planned) {
          if (slot.inflight >= config.max_inflight_per_client) {
            break;
          }
          if (job.inflight[index] || job.campaign->committed(index)) {
            continue;
          }
          job.inflight[index] = true;
          slot.inflight++;
          note_dispatch(slot.name);
          unit.indices.push_back(index);
          unit.specs.push_back(job.specs[index]);
        }
        if (unit.indices.empty()) {
          continue;
        }
        if (unit.indices.size() > 1) {
          bump(&ServiceStats::batched_units);
        }
        unit.job_id = job.id;
        {
          std::lock_guard<std::mutex> lock(task_mutex);
          task_queue.push_back(std::move(unit));
        }
        task_cv.notify_one();
        return true;
      }
    }
    return false;
  }

  /// Fair round-robin at dispatch-unit granularity: one unit per eligible
  /// client per rotation, until a full pass dispatches nothing (every
  /// client is at quota or out of work).
  void dispatch() {
    if (draining || clients.empty()) {
      return;
    }
    std::size_t barren = 0;
    while (barren < clients.size()) {
      ClientSlot& slot = clients[rr_cursor % clients.size()];
      rr_cursor = (rr_cursor + 1) % clients.size();
      if (try_dispatch_one(slot)) {
        barren = 0;
      } else {
        barren++;
      }
    }
  }

  /// Takes a unit's specs off the worker queue's books: they return to
  /// pending (unless its rows commit next) and free the owner's quota.
  void release(Job& job, const Unit& unit) {
    for (const std::size_t index : unit.indices) {
      job.inflight[index] = false;
    }
    ClientSlot& slot = slot_of(job.owner);
    slot.inflight -= std::min(slot.inflight, unit.indices.size());
  }

  /// Commits a finished unit once, then streams each scenario's
  /// result and health frames.
  void handle_completion(Unit&& unit) {
    auto it = jobs.find(unit.job_id);
    if (it == jobs.end()) {
      return;
    }
    Job& job = it->second;
    release(job, unit);
    // A unit without rows was killed by a cancel before any row existed:
    // its specs return to pending (a cancelled job never re-dispatches
    // them), and nothing journals or frames.
    if (unit.runs.size() == unit.indices.size()) {
      try {
        job.campaign->commit(unit.indices, std::move(unit.runs));
      } catch (const scenario::JournalIoError& e) {
        // Disk fault (ENOSPC/EIO): the job's durability is dropped
        // fail-closed -- no torn-commit ambiguity on a later resume -- and
        // the client is told.  The job keeps executing in memory.
        job.durable = false;
        bump(&ServiceStats::journal_io_errors);
        each_session(job, [&](Session& session) {
          send_error(session, "journal_io", e.what(), job.tag);
        });
      }
      bump(&ServiceStats::scenarios_executed, unit.indices.size());
      each_session(job, [&](Session& session) {
        for (const std::size_t index : unit.indices) {
          send_result_frames(session, job, index);
        }
      });
    }
    if (job.ended()) {
      retire(job);
    }
  }

  /// Ends a job that finished or whose cancel completed: it leaves its
  /// owner's slot, each attached session gets its terminal frame, and its
  /// index entry is all that stays -- with the Job itself only when the
  /// job is not durable.
  void retire(Job& job) {
    std::erase(slot_of(job.owner).jobs, job.id);
    if (!job.done()) {
      job.campaign->close();  // A cancelled job commits nothing more.
    }
    // Stats before the terminal frame: a client that has seen `job_done`
    // or `cancelled` must never read a stats snapshot that predates it.
    bump(job.done() ? &ServiceStats::jobs_completed
                    : &ServiceStats::jobs_cancelled);
    set_active_jobs_delta(-1);
    ClosedJob& entry = file_closed(job);
    each_session(job,
                 [&](Session& session) { send_terminal(session, job, entry); });
    const std::string id = job.id;
    if (!job.durable) {
      entry.resident = std::make_unique<Job>(std::move(job));
    }
    jobs.erase(id);
  }

  /// Files the index entry of a job that has ended.
  ClosedJob& file_closed(const Job& job) {
    ClosedJob& entry = closed[ClosedKey{job.owner, job.tag, job.id}];
    entry.cancelled = !job.done();
    entry.resumed = job.campaign->resumed();
    entry.executed = job.campaign->completed() - entry.resumed;
    return entry;
  }

  /// Persists the cancel decision the moment it is made (not when the
  /// teardown finishes): a server that dies with scenarios still in
  /// flight must reschedule nothing cancelled after restart.
  void persist_cancel_marker(const Job& job) {
    if (config.state_dir.empty()) {
      return;
    }
    analysis::JsonObject marker;
    marker.set("schema_version", analysis::kBenchJsonSchemaVersion);
    marker.set("record", "job_cancelled");
    marker.set("job_id", job.id);
    marker.set("completed",
               static_cast<std::uint64_t>(job.campaign->completed()));
    try {
      analysis::write_file_atomic(job_dir(job.id) + "/cancelled.json",
                                  marker.to_json_line() + "\n");
    } catch (const std::exception&) {
      // Best-effort durability: an unwritable marker degrades to the
      // pre-cancel behavior (the job resumes after a restart) instead
      // of failing the teardown.
    }
  }

  void handle_cancel(Session& session,
                     const std::map<std::string, std::string>& fields) {
    const auto tag_it = fields.find("job");
    if (tag_it == fields.end() || tag_it->second.empty()) {
      send_error(session, "missing_job", "cancel carries no 'job' tag");
      return;
    }
    const std::string& tag = tag_it->second;
    // A tag can name several content-distinct jobs over a session's life;
    // cancel targets a live one, and only then asks the index.
    Job* target = nullptr;
    for (auto& [id, job] : jobs) {
      if (job.owner == session.client_name && job.tag == tag) {
        target = &job;
        break;
      }
    }
    if (target == nullptr) {
      cancel_closed(session, tag);
      return;
    }
    Job& job = *target;
    attach(job, session);
    if (job.cancelled) {
      return;  // Idempotent: the teardown's retire announces `cancelled`.
    }
    job.cancelled = true;
    persist_cancel_marker(job);
    // Withdraw queued-but-unstarted tasks: they have no journal entry and
    // must never run.  Tasks already claimed by a worker finish and
    // journal normally (cooperative, journal-consistent teardown).
    {
      std::lock_guard<std::mutex> lock(task_mutex);
      std::deque<Unit> kept;
      for (Unit& queued : task_queue) {
        if (queued.job_id == job.id) {
          release(job, queued);
        } else {
          kept.push_back(std::move(queued));
        }
      }
      task_queue = std::move(kept);
    }
    // Units already claimed by a worker: in process isolation the unit's
    // sandbox worker (a whole process group) is killed and the unit comes
    // back `withdrawn` -- no row, no journal entry.  In thread mode the
    // interrupt is a no-op and the unit finishes and journals normally;
    // either way the journal stays consistent.
    {
      std::lock_guard<std::mutex> lock(active_mutex);
      for (auto& [worker_index, unit] : active_units) {
        if (unit.job_id == job.id) {
          unit.executor->interrupt();
        }
      }
    }
    if (job.ended()) {
      retire(job);
    }
    dispatch();  // Withdrawn quota may unblock another client's work.
  }

  /// Answers a cancel whose tag names no live job: a closed cancelled job
  /// re-announces `cancelled` with its directory's counts, a finished one
  /// is `already_done`, and anything else is unknown.
  void cancel_closed(Session& session, const std::string& tag) {
    auto cancelled = closed.end();
    bool finished = false;
    for (auto it = closed.lower_bound(ClosedKey{session.client_name, tag, {}});
         it != closed.end() && it->first.owner == session.client_name &&
         it->first.tag == tag;
         ++it) {
      if (!it->second.cancelled) {
        finished = true;
      } else if (cancelled == closed.end()) {
        cancelled = it;
      }
    }
    std::optional<Job> loaded;
    const Job* job =
        cancelled == closed.end() ? nullptr : reopen(cancelled, loaded);
    if (job != nullptr) {
      send_cancelled(session, *job);
      return;
    }
    if (finished) {
      send_error(session, "already_done",
                 "job '" + tag + "' already completed", tag);
      return;
    }
    send_error(session, "unknown_job",
               "no job tagged '" + tag + "' for client '" +
                   session.client_name + "'",
               tag);
  }

  /// Admits a submitted spec list by content-addressed identity: a live
  /// job attaches and replays, a closed one replays, a client over its job
  /// quota gets an explicit, retryable `backpressure` frame (never a
  /// disconnect), anything else becomes a new job announced by
  /// `accepted`.
  void admit(Session& session, Job job) {
    job.owner = session.client_name;
    job.content_fingerprint = scenario::content_fingerprint_of(job.specs);
    job.id = job_id_of(job.owner, job.tag, job.content_fingerprint);
    if (const auto live = jobs.find(job.id); live != jobs.end()) {
      attach(live->second, session);
      replay(session, live->second);
      return;
    }
    if (const auto it = closed.find(ClosedKey{job.owner, job.tag, job.id});
        it != closed.end() && replay_closed(session, it)) {
      return;
    }
    ClientSlot& slot = slot_of(job.owner);
    if (slot.jobs.size() >= config.max_pending_jobs_per_client) {
      analysis::JsonObject frame = make_frame("backpressure");
      frame.set("job", job.tag);
      frame.set("reason", "job_quota");
      frame.set("active", static_cast<std::uint64_t>(slot.jobs.size()));
      frame.set("limit", static_cast<std::uint64_t>(
                             config.max_pending_jobs_per_client));
      frame.set("retry_ms", std::uint64_t{200});
      bump(&ServiceStats::backpressure_frames);  // Before the send: see
      send_frame(session, frame);                // send_error for why.
      return;
    }
    const std::string tag = job.tag;
    try {
      Job& created = create_job(std::move(job));
      attach(created, session);
      send_accepted(session, created, /*resumed=*/false);
    } catch (const std::exception& e) {
      send_error(session, "io_error", e.what(), tag);
      return;
    }
    dispatch();
  }

  void drain_completions() {
    for (;;) {
      Unit done;
      {
        std::lock_guard<std::mutex> lock(completion_mutex);
        if (completions.empty()) {
          return;
        }
        done = std::move(completions.front());
        completions.pop_front();
      }
      handle_completion(std::move(done));
    }
  }

  // --- Submit path ------------------------------------------------------

  /// Reads a submit frame's spec list -- a registry suite with an
  /// optional name filter, or `spec_count` specs written under
  /// `spec.<i>.` by the spec codec -- and admits it.  A list that does not
  /// read is refused with an error frame naming the tag.
  void handle_submit(Session& session,
                     const std::map<std::string, std::string>& fields) {
    const auto tag_it = fields.find("job");
    if (tag_it == fields.end() || tag_it->second.empty()) {
      send_error(session, "missing_job", "submit carries no 'job' tag");
      return;
    }
    const std::string& tag = tag_it->second;
    Job job;
    job.tag = tag;
    const auto suite_it = fields.find("suite");
    if (suite_it != fields.end()) {
      const auto filter_it = fields.find("filter");
      const std::string filter =
          filter_it == fields.end() ? "" : filter_it->second;
      const auto& registry = scenario::ScenarioRegistry::builtin();
      if (!registry.has_suite(suite_it->second)) {
        send_error(session, "unknown_suite",
                   "no suite named '" + suite_it->second + "'", tag);
        return;
      }
      job.specs = registry.expand_filtered(suite_it->second, filter);
      if (job.specs.empty()) {
        send_error(session, "empty_expansion",
                   "filter '" + filter + "' matches nothing in '" +
                       suite_it->second + "'",
                   tag);
        return;
      }
      if (job.specs.size() > kMaxJobSpecs) {
        send_error(session, "invalid_submit",
                   "suite '" + suite_it->second + "' expands past the " +
                       std::to_string(kMaxJobSpecs) + "-scenario job cap",
                   tag);
        return;
      }
      admit(session, std::move(job));
      return;
    }

    const auto count_it = fields.find("spec_count");
    std::uint64_t count = 0;
    if (count_it == fields.end() ||
        !scenario::parse_u64(count_it->second, count) || count == 0) {
      send_error(session, "invalid_submit",
                 "submit needs either 'suite' or a positive 'spec_count' "
                 "with flattened 'spec.<i>.*' fields",
                 tag);
      return;
    }
    // Refuses a forged `spec_count` before the reader walks it.
    if (count > kMaxJobSpecs) {
      send_error(session, "invalid_submit",
                 "spec_count " + std::to_string(count) + " exceeds the " +
                     std::to_string(kMaxJobSpecs) + "-scenario job cap",
                 tag);
      return;
    }
    std::vector<std::string> errors;
    for (std::uint64_t i = 0; i < count; ++i) {
      scenario::SpecParse parsed = scenario::spec_from_json_checked(
          fields, "spec." + std::to_string(i) + ".");
      errors.insert(errors.end(), parsed.errors.begin(), parsed.errors.end());
      if (parsed.ok()) {
        for (std::string& message : scenario::validate(parsed.spec)) {
          errors.push_back(std::move(message));
        }
      }
      job.specs.push_back(std::move(parsed.spec));
    }
    if (!errors.empty()) {
      send_error(session, "invalid_spec", join(errors), tag);
      return;
    }
    std::map<std::string, std::size_t> names;
    for (const ScenarioSpec& spec : job.specs) {
      if (++names[spec.name] > 1) {
        send_error(session, "duplicate_names",
                   "scenario name '" + spec.name + "' appears twice", tag);
        return;
      }
    }
    admit(session, std::move(job));
  }

  // --- Frame dispatch ---------------------------------------------------

  void handle_frame(Session& session, const std::string& payload) {
    const auto fields = parse_frame_payload(payload);
    if (!fields) {
      send_error(session, "bad_frame",
                 "payload is not one flat JSON object");
      return;
    }
    const auto type_it = fields->find("frame");
    const std::string type =
        type_it == fields->end() ? "" : type_it->second;

    if (type == "hello") {
      std::uint64_t version = 0;
      const auto version_it = fields->find("protocol_version");
      if (version_it == fields->end() ||
          !scenario::parse_u64(version_it->second, version) ||
          version != static_cast<std::uint64_t>(kProtocolVersion)) {
        send_error(session, "protocol_mismatch",
                   "server speaks protocol_version " +
                       std::to_string(kProtocolVersion));
        session.closing = true;
        return;
      }
      const auto name_it = fields->find("client");
      session.client_name =
          (name_it == fields->end() || name_it->second.empty())
              ? ("anon-" + std::to_string(session.fd))
              : name_it->second;
      session.said_hello = true;
      analysis::JsonObject frame = make_frame("hello");
      frame.set("protocol_version", kProtocolVersion);
      frame.set("server", "ddl_scenario_server");
      frame.set("session", session.client_name);
      send_frame(session, frame);
      return;
    }
    if (type == "ping") {
      analysis::JsonObject frame = make_frame("pong");
      const auto nonce_it = fields->find("nonce");
      if (nonce_it != fields->end()) {
        frame.set("nonce", nonce_it->second);
      }
      send_frame(session, frame);
      return;
    }
    if (type == "bye") {
      session.closing = true;
      return;
    }
    if (!session.said_hello) {
      send_error(session, "hello_required",
                 "first frame must be 'hello' with protocol_version " +
                     std::to_string(kProtocolVersion));
      return;
    }
    if (type == "submit") {
      handle_submit(session, *fields);
      return;
    }
    if (type == "cancel") {
      handle_cancel(session, *fields);
      return;
    }
    send_error(session, "unknown_frame", "unknown frame type '" + type + "'");
  }

  // --- Sessions ---------------------------------------------------------

  void accept_on(int listen_fd) {
    for (;;) {
      const int fd =
          net::retry_eintr([&] { return ::accept(listen_fd, nullptr, nullptr); });
      if (fd < 0) {
        return;  // EAGAIN (drained) or transient error; poll retries.
      }
      if (!net::set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      // Result frames are small and latency-sensitive; harmless ENOTSUP on
      // the unix-domain listener's connections.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Session session;
      session.fd = fd;
      session.last_rx = Clock::now();
      sessions.emplace(fd, std::move(session));
      bump(&ServiceStats::sessions_accepted);
    }
  }

  void close_session(int fd) {
    auto it = sessions.find(fd);
    if (it == sessions.end()) {
      return;
    }
    // Detach, never cancel: a live job keeps executing (and journaling), as
    // an orphan once no session is left, so a dropped client can reconnect
    // and replay.
    for (auto& [id, job] : jobs) {
      std::erase(job.session_fds, fd);
    }
    ::close(fd);
    sessions.erase(it);
    bump(&ServiceStats::sessions_closed);
  }

  /// Reads and handles one session's traffic within this pass's fairness
  /// budgets.  True when complete frames may still be buffered (the frame
  /// budget ran out) -- the caller polls again without sleeping.
  bool read_session(Session& session) {
    const std::size_t frame_budget = config.max_frames_per_tick == 0
                                         ? kDefaultMaxFramesPerTick
                                         : config.max_frames_per_tick;
    char chunk[4096];
    std::size_t read_bytes = 0;
    while (read_bytes < kMaxRxBytesPerTick) {
      const std::size_t want =
          std::min(sizeof(chunk), kMaxRxBytesPerTick - read_bytes);
      const ssize_t got = net::retry_eintr(
          [&] { return ::recv(session.fd, chunk, want, 0); });
      if (got > 0) {
        session.reader.feed(chunk, static_cast<std::size_t>(got));
        read_bytes += static_cast<std::size_t>(got);
        session.last_rx = Clock::now();
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      session.closing = true;  // EOF or hard error.
      break;
    }
    std::size_t handled = 0;
    while (handled < frame_budget) {
      auto payload = session.reader.next();
      if (!payload) {
        break;
      }
      handled++;
      handle_frame(session, *payload);
      if (session.closing) {
        break;
      }
    }
    if (session.reader.failed()) {
      send_error(session, "bad_frame", session.reader.error());
      session.closing = true;
    }
    // Slowloris tracking: bytes sitting buffered while no frame completes
    // opens (or continues) a stuck-mid-frame window; progress closes it.
    if (session.reader.frames_decoded() != session.frames_seen ||
        session.reader.buffered() == 0) {
      session.frames_seen = session.reader.frames_decoded();
      session.partial_pending = false;
    } else if (!session.partial_pending) {
      session.partial_pending = true;
      session.partial_since = Clock::now();
    }
    return !session.closing && handled == frame_budget &&
           session.reader.buffered() >= kFrameHeaderBytes;
  }

  /// Reaps sessions whose peer went silent (dead_peer_timeout_ms) or is
  /// trickling a partial frame (partial_frame_timeout_ms).  Jobs detach to
  /// orphans exactly as on any other close -- a timeout never loses work.
  void enforce_timeouts(Clock::time_point now) {
    for (auto& [fd, session] : sessions) {
      if (session.closing) {
        continue;
      }
      if (config.dead_peer_timeout_ms > 0 &&
          now - session.last_rx >
              std::chrono::milliseconds(config.dead_peer_timeout_ms)) {
        send_error(session, "dead_peer",
                   "no bytes received for " +
                       std::to_string(config.dead_peer_timeout_ms) + " ms");
        session.closing = true;
        bump(&ServiceStats::sessions_timed_out);
        continue;
      }
      if (config.partial_frame_timeout_ms > 0 && session.partial_pending &&
          now - session.partial_since >
              std::chrono::milliseconds(config.partial_frame_timeout_ms)) {
        send_error(session, "partial_frame_timeout",
                   "frame incomplete after " +
                       std::to_string(config.partial_frame_timeout_ms) +
                       " ms");
        session.closing = true;
        bump(&ServiceStats::sessions_timed_out);
      }
    }
  }

  void send_heartbeats() {
    for (auto& [fd, session] : sessions) {
      if (!session.said_hello || session.closing) {
        continue;
      }
      analysis::JsonObject frame = make_frame("heartbeat");
      frame.set("active_jobs", [&] {
        std::lock_guard<std::mutex> lock(jobs_done_mutex);
        return static_cast<std::uint64_t>(active_jobs);
      }());
      // Sandbox containment telemetry rides the heartbeat so a client can
      // watch crash/respawn counts without a dedicated stats request.
      frame.set("sandbox_crashes", static_cast<std::uint64_t>(
                                       sandbox_counters.crashes.load()));
      frame.set("workers_respawned", static_cast<std::uint64_t>(
                                         sandbox_counters.respawns.load()));
      frame.set("resource_kills", static_cast<std::uint64_t>(
                                      sandbox_counters.resource_kills.load()));
      frame.set("workers_lost", static_cast<std::uint64_t>(
                                    sandbox_counters.workers_lost.load()));
      send_frame(session, frame);
      bump(&ServiceStats::heartbeats);
    }
  }

  // --- Startup recovery -------------------------------------------------

  /// Reloads every job directory under state_dir: completed rows are
  /// byte-reused from the journal (scenarios_resumed), incomplete jobs
  /// resume executing as orphans, and a closed job leaves only its index
  /// entry.  A directory that cannot be reloaded is skipped (it stays on
  /// disk for inspection) rather than blocking start.
  void recover_jobs() {
    const fs::path root = fs::path(config.state_dir) / "jobs";
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      return;
    }
    std::vector<fs::path> dirs;
    for (const auto& entry : fs::directory_iterator(root, ec)) {
      if (entry.is_directory()) {
        dirs.push_back(entry.path());
      }
    }
    std::sort(dirs.begin(), dirs.end());  // Deterministic recovery order.
    for (const fs::path& dir : dirs) {
      try {
        recover_one(dir.string());
      } catch (const std::exception&) {
        // Unreadable / fingerprint-mismatched directory: leave it alone.
      }
    }
  }

  void recover_one(const std::string& dir) {
    Job job = load_job(dir, /*cancelled=*/false);
    if (jobs.count(job.id) ||
        closed.count(ClosedKey{job.owner, job.tag, job.id})) {
      throw std::runtime_error("duplicate job identity");
    }
    bump(&ServiceStats::jobs_recovered);
    bump(&ServiceStats::scenarios_resumed, job.campaign->resumed());
    if (job.schedulable()) {
      place(std::move(job));
    } else {
      file_closed(job);
    }
  }

  /// The one loader of a job directory, for a restart and for a replay of
  /// a closed job: job.json, the strict read of specs.jsonl, the id check,
  /// then Job::open with resume.  A cancel -- the durable marker, or
  /// `cancelled` from a caller that knows of one -- outranks everything
  /// else in the directory: the job loads (committed rows stay
  /// replayable) but never reschedules.  Throws on a directory that is
  /// unreadable or whose id does not match its content.
  Job load_job(const std::string& dir, bool cancelled) {
    const auto meta_fields = analysis::parse_flat_json_line(
        scenario::read_file(dir + "/job.json"));
    if (!meta_fields) {
      throw std::runtime_error("unreadable job.json");
    }
    Job job;
    job.id = meta_fields->count("job_id") ? meta_fields->at("job_id") : "";
    job.tag = meta_fields->count("tag") ? meta_fields->at("tag") : "";
    job.owner = meta_fields->count("client") ? meta_fields->at("client") : "";
    std::error_code marker_ec;
    job.cancelled =
        cancelled || fs::exists(dir + "/cancelled.json", marker_ec);
    if (job.id.empty() || job.owner.empty()) {
      throw std::runtime_error("bad job identity");
    }

    const std::string spec_doc = scenario::read_file(dir + "/specs.jsonl");
    std::size_t begin = 0;
    while (begin < spec_doc.size()) {
      std::size_t end = spec_doc.find('\n', begin);
      if (end == std::string::npos) {
        end = spec_doc.size();
      }
      const std::string line = spec_doc.substr(begin, end - begin);
      begin = end + 1;
      if (line.empty()) {
        continue;
      }
      scenario::SpecParse parsed = scenario::spec_from_line(line);
      if (!parsed.ok()) {
        throw std::runtime_error("specs.jsonl: " + parsed.errors.front());
      }
      job.specs.push_back(std::move(parsed.spec));
    }
    if (job.specs.empty()) {
      throw std::runtime_error("empty spec list");
    }
    job.content_fingerprint = scenario::content_fingerprint_of(job.specs);
    if (job.id != job_id_of(job.owner, job.tag, job.content_fingerprint)) {
      throw std::runtime_error("job id does not match its content");
    }
    job.open(dir, /*resume=*/true, plan_workspace);
    if (job.cancelled) {
      job.campaign->close();  // It commits nothing more.
    }
    return job;
  }

  // --- Worker / event threads -------------------------------------------

  void worker_main(std::size_t worker_index) {
    // In process mode the executor owns a long-lived sandbox child
    // (respawned on death); in thread mode it carries the scenario arena
    // whose sizing caches persist across units.
    scenario::ScenarioExecutor& executor = *executors[worker_index];
    for (;;) {
      Unit unit;
      {
        std::unique_lock<std::mutex> lock(task_mutex);
        task_cv.wait(lock,
                     [this] { return workers_quit || !task_queue.empty(); });
        if (workers_quit) {
          return;  // Graceful stop re-marks queued tasks as pending.
        }
        unit = std::move(task_queue.front());
        task_queue.pop_front();
      }
      {
        std::lock_guard<std::mutex> lock(active_mutex);
        active_units[worker_index] = ActiveUnit{unit.job_id, &executor};
      }
      // Process isolation ships the unit whole into the worker's sandbox
      // child (one batched kernel dispatch for a packed unit); thread mode
      // runs the same planner in process.  An empty return means
      // interrupt() withdrew the unit (cancel).
      unit.runs = executor.run_unit(unit.specs);
      unit.specs.clear();
      {
        std::lock_guard<std::mutex> lock(active_mutex);
        active_units.erase(worker_index);
      }
      // Re-arm after the unit is deregistered: a cancel can only aim an
      // interrupt at the registered unit, so a flag still set here is
      // either consumed (withdrawn rows above) or raced a unit that
      // finished anyway -- never meant for the next task.
      executor.clear_interrupt();
      {
        std::lock_guard<std::mutex> lock(completion_mutex);
        completions.push_back(std::move(unit));
      }
      wake();
    }
  }

  void event_main() {
    dispatch();  // Recovered orphans start executing immediately.
    using Clock = std::chrono::steady_clock;
    const std::uint64_t heartbeat_ms =
        config.heartbeat_ms == 0 ? 1000 : config.heartbeat_ms;
    auto next_heartbeat =
        Clock::now() + std::chrono::milliseconds(heartbeat_ms);

    bool repoll_now = false;
    while (!stop_requested.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
      if (tcp_listen_fd >= 0) {
        fds.push_back(pollfd{tcp_listen_fd, POLLIN, 0});
      }
      if (unix_listen_fd >= 0) {
        fds.push_back(pollfd{unix_listen_fd, POLLIN, 0});
      }
      const std::size_t first_session = fds.size();
      for (auto& [fd, session] : sessions) {
        short events = POLLIN;
        if (session.outbox_offset < session.outbox.size()) {
          events |= POLLOUT;
        }
        fds.push_back(pollfd{fd, events, 0});
      }

      const auto now = Clock::now();
      long timeout_ms = static_cast<long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              next_heartbeat - now)
              .count());
      // Liveness timeouts fire between socket events, so the poll sleep
      // must stay shorter than their resolution.
      if ((config.dead_peer_timeout_ms > 0 ||
           config.partial_frame_timeout_ms > 0) &&
          !sessions.empty()) {
        timeout_ms = std::min(timeout_ms, long{50});
      }
      if (repoll_now || timeout_ms < 0) {
        timeout_ms = 0;  // Budget-deferred frames are still buffered.
      }
      const int ready =
          ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
      if (ready < 0 && errno != EINTR) {
        break;  // poll() itself failed; shut down rather than spin.
      }

      if (Clock::now() >= next_heartbeat) {
        send_heartbeats();
        next_heartbeat =
            Clock::now() + std::chrono::milliseconds(heartbeat_ms);
      }

      if (fds[0].revents & POLLIN) {
        char sink[64];
        while (net::retry_eintr([&] {
                 return ::read(wake_read_fd, sink, sizeof(sink));
               }) > 0) {
        }
      }
      drain_completions();

      for (std::size_t i = 1; i < first_session; ++i) {
        if (fds[i].revents & POLLIN) {
          accept_on(fds[i].fd);
        }
      }
      repoll_now = false;
      for (std::size_t i = first_session; i < fds.size(); ++i) {
        auto it = sessions.find(fds[i].fd);
        if (it == sessions.end()) {
          continue;
        }
        if (fds[i].revents & POLLOUT) {
          flush_outbox(it->second);
        }
        // Budget-deferred frames sit in the reader without new socket
        // bytes to raise POLLIN, so buffered sessions read too.
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) ||
            (!it->second.closing &&
             it->second.reader.buffered() >= kFrameHeaderBytes)) {
          repoll_now |= read_session(it->second);
        }
      }
      enforce_timeouts(Clock::now());
      // Reap sessions marked closing once their outbox drained (or the
      // peer is gone and the bytes cannot be delivered anyway).
      std::vector<int> doomed;
      for (auto& [fd, session] : sessions) {
        if (session.closing) {
          flush_outbox(session);
          doomed.push_back(fd);
        }
      }
      for (const int fd : doomed) {
        close_session(fd);
      }
      dispatch();
    }

    shutdown_gracefully();
    {
      std::lock_guard<std::mutex> lock(stopped_mutex);
      event_loop_exited = true;
    }
    stopped_cv.notify_all();
  }

  /// Graceful drain: queued-but-unstarted units return to pending (they
  /// have no journal entry, so a restart resumes them -- exactly the
  /// campaign engine's stop-flag semantics), in-flight units finish on
  /// their workers and commit, then every session closes.
  void shutdown_gracefully() {
    draining = true;
    {
      std::lock_guard<std::mutex> lock(task_mutex);
      for (const Unit& queued : task_queue) {
        auto it = jobs.find(queued.job_id);
        if (it != jobs.end()) {
          release(it->second, queued);
        }
      }
      task_queue.clear();
      workers_quit = true;
    }
    task_cv.notify_all();
    for (std::thread& worker : worker_threads) {
      worker.join();
    }
    worker_threads.clear();
    executors.clear();
    drain_completions();

    std::vector<int> open_fds;
    for (auto& [fd, session] : sessions) {
      flush_outbox(session);
      open_fds.push_back(fd);
    }
    for (const int fd : open_fds) {
      close_session(fd);
    }
    if (tcp_listen_fd >= 0) {
      ::close(tcp_listen_fd);
      tcp_listen_fd = -1;
    }
    if (unix_listen_fd >= 0) {
      ::close(unix_listen_fd);
      unix_listen_fd = -1;
      if (!config.unix_path.empty()) {
        ::unlink(config.unix_path.c_str());
      }
    }
  }
};

ScenarioServer::ScenarioServer(ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ScenarioServer::~ScenarioServer() { stop(); }

bool ScenarioServer::start(std::string* error) {
  Impl& impl = *impl_;
  auto fail = [&](const std::string& detail) {
    for (int* fd : {&impl.wake_read_fd, &impl.wake_write_fd,
                    &impl.tcp_listen_fd, &impl.unix_listen_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    if (error != nullptr) {
      *error = detail;
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (impl.started) {
      return fail("server already started");
    }
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail("pipe() failed: " + std::string(std::strerror(errno)));
  }
  impl.wake_read_fd = pipe_fds[0];
  impl.wake_write_fd = pipe_fds[1];
  net::set_nonblocking(impl.wake_read_fd);
  net::set_nonblocking(impl.wake_write_fd);

  if (impl.config.enable_tcp) {
    std::string detail;
    impl.tcp_listen_fd = net::listen_loopback(
        impl.config.tcp_port, "tcp bind/listen", impl.bound_tcp_port, detail);
    if (impl.tcp_listen_fd < 0) {
      return fail(detail);
    }
  }

  if (!impl.config.unix_path.empty()) {
    sockaddr_un addr{};
    if (impl.config.unix_path.size() >= sizeof(addr.sun_path)) {
      return fail("unix socket path too long");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return fail("socket(AF_UNIX) failed: " +
                  std::string(std::strerror(errno)));
    }
    ::unlink(impl.config.unix_path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, impl.config.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(fd);
      return fail("unix bind/listen failed: " + detail);
    }
    net::set_nonblocking(fd);
    impl.unix_listen_fd = fd;
  }

  if (!impl.config.state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(impl.config.state_dir) / "jobs", ec);
    if (ec) {
      return fail("cannot create state dir: " + ec.message());
    }
    impl.recover_jobs();
  }

  const std::size_t workers =
      impl.config.workers == 0 ? 1 : impl.config.workers;
  // Executors first: their sandbox workers fork before this server starts
  // a thread (see ScenarioExecutor's constructor).
  for (std::size_t i = 0; i < workers; ++i) {
    impl.executors.push_back(std::make_unique<scenario::ScenarioExecutor>(
        impl.config.isolation, &impl.sandbox_counters));
  }
  for (std::size_t i = 0; i < workers; ++i) {
    impl.worker_threads.emplace_back([this, i] { impl_->worker_main(i); });
  }
  impl.event_thread = std::thread([this] { impl_->event_main(); });
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    impl.started = true;
  }
  return true;
}

void ScenarioServer::stop() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (!impl.started || impl.stopped_joined) {
      return;
    }
    impl.stopped_joined = true;
  }
  request_stop();
  if (impl.event_thread.joinable()) {
    impl.event_thread.join();
  }
  if (impl.wake_read_fd >= 0) {
    ::close(impl.wake_read_fd);
    impl.wake_read_fd = -1;
  }
  if (impl.wake_write_fd >= 0) {
    ::close(impl.wake_write_fd);
    impl.wake_write_fd = -1;
  }
}

void ScenarioServer::request_stop() {
  Impl& impl = *impl_;
  impl.stop_requested.store(true, std::memory_order_release);
  if (impl.wake_write_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t wrote =
        ::write(impl.wake_write_fd, &byte, 1);
  }
}

void ScenarioServer::wait_stopped() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.stopped_mutex);
  impl.stopped_cv.wait(lock, [&impl] { return impl.event_loop_exited; });
}

int ScenarioServer::tcp_port() const noexcept { return impl_->bound_tcp_port; }

ServiceStats ScenarioServer::stats() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.stats_mutex);
  ServiceStats snapshot = impl.stats_data;
  snapshot.sandbox_crashes = impl.sandbox_counters.crashes.load();
  snapshot.workers_respawned = impl.sandbox_counters.respawns.load();
  snapshot.resource_kills = impl.sandbox_counters.resource_kills.load();
  snapshot.workers_lost = impl.sandbox_counters.workers_lost.load();
  return snapshot;
}

std::vector<std::string> ScenarioServer::dispatch_log() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.stats_mutex);
  return impl.dispatch_log_data;
}

bool ScenarioServer::wait_all_jobs_done(std::uint64_t timeout_ms) {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.jobs_done_mutex);
  return impl.jobs_done_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&impl] { return impl.active_jobs == 0; });
}

}  // namespace ddl::service
