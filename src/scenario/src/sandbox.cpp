#include "ddl/scenario/sandbox.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/spec.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {
namespace {

using Clock = std::chrono::steady_clock;
using Fields = std::map<std::string, std::string>;

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

/// What one end of the sandbox pipe has read, cut into lines.  Both ways
/// carry codec-rendered JSONL, whose strings escape every control byte, so
/// each '\n' ends one line.
struct LineBuffer {
  std::string bytes;
  std::size_t begin = 0;  ///< Start of the first line not yet taken.

  /// The next complete line, without its '\n', or nullopt until fill().
  std::optional<std::string> next() {
    const std::size_t end = bytes.find('\n', begin);
    if (end == std::string::npos) {
      bytes.erase(0, begin);
      begin = 0;
      return std::nullopt;
    }
    std::string line = bytes.substr(begin, end - begin);
    begin = end + 1;
    return line;
  }

  /// Appends one read() of `fd`, retried on EINTR; false at EOF or error.
  bool fill(int fd) {
    char chunk[65536];
    ssize_t n = 0;
    do {
      n = ::read(fd, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      bytes.append(chunk, static_cast<std::size_t>(n));
    }
    return n > 0;
  }
};

/// Deterministic signal naming for error_detail (strsignal() is
/// locale/libc-dependent; rows must not be).
const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGTRAP: return "SIGTRAP";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: return nullptr;
  }
}

std::string describe_signal(int sig) {
  const char* name = signal_name(sig);
  return name != nullptr ? std::string(name)
                         : "signal " + std::to_string(sig);
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return describe_signal(WTERMSIG(status));
  }
  return "unknown wait status";
}

/// Signals classified as a *crash* of the scenario itself (deterministic:
/// the same spec faults the same way on every host).  Everything else that
/// kills a worker is either a resource kill (SIGXCPU, the OOM exit code)
/// or an unattributable loss.
bool crash_signal(int sig) {
  return sig == SIGSEGV || sig == SIGABRT || sig == SIGBUS ||
         sig == SIGFPE || sig == SIGILL || sig == SIGTRAP;
}

// ---------------------------------------------------------------------------
// Worker (child) side.
// ---------------------------------------------------------------------------

/// The child's OOM exit code: std::set_new_handler fires on allocation
/// failure under RLIMIT_AS and the worker dies with this status, which the
/// supervisor classifies kResourceLimit -- distinct from a caught
/// bad_alloc (a structured kException row) and from a protocol error.
constexpr int kExitOom = 97;
/// The child's protocol-failure exit code (a line that does not read, a
/// broken pipe).
constexpr int kExitProtocol = 98;

SandboxLimits g_child_limits;

void close_all_from(unsigned first) {
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, first, ~0U, 0) == 0) {
    return;
  }
#endif
  const long open_max = ::sysconf(_SC_OPEN_MAX);
  const long cap = open_max > 0 ? open_max : 1024;
  for (long fd = first; fd < cap; ++fd) {
    ::close(static_cast<int>(fd));
  }
}

/// --inject-crash execution, inside the worker where the blast radius is
/// one process.  The fatal-signal kinds reset the disposition first so the
/// worker dies by the *real* signal even under a sanitizer runtime that
/// intercepts it.
[[noreturn]] void inject_crash(const std::string& kind) {
  if (kind == "segv") {
    std::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
  } else if (kind == "abort") {
    std::signal(SIGABRT, SIG_DFL);
    std::abort();
  } else if (kind == "oom") {
    if (g_child_limits.mem_limit_mb == 0) {
      // No configured cap: self-impose one so the injection cannot eat the
      // host's memory before the new-handler fires.
      ::rlimit cap{};
      cap.rlim_cur = cap.rlim_max = std::uint64_t{512} << 20;
      ::setrlimit(RLIMIT_AS, &cap);
    }
    constexpr std::size_t kChunk = std::size_t{16} << 20;
    std::vector<char*> hog;
    for (;;) {
      char* chunk = new char[kChunk];  // exhaustion -> new_handler -> _exit(97)
      for (std::size_t off = 0; off < kChunk; off += 4096) {
        chunk[off] = 1;
      }
      hog.push_back(chunk);
    }
  } else {  // "spin": burn CPU until RLIMIT_CPU (SIGXCPU) or the deadline.
    volatile std::uint64_t spin = 0;
    for (;;) {
      spin = spin + 1;
    }
  }
  ::_exit(kExitProtocol);  // Unreachable.
}

/// The one unit execution shape, shared by in-process executors and the
/// sandbox child: one batched dispatch per planner group, closed-loop
/// lanes (run_lanes) for the lane-eligible rest, and `scalar(index)` for
/// every other spec.  A lone spec takes the same shape: a one-member group
/// or a one-member run_lanes, whose rows are byte-identical to
/// run_scenario_guarded's.  Each lane row is kept as soon as its scenario
/// finishes (its history dropped).  threads=1 keeps a forked child
/// single-threaded (the analysis pool runs inline at 1).
template <typename Scalar>
std::vector<ScenarioResult> run_unit_inline(
    const std::vector<ScenarioSpec>& specs, ScenarioWorkspace& workspace,
    Scalar scalar) {
  std::vector<ScenarioResult> results(specs.size());
  const BatchPlan plan = plan_batches(specs, workspace);
  for (const BatchGroup& group : plan.groups) {
    run_batch_group(specs, group, workspace, /*threads=*/1, results);
  }
  std::vector<std::size_t> lanes;
  std::vector<std::size_t> alone;
  for (const std::size_t index : plan.scalar) {
    (lane_eligible(specs[index], workspace) ? lanes : alone).push_back(index);
  }
  run_lanes(specs, std::move(lanes), workspace,
            [&](std::size_t index, ScenarioArtifacts artifacts) {
              results[index] = std::move(artifacts.result);
            });
  for (const std::size_t index : alone) {
    results[index] = scalar(index);
  }
  return results;
}

/// A spec that neither path takes (hooked, forced-scalar, invalid,
/// infeasible): the debug hooks run here, inside the worker.
ScenarioResult child_run_single(const ScenarioSpec& spec, int attempt,
                                ScenarioWorkspace& workspace) {
  if (spec.debug_hang_ms > 0 && attempt < spec.debug_hang_attempts) {
    // Non-cooperative on purpose: the supervisor's deadline kill is the
    // recovery path under test.
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.debug_hang_ms));
  }
  if (!spec.debug_crash.empty()) {
    inject_crash(spec.debug_crash);
  }
  return run_scenario_guarded(spec, workspace).result;
}

/// Runs one unit and answers it in one write: each member's health lines,
/// then its row, as render_executed made them.
void child_run_unit(const std::vector<ScenarioSpec>& specs, int attempt,
                    ScenarioWorkspace& workspace, int resp_fd) {
  std::string answer;
  for (ScenarioResult& result :
       run_unit_inline(specs, workspace, [&](std::size_t index) {
         return child_run_single(specs[index], attempt, workspace);
       })) {
    // The supervisor's attempt number: a retried-then-succeeded row
    // reports every attempt it consumed.
    result.attempts = attempt + 1;
    const ExecutedScenario entry = render_executed(std::move(result));
    for (const std::string& health_line : entry.health_lines) {
      answer += health_line;
      answer += '\n';
    }
    answer += entry.line;
    answer += '\n';
  }
  if (!write_all(resp_fd, answer.data(), answer.size())) {
    ::_exit(kExitProtocol);
  }
}

/// The child's blocking read of its next request line.  The supervisor
/// closing its write end is the clean shutdown.
std::string request_line(LineBuffer& lines, int fd) {
  std::optional<std::string> line;
  while (!(line = lines.next())) {
    if (!lines.fill(fd)) {
      ::_exit(0);
    }
  }
  return std::move(*line);
}

[[noreturn]] void sandbox_child_main(int req_raw, int resp_raw,
                                     SandboxLimits limits) {
  // Own process group: the supervisor's deadline/cancel kill is
  // kill(-pid), sweeping anything the scenario itself spawned.
  ::setpgid(0, 0);

  // fd hygiene: park our two pipe ends on fixed fds 3/4, then close every
  // other inherited descriptor -- in particular *sibling* sandboxes' pipe
  // ends, which would otherwise keep their streams from ever reading EOF.
  const int req_parked = ::fcntl(req_raw, F_DUPFD, 64);
  const int resp_parked = ::fcntl(resp_raw, F_DUPFD, 64);
  if (req_parked < 0 || resp_parked < 0 || ::dup2(req_parked, 3) < 0 ||
      ::dup2(resp_parked, 4) < 0) {
    ::_exit(kExitProtocol);
  }
  const int req_fd = 3;
  const int resp_fd = 4;
  close_all_from(5);

  std::signal(SIGPIPE, SIG_IGN);
  std::set_new_handler([] { ::_exit(kExitOom); });
  g_child_limits = limits;
  if (limits.mem_limit_mb > 0) {
    ::rlimit cap{};
    cap.rlim_cur = cap.rlim_max = limits.mem_limit_mb << 20;
    ::setrlimit(RLIMIT_AS, &cap);
  }
  if (limits.cpu_limit_s > 0) {
    // Soft limit delivers SIGXCPU (the classifiable death); the hard limit
    // sits one second above it because a soft==hard cap can SIGKILL the
    // worker before SIGXCPU is ever observable, which would classify as
    // kWorkerLost instead of kResourceLimit.
    ::rlimit cap{};
    cap.rlim_cur = limits.cpu_limit_s;
    cap.rlim_max = limits.cpu_limit_s + 1;
    ::setrlimit(RLIMIT_CPU, &cap);
  }

  ScenarioWorkspace workspace;  // Sizing cache persists across units.
  LineBuffer lines;
  std::vector<ScenarioSpec> specs;
  for (;;) {
    // A unit is its header line, then one spec line per member.
    const std::optional<Fields> header =
        analysis::parse_flat_json_line(request_line(lines, req_fd));
    const auto number = [&](const char* key, int& out) {
      const auto it = header->find(key);
      return it != header->end() && parse_count(it->second, out);
    };
    int attempt = 0;
    int count = 0;
    if (!header || !number("attempt", attempt) || !number("specs", count) ||
        count == 0) {
      ::_exit(kExitProtocol);
    }
    specs.clear();
    while (specs.size() < static_cast<std::size_t>(count)) {
      SpecParse parsed = spec_from_line(request_line(lines, req_fd));
      if (!parsed.ok()) {
        ::_exit(kExitProtocol);
      }
      specs.push_back(std::move(parsed.spec));
    }
    child_run_unit(specs, attempt, workspace, resp_fd);
  }
}

// ---------------------------------------------------------------------------
// Supervisor (parent) side.
// ---------------------------------------------------------------------------

struct Sandbox {
  pid_t pid = -1;
  int req_fd = -1;   ///< Supervisor's write end (header and spec lines).
  int resp_fd = -1;  ///< Supervisor's read end (health and row lines).
  LineBuffer lines;  ///< What resp_fd has delivered.

  bool alive() const noexcept { return pid > 0; }
};

enum class UnitWait { kDone, kDead, kDeadline };

}  // namespace

struct ScenarioExecutor::Impl {
  IsolationConfig config;
  SandboxCounters* counters = nullptr;

  /// Thread-mode arena: sizing caches persist across units.
  ScenarioWorkspace workspace;

  Sandbox box;
  /// Guards box.pid against interrupt() from another thread.
  std::mutex pid_mutex;
  std::atomic<bool> interrupted{false};
  /// Set when a worker died; the next spawn counts as a respawn.
  bool worker_died = false;

  std::uint64_t timeout_of(const ScenarioSpec& spec) const {
    return config.timeout_ms > 0 ? config.timeout_ms : auto_timeout_ms(spec);
  }
};

namespace {

/// Counts one of the supervisor's own error rows, the only rows that can
/// carry a crash, a resource kill or a lost worker.
void note_counters(SandboxCounters* counters, const ScenarioResult& result) {
  if (counters == nullptr) {
    return;
  }
  switch (result.error) {
    case ScenarioError::kCrash:
      counters->crashes.fetch_add(1, std::memory_order_relaxed);
      break;
    case ScenarioError::kResourceLimit:
      counters->resource_kills.fetch_add(1, std::memory_order_relaxed);
      break;
    case ScenarioError::kWorkerLost:
      counters->workers_lost.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

bool spawn_worker(ScenarioExecutor::Impl& impl) {
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { std::signal(SIGPIPE, SIG_IGN); });

  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe(req) != 0) {
    return false;
  }
  if (::pipe(resp) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(req[0]);
    ::close(req[1]);
    ::close(resp[0]);
    ::close(resp[1]);
    return false;
  }
  if (pid == 0) {
    sandbox_child_main(req[0], resp[1], impl.config.limits);
  }
  // Best-effort from this side too, closing the window where an immediate
  // kill(-pid) would miss a child that has not reached its own setpgid yet.
  ::setpgid(pid, pid);
  ::close(req[0]);
  ::close(resp[1]);
  {
    const std::lock_guard<std::mutex> lock(impl.pid_mutex);
    impl.box.pid = pid;
  }
  impl.box.req_fd = req[1];
  impl.box.resp_fd = resp[0];
  impl.box.lines = LineBuffer{};
  if (impl.worker_died) {
    impl.worker_died = false;
    if (impl.counters != nullptr) {
      impl.counters->respawns.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void kill_worker(ScenarioExecutor::Impl& impl) {
  const std::lock_guard<std::mutex> lock(impl.pid_mutex);
  if (impl.box.pid > 0) {
    ::kill(-impl.box.pid, SIGKILL);
    ::kill(impl.box.pid, SIGKILL);
  }
}

/// Reaps the (dead or dying) worker and returns its wait status.
int reap_worker(ScenarioExecutor::Impl& impl) {
  pid_t pid = -1;
  {
    const std::lock_guard<std::mutex> lock(impl.pid_mutex);
    pid = impl.box.pid;
    impl.box.pid = -1;
  }
  if (impl.box.req_fd >= 0) {
    ::close(impl.box.req_fd);
    impl.box.req_fd = -1;
  }
  if (impl.box.resp_fd >= 0) {
    ::close(impl.box.resp_fd);
    impl.box.resp_fd = -1;
  }
  int status = 0;
  if (pid > 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    impl.worker_died = true;
  }
  return status;
}

bool send_unit(ScenarioExecutor::Impl& impl,
               const std::vector<ScenarioSpec>& specs, int attempt) {
  analysis::JsonObject header;
  header.set("attempt", static_cast<std::uint64_t>(attempt));
  header.set("specs", static_cast<std::uint64_t>(specs.size()));
  std::string wire = header.to_json_line();
  wire += '\n';
  for (const ScenarioSpec& spec : specs) {
    wire += spec_to_json(spec).to_json_line();
    wire += '\n';
  }
  return write_all(impl.box.req_fd, wire.data(), wire.size());
}

/// Spawn-if-needed + send, with one respawn-and-resend retry: a worker
/// that died quietly *between* units (its death is only discovered at the
/// next write) must not consume one of the scenario's attempts.
bool dispatch_unit(ScenarioExecutor::Impl& impl,
                   const std::vector<ScenarioSpec>& specs, int attempt) {
  for (int tries = 0; tries < 2; ++tries) {
    if (!impl.box.alive() && !spawn_worker(impl)) {
      return false;
    }
    if (send_unit(impl, specs, attempt)) {
      return true;
    }
    reap_worker(impl);
  }
  return false;
}

/// True when `fields` holds `key` with the value `name`.
bool names(const Fields& fields, const char* key, const std::string& name) {
  const auto it = fields.find(key);
  return it != fields.end() && it->second == name;
}

/// Reads the unit's answer into `rows`, one per member in unit order.
/// Each line is tokenized once: a health line names its member under
/// `scenario` and waits for the row, which names it under `name` and
/// ends the member.  The unit is done at its last member's row.  A line
/// that does not tokenize, or names another member, kills the worker.
UnitWait wait_unit(ScenarioExecutor::Impl& impl,
                   const std::vector<ScenarioSpec>& specs,
                   Clock::time_point deadline,
                   std::vector<ExecutedScenario>& rows) {
  std::vector<std::pair<std::string, Fields>> health;
  for (;;) {
    while (std::optional<std::string> line = impl.box.lines.next()) {
      std::optional<Fields> fields = analysis::parse_flat_json_line(*line);
      const std::string& member = specs[rows.size()].name;
      if (fields && names(*fields, "scenario", member)) {
        health.emplace_back(std::move(*line), std::move(*fields));
        continue;
      }
      if (!fields || !names(*fields, "name", member)) {
        kill_worker(impl);
        return UnitWait::kDead;
      }
      rows.push_back(read_row(std::move(*line), *fields));
      for (auto& [health_line, event] : health) {
        read_health_line(rows.back(), std::move(health_line), event);
      }
      health.clear();
      if (rows.size() == specs.size()) {
        return UnitWait::kDone;
      }
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      return UnitWait::kDeadline;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    struct pollfd pfd {};
    pfd.fd = impl.box.resp_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<long long>(remaining, 60'000)));
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      kill_worker(impl);
      return UnitWait::kDead;
    }
    if (ready == 0) {
      continue;  // Re-check the deadline.
    }
    if (!impl.box.lines.fill(impl.box.resp_fd)) {
      return UnitWait::kDead;
    }
  }
}

/// The error row of a lone spec whose worker died by `status`, or nullopt
/// when the death is not the spec's own doing (a lost worker, retried).
std::optional<ScenarioResult> death_error(const ScenarioExecutor::Impl& impl,
                                          const ScenarioSpec& spec,
                                          int status) {
  const bool signaled = WIFSIGNALED(status);
  if (signaled && crash_signal(WTERMSIG(status))) {
    // Deterministic by construction: the signal and the spec's content
    // fingerprint -- never a pid or address -- so the row is a pure
    // function of (spec, config) and replays byte-identically from the
    // journal.
    return make_error_result(
        spec, ScenarioError::kCrash,
        "sandbox worker killed by " + describe_signal(WTERMSIG(status)) +
            " (spec " + content_fingerprint_of({spec}) + ")");
  }
  const SandboxLimits& limits = impl.config.limits;
  if (signaled && WTERMSIG(status) == SIGXCPU) {
    std::string detail = "sandbox worker exceeded RLIMIT_CPU";
    if (limits.cpu_limit_s > 0) {
      detail += " (" + std::to_string(limits.cpu_limit_s) + " s)";
    }
    return make_error_result(spec, ScenarioError::kResourceLimit,
                             detail + ": SIGXCPU");
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == kExitOom) {
    std::string detail = "sandbox worker exceeded RLIMIT_AS";
    if (limits.mem_limit_mb > 0) {
      detail += " (" + std::to_string(limits.mem_limit_mb) + " MiB)";
    }
    return make_error_result(spec, ScenarioError::kResourceLimit,
                             detail + ": allocation failed");
  }
  // SIGKILL we did not send (the kernel OOM killer), a stray exit, an
  // unknown signal: transient, retried like a timeout.
  return std::nullopt;
}

/// The one supervision loop, for a unit of any size: dispatch, wait under
/// the summed member deadline, kill and reap, withdraw on interrupt.  A
/// lone spec gets the full retry policy and its worker's death is
/// classified; a packed unit gets one attempt, and if its worker dies the
/// partial rows are discarded and every member runs as its own lone unit
/// -- byte-identical rows by the batch and lane contracts.  Returns one
/// row per spec, or none when interrupt() withdrew the unit.
std::vector<ExecutedScenario> run_unit_process(
    ScenarioExecutor::Impl& impl, const std::vector<ScenarioSpec>& specs) {
  const bool lone = specs.size() == 1;
  const int attempts_allowed =
      lone ? 1 + std::max(0, impl.config.max_retries) : 1;
  std::uint64_t timeout_ms = 0;
  for (const ScenarioSpec& spec : specs) {
    timeout_ms += impl.timeout_of(spec);
  }
  std::vector<ExecutedScenario> out;
  bool last_was_timeout = true;
  std::string last_lost_detail;
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      const unsigned shift = std::min(attempt - 1, 10);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(impl.config.backoff_base_ms << shift));
    }
    if (impl.interrupted.load(std::memory_order_relaxed)) {
      return {};
    }
    if (!dispatch_unit(impl, specs, attempt)) {
      last_was_timeout = false;
      last_lost_detail = "sandbox worker could not be spawned";
      continue;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::vector<ExecutedScenario> rows;
    const UnitWait wait = wait_unit(impl, specs, deadline, rows);
    if (wait == UnitWait::kDone) {
      return rows;
    }
    if (wait == UnitWait::kDeadline) {
      kill_worker(impl);
    }
    const int status = reap_worker(impl);
    if (impl.interrupted.load(std::memory_order_relaxed)) {
      return {};
    }
    last_was_timeout = wait == UnitWait::kDeadline;
    if (wait == UnitWait::kDead && lone) {
      if (std::optional<ScenarioResult> error =
              death_error(impl, specs[0], status)) {
        error->attempts = attempt + 1;
        note_counters(impl.counters, *error);
        out.push_back(render_executed(std::move(*error)));
        return out;
      }
      last_lost_detail =
          "sandbox worker lost (" + describe_status(status) + ")";
    }
  }
  if (!lone) {
    for (const ScenarioSpec& spec : specs) {
      std::vector<ExecutedScenario> row = run_unit_process(impl, {spec});
      if (row.empty()) {
        return {};
      }
      out.push_back(std::move(row.front()));
    }
    return out;
  }
  ScenarioResult result =
      last_was_timeout
          ? make_error_result(
                specs[0], ScenarioError::kTimeout,
                "watchdog: no completion within " +
                    std::to_string(timeout_ms) + " ms after " +
                    std::to_string(attempts_allowed) + " attempt(s)")
          : make_error_result(
                specs[0], ScenarioError::kWorkerLost,
                last_lost_detail + " after " +
                    std::to_string(attempts_allowed) + " attempt(s)");
  result.attempts = attempts_allowed;
  note_counters(impl.counters, result);
  out.push_back(render_executed(std::move(result)));
  return out;
}

/// Thread mode: the unit runs right here, with no deadline, no retry and
/// no containment.
std::vector<ExecutedScenario> run_unit_thread(
    ScenarioExecutor::Impl& impl, const std::vector<ScenarioSpec>& specs) {
  std::vector<ExecutedScenario> out;
  for (ScenarioResult& result :
       run_unit_inline(specs, impl.workspace, [&](std::size_t index) {
         return run_scenario_guarded(specs[index], impl.workspace).result;
       })) {
    out.push_back(render_executed(std::move(result)));
  }
  return out;
}

}  // namespace

std::string_view to_string(IsolationMode mode) noexcept {
  switch (mode) {
    case IsolationMode::kThread:
      return "thread";
    case IsolationMode::kProcess:
      return "process";
  }
  return "unknown";
}

std::uint64_t auto_timeout_ms(const ScenarioSpec& spec) {
  return 10'000 + 20 * spec.periods;
}

ScenarioExecutor::ScenarioExecutor(IsolationConfig config,
                                   SandboxCounters* counters)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->counters = counters;
  if (config.mode == IsolationMode::kProcess) {
    // A failed fork is retried lazily by the first unit's dispatch.
    spawn_worker(*impl_);
  }
}

ScenarioExecutor::~ScenarioExecutor() {
  kill_worker(*impl_);
  reap_worker(*impl_);
}

std::vector<ExecutedScenario> ScenarioExecutor::run_unit(
    const std::vector<ScenarioSpec>& specs) {
  if (specs.empty() || impl_->interrupted.load(std::memory_order_relaxed)) {
    return {};
  }
  if (impl_->config.mode == IsolationMode::kThread) {
    return run_unit_thread(*impl_, specs);
  }
  return run_unit_process(*impl_, specs);
}

void ScenarioExecutor::interrupt() {
  impl_->interrupted.store(true, std::memory_order_relaxed);
  kill_worker(*impl_);
}

bool ScenarioExecutor::interrupted() const noexcept {
  return impl_->interrupted.load(std::memory_order_relaxed);
}

void ScenarioExecutor::clear_interrupt() noexcept {
  impl_->interrupted.store(false, std::memory_order_relaxed);
}

IsolationMode ScenarioExecutor::mode() const noexcept {
  return impl_->config.mode;
}

}  // namespace ddl::scenario
