// ddl_scenario_server: the campaign service daemon.  Binds a loopback TCP
// port (and optionally a Unix-domain socket), accepts framed scenario /
// chaos submissions from ddl_scenario_client, runs them on the
// sandbox-isolated worker pool and streams results back -- journaling
// every completed scenario under --state-dir so a killed server resumes
// exactly where it stopped (see DESIGN.md "Campaign service").
//
//   ddl_scenario_server --port 0 --state-dir runs/service --workers 4
//   ddl_scenario_server --unix /tmp/ddl.sock --state-dir runs/service
//
// Prints one `listening ...` line to stdout once ready (scripts parse the
// ephemeral port from it).  SIGTERM / SIGINT trigger the graceful
// shutdown: in-flight scenarios finish and journal, checkpoint manifests
// flush, sessions close; queued work stays pending for the next start.
// Exit status: 0 on clean shutdown, 64 usage error, 71 startup failure.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/scenario/cli.h"
#include "ddl/service/server.h"

namespace {

using namespace ddl;

struct ServerOptions {
  service::ServiceConfig config;
  bool help = false;
  std::string error;
  bool ok() const { return error.empty(); }
};

std::string usage() {
  return
      "usage: ddl_scenario_server [options]\n"
      "  --port N           loopback TCP port (default 0 = ephemeral)\n"
      "  --no-tcp           disable the TCP listener\n"
      "  --unix PATH        also listen on a Unix-domain socket\n"
      "  --state-dir DIR    journal every job under DIR (resume on restart)\n"
      "  --workers N        scenario worker threads (default 2)\n"
      "  --max-inflight N   per-client in-flight scenario quota (default 4)\n"
      "  --max-jobs N       per-client pending-job quota (default 4)\n"
      "  --heartbeat-ms N   idle heartbeat interval (default 1000)\n"
      "  --dead-peer-timeout-ms N\n"
      "                     close a session silent for N ms (default 30000,\n"
      "                     0 disables).  Must exceed the client's\n"
      "                     --heartbeat-ms ping cadence by a healthy margin\n"
      "  --partial-frame-timeout-ms N\n"
      "                     close a session stuck mid-frame for N ms -- the\n"
      "                     slowloris defense (default 10000, 0 disables)\n"
      "  --max-outbox-mb N  per-session outbox cap before disconnect\n"
      "                     (default 32; the job continues as an orphan)\n"
      "  --timeout-ms N     sandbox deadline per attempt (0 = per-spec)\n"
      "  --retries N        extra attempts for timed-out or lost scenarios\n"
      "  --isolation MODE   where scenarios run: 'process' (default; fork()ed\n"
      "                     sandbox workers -- a crashing scenario becomes\n"
      "                     a structured error row and the daemon survives)\n"
      "                     or 'thread' (in process, with no deadline, retry\n"
      "                     or containment: rejects --timeout-ms, --retries\n"
      "                     and both limits)\n"
      "  --mem-limit-mb N   RLIMIT_AS cap per sandbox worker, in MiB\n"
      "                     (0 = unlimited)\n"
      "  --cpu-limit-s N    RLIMIT_CPU cap per sandbox worker, in seconds\n"
      "                     (0 = unlimited)\n"
      "  --help             this text\n";
}

ServerOptions parse_args(const std::vector<std::string>& args) {
  ServerOptions options;
  // The daemon defaults differ from the library's (which keep timeouts
  // off so embedded/test servers never reap a slow debugger session):
  // a long-running daemon wants dead-peer and slowloris defenses on.
  options.config.dead_peer_timeout_ms = 30'000;
  options.config.partial_frame_timeout_ms = 10'000;
  auto value_of = [&](std::size_t& i, const char* flag) -> const std::string* {
    if (i + 1 >= args.size()) {
      options.error = std::string(flag) + " needs a value";
      return nullptr;
    }
    return &args[++i];
  };
  auto u64_of = [&](std::size_t& i, const char* flag, std::uint64_t& out) {
    const std::string* text = value_of(i, flag);
    if (text != nullptr && !scenario::parse_u64(*text, out)) {
      options.error = std::string(flag) + ": '" + *text +
                      "' is not an unsigned integer";
    }
  };
  // The first flag only a sandbox supervisor can honour; --isolation
  // thread rejects it.
  std::string sandbox_flag;
  for (std::size_t i = 0; i < args.size() && options.ok(); ++i) {
    const std::string& arg = args[i];
    std::uint64_t number = 0;
    if (sandbox_flag.empty() &&
        (arg == "--timeout-ms" || arg == "--retries" ||
         arg == "--mem-limit-mb" || arg == "--cpu-limit-s")) {
      sandbox_flag = arg;
    }
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--port") {
      u64_of(i, "--port", number);
      if (options.ok() && number > 65535) {
        options.error = "--port: " + std::to_string(number) + " out of range";
      }
      options.config.tcp_port = static_cast<int>(number);
    } else if (arg == "--no-tcp") {
      options.config.enable_tcp = false;
    } else if (arg == "--unix") {
      if (const std::string* text = value_of(i, "--unix")) {
        options.config.unix_path = *text;
      }
    } else if (arg == "--state-dir") {
      if (const std::string* text = value_of(i, "--state-dir")) {
        options.config.state_dir = *text;
      }
    } else if (arg == "--workers") {
      u64_of(i, "--workers", number);
      options.config.workers = static_cast<std::size_t>(number);
    } else if (arg == "--max-inflight") {
      u64_of(i, "--max-inflight", number);
      options.config.max_inflight_per_client =
          static_cast<std::size_t>(number);
    } else if (arg == "--max-jobs") {
      u64_of(i, "--max-jobs", number);
      options.config.max_pending_jobs_per_client =
          static_cast<std::size_t>(number);
    } else if (arg == "--heartbeat-ms") {
      u64_of(i, "--heartbeat-ms", options.config.heartbeat_ms);
    } else if (arg == "--dead-peer-timeout-ms") {
      u64_of(i, "--dead-peer-timeout-ms",
             options.config.dead_peer_timeout_ms);
    } else if (arg == "--partial-frame-timeout-ms") {
      u64_of(i, "--partial-frame-timeout-ms",
             options.config.partial_frame_timeout_ms);
    } else if (arg == "--max-outbox-mb") {
      u64_of(i, "--max-outbox-mb", number);
      options.config.max_outbox_bytes =
          static_cast<std::size_t>(number) << 20;
    } else if (arg == "--timeout-ms") {
      u64_of(i, "--timeout-ms", options.config.isolation.timeout_ms);
    } else if (arg == "--retries") {
      u64_of(i, "--retries", number);
      options.config.isolation.max_retries = static_cast<int>(number);
    } else if (arg == "--isolation") {
      if (const std::string* text = value_of(i, "--isolation")) {
        if (*text == "thread") {
          options.config.isolation.mode = scenario::IsolationMode::kThread;
        } else if (*text == "process") {
          options.config.isolation.mode = scenario::IsolationMode::kProcess;
        } else {
          options.error =
              "--isolation: '" + *text + "' is not one of thread|process";
        }
      }
    } else if (arg == "--mem-limit-mb") {
      u64_of(i, "--mem-limit-mb", options.config.isolation.limits.mem_limit_mb);
    } else if (arg == "--cpu-limit-s") {
      u64_of(i, "--cpu-limit-s", options.config.isolation.limits.cpu_limit_s);
    } else {
      options.error = "unknown flag '" + arg + "'";
    }
  }
  if (options.ok() && !options.config.enable_tcp &&
      options.config.unix_path.empty()) {
    options.error = "--no-tcp without --unix leaves nothing to listen on";
  }
  if (options.ok() &&
      options.config.isolation.mode == scenario::IsolationMode::kThread &&
      !sandbox_flag.empty()) {
    options.error = sandbox_flag + " requires --isolation process (thread "
                    "mode runs scenarios in process, with no deadline, "
                    "retry, rlimit or crash containment)";
  }
  return options;
}

// The signal handler may only touch async-signal-safe state;
// request_stop() is exactly that (atomic store + self-pipe write).
service::ScenarioServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) {
    g_server->request_stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ServerOptions options = parse_args({argv + 1, argv + argc});
  if (!options.ok()) {
    std::cerr << "error: " << options.error << "\n" << usage();
    return 64;
  }
  if (options.help) {
    std::cout << usage();
    return 0;
  }

  service::ScenarioServer server(options.config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 71;
  }
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "listening tcp=" << server.tcp_port();
  if (!options.config.unix_path.empty()) {
    std::cout << " unix=" << options.config.unix_path;
  }
  const auto startup = server.stats();
  std::cout << " workers="
            << (options.config.workers == 0 ? 1 : options.config.workers)
            << " recovered=" << startup.jobs_recovered << std::endl;

  server.wait_stopped();
  server.stop();
  g_server = nullptr;

  const service::ServiceStats stats = server.stats();
  std::cerr << "shutdown: sessions=" << stats.sessions_accepted
            << " jobs_accepted=" << stats.jobs_accepted
            << " jobs_recovered=" << stats.jobs_recovered
            << " jobs_completed=" << stats.jobs_completed
            << " executed=" << stats.scenarios_executed
            << " resumed=" << stats.scenarios_resumed
            << " backpressure=" << stats.backpressure_frames
            << " errors=" << stats.error_frames
            << " cancelled=" << stats.jobs_cancelled
            << " timed_out=" << stats.sessions_timed_out
            << " sandbox_crashes=" << stats.sandbox_crashes
            << " workers_respawned=" << stats.workers_respawned
            << " resource_kills=" << stats.resource_kills
            << " workers_lost=" << stats.workers_lost
            << " journal_io_errors=" << stats.journal_io_errors << "\n";
  return 0;
}
