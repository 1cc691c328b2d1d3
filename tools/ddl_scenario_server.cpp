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
// shutdown: in-flight scenarios finish and journal, sessions close;
// queued work stays pending for the next start.
// Exit status: 0 on clean shutdown, 64 usage error, 71 startup failure.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
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

scenario::FlagTable server_flags(ServerOptions& o) {
  using namespace scenario;
  service::ServiceConfig& c = o.config;
  std::vector<Flag> rows = {
      help_flag(o.help),
      port_flag("--port", "loopback TCP port (default 0 = ephemeral)",
                c.tcp_port),
      custom_flag("--no-tcp", "", "disable the TCP listener",
                  [&c](const std::string&) {
                    c.enable_tcp = false;
                    return std::string();
                  }),
      text_flag("--unix", "PATH", "also listen on a Unix-domain socket",
                c.unix_path),
      text_flag("--state-dir", "DIR",
                "journal every job under DIR (resume on restart)",
                c.state_dir),
      number_flag("--workers", "N", "scenario worker threads (default 2)",
                  c.workers),
      number_flag("--max-inflight", "N",
                  "per-client in-flight scenario quota (default 4)",
                  c.max_inflight_per_client),
      number_flag("--max-jobs", "N", "per-client pending-job quota (default 4)",
                  c.max_pending_jobs_per_client),
      number_flag("--heartbeat-ms", "N",
                  "idle heartbeat interval (default 1000)", c.heartbeat_ms),
      number_flag("--dead-peer-timeout-ms", "N",
                  "close a session silent for N ms (default 30000, 0 "
                  "disables).  Must exceed the client's --heartbeat-ms ping "
                  "cadence by a healthy margin",
                  c.dead_peer_timeout_ms),
      number_flag("--partial-frame-timeout-ms", "N",
                  "close a session stuck mid-frame for N ms -- the slowloris "
                  "defense (default 10000, 0 disables)",
                  c.partial_frame_timeout_ms),
      custom_flag("--max-outbox-mb", "N",
                  "per-session outbox cap before disconnect (default 32; the "
                  "job continues as an orphan)",
                  [&c](const std::string& text) {
                    // N MiB must fit a size_t, or the cap wraps.
                    std::uint64_t mb = 0;
                    std::string problem = read_number(
                        text, 0, std::numeric_limits<std::size_t>::max() >> 20,
                        mb);
                    if (problem.empty()) {
                      c.max_outbox_bytes = static_cast<std::size_t>(mb) << 20;
                    }
                    return problem;
                  }),
  };
  for (Flag& flag : sandbox_flags(c.isolation)) {
    rows.push_back(std::move(flag));
  }
  return FlagTable(std::move(rows));
}

ServerOptions parse_args(const std::vector<std::string>& args) {
  ServerOptions options;
  // The daemon defaults differ from the library's (which keep timeouts
  // off so embedded/test servers never reap a slow debugger session):
  // a long-running daemon wants dead-peer and slowloris defenses on.
  options.config.dead_peer_timeout_ms = 30'000;
  options.config.partial_frame_timeout_ms = 10'000;
  scenario::FlagTable flags = server_flags(options);
  options.error = flags.parse(args);
  if (!options.ok() || options.help) {
    return options;
  }
  if (!options.config.enable_tcp && options.config.unix_path.empty()) {
    options.error = "--no-tcp without --unix leaves nothing to listen on";
  } else if (options.config.isolation.mode ==
             scenario::IsolationMode::kThread) {
    options.error = flags.thread_isolation_error();
  }
  return options;
}

std::string usage() {
  ServerOptions defaults;
  return server_flags(defaults).usage(
      "usage: ddl_scenario_server [--port N] [--unix PATH] [options]");
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
  if (!options.ok() || options.help) {
    return scenario::usage_exit(options.error, usage());
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
