// ddl_scenario_client: submit a campaign to a running ddl_scenario_server
// and reassemble the streamed rows into the exact JSONL document the
// one-shot runner would have produced.
//
//   ddl_scenario_client --port 45123 --job nightly --suite regression
//   ddl_scenario_client --unix /tmp/ddl.sock --suite smoke --out r.jsonl
//   ddl_scenario_client --port 45123 --job repro --replay bundle.json
//   ddl_scenario_client --port 45123 --job nightly --cancel
//
// Resilience rides on ResilientScenarioClient: a `backpressure` frame or
// a dropped connection (reset, truncation, a fuzz-poisoned frame reader)
// is answered by reconnecting with exponential backoff and resubmitting
// the same job -- the server replays committed rows byte-exactly
// (idempotent job identity), so a kill -9 of the server mid-campaign or
// a chaos-proxy storm between the endpoints costs nothing but time.
// While blocked waiting, the client pings every --heartbeat-ms so the
// server's dead-peer timeout never reaps a healthy connection.
//
// Exit status mirrors the runner: the number of failed scenarios (capped
// at 125), 64 usage error, 66 file error, 69 service unavailable
// (attempts exhausted), 70 job cancelled, and for --replay 0 when the
// expected verdict reproduced / 1 when it did not.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/service/client.h"

namespace {

using namespace ddl;

struct ClientOptions {
  service::ResilientClientConfig config;
  std::string job_tag = "job";
  std::string suite = "smoke";
  std::string filter;
  std::string replay_path;  ///< --replay: run a bundle instead of a suite.
  bool cancel = false;      ///< --cancel: tear the tagged job down.
  std::string inject_crash_kind;   ///< --inject-crash: segv|abort|oom|spin.
  std::string inject_crash_match;  ///< ... @SUBSTR scenario selector.
  std::string out_path;
  std::string health_out_path;
  bool help = false;
  std::string error;
  bool ok() const { return error.empty(); }
};

scenario::FlagTable client_flags(ClientOptions& o) {
  using namespace scenario;
  service::ClientConfig& base = o.config.base;
  return FlagTable({
      help_flag(o.help),
      port_flag("--port", "server TCP port (loopback)", base.tcp_port),
      text_flag("--host", "ADDR", "server address (default 127.0.0.1)",
                base.host),
      text_flag("--unix", "PATH", "connect over a Unix-domain socket instead",
                base.unix_path),
      text_flag("--name", "NAME",
                "client identity (default 'client'; part of the job id, so "
                "reconnects resume the same job)",
                base.name),
      text_flag("--job", "TAG", "job tag (default 'job')", o.job_tag),
      text_flag("--suite", "NAME", "registry suite to run (default 'smoke')",
                o.suite),
      text_flag("--filter", "SUBSTR",
                "keep only scenarios whose name contains this", o.filter),
      text_flag("--replay", "FILE",
                "run a chaos replay bundle instead of a suite; exit 0 iff the "
                "expected verdict reproduces",
                o.replay_path),
      switch_flag("--cancel", "cancel the job tagged --job instead of running",
                  o.cancel),
      text_flag("--out", "FILE", "write the result JSONL here (default stdout)",
                o.out_path),
      text_flag("--health-out", "FILE", "write the health-event JSONL here",
                o.health_out_path),
      number_flag("--heartbeat-ms", "N",
                  "ping cadence while waiting (default 1000; keep well under "
                  "the server's --dead-peer-timeout-ms; 0 disables)",
                  base.heartbeat_ms),
      number_flag("--recv-timeout-ms", "N",
                  "give up after N ms of total server silence (default "
                  "30000, 0 waits forever)",
                  base.recv_timeout_ms),
      number_flag("--retry-ms", "N",
                  "initial reconnect backoff, doubling per failure (default "
                  "25, capped at 1000; 0 means 1)",
                  o.config.initial_backoff_ms),
      number_flag("--attempts", "N",
                  "transport failures tolerated before exit 69 (default 150)",
                  o.config.max_attempts, 1),
      inject_crash_flag(o.inject_crash_kind, o.inject_crash_match),
  });
}

ClientOptions parse_args(const std::vector<std::string>& args) {
  ClientOptions options;
  // Daemon-pairing defaults: ping every second, declare the server dead
  // after 30 s of total silence.  The library defaults keep both off.
  options.config.base.heartbeat_ms = 1000;
  options.config.base.recv_timeout_ms = 30'000;
  options.config.max_attempts = 150;
  options.error = client_flags(options).parse(args);
  if (!options.ok() || options.help) {
    return options;
  }
  options.config.initial_backoff_ms =
      std::max<std::uint64_t>(options.config.initial_backoff_ms, 1);
  if (options.config.base.unix_path.empty() &&
      options.config.base.tcp_port == 0) {
    options.error = "need --port or --unix to reach a server";
  } else if (options.cancel && !options.replay_path.empty()) {
    options.error = "--cancel and --replay are mutually exclusive";
  }
  return options;
}

std::string usage() {
  ClientOptions defaults;
  return client_flags(defaults).usage(
      "usage: ddl_scenario_client (--port N | --unix PATH) [options]");
}

/// --cancel: connect, request the teardown, wait for the terminal frame.
int run_cancel(const ClientOptions& options) {
  service::ScenarioClient client(options.config.base);
  std::string error;
  if (!client.connect(&error)) {
    std::cerr << "connect: " << error << "\n";
    return 69;
  }
  if (!client.cancel(options.job_tag)) {
    std::cerr << "error: cancel send failed\n";
    return 69;
  }
  // The terminal frame is either `cancelled` (teardown complete) or an
  // `error` naming why (unknown_job / already_done).
  for (;;) {
    const auto fields = client.next_frame();
    if (!fields) {
      std::cerr << "error: connection closed before the cancel reply\n";
      return 69;
    }
    const auto frame_it = fields->find("frame");
    const std::string type =
        frame_it == fields->end() ? "" : frame_it->second;
    if (type == "cancelled") {
      const auto completed = fields->find("completed");
      const auto total = fields->find("total");
      std::cerr << "cancelled: completed="
                << (completed == fields->end() ? "?" : completed->second)
                << "/" << (total == fields->end() ? "?" : total->second)
                << "\n";
      client.bye();
      return 0;
    }
    if (type == "error") {
      const auto code = fields->find("code");
      const auto detail = fields->find("detail");
      std::cerr << "error: "
                << (code == fields->end() ? "?" : code->second) << ": "
                << (detail == fields->end() ? "" : detail->second) << "\n";
      return 64;
    }
    // result / health / heartbeat frames keep streaming while the
    // in-flight scenarios drain; skip them.
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ClientOptions options = parse_args({argv + 1, argv + argc});
  if (!options.ok() || options.help) {
    return scenario::usage_exit(options.error, usage());
  }
  if (options.cancel) {
    return run_cancel(options);
  }

  service::ResilientScenarioClient client(options.config);
  service::ScenarioClient::JobOutcome outcome;
  if (!options.replay_path.empty()) {
    scenario::ReplayBundle bundle;
    try {
      bundle = scenario::parse_replay_bundle(
          scenario::read_file(options.replay_path));
    } catch (const std::exception& e) {
      std::cerr << "error: " << options.replay_path << ": " << e.what()
                << "\n";
      return 66;
    }
    outcome = client.run_replay(options.job_tag, bundle);
  } else if (!options.inject_crash_kind.empty()) {
    // Test hook: expand the suite locally so the crash marker travels in
    // the submitted specs; the server's sandbox supervisor classifies the
    // worker death and the rest of the campaign completes normally.
    std::vector<scenario::ScenarioSpec> specs;
    try {
      specs = scenario::ScenarioRegistry::builtin().expand_filtered(
          options.suite, options.filter);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 64;
    }
    if (specs.empty()) {
      std::cerr << "error: suite '" << options.suite
                << "' expands to no scenarios\n";
      return 64;
    }
    scenario::mark_crash_targets(specs, options.inject_crash_kind,
                                 options.inject_crash_match);
    outcome = client.run_specs(options.job_tag, specs);
  } else {
    outcome = client.run_suite(options.job_tag, options.suite, options.filter);
  }

  if (outcome.cancelled) {
    std::cerr << "error: job '" << options.job_tag << "' was cancelled\n";
    return 70;
  }
  if (!outcome.done) {
    if (outcome.error_code == "connect_failed" ||
        outcome.error_code == "disconnected" ||
        outcome.error_code == "backpressure" ||
        outcome.error_code == "bad_frame" ||
        outcome.error_code == "dead_peer" ||
        outcome.error_code == "partial_frame_timeout") {
      std::cerr << "error: service unavailable after "
                << options.config.max_attempts << " attempts ("
                << outcome.error_code << ": " << outcome.error_detail
                << ")\n";
      return 69;
    }
    std::cerr << "error: " << outcome.error_code << ": "
              << outcome.error_detail << "\n";
    return 64;
  }

  try {
    if (options.out_path.empty()) {
      std::cout << outcome.jsonl();
    } else {
      analysis::write_file_atomic(options.out_path, outcome.jsonl());
    }
    if (!options.health_out_path.empty()) {
      analysis::write_file_atomic(options.health_out_path,
                                  outcome.health_jsonl());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 66;
  }

  std::cerr << "job done: scenarios=" << outcome.scenarios
            << " passed=" << outcome.passed << " failed=" << outcome.failed
            << " executed=" << outcome.executed
            << " resumed=" << outcome.resumed
            << " reconnects=" << client.reconnects() << "\n";
  if (!options.replay_path.empty()) {
    std::cerr << (outcome.reproduced ? "reproduced: the expected verdict "
                                       "reproduced\n"
                                     : "NOT reproduced: the scenario did not "
                                       "match the bundle's expectation\n");
    return outcome.reproduced ? 0 : 1;
  }
  return static_cast<int>(outcome.failed > 125 ? 125 : outcome.failed);
}
