// ddl_chaos_proxy: a seeded TCP chaos proxy between ddl_scenario_client
// and ddl_scenario_server.  Every connection relayed through it is
// subjected to a splitmix64-scheduled fault storm -- resets, mid-frame
// truncation, byte fuzzing, duplicated writes, single-byte trickle,
// stalls -- so CI can prove the service endpoints converge to byte-exact
// campaign output through an adversarial network.
//
//   ddl_chaos_proxy --listen-port 0 --upstream-port 45123 --seed 7
//   ddl_chaos_proxy --upstream-port 45123 --profile heavy
//
// Prints one `listening ...` line to stdout once ready (scripts parse the
// ephemeral port from it).  SIGTERM / SIGINT stop the relay and print the
// fault accounting.  Exit status: 0 on clean shutdown, 64 usage error,
// 71 startup failure.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/scenario/cli.h"
#include "ddl/service/chaos_proxy.h"

namespace {

using namespace ddl;

struct ProxyOptions {
  service::ChaosProxyConfig config;
  bool help = false;
  std::string error;
  bool ok() const { return error.empty(); }
};

void apply_profile(service::ChaosProxyConfig& config,
                   const std::string& name) {
  if (name == "clean") {
    config.p_reset_permille = 0;
    config.p_truncate_permille = 0;
    config.p_fuzz_permille = 0;
    config.p_duplicate_permille = 0;
    config.p_trickle_permille = 0;
    config.p_stall_permille = 0;
    config.p_split_permille = 0;
  } else if (name == "light") {
    config.p_reset_permille = 3;
    config.p_truncate_permille = 5;
    config.p_fuzz_permille = 6;
    config.p_duplicate_permille = 4;
    config.p_trickle_permille = 4;
    config.p_stall_permille = 4;
  } else if (name == "heavy") {
    config.p_reset_permille = 16;
    config.p_truncate_permille = 24;
    config.p_fuzz_permille = 30;
    config.p_duplicate_permille = 20;
    config.p_trickle_permille = 20;
    config.p_stall_permille = 20;
  }  // "default" keeps the config's own rates.
}

scenario::FlagTable proxy_flags(ProxyOptions& o) {
  using namespace scenario;
  service::ChaosProxyConfig& c = o.config;
  const auto permille = [](const char* name, const char* help,
                           std::uint32_t& out) {
    return number_flag(name, "N", help, out, 0, 1000);
  };
  return FlagTable({
      help_flag(o.help),
      port_flag("--listen-port", "loopback listen port (default 0 = ephemeral)",
                c.listen_port),
      port_flag("--upstream-port", "the real server's port (required)",
                c.upstream_port),
      text_flag("--upstream-host", "A",
                "the real server's address (default 127.0.0.1)",
                c.upstream_host),
      number_flag("--seed", "N", "fault-schedule seed (default 1)", c.seed),
      choice_flag("--profile", "NAME",
                  "fault mix: clean (forward only), light, default, heavy "
                  "(roughly 2x default rates); a later rate flag overrides "
                  "its rate",
                  {"clean", "light", "default", "heavy"},
                  [&c](const std::string& name) { apply_profile(c, name); }),
      permille("--reset", "per-chunk connection-reset permille",
               c.p_reset_permille),
      permille("--truncate", "per-chunk mid-frame truncation permille",
               c.p_truncate_permille),
      permille("--fuzz", "per-chunk byte-fuzzing permille", c.p_fuzz_permille),
      permille("--duplicate", "per-chunk duplicated-write permille",
               c.p_duplicate_permille),
      permille("--trickle", "per-chunk slowloris-trickle permille",
               c.p_trickle_permille),
      permille("--stall", "per-chunk stall permille", c.p_stall_permille),
      number_flag("--stall-ms", "N", "stall duration (default 120)",
                  c.stall_ms),
      number_flag("--chunk-bytes", "N",
                  "relay read size (default 2048); smaller chunks mean more "
                  "fault decision points",
                  c.chunk_bytes, 1),
  });
}

ProxyOptions parse_args(const std::vector<std::string>& args) {
  ProxyOptions options;
  options.error = proxy_flags(options).parse(args);
  if (options.ok() && !options.help && options.config.upstream_port == 0) {
    options.error = "--upstream-port is required";
  }
  return options;
}

std::string usage() {
  ProxyOptions defaults;
  return proxy_flags(defaults).usage(
      "usage: ddl_chaos_proxy --upstream-port N [options]");
}

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const ProxyOptions options = parse_args({argv + 1, argv + argc});
  if (!options.ok() || options.help) {
    return scenario::usage_exit(options.error, usage());
  }

  service::ChaosProxy proxy(options.config);
  std::string error;
  if (!proxy.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 71;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "listening tcp=" << proxy.listen_port()
            << " upstream=" << options.config.upstream_host << ":"
            << options.config.upstream_port
            << " seed=" << options.config.seed << std::endl;

  while (g_stop == 0) {
    // The relay runs on its own thread; the main thread only waits for a
    // signal.  pause() returns on any handled signal.
    ::pause();
  }
  proxy.stop();

  const service::ChaosProxyStats stats = proxy.stats();
  std::cerr << "chaos: connections=" << stats.connections
            << " resets=" << stats.resets
            << " truncations=" << stats.truncations
            << " fuzzed=" << stats.fuzzed_chunks
            << " duplicated=" << stats.duplicated_chunks
            << " trickled=" << stats.trickled_chunks
            << " stalls=" << stats.stalls
            << " split=" << stats.split_chunks
            << " forwarded_bytes=" << stats.forwarded_bytes << "\n";
  return 0;
}
