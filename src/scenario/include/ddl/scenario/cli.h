// Argument parsing for ddl_scenario_runner, as a library so the flag
// grammar (and its rejection paths: malformed numbers, missing values,
// conflicting modes) is unit-testable without forking the binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ddl::scenario {

/// Everything the runner binary can be asked to do.
struct RunnerOptions {
  std::string suite = "smoke";
  std::string filter;
  std::string out_path;         ///< --out: JSONL stream file ("" = stdout).
  std::string health_out_path;  ///< --health-out: health-event stream file.
  std::string journal_dir;      ///< --journal / --resume: durability dir.
  bool resume = false;          ///< --resume: skip journaled scenarios.
  std::size_t jobs = 0;         ///< --jobs: 0 = DDL_THREADS / hardware.
  std::uint64_t timeout_ms = 0; ///< --timeout-ms: 0 = auto_timeout_ms.
  int retries = 1;              ///< --retries: extra attempts on timeout.
  std::uint64_t backoff_ms = 50;  ///< --backoff-ms: first retry delay.

  // Chaos mode: replace the expanded suite with N seeded fault storms over
  // its first scenario (which must be storm-able; see expand_chaos).
  std::size_t chaos_storms = 0;    ///< --chaos: 0 = chaos mode off.
  std::uint64_t chaos_seed = 2026; ///< --chaos-seed
  std::size_t chaos_max_faults = 3;  ///< --chaos-max-faults
  bool shrink = false;  ///< --shrink: emit replay bundles for failures.

  std::string replay_path;  ///< --replay FILE: replay a bundle, then exit.

  /// --inject-hang MS (test hook): the batch's first scenario hangs every
  /// attempt for MS, demonstrating sandbox timeout / retry / error rows.
  std::uint64_t inject_hang_ms = 0;

  /// --isolation thread|process: where scenarios execute (default:
  /// process -- fork()ed sandbox workers with deadlines, retries and crash
  /// containment).  Thread mode rejects every sandbox-only flag.
  std::string isolation = "process";
  std::uint64_t mem_limit_mb = 0;  ///< --mem-limit-mb: worker RLIMIT_AS cap.
  std::uint64_t cpu_limit_s = 0;   ///< --cpu-limit-s: worker RLIMIT_CPU cap.

  /// --inject-crash KIND[@SUBSTR] (test hook): inject a crash of KIND
  /// (segv|abort|oom|spin) into the matching scenarios.  Without @SUBSTR
  /// only the batch's first scenario crashes; with it, every scenario
  /// whose name contains SUBSTR does.
  std::string inject_crash_kind;
  std::string inject_crash_match;

  bool list = false;
  bool help = false;
};

/// A parse attempt: `ok()` or a human-readable `error` (the caller prints
/// it and exits 64, the usage-error convention).
struct ParsedArgs {
  RunnerOptions options;
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

/// Parses argv[1..] (as strings).  Never throws, never exits: malformed
/// input comes back as `error`.
ParsedArgs parse_runner_args(const std::vector<std::string>& args);

/// The usage text `--help` and usage errors print.
std::string runner_usage();

/// Strict unsigned decimal parse: the whole string must be digits and fit.
/// (std::stoul would throw on garbage and silently accept "8oops".)
bool parse_u64(const std::string& text, std::uint64_t& out);

/// Strict non-negative int parse, for count-like flags.
bool parse_count(const std::string& text, int& out);

}  // namespace ddl::scenario
