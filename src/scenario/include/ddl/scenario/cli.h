// The command-line grammar of the four tools (runner, server, client and
// chaos proxy), as a library so every flag and its rejection paths are
// unit-testable without forking a binary.
//
// Each tool declares each flag once, as one row of its FlagTable: name (plus
// an alias, `-h`), value name (none for a switch), help text stating the
// default, and how the value is read.  Row kinds: text; switch; number (a
// parse_u64 decimal in [min, max], the maximum capped at what the
// destination holds, so nothing wraps and an int destination is a count,
// as parse_count reads it); port (0-65535); choice (one of a fixed list);
// custom (its own reader, for flags that set more than one field).  Any row
// can be marked sandbox-only.  FlagTable::parse walks argv once and returns
// the first problem, naming the flag, and remembers the first sandbox-only
// flag, which --isolation thread refuses; usage() renders --help from the
// same rows.  Cross-flag checks stay with each tool.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ddl/scenario/sandbox.h"

namespace ddl::scenario {

struct ScenarioSpec;

/// One flag.  `read` gets the value ("" for a switch) and returns "" or
/// why it rejects it; the parser prefixes the flag name.
struct Flag {
  std::string name;
  std::string alias;
  std::string value_name;  ///< Empty for a switch.
  std::string help;        ///< One paragraph; usage() wraps it.
  bool sandbox_only = false;
  std::function<std::string(const std::string& value)> read;
};

/// Reads `text` as a decimal in [min, max]: "" or why not.
std::string read_number(const std::string& text, std::uint64_t min,
                        std::uint64_t max, std::uint64_t& out);

Flag custom_flag(std::string name, std::string value_name, std::string help,
                 std::function<std::string(const std::string&)> read);
Flag text_flag(std::string name, std::string value_name, std::string help,
               std::string& out);
Flag switch_flag(std::string name, std::string help, bool& out);
Flag help_flag(bool& out);  ///< --help, -h.
Flag port_flag(std::string name, std::string help, int& out);
Flag choice_flag(std::string name, std::string value_name, std::string help,
                 std::vector<std::string> choices,
                 std::function<void(const std::string&)> set);
Flag sandbox_only(Flag flag);

template <typename T>
Flag number_flag(std::string name, std::string value_name, std::string help,
                 T& out, std::uint64_t min = 0,
                 std::uint64_t max = std::numeric_limits<T>::max()) {
  max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
  return custom_flag(std::move(name), std::move(value_name), std::move(help),
                     [&out, min, max](const std::string& text) {
                       std::uint64_t value = 0;
                       std::string problem = read_number(text, min, max, value);
                       if (problem.empty()) {
                         out = static_cast<T>(value);
                       }
                       return problem;
                     });
}

/// The sandbox's rows over `config`, one block for the runner and the
/// daemon: --timeout-ms, --retries, --isolation, --mem-limit-mb and
/// --cpu-limit-s.  A 0 keeps IsolationConfig's meaning (a deadline derived
/// per spec, no cap).
std::vector<Flag> sandbox_flags(IsolationConfig& config);

/// --inject-crash KIND[@SUBSTR] (runner and client); KIND is a kCrashKinds
/// entry, SUBSTR selects the targets of mark_crash_targets.
Flag inject_crash_flag(std::string& kind, std::string& match);

/// Sets `debug_crash = kind` on every spec whose name contains `match`, or
/// on the first spec when `match` is empty; nothing when `kind` is empty.
void mark_crash_targets(std::vector<ScenarioSpec>& specs,
                        const std::string& kind, const std::string& match);

/// A tool's answer to a usage error or --help: prints "error: <error>" and
/// `usage` to stderr and returns 64 (EX_USAGE), or, with no error, prints
/// `usage` to stdout and returns 0.
int usage_exit(const std::string& error, const std::string& usage);

/// One tool's rows.  They write through references into the options the
/// tool built them over.
class FlagTable {
 public:
  explicit FlagTable(std::vector<Flag> flags) : flags_(std::move(flags)) {}

  /// Reads argv[1..]; returns the first unknown flag, missing value or
  /// rejected value, naming the flag, or "" when every flag read.
  std::string parse(const std::vector<std::string>& args);
  /// The usage error --isolation thread makes of the first sandbox-only
  /// flag parse() met; "" when there was none.
  std::string thread_isolation_error() const;
  /// The --help text: `synopsis`, then one entry per row.
  std::string usage(const std::string& synopsis) const;

 private:
  std::vector<Flag> flags_;
  std::string sandbox_flag_;
};

/// Everything the runner binary can be asked to do.
struct RunnerOptions {
  std::string suite = "smoke";
  std::string filter;
  std::string out_path;         ///< --out: JSONL stream file ("" = stdout).
  std::string health_out_path;  ///< --health-out: health-event stream file.
  std::string journal_dir;      ///< --journal / --resume: durability dir.
  bool resume = false;          ///< --resume: skip journaled scenarios.
  std::size_t jobs = 0;         ///< --jobs: 0 = DDL_THREADS / hardware.
  /// --isolation and the sandbox's flags (sandbox_flags), plus
  /// --backoff-ms.
  IsolationConfig isolation;

  // Chaos mode: replace the expanded suite with N seeded fault storms over
  // its first scenario (which must be storm-able; see expand_chaos).
  std::size_t chaos_storms = 0;    ///< --chaos: 0 = chaos mode off.
  std::uint64_t chaos_seed = 2026; ///< --chaos-seed
  std::size_t chaos_max_faults = 3;  ///< --chaos-max-faults
  bool shrink = false;  ///< --shrink: emit replay bundles for failures.

  std::string replay_path;  ///< --replay FILE: replay a bundle, then exit.

  std::uint64_t inject_hang_ms = 0;  ///< --inject-hang MS (test hook).
  /// --inject-crash KIND[@SUBSTR] (test hook; see inject_crash_flag).
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
