#include "ddl/scenario/cli.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <sstream>

#include "ddl/scenario/spec.h"

namespace ddl::scenario {

namespace {

/// Help text starts in this column; usage() wraps lines at kUsageWidth.
constexpr std::size_t kHelpColumn = 24;
constexpr std::size_t kUsageWidth = 79;

std::string joined(const std::vector<std::string>& words) {
  std::string text;
  for (const std::string& word : words) {
    text += (text.empty() ? "" : "|") + word;
  }
  return text;
}

/// "" when `value` is one of `choices`, else the reason choice rows report.
std::string check_choice(const std::string& value,
                         const std::vector<std::string>& choices) {
  if (std::find(choices.begin(), choices.end(), value) != choices.end()) {
    return "";
  }
  return "'" + value + "' is not one of " + joined(choices);
}

FlagTable runner_flags(RunnerOptions& o) {
  // --journal and --resume must name one directory; --journal alone may
  // repeat (the last one wins).
  const auto journal = [&o](bool resume) {
    return [&o, resume](const std::string& dir) -> std::string {
      const bool chosen = resume ? !o.journal_dir.empty() : o.resume;
      if (chosen && o.journal_dir != dir) {
        return "'" + dir + "' differs from the journal directory '" +
               o.journal_dir + "'";
      }
      o.journal_dir = dir;
      o.resume = o.resume || resume;
      return "";
    };
  };
  std::vector<Flag> rows = {
      help_flag(o.help),
      text_flag("--suite", "NAME", "suite to run (default: smoke)", o.suite),
      text_flag("--filter", "SUBSTR",
                "keep only scenarios whose name contains SUBSTR", o.filter),
      number_flag("--jobs", "N",
                  "worker threads (default: DDL_THREADS or hardware)", o.jobs),
      text_flag("--out", "FILE",
                "write the JSONL stream to FILE instead of stdout",
                o.out_path),
      text_flag("--health-out", "FILE",
                "write supervisor health events (one JSONL record per "
                "event, spec order) to FILE",
                o.health_out_path),
      custom_flag("--journal", "DIR",
                  "journal every completed scenario to DIR (crash-safe: "
                  "append-only JSONL + manifest)",
                  journal(false)),
      custom_flag("--resume", "DIR",
                  "resume a killed campaign from DIR's journal; completed "
                  "scenarios are skipped and the final streams stay "
                  "byte-identical to an unbroken run",
                  journal(true)),
  };
  for (Flag& flag : sandbox_flags(o.isolation)) {
    rows.push_back(std::move(flag));
  }
  rows.insert(rows.end(), {
      sandbox_only(number_flag("--backoff-ms", "MS",
                               "first retry backoff, doubling per retry "
                               "(default: 50)",
                               o.isolation.backoff_base_ms)),
      number_flag("--chaos", "N",
                  "replace the suite with N seeded random fault storms over "
                  "its first scenario",
                  o.chaos_storms, 1),
      number_flag("--chaos-seed", "S", "storm generator seed (default: 2026)",
                  o.chaos_seed),
      number_flag("--chaos-max-faults", "N",
                  "faults per storm are 1..N (default: 3)", o.chaos_max_faults,
                  1),
      switch_flag("--shrink",
                  "on failure, shrink each failing fault plan to a 1-minimal "
                  "replay bundle (replay_<name>.json)",
                  o.shrink),
      text_flag("--replay", "FILE",
                "re-run a replay bundle as a one-spec campaign under "
                "--isolation and the sandbox flags; exit 0 iff the recorded "
                "verdict reproduces",
                o.replay_path),
      sandbox_only(number_flag("--inject-hang", "MS",
                               "test hook: hang the first scenario's "
                               "attempts for MS to exercise the sandbox "
                               "deadline",
                               o.inject_hang_ms, 1)),
      sandbox_only(inject_crash_flag(o.inject_crash_kind,
                                     o.inject_crash_match)),
      switch_flag("--list", "list suites and their scenarios, then exit",
                  o.list),
  });
  return FlagTable(std::move(rows));
}

}  // namespace

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;  // Overflow.
    }
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_count(const std::string& text, int& out) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, wide) ||
      wide > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  out = static_cast<int>(wide);
  return true;
}

std::string read_number(const std::string& text, std::uint64_t min,
                        std::uint64_t max, std::uint64_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) {
    return "'" + text + "' is not a non-negative integer";
  }
  if (value < min) {
    return text + " is below the minimum " + std::to_string(min);
  }
  if (value > max) {
    return text + " exceeds the maximum " + std::to_string(max);
  }
  out = value;
  return "";
}

Flag custom_flag(std::string name, std::string value_name, std::string help,
                 std::function<std::string(const std::string&)> read) {
  return {std::move(name), "", std::move(value_name), std::move(help), false,
          std::move(read)};
}

Flag text_flag(std::string name, std::string value_name, std::string help,
               std::string& out) {
  return custom_flag(std::move(name), std::move(value_name), std::move(help),
                     [&out](const std::string& value) {
                       out = value;
                       return std::string();
                     });
}

Flag switch_flag(std::string name, std::string help, bool& out) {
  return custom_flag(std::move(name), "", std::move(help),
                     [&out](const std::string&) {
                       out = true;
                       return std::string();
                     });
}

Flag help_flag(bool& out) {
  Flag flag = switch_flag("--help", "print this text and exit", out);
  flag.alias = "-h";
  return flag;
}

Flag choice_flag(std::string name, std::string value_name, std::string help,
                 std::vector<std::string> choices,
                 std::function<void(const std::string&)> set) {
  return custom_flag(std::move(name), std::move(value_name), std::move(help),
                     [choices = std::move(choices),
                      set = std::move(set)](const std::string& value) {
                       std::string problem = check_choice(value, choices);
                       if (problem.empty()) {
                         set(value);
                       }
                       return problem;
                     });
}

Flag port_flag(std::string name, std::string help, int& out) {
  return number_flag(std::move(name), "N", std::move(help), out, 0, 65535);
}

Flag sandbox_only(Flag flag) {
  flag.sandbox_only = true;
  return flag;
}

std::vector<Flag> sandbox_flags(IsolationConfig& config) {
  return {
      sandbox_only(number_flag("--timeout-ms", "MS",
                               "sandbox deadline per scenario attempt "
                               "(default: 0, which is 10 s + 20 ms per "
                               "switching period)",
                               config.timeout_ms)),
      sandbox_only(number_flag("--retries", "N",
                               "extra attempts for a timed-out or lost "
                               "scenario (default: 1; exponential backoff "
                               "between tries)",
                               config.max_retries)),
      choice_flag("--isolation", "MODE",
                  "where scenarios run: 'process' (default; fork()ed sandbox "
                  "workers with deadlines, retries and crash containment: a "
                  "crashing scenario becomes a structured error row) or "
                  "'thread' (in process, with none of those: every "
                  "[sandbox-only] flag is rejected)",
                  {"thread", "process"},
                  [&config](const std::string& mode) {
                    config.mode = mode == "thread" ? IsolationMode::kThread
                                                   : IsolationMode::kProcess;
                  }),
      sandbox_only(number_flag("--mem-limit-mb", "N",
                               "RLIMIT_AS cap per sandbox worker, in MiB "
                               "(default: 0, unlimited)",
                               config.limits.mem_limit_mb)),
      sandbox_only(number_flag("--cpu-limit-s", "N",
                               "RLIMIT_CPU cap per sandbox worker, in seconds "
                               "(default: 0, unlimited)",
                               config.limits.cpu_limit_s)),
  };
}

Flag inject_crash_flag(std::string& kind, std::string& match) {
  return custom_flag(
      "--inject-crash", "KIND[@SUBSTR]",
      "test hook: crash the selected scenarios inside their sandbox worker.  "
      "KIND is " + joined(kCrashKinds) +
          "; @SUBSTR selects every scenario whose name contains SUBSTR "
          "(default: just the first scenario)",
      [&kind, &match](const std::string& value) {
        const std::size_t at = value.find('@');
        kind = value.substr(0, at);
        match = at == std::string::npos ? "" : value.substr(at + 1);
        return check_choice(kind, kCrashKinds);
      });
}

void mark_crash_targets(std::vector<ScenarioSpec>& specs,
                        const std::string& kind, const std::string& match) {
  for (std::size_t i = 0; i < specs.size() && !kind.empty(); ++i) {
    if (match.empty() ? i == 0
                      : specs[i].name.find(match) != std::string::npos) {
      specs[i].debug_crash = kind;
    }
  }
}

int usage_exit(const std::string& error, const std::string& usage) {
  if (error.empty()) {
    std::cout << usage;
    return 0;
  }
  std::cerr << "error: " << error << "\n" << usage;
  return 64;
}

std::string FlagTable::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(), [&](const Flag& row) {
          return args[i] == row.name ||
                 (!row.alias.empty() && args[i] == row.alias);
        });
    if (flag == flags_.end()) {
      return "unknown flag '" + args[i] + "'";
    }
    if (flag->sandbox_only && sandbox_flag_.empty()) {
      sandbox_flag_ = flag->name;
    }
    const bool takes_value = !flag->value_name.empty();
    if (takes_value && i + 1 == args.size()) {
      return flag->name + " needs a value (" + flag->value_name + ")";
    }
    const std::string problem = flag->read(takes_value ? args[++i] : "");
    if (!problem.empty()) {
      return flag->name + ": " + problem;
    }
  }
  return "";
}

std::string FlagTable::thread_isolation_error() const {
  if (sandbox_flag_.empty()) {
    return "";
  }
  return sandbox_flag_ + " requires --isolation process (thread mode runs "
                         "scenarios in process, with no deadline, retry, "
                         "rlimit or crash containment)";
}

std::string FlagTable::usage(const std::string& synopsis) const {
  std::string text = synopsis + "\n\n";
  for (const Flag& flag : flags_) {
    std::string line = "  " + flag.name +
                       (flag.alias.empty() ? "" : ", " + flag.alias) +
                       (flag.value_name.empty() ? "" : " " + flag.value_name);
    if (line.size() + 2 > kHelpColumn) {  // Too wide: the help goes below.
      text += line + "\n";
      line.clear();
    }
    std::istringstream words(flag.help +
                             (flag.sandbox_only ? " [sandbox-only]" : ""));
    for (std::string word; words >> word;) {
      if (line.size() > kHelpColumn &&
          line.size() + 1 + word.size() > kUsageWidth) {
        text += line + "\n";
        line.clear();
      }
      // Pad to the help column, or separate from the previous word.
      line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
      line += word;
    }
    text += line + "\n";
  }
  return text;
}

ParsedArgs parse_runner_args(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  RunnerOptions& options = parsed.options;
  FlagTable flags = runner_flags(options);
  parsed.error = flags.parse(args);
  if (!parsed.ok() || options.help) {
    return parsed;
  }
  if (options.resume && options.journal_dir.empty()) {
    parsed.error = "--resume needs a journal directory";
  } else if (options.isolation.mode == IsolationMode::kThread) {
    parsed.error = flags.thread_isolation_error();
  }
  if (parsed.ok() && !options.replay_path.empty() &&
      (options.chaos_storms > 0 || options.resume || options.list)) {
    parsed.error = "--replay runs one bundle and cannot combine with "
                   "--chaos/--resume/--list";
  }
  return parsed;
}

std::string runner_usage() {
  RunnerOptions defaults;
  return runner_flags(defaults).usage(
      "usage: ddl_scenario_runner [--suite NAME | --replay FILE | --list] "
      "[options]");
}

}  // namespace ddl::scenario
