#include "ddl/scenario/cli.h"

#include <limits>

namespace ddl::scenario {

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

std::string runner_usage() {
  return
      "usage: ddl_scenario_runner [--suite NAME] [--filter SUBSTR]\n"
      "                           [--jobs N] [--out FILE] [--health-out FILE]\n"
      "                           [--journal DIR] [--resume DIR]\n"
      "                           [--timeout-ms MS] [--retries N]\n"
      "                           [--backoff-ms MS]\n"
      "                           [--chaos N] [--chaos-seed S]\n"
      "                           [--chaos-max-faults N] [--shrink]\n"
      "                           [--replay FILE] [--list]\n"
      "\n"
      "  --suite NAME      suite to run (default: smoke)\n"
      "  --filter SUBSTR   keep only scenarios whose name contains SUBSTR\n"
      "  --jobs N          worker threads (default: DDL_THREADS or hardware)\n"
      "  --out FILE        write the JSONL stream to FILE instead of stdout\n"
      "  --health-out FILE write supervisor health events (one JSONL record\n"
      "                    per event, spec order) to FILE\n"
      "  --journal DIR     journal every completed scenario to DIR (crash-\n"
      "                    safe: append-only JSONL + checkpoint manifest)\n"
      "  --resume DIR      resume a killed campaign from DIR's journal;\n"
      "                    completed scenarios are skipped and the final\n"
      "                    streams stay byte-identical to an unbroken run\n"
      "  --timeout-ms MS   sandbox deadline per scenario attempt\n"
      "                    (default: 10 s + 20 ms per switching period)\n"
      "  --retries N       extra attempts for a timed-out or lost scenario\n"
      "                    (default: 1; exponential backoff between tries)\n"
      "  --backoff-ms MS   first retry backoff, doubling per retry\n"
      "                    (default: 50)\n"
      "  --chaos N         replace the suite with N seeded random fault\n"
      "                    storms over its first scenario\n"
      "  --chaos-seed S    storm generator seed (default: 2026)\n"
      "  --chaos-max-faults N  faults per storm are 1..N (default: 3)\n"
      "  --shrink          on failure, shrink each failing fault plan to a\n"
      "                    1-minimal replay bundle (replay_<name>.json)\n"
      "  --replay FILE     re-run a replay bundle; exit 0 iff the recorded\n"
      "                    verdict reproduces\n"
      "  --inject-hang MS  test hook: hang the first scenario's attempts\n"
      "                    for MS to exercise the sandbox deadline\n"
      "  --isolation MODE  where scenarios run: 'process' (default; fork()ed\n"
      "                    sandbox workers with deadlines, retries and\n"
      "                    crash containment) or 'thread' (in process, with\n"
      "                    none of those: --timeout-ms, --retries,\n"
      "                    --backoff-ms, --inject-hang, --inject-crash and\n"
      "                    both limits are rejected)\n"
      "  --mem-limit-mb N  RLIMIT_AS cap per sandbox worker, in MiB\n"
      "                    (default: unlimited)\n"
      "  --cpu-limit-s N   RLIMIT_CPU cap per sandbox worker, in seconds\n"
      "                    (default: unlimited)\n"
      "  --inject-crash KIND[@SUBSTR]\n"
      "                    test hook: crash scenarios inside the sandbox\n"
      "                    worker.  KIND is segv|abort|oom|spin; @SUBSTR\n"
      "                    selects every scenario whose name contains\n"
      "                    SUBSTR (default: just the first scenario)\n"
      "  --list            list suites and their scenarios, then exit\n";
}

ParsedArgs parse_runner_args(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  RunnerOptions& options = parsed.options;
  // The first flag only a sandbox supervisor can honour (deadline, retry,
  // rlimit, crash injection); --isolation thread rejects it.
  std::string sandbox_flag;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (sandbox_flag.empty() &&
        (arg == "--timeout-ms" || arg == "--retries" ||
         arg == "--backoff-ms" || arg == "--inject-hang" ||
         arg == "--inject-crash" || arg == "--mem-limit-mb" ||
         arg == "--cpu-limit-s")) {
      sandbox_flag = arg;
    }
    // One lookahead for flags that take a value; sets `error` when the
    // value is missing so every flag below can bail uniformly.
    const auto value = [&]() -> const std::string* {
      if (i + 1 >= args.size()) {
        parsed.error = arg + " needs a value";
        return nullptr;
      }
      return &args[++i];
    };
    const auto number = [&](std::uint64_t& out) {
      const std::string* text = value();
      if (text == nullptr) {
        return;
      }
      if (!parse_u64(*text, out)) {
        parsed.error = arg + ": '" + *text + "' is not a non-negative integer";
      }
    };

    if (arg == "--suite") {
      if (const std::string* v = value()) {
        options.suite = *v;
      }
    } else if (arg == "--filter") {
      if (const std::string* v = value()) {
        options.filter = *v;
      }
    } else if (arg == "--jobs") {
      std::uint64_t jobs = 0;
      number(jobs);
      options.jobs = static_cast<std::size_t>(jobs);
    } else if (arg == "--out") {
      if (const std::string* v = value()) {
        options.out_path = *v;
      }
    } else if (arg == "--health-out") {
      if (const std::string* v = value()) {
        options.health_out_path = *v;
      }
    } else if (arg == "--journal") {
      if (const std::string* v = value()) {
        if (options.resume && options.journal_dir != *v) {
          parsed.error = "--resume and --journal name different directories";
        } else {
          options.journal_dir = *v;
        }
      }
    } else if (arg == "--resume") {
      if (const std::string* v = value()) {
        if (!options.journal_dir.empty() && options.journal_dir != *v) {
          parsed.error = "--resume and --journal name different directories";
        } else {
          options.journal_dir = *v;
          options.resume = true;
        }
      }
    } else if (arg == "--timeout-ms") {
      number(options.timeout_ms);
      if (parsed.error.empty() && options.timeout_ms == 0) {
        parsed.error = "--timeout-ms must be positive";
      }
    } else if (arg == "--retries") {
      if (const std::string* v = value()) {
        if (!parse_count(*v, options.retries)) {
          parsed.error = arg + ": '" + *v + "' is not a non-negative integer";
        }
      }
    } else if (arg == "--backoff-ms") {
      number(options.backoff_ms);
    } else if (arg == "--chaos") {
      std::uint64_t storms = 0;
      number(storms);
      if (parsed.error.empty() && storms == 0) {
        parsed.error = "--chaos needs at least one storm";
      }
      options.chaos_storms = static_cast<std::size_t>(storms);
    } else if (arg == "--chaos-seed") {
      number(options.chaos_seed);
    } else if (arg == "--chaos-max-faults") {
      std::uint64_t max_faults = 0;
      number(max_faults);
      if (parsed.error.empty() && max_faults == 0) {
        parsed.error = "--chaos-max-faults must be positive";
      }
      options.chaos_max_faults = static_cast<std::size_t>(max_faults);
    } else if (arg == "--shrink") {
      options.shrink = true;
    } else if (arg == "--replay") {
      if (const std::string* v = value()) {
        options.replay_path = *v;
      }
    } else if (arg == "--inject-hang") {
      number(options.inject_hang_ms);
      if (parsed.error.empty() && options.inject_hang_ms == 0) {
        parsed.error = "--inject-hang must be positive";
      }
    } else if (arg == "--isolation") {
      if (const std::string* v = value()) {
        if (*v != "thread" && *v != "process") {
          parsed.error = "--isolation: '" + *v +
                         "' is not one of thread|process";
        } else {
          options.isolation = *v;
        }
      }
    } else if (arg == "--mem-limit-mb") {
      number(options.mem_limit_mb);
      if (parsed.error.empty() && options.mem_limit_mb == 0) {
        parsed.error = "--mem-limit-mb must be positive";
      }
    } else if (arg == "--cpu-limit-s") {
      number(options.cpu_limit_s);
      if (parsed.error.empty() && options.cpu_limit_s == 0) {
        parsed.error = "--cpu-limit-s must be positive";
      }
    } else if (arg == "--inject-crash") {
      if (const std::string* v = value()) {
        const std::size_t at = v->find('@');
        options.inject_crash_kind = v->substr(0, at);
        options.inject_crash_match =
            at == std::string::npos ? "" : v->substr(at + 1);
        if (options.inject_crash_kind != "segv" &&
            options.inject_crash_kind != "abort" &&
            options.inject_crash_kind != "oom" &&
            options.inject_crash_kind != "spin") {
          parsed.error = "--inject-crash: '" + options.inject_crash_kind +
                         "' is not one of segv|abort|oom|spin";
        }
      }
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else {
      parsed.error = "unknown option '" + arg + "'";
    }
    if (!parsed.error.empty()) {
      return parsed;
    }
  }

  if (options.resume && options.journal_dir.empty()) {
    parsed.error = "--resume needs a journal directory";
  }
  if (options.isolation == "thread" && !sandbox_flag.empty()) {
    parsed.error = sandbox_flag + " requires --isolation process (thread "
                   "mode runs scenarios in process, with no deadline, "
                   "retry, rlimit or crash containment)";
  }
  if (!options.replay_path.empty() &&
      (options.chaos_storms > 0 || options.resume || options.list)) {
    parsed.error = "--replay runs one bundle and cannot combine with "
                   "--chaos/--resume/--list";
  }
  return parsed;
}

}  // namespace ddl::scenario
