// Tests for the process-level scenario sandbox: crash-taxonomy
// classification (SIGSEGV / SIGABRT / RLIMIT_AS / RLIMIT_CPU -> structured
// ScenarioError rows), worker respawn, thread-vs-process byte-identity
// (escaped names, health lines, units past the pipe buffer),
// pinned timeout rows, journaled crash rows replaying byte-identically on
// resume, cancel interrupts, workers forked before the campaign's threads,
// and the journal writer's fail-closed disk-fault handling and its one
// manifest write.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ddl/scenario/campaign.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/spec.h"

// RLIMIT_AS caps break sanitizer shadow mappings (ASan reserves terabytes
// of address space), so the allocation-pressure tests only run in plain
// builds.  RLIMIT_CPU and signal classification work under sanitizers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DDL_SANDBOX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DDL_SANDBOX_SANITIZED 1
#endif
#endif

namespace {

namespace fs = std::filesystem;

using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::ExecutedScenario;
using ddl::scenario::IsolationConfig;
using ddl::scenario::IsolationMode;
using ddl::scenario::JournalIoError;
using ddl::scenario::JournalWriter;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioError;
using ddl::scenario::ScenarioExecutor;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioSpec;

ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "sandbox/proposed/typical/" + variant;
  spec.family = "sandbox";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

ScenarioSpec crashing_spec(const std::string& kind) {
  ScenarioSpec spec = quick_spec("crash_" + kind, 99);
  spec.debug_crash = kind;
  return spec;
}

CampaignConfig process_config() {
  CampaignConfig config;
  config.isolation.mode = IsolationMode::kProcess;
  config.jobs = 1;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sandbox_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string fingerprint_of_one(const ScenarioSpec& spec) {
  return ddl::scenario::content_fingerprint_of({spec});
}

// ---- Crash taxonomy -------------------------------------------------------

TEST(SandboxTest, SegvBecomesAStructuredCrashRowAndTheCampaignSurvives) {
  std::vector<ScenarioSpec> specs = {quick_spec("a", 11), crashing_spec("segv"),
                                     quick_spec("b", 12)};
  const auto outcome = Campaign(process_config()).run(specs);

  ASSERT_EQ(outcome.results.size(), 3u);
  EXPECT_EQ(outcome.results[1].error, ScenarioError::kCrash);
  EXPECT_EQ(outcome.results[1].error_detail,
            "sandbox worker killed by SIGSEGV (spec " +
                fingerprint_of_one(specs[1]) + ")");
  EXPECT_EQ(outcome.results[1].failure_reason, "error:crash");
  EXPECT_EQ(outcome.results[1].attempts, 1);
  // The other scenarios completed on a respawned worker.
  EXPECT_TRUE(outcome.results[0].pass);
  EXPECT_TRUE(outcome.results[2].pass);
  EXPECT_EQ(outcome.executed, 3u);
  EXPECT_EQ(outcome.sandbox_crashes, 1u);
  EXPECT_GE(outcome.workers_respawned, 1u);
}

TEST(SandboxTest, AbortClassifiesAsCrash) {
  const std::vector<ScenarioSpec> specs = {crashing_spec("abort")};
  const auto outcome = Campaign(process_config()).run(specs);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kCrash);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker killed by SIGABRT (spec " +
                fingerprint_of_one(specs[0]) + ")");
  EXPECT_EQ(outcome.sandbox_crashes, 1u);
}

#if !defined(DDL_SANDBOX_SANITIZED)
TEST(SandboxTest, MemLimitKillClassifiesAsResourceLimit) {
  CampaignConfig config = process_config();
  config.isolation.limits.mem_limit_mb = 256;
  const std::vector<ScenarioSpec> specs = {crashing_spec("oom"),
                                           quick_spec("after_oom", 21)};
  const auto outcome = Campaign(config).run(specs);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kResourceLimit);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker exceeded RLIMIT_AS (256 MiB): allocation failed");
  EXPECT_TRUE(outcome.results[1].pass);
  EXPECT_EQ(outcome.resource_kills, 1u);
  EXPECT_GE(outcome.workers_respawned, 1u);
}
#endif

TEST(SandboxTest, CpuLimitKillClassifiesAsResourceLimit) {
  CampaignConfig config = process_config();
  config.isolation.limits.cpu_limit_s = 1;
  config.isolation.timeout_ms = 60'000;  // The RLIMIT must fire first.
  const std::vector<ScenarioSpec> specs = {crashing_spec("spin")};
  const auto outcome = Campaign(config).run(specs);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kResourceLimit);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker exceeded RLIMIT_CPU (1 s): SIGXCPU");
  EXPECT_EQ(outcome.resource_kills, 1u);
}

// ---- Byte-identity across isolation modes ---------------------------------

TEST(SandboxTest, ThreadAndProcessStreamsAreByteIdentical) {
  std::vector<ScenarioSpec> specs = {quick_spec("a", 11), quick_spec("b", 12),
                                     quick_spec("c", 13)};
  CampaignConfig thread_config = process_config();
  thread_config.isolation.mode = IsolationMode::kThread;
  const auto via_thread = Campaign(thread_config).run(specs);
  const auto via_process = Campaign(process_config()).run(specs);
  EXPECT_EQ(via_thread.jsonl(), via_process.jsonl());
  EXPECT_EQ(via_thread.health_jsonl, via_process.health_jsonl);

  CampaignConfig four = process_config();
  four.jobs = 4;
  const auto sharded = Campaign(four).run(specs);
  EXPECT_EQ(via_process.jsonl(), sharded.jsonl());

  // The pipe's edges, one unit each: a name the codec must escape, a
  // supervised run whose health lines cross ahead of its row, and ~100
  // small-die yield specs whose spec lines and rows each overflow a 64 KiB
  // pipe buffer.
  const ScenarioSpec escaped =
      quick_spec("quote\"backslash\\tab\tnewline\n", 14);
  const ScenarioSpec supervised =
      ScenarioRegistry::builtin().expand("recovery").front();
  ASSERT_TRUE(supervised.supervision.enabled);
  const ScenarioSpec die = ScenarioRegistry::builtin().expand("yield").front();
  std::vector<ScenarioSpec> dies;
  for (int copy = 0; copy < 100; ++copy) {
    ScenarioSpec spec = die;
    spec.name += "/copy" + std::to_string(copy);
    spec.seed = 3000 + copy;
    spec.mc_dies = 8;
    dies.push_back(std::move(spec));
  }
  IsolationConfig thread_isolation;
  thread_isolation.mode = IsolationMode::kThread;
  IsolationConfig process_isolation;
  process_isolation.mode = IsolationMode::kProcess;
  ScenarioExecutor in_thread(thread_isolation);
  // A unit whose pipe fails degrades to lone units with the same rows, so
  // the one worker must also live through every unit.
  ddl::scenario::SandboxCounters counters;
  ScenarioExecutor in_process(process_isolation, &counters);
  std::vector<std::vector<ScenarioSpec>> units = {{escaped}, {supervised}};
  units.push_back(dies);
  for (const std::vector<ScenarioSpec>& unit : units) {
    const std::vector<ExecutedScenario> want = in_thread.run_unit(unit);
    const std::vector<ExecutedScenario> got = in_process.run_unit(unit);
    ASSERT_EQ(want.size(), unit.size()) << unit.front().name;
    ASSERT_EQ(got.size(), unit.size()) << unit.front().name;
    std::size_t spec_bytes = 0;
    std::size_t row_bytes = 0;
    for (std::size_t i = 0; i < unit.size(); ++i) {
      EXPECT_EQ(got[i].line, want[i].line) << unit[i].name;
      EXPECT_EQ(got[i].health_lines, want[i].health_lines) << unit[i].name;
      // The result read back renders the same row and health lines.
      const ExecutedScenario rendered =
          ddl::scenario::render_executed(got[i].result);
      EXPECT_EQ(rendered.line, want[i].line) << unit[i].name;
      EXPECT_EQ(rendered.health_lines, want[i].health_lines) << unit[i].name;
      EXPECT_EQ(got[i].result.name, unit[i].name);
      EXPECT_EQ(got[i].result.error, ScenarioError::kNone) << unit[i].name;
      spec_bytes += ddl::scenario::spec_to_json(unit[i]).to_json_line().size();
      row_bytes += got[i].line.size();
    }
    if (unit.size() > 1) {
      EXPECT_GT(spec_bytes, std::size_t{65536});
      EXPECT_GT(row_bytes, std::size_t{65536});
    }
    if (unit.front().supervision.enabled) {
      EXPECT_FALSE(want.front().health_lines.empty());
    }
  }
  EXPECT_EQ(counters.respawns.load(), 0u);
}

TEST(SandboxTest, ProcessTimeoutRowsArePinnedByteForByte) {
  ScenarioSpec hang = quick_spec("hang", 31);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  CampaignConfig process = process_config();
  process.isolation.timeout_ms = 200;
  process.isolation.max_retries = 1;
  process.isolation.backoff_base_ms = 1;

  const auto via_process = Campaign(process).run({hang});
  ASSERT_EQ(via_process.results.size(), 1u);
  EXPECT_EQ(via_process.results[0].error, ScenarioError::kTimeout);
  // The exact bytes of a process timeout row: deadline, attempt count and
  // identity, nothing host- or timing-dependent.
  const std::string pinned =
      "{\"schema_version\": 2, "
      "\"name\": \"sandbox/proposed/typical/hang\", \"family\": \"sandbox\", "
      "\"architecture\": \"proposed\", \"corner\": \"typical\", "
      "\"supply_v\": 1, \"temperature_c\": 25, \"seed\": 31, "
      "\"periods\": 900, \"locked\": false, \"lock_cycles\": 0, "
      "\"pass\": false, \"failure_reason\": \"error:timeout\", "
      "\"failure_detail\": \"\", \"verdict\": \"error\", "
      "\"error_kind\": \"timeout\", "
      "\"error_detail\": "
      "\"watchdog: no completion within 200 ms after 2 attempt(s)\", "
      "\"attempts\": 2, \"supervised\": false, \"lock_losses\": 0, "
      "\"relocks\": 0, \"relock_latency_max\": 0, "
      "\"degradation_level\": 0, \"health_events\": 0, "
      "\"target_vref_v\": 1, \"mean_vout\": 0, \"vout_stddev\": 0, "
      "\"max_ripple_v\": 0, \"mean_abs_error_v\": 0, "
      "\"distinct_duty_words\": 0, \"limit_cycling\": false, "
      "\"settle_period\": -1, \"transitions_settled\": 0, "
      "\"transitions_total\": 0, \"efficiency\": 0}\n";
  EXPECT_EQ(via_process.jsonl(), pinned);
  EXPECT_EQ(via_process.timeouts, 1u);
}

// ---- Durability -----------------------------------------------------------

TEST(SandboxTest, JournaledCrashRowsResumeByteIdentically) {
  const std::string dir = fresh_dir("crash_resume");
  std::vector<ScenarioSpec> specs = {quick_spec("a", 11), crashing_spec("segv"),
                                     quick_spec("b", 12)};
  CampaignConfig first = process_config();
  first.journal_dir = dir;
  const auto original = Campaign(first).run(specs);
  EXPECT_EQ(original.sandbox_crashes, 1u);

  CampaignConfig second = first;
  second.resume = true;
  const auto resumed = Campaign(second).run(specs);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.resumed, specs.size());
  EXPECT_EQ(resumed.jsonl(), original.jsonl());
  EXPECT_EQ(resumed.health_jsonl, original.health_jsonl);
  // The crash row was replayed from the journal, not re-derived: the
  // resumed run forked no sandbox worker at all.
  EXPECT_EQ(resumed.sandbox_crashes, 0u);
  EXPECT_EQ(resumed.workers_respawned, 0u);
}

// ---- Dispatch units -------------------------------------------------------

TEST(SandboxTest, GroupCrashDegradesToPerScenarioRetries) {
  // A multi-spec unit ships whole into one sandbox worker.  With a
  // crashing member the worker dies mid-group; every member must come
  // back as its own row (crash for the guilty spec, results for the rest)
  // rather than being lost or duplicated.  The guilty spec is a closed-loop
  // run, or a yield spec whose kernel constants match a unit sibling's: a
  // hooked spec must stay off the packed dispatch, or its crash never runs.
  // The degraded members run as lone units: two batch-eligible yield specs
  // (each a one-member planner group) and one lane-eligible closed loop (a
  // one-member lane run, finished on the scalar plant).
  const std::vector<ScenarioSpec> yield =
      ScenarioRegistry::builtin().expand("yield");
  ASSERT_EQ(yield.size(), 4u);
  ScenarioSpec crashing_yield = yield[3];  // Packs with yield[1] unhooked.
  crashing_yield.debug_crash = "segv";

  IsolationConfig isolation;
  isolation.mode = IsolationMode::kProcess;
  ScenarioExecutor clean(isolation);
  for (const ScenarioSpec& guilty : {crashing_spec("segv"), crashing_yield}) {
    std::vector<ScenarioSpec> specs = {yield[0], yield[1],
                                       quick_spec("plain", 51), guilty};
    ScenarioExecutor executor(isolation);
    std::vector<ExecutedScenario> runs = executor.run_unit(specs);
    ASSERT_EQ(runs.size(), specs.size()) << guilty.name;
    EXPECT_EQ(runs[3].result.error, ScenarioError::kCrash) << guilty.name;
    EXPECT_EQ(runs[3].result.error_detail,
              "sandbox worker killed by SIGSEGV (spec " +
                  fingerprint_of_one(guilty) + ")");
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(runs[i].result.error, ScenarioError::kNone) << i;
      EXPECT_FALSE(runs[i].line.empty()) << i;
      // The degraded rows byte-match a clean single-spec execution and the
      // plain guarded runner alike.
      EXPECT_EQ(runs[i].line, clean.run_unit({specs[i]}).front().line) << i;
      EXPECT_EQ(runs[i].line,
                ddl::scenario::to_json_line(
                    ddl::scenario::run_scenario_guarded(specs[i]).result))
          << i;
    }
  }
}

TEST(SandboxTest, InterruptWithdrawsTheInFlightUnit) {
  IsolationConfig isolation;
  isolation.mode = IsolationMode::kProcess;
  isolation.timeout_ms = 30'000;
  ScenarioExecutor executor(isolation);

  ScenarioSpec hang = quick_spec("hang_then_cancel", 41);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    executor.interrupt();
  });
  std::vector<ExecutedScenario> runs = executor.run_unit({hang});
  canceller.join();
  EXPECT_TRUE(runs.empty());
  EXPECT_TRUE(executor.interrupted());

  // A re-armed executor respawns its worker and runs normally.
  executor.clear_interrupt();
  const ExecutedScenario after =
      executor.run_unit({quick_spec("after", 42)}).front();
  EXPECT_EQ(after.result.error, ScenarioError::kNone);
  EXPECT_TRUE(after.result.pass);
}

// ---- Worker spawn ---------------------------------------------------------

TEST(SandboxTest, WorkersForkBeforeThePoolSoHealthyUnitsNeverRetry) {
  // A worker forked while another thread holds an allocator lock inherits
  // that lock held forever (GCC's ASan allocator has no fork handler): its
  // unit hangs to the deadline and comes back on attempt 2.  Campaign
  // forks every shard's worker before its pool starts a thread, so a
  // healthy campaign never retries.
  const std::vector<ScenarioSpec> family =
      ScenarioRegistry::builtin().expand("yield");
  std::vector<ScenarioSpec> specs;
  for (std::size_t copy = 0; copy < 128; ++copy) {
    for (ScenarioSpec spec : family) {
      spec.name += "/copy" + std::to_string(copy);
      spec.seed = 1000 + specs.size();
      specs.push_back(std::move(spec));
    }
  }
  for (const std::size_t jobs : {2u, 4u}) {
    CampaignConfig config = process_config();
    config.jobs = jobs;
    config.journal_dir = fresh_dir("spawn_jobs" + std::to_string(jobs));
    config.isolation.timeout_ms = 8000;
    const auto outcome = Campaign(config).run(specs);
    ASSERT_EQ(outcome.results.size(), specs.size());
    for (const auto& result : outcome.results) {
      EXPECT_EQ(result.attempts, 1) << result.name << " at jobs " << jobs;
      EXPECT_EQ(result.error, ScenarioError::kNone) << result.name;
    }
    EXPECT_EQ(outcome.retried, 0u) << "jobs " << jobs;
  }
}

// ---- Journal disk faults --------------------------------------------------

TEST(SandboxTest, JournalWriterSurfacesDiskFaultsAsStructuredErrors) {
  const std::string dir = fresh_dir("disk_fault");
  // /dev/full accepts opens and fails every write with ENOSPC -- the
  // classic full-disk stand-in.
  std::error_code ec;
  fs::create_symlink("/dev/full", ddl::scenario::journal_path(dir), ec);
  ASSERT_FALSE(ec) << ec.message();

  JournalWriter writer(dir, "fingerprint", 1, 0, /*append=*/false);
  try {
    writer.record({"{\"name\": \"x\"}"}, {});
    FAIL() << "record() on a full disk must throw JournalIoError";
  } catch (const JournalIoError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find("journal write failed"),
              std::string::npos)
        << e.what();
  }
}

TEST(SandboxTest, HealthJournalFaultsFailBeforeTheCommitRecord) {
  const std::string dir = fresh_dir("disk_fault_health");
  std::error_code ec;
  fs::create_symlink("/dev/full", ddl::scenario::health_journal_path(dir), ec);
  ASSERT_FALSE(ec) << ec.message();

  JournalWriter writer(dir, "fingerprint", 1, 0, /*append=*/false);
  EXPECT_THROW(writer.record({"{\"name\": \"x\"}"}, {"{\"event\": \"y\"}"}),
               JournalIoError);
  // Fail-closed WAL ordering: the health append failed, so the commit
  // record must not exist -- no torn half-scenario on a later resume.
  EXPECT_TRUE(
      ddl::scenario::read_file(ddl::scenario::journal_path(dir)).empty());
}

TEST(SandboxTest, RecordCommitsWithoutTouchingTheManifest) {
  const std::string dir = fresh_dir("manifest_blocked");
  JournalWriter writer(dir, "fingerprint", 2, 0, /*append=*/false);
  // A directory where the manifest's tmp-file+rename would write: any
  // rewrite of the manifest after open now fails.
  std::error_code ec;
  fs::create_directory(ddl::scenario::manifest_path(dir) + ".tmp." +
                           std::to_string(::getpid()),
                       ec);
  ASSERT_FALSE(ec) << ec.message();

  const std::string line = "{\"name\": \"x\"}";
  EXPECT_NO_THROW(writer.record(line, {}));
  EXPECT_EQ(ddl::scenario::read_file(ddl::scenario::journal_path(dir)),
            line + "\n");
  EXPECT_NO_THROW(ddl::scenario::check_resumable(dir, "fingerprint", 2));
}

}  // namespace
