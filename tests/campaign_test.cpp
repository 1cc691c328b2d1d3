// Tests for the crash-safe campaign engine and its chaos companion:
// journal/resume byte-identity (including torn-tail recovery), sandbox
// deadlines with bounded retry, structured error rows, seeded storm
// expansion, the delta-debugging shrinker, replay bundles, the flat-JSON
// parser / atomic writer they ride on, and the runner's CLI grammar.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"
#include "ddl/scenario/workspace.h"

namespace {

namespace fs = std::filesystem;

using ddl::scenario::Architecture;
using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::CampaignJob;
using ddl::scenario::ChaosCampaignSpec;
using ddl::scenario::FaultSpec;
using ddl::scenario::IsolationMode;
using ddl::scenario::lane_eligible;
using ddl::scenario::lane_steps;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioError;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;
using ddl::scenario::ScenarioWorkspace;

ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "test/proposed/typical/" + variant;
  spec.family = "test";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;  // 6-bit DPWM vs the 10 mV ADC window.
  spec.tolerance_v = 0.05;
  return spec;
}

/// A supervised run with a mid-run fault, so the campaign has health events
/// to journal (no recovery expectations: the verdict stays independent).
ScenarioSpec supervised_spec() {
  ScenarioSpec spec = quick_spec("supervised", 7);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.supervision.enabled = true;
  spec.faults = {FaultSpec::delay_cell(31, 10.0, 400)};
  return spec;
}

std::vector<ScenarioSpec> quick_batch() {
  return {quick_spec("a", 11), quick_spec("b", 12), supervised_spec(),
          quick_spec("c", 13)};
}

/// The yield family copied 8 times, renamed and re-seeded: each corner's
/// siblings pack into one multi-spec dispatch unit of at least eight
/// scenarios, whatever the job count.
std::vector<ScenarioSpec> replicated_yield() {
  const auto family = ScenarioRegistry::builtin().expand("yield");
  std::vector<ScenarioSpec> specs;
  for (int copy = 0; copy < 8; ++copy) {
    for (ScenarioSpec spec : family) {
      spec.name += "/copy" + std::to_string(copy);
      spec.seed += 1000 * static_cast<std::uint64_t>(copy);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A file's bytes and inode: write_file_atomic renames a new file into
/// place, so a rewrite shows as a new inode even when the bytes match.
std::pair<std::string, ino_t> bytes_and_inode(const std::string& path) {
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0) << path;
  return {slurp(path), info.st_ino};
}

// ---- Durability -----------------------------------------------------------

TEST(CampaignTest, MatchesThePlainRunnerStreamByteForByte) {
  const auto specs = quick_batch();
  const auto outcome = Campaign(CampaignConfig{}).run(specs);

  ScenarioRunner runner(2);
  const auto results = runner.run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results));
  EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(results));
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_EQ(outcome.resumed, 0u);
  EXPECT_FALSE(outcome.health_jsonl.empty());
}

TEST(CampaignTest, StreamIsIdenticalAcrossJobCounts) {
  const auto specs = quick_batch();
  CampaignConfig one;
  one.jobs = 1;
  CampaignConfig four;
  four.jobs = 4;
  const auto a = Campaign(one).run(specs);
  const auto b = Campaign(four).run(specs);
  EXPECT_EQ(a.jsonl(), b.jsonl());
  EXPECT_EQ(a.health_jsonl, b.health_jsonl);
}

TEST(CampaignTest, McYieldCampaignIsByteIdenticalAcrossJobsAndKernelPaths) {
  // The yield suite exercises the batched MC hot path; the supervised
  // runtime-fault rider must stay on the per-scenario scalar path.  The
  // stream may depend on neither sharding nor kernel choice.
  auto specs = ScenarioRegistry::builtin().expand("yield");
  specs.push_back(supervised_spec());

  CampaignConfig one;
  one.jobs = 1;
  CampaignConfig four;
  four.jobs = 4;
  const auto serial = Campaign(one).run(specs);
  const auto sharded = Campaign(four).run(specs);
  EXPECT_EQ(serial.jsonl(), sharded.jsonl());
  EXPECT_EQ(serial.health_jsonl, sharded.health_jsonl);

  // Forcing every scenario down the scalar kernel must not change a byte:
  // the 8-lane engine is an execution detail, not an output format.
  auto forced = specs;
  for (ScenarioSpec& spec : forced) {
    spec.mc_force_scalar = true;
  }
  const auto reference = Campaign(four).run(forced);
  EXPECT_EQ(serial.jsonl(), reference.jsonl());
  EXPECT_EQ(serial.health_jsonl, reference.health_jsonl);
}

TEST(CampaignTest, PacksYieldSiblingsIntoBatchedUnits) {
  // The campaign plans the whole list once: one packed unit per corner
  // group, three at any job count, streamed byte-identically to the plain
  // runner.
  const auto specs = replicated_yield();
  const auto results = ScenarioRunner(2).run(specs);
  for (const std::size_t jobs :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    CampaignConfig config;
    config.isolation.mode = IsolationMode::kProcess;
    config.jobs = jobs;
    config.journal_dir = fresh_dir("packed" + std::to_string(jobs));
    const auto outcome = Campaign(config).run(specs);
    EXPECT_EQ(outcome.batched_units, 3u) << "jobs " << jobs;
    EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results))
        << "jobs " << jobs;
    EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(results));
    EXPECT_EQ(outcome.executed, specs.size());
  }
  // The four closed loops pack into one closed-loop lane unit.
  EXPECT_EQ(Campaign(CampaignConfig{}).run(quick_batch()).batched_units, 1u);
}

TEST(CampaignTest, DieBudgetCutsUnitsBetweenScenariosNeverInside) {
  // A unit carries at most 16384 dies: the big scenario fills one whole,
  // so neither of its 256-die siblings in the same group can join it.
  const auto yield = ScenarioRegistry::builtin().expand("yield");
  ScenarioSpec big = yield[1];
  big.name += "/big";
  big.mc_dies = 16384;
  const std::vector<ScenarioSpec> specs = {yield[1], big, yield[3]};
  CampaignConfig config;
  config.jobs = 1;
  const auto outcome = Campaign(config).run(specs);
  EXPECT_EQ(outcome.batched_units, 0u);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
}

using Units = std::vector<std::vector<std::size_t>>;

/// Loops of the given lengths, named and seeded by position.
std::vector<ScenarioSpec> loops_of(const std::vector<std::uint64_t>& lengths) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    ScenarioSpec spec = quick_spec("loop" + std::to_string(i), 40 + i);
    spec.periods = lengths[i];
    spec.measure_from = lengths[i] / 2;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The planned unit list of `specs` with nothing committed.
Units planned_units(const std::vector<ScenarioSpec>& specs, bool pack_lanes) {
  ScenarioWorkspace workspace;
  return CampaignJob(specs, "", false, workspace).units(pack_lanes);
}

std::uint64_t unit_lane_steps(const std::vector<ScenarioSpec>& specs,
                              const std::vector<std::size_t>& unit) {
  std::vector<std::uint64_t> periods;
  for (const std::size_t index : unit) {
    periods.push_back(specs[index].periods);
  }
  return lane_steps(periods);
}

TEST(CampaignTest, LaneStepsReplayTheLongestFirstLaneSchedule) {
  EXPECT_EQ(lane_steps({}), 0u);
  EXPECT_EQ(lane_steps({900}), 900u);
  // Eight lanes run eight loops side by side; a ninth waits for the
  // shortest of them, whatever order the lengths come in.
  EXPECT_EQ(lane_steps(std::vector<std::uint64_t>(8, 3000)), 3000u);
  EXPECT_EQ(lane_steps({100, 3000, 3000, 3000, 3000, 3000, 3000, 3000, 2000}),
            3000u);
  EXPECT_EQ(lane_steps({3000, 3000, 3000, 3000, 3000, 3000, 3000, 1000, 2500}),
            3500u);
  EXPECT_EQ(lane_steps(std::vector<std::uint64_t>(17, 2500)), 7500u);
}

TEST(CampaignTest, LaneBudgetCutsUnitsByWallAndPoolsLoopsAcrossOtherSpecs) {
  // Nine 9000-period loops: the longest loop sets a 9000-step budget, so
  // eight fill the lanes side by side and the ninth runs alone.  Units are
  // cut between scenarios, never inside one.
  const auto nine = loops_of(std::vector<std::uint64_t>(9, 9000));
  const Units units = planned_units(nine, true);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0], (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(units[1], (std::vector<std::size_t>{8}));

  // Any other spec no longer splits the loops: the hooked loop and the
  // yield scenario between them leave one lane unit of the four plain
  // loops, after the hooked loop alone and ahead of the yield unit.
  std::vector<ScenarioSpec> mixed = quick_batch();
  mixed.insert(mixed.begin() + 2,
               ScenarioRegistry::builtin().expand("yield").front());
  ScenarioSpec hooked = quick_spec("hooked", 9);
  hooked.debug_hang_ms = 1;
  mixed.insert(mixed.begin() + 1, hooked);
  EXPECT_EQ(planned_units(mixed, true), (Units{{1}, {0, 2, 4, 5}, {3}}));
  EXPECT_EQ(planned_units(mixed, false),
            (Units{{0}, {1}, {2}, {3}, {4}, {5}}));
  CampaignConfig config;
  config.jobs = 1;
  const auto outcome = Campaign(config).run(mixed);
  EXPECT_EQ(outcome.batched_units, 1u);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(mixed)));
}

TEST(CampaignTest, LoopLongerThanTheBudgetTakesCompanionsUpToItsOwnLength) {
  // The 20000-period loop opens a unit whose budget is its own length:
  // seven lanes take two 10000-period loops each beside it, and the
  // fifteenth would take the schedule past 20000 steps.
  std::vector<std::uint64_t> lengths(16, 10000);
  lengths.insert(lengths.begin() + 5, 20000);
  const auto specs = loops_of(lengths);
  const Units units = planned_units(specs, true);
  ASSERT_EQ(units.size(), 2u);
  ASSERT_EQ(units[0].size(), 15u);
  EXPECT_EQ(units[0].front(), 5u);
  EXPECT_EQ(unit_lane_steps(specs, units[0]), 20000u);
  EXPECT_EQ(units[1], (std::vector<std::size_t>{15, 16}));
  EXPECT_EQ(unit_lane_steps(specs, units[1]), 10000u);
}

TEST(CampaignTest, RegressionSuitePlansFourFullLaneUnitsAheadOfTheYieldUnits) {
  const auto specs = ScenarioRegistry::builtin().expand("regression");
  const Units units = planned_units(specs, true);
  ScenarioWorkspace workspace;
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> steps;
  std::uint64_t periods = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::vector<std::size_t>& unit = units[u];
    if (!lane_eligible(specs[unit.front()], workspace)) {
      EXPECT_EQ(specs[unit.front()].family, "yield");
      continue;
    }
    EXPECT_EQ(sizes.size(), u) << "lane units come first";
    sizes.push_back(unit.size());
    steps.push_back(unit_lane_steps(specs, unit));
    for (const std::size_t index : unit) {
      periods += specs[index].periods;
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{15, 16, 16, 6}));
  EXPECT_EQ(steps, (std::vector<std::uint64_t>{9000, 6000, 5000, 2500}));
  // 96.5% of the 8 × 22500 lane slots step a plant.
  EXPECT_EQ(periods, 173700u);
}

/// units(false) as it was before lane units: each planner group's pending
/// members cut at 16384 dies, every other pending spec alone, ordered by
/// first member.
Units first_member_units(const std::vector<ScenarioSpec>& specs,
                         const std::vector<bool>& committed) {
  ScenarioWorkspace workspace;
  const auto plan = ddl::scenario::plan_batches(specs, workspace);
  Units units;
  for (const auto& group : plan.groups) {
    std::uint64_t dies = 0;
    bool open = false;
    for (const std::size_t index : group.members) {
      if (committed[index]) {
        continue;
      }
      if (!open || dies + specs[index].mc_dies > 16384) {
        units.emplace_back();
        dies = 0;
        open = true;
      }
      units.back().push_back(index);
      dies += specs[index].mc_dies;
    }
  }
  for (const std::size_t index : plan.scalar) {
    if (!committed[index]) {
      units.push_back({index});
    }
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return units;
}

TEST(CampaignTest, LaneUnitPlanPropertiesHoldOverRandomLists) {
  const auto yield = ScenarioRegistry::builtin().expand("yield");
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> lengths(
        std::uniform_int_distribution<std::size_t>(1, 80)(rng));
    for (std::uint64_t& length : lengths) {
      length = std::uniform_int_distribution<std::uint64_t>(100, 12000)(rng);
    }
    auto specs = loops_of(lengths);
    // A few yield specs, scalar-forced yield specs and hooked loops at
    // random places.
    for (int extra = std::uniform_int_distribution<int>(0, 6)(rng); extra > 0;
         --extra) {
      ScenarioSpec spec = yield[rng() % yield.size()];
      switch (rng() % 3) {
        case 0:
          spec.mc_force_scalar = true;
          break;
        case 1:
          spec = quick_spec("hooked", rng() % 100);
          spec.debug_throw = true;
          break;
      }
      spec.name += "/extra" + std::to_string(extra);
      specs.insert(specs.begin() + rng() % (specs.size() + 1), spec);
    }
    ScenarioWorkspace workspace;
    CampaignJob job(specs, "", false, workspace);
    std::vector<bool> committed(specs.size(), false);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (rng() % 3 == 0) {
        job.commit({i}, std::vector<ddl::scenario::ExecutedScenario>(1));
        committed[i] = true;
      }
    }
    std::vector<bool> grouped(specs.size(), false);
    for (const auto& group : ddl::scenario::plan_batches(specs, workspace).groups) {
      for (const std::size_t index : group.members) {
        grouped[index] = true;
      }
    }
    const std::string tag = "trial " + std::to_string(trial);

    // Specs alone, then lane units, then the planner groups' units.
    const Units units = job.units(true);
    std::vector<int> seen(specs.size(), 0);
    int phase = 0;
    std::uint64_t previous = std::numeric_limits<std::uint64_t>::max();
    Units others;
    for (const auto& unit : units) {
      for (const std::size_t index : unit) {
        ++seen[index];
      }
      const int kind = grouped[unit.front()]                          ? 2
                       : lane_eligible(specs[unit.front()], workspace) ? 1
                                                                       : 0;
      ASSERT_GE(kind, phase) << tag;
      phase = kind;
      if (kind != 1) {
        others.push_back(unit);
        continue;
      }
      std::uint64_t longest = 0;
      for (const std::size_t index : unit) {
        ASSERT_TRUE(lane_eligible(specs[index], workspace)) << tag;
        longest = std::max(longest, specs[index].periods);
      }
      const std::uint64_t steps = unit_lane_steps(specs, unit);
      EXPECT_LE(steps, std::max<std::uint64_t>(6000, longest)) << tag;
      EXPECT_LE(steps, previous) << tag << ": longest wall first";
      previous = steps;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(seen[i], committed[i] ? 0 : 1) << tag << ", spec " << i;
    }

    // The list without lanes keeps the first-member order of old; with
    // lanes, its specs alone and its group units keep that order apart.
    const Units reference = first_member_units(specs, committed);
    EXPECT_EQ(job.units(false), reference) << tag;
    Units unlaned;
    for (const bool in_group : {false, true}) {
      for (const auto& unit : reference) {
        if (grouped[unit.front()] == in_group &&
            (in_group || !lane_eligible(specs[unit.front()], workspace))) {
          unlaned.push_back(unit);
        }
      }
    }
    EXPECT_EQ(others, unlaned) << tag;
  }
}

TEST(CampaignTest, LaneUnitsStreamByteEqualToTheRunnerAtAnyJobCount) {
  // Loops of uneven lengths around a yield spec and a hooked loop: the
  // hooked loop alone, lane units of several loops each, the yield unit.
  auto specs = loops_of({1500, 300, 2200, 900, 900, 1200, 700, 2600, 400,
                         1100, 1800, 600});
  specs.insert(specs.begin() + 4,
               ScenarioRegistry::builtin().expand("yield").front());
  ScenarioSpec hooked = quick_spec("hooked", 9);
  hooked.debug_hang_ms = 1;
  specs.insert(specs.begin() + 9, hooked);
  const auto results = ScenarioRunner(2).run(specs);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    CampaignConfig config;
    config.jobs = jobs;
    const auto outcome = Campaign(config).run(specs);
    EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results)) << jobs;
    EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(results))
        << jobs;
  }
}

TEST(CampaignTest, OrphanHealthLinesAreDroppedOnResume) {
  // A unit killed between its health append and its result commit leaves
  // health lines of an uncommitted scenario.  Resume must drop them before
  // the scenario re-runs, or a later resume restores its events twice.
  const auto specs = quick_batch();
  CampaignConfig config;
  config.journal_dir = fresh_dir("orphan_full");
  config.jobs = 1;
  const auto uninterrupted = Campaign(config).run(specs);
  ASSERT_FALSE(uninterrupted.health_jsonl.empty());

  const std::string crash_dir = fresh_dir("orphan_crashed");
  spit(crash_dir + "/journal.jsonl", "");
  spit(crash_dir + "/health_journal.jsonl",
       slurp(config.journal_dir + "/health_journal.jsonl"));
  spit(crash_dir + "/manifest.json",
       slurp(config.journal_dir + "/manifest.json"));
  CampaignConfig resume = config;
  resume.journal_dir = crash_dir;
  resume.resume = true;
  EXPECT_EQ(Campaign(resume).run(specs).health_jsonl,
            uninterrupted.health_jsonl);
  const auto replayed = Campaign(resume).run(specs);
  EXPECT_EQ(replayed.executed, 0u);
  EXPECT_EQ(replayed.health_jsonl, uninterrupted.health_jsonl);

  // Every repair in one directory: both files end in a torn append, the
  // health lines all belong to the uncommitted supervised scenario, and a
  // complete but unparseable result line sits between two committed rows.
  // It stays in the file, and its scenario is not restored by it.
  std::vector<std::string> rows;  // The unsupervised specs' result lines.
  const std::string journal = slurp(config.journal_dir + "/journal.jsonl");
  for (std::size_t at = 0, end = 0;
       (end = journal.find('\n', at)) != std::string::npos; at = end + 1) {
    const std::string line = journal.substr(at, end + 1 - at);
    if (line.find("typical/supervised") == std::string::npos) {
      rows.push_back(line);
    }
  }
  ASSERT_GE(rows.size(), 2u);
  const std::string kept = rows[0] + "{\"name\": \"garbage\n" + rows[1];
  const std::string all_dir = fresh_dir("orphan_every_repair");
  spit(all_dir + "/journal.jsonl", kept + R"({"schema_version": 2, "na)");
  spit(all_dir + "/health_journal.jsonl",
       slurp(config.journal_dir + "/health_journal.jsonl") +
           R"({"schema_version": 2, "scen)");
  spit(all_dir + "/manifest.json",
       slurp(config.journal_dir + "/manifest.json"));
  resume.journal_dir = all_dir;
  for (int pass = 0; pass < 2; ++pass) {
    const auto outcome = Campaign(resume).run(specs);
    EXPECT_EQ(outcome.resumed, pass == 0 ? 2u : specs.size()) << pass;
    EXPECT_EQ(outcome.jsonl(), uninterrupted.jsonl()) << pass;
    EXPECT_EQ(outcome.health_jsonl, uninterrupted.health_jsonl) << pass;
    EXPECT_EQ(slurp(all_dir + "/journal.jsonl").rfind(kept, 0), 0u) << pass;
    EXPECT_EQ(slurp(all_dir + "/health_journal.jsonl"),
              uninterrupted.health_jsonl)
        << pass;
  }
}

TEST(CampaignTest, ResumeAfterTornJournalIsByteIdentical) {
  // Over the replicated yield list every committed unit holds at least
  // four records, so keeping two tears the journal inside one unit.
  int list = 0;
  for (const std::vector<ScenarioSpec>& specs :
       {quick_batch(), replicated_yield()}) {
    const std::string tag = std::to_string(list++);
    const std::string full_dir = fresh_dir("full" + tag);
    CampaignConfig config;
    config.journal_dir = full_dir;
    config.jobs = 2;
    const auto uninterrupted = Campaign(config).run(specs);

    // Simulate a kill mid-suite: two committed records survive, plus a
    // torn append (no trailing newline) the crash left behind.
    const std::string crash_dir = fresh_dir("crashed" + tag);
    const std::string journal = slurp(full_dir + "/journal.jsonl");
    std::size_t end = 0;
    for (int lines = 0; lines < 2; ++lines) {
      end = journal.find('\n', end) + 1;
    }
    spit(crash_dir + "/journal.jsonl",
         journal.substr(0, end) + R"({"schema_version": 2, "name": "test/pro)");
    spit(crash_dir + "/health_journal.jsonl",
         slurp(full_dir + "/health_journal.jsonl"));
    spit(crash_dir + "/manifest.json", slurp(full_dir + "/manifest.json"));

    CampaignConfig resume = config;
    resume.journal_dir = crash_dir;
    resume.resume = true;
    resume.jobs = 3;  // Determinism must also hold across thread counts.
    const auto resumed = Campaign(resume).run(specs);

    EXPECT_EQ(resumed.jsonl(), uninterrupted.jsonl()) << tag;
    EXPECT_EQ(resumed.health_jsonl, uninterrupted.health_jsonl) << tag;
    EXPECT_EQ(resumed.resumed, 2u) << tag;
    EXPECT_EQ(resumed.executed, specs.size() - 2) << tag;

    // The journal in the resumed directory is now complete: a second
    // resume runs nothing, still reproduces the stream, and writes neither
    // file -- the same bytes and the same inodes.
    const auto journal_before = bytes_and_inode(crash_dir + "/journal.jsonl");
    const auto health_before =
        bytes_and_inode(crash_dir + "/health_journal.jsonl");
    const auto replayed = Campaign(resume).run(specs);
    EXPECT_EQ(replayed.executed, 0u) << tag;
    EXPECT_EQ(replayed.resumed, specs.size()) << tag;
    EXPECT_EQ(replayed.jsonl(), uninterrupted.jsonl()) << tag;
    EXPECT_EQ(replayed.health_jsonl, uninterrupted.health_jsonl) << tag;
    EXPECT_EQ(bytes_and_inode(crash_dir + "/journal.jsonl"), journal_before)
        << tag;
    EXPECT_EQ(bytes_and_inode(crash_dir + "/health_journal.jsonl"),
              health_before)
        << tag;
  }
}

TEST(CampaignTest, EveryModeCarriesTheResultItsRowWasRenderedFrom) {
  // The regression suite in thread isolation, in process isolation, and
  // resumed (in process isolation) from its journal cut to all but the
  // last two records: every entry of `results` renders thread mode's row
  // and health lines, so the typed fields a row carries come back in every
  // mode.
  const auto specs = ScenarioRegistry::builtin().expand("regression");
  CampaignConfig thread_config;
  thread_config.jobs = 2;
  thread_config.isolation.mode = IsolationMode::kThread;
  const auto thread = Campaign(thread_config).run(specs);

  CampaignConfig process_config;
  process_config.jobs = 2;
  process_config.journal_dir = fresh_dir("modes_full");
  const auto process = Campaign(process_config).run(specs);

  const std::string cut_dir = fresh_dir("modes_cut");
  const std::string journal = slurp(process_config.journal_dir +
                                    "/journal.jsonl");
  std::size_t end = 0;
  for (std::size_t lines = 0; lines + 2 < specs.size(); ++lines) {
    end = journal.find('\n', end) + 1;
  }
  spit(cut_dir + "/journal.jsonl", journal.substr(0, end));
  spit(cut_dir + "/health_journal.jsonl",
       slurp(process_config.journal_dir + "/health_journal.jsonl"));
  spit(cut_dir + "/manifest.json",
       slurp(process_config.journal_dir + "/manifest.json"));
  CampaignConfig resume_config = process_config;
  resume_config.journal_dir = cut_dir;
  resume_config.resume = true;
  const auto resumed = Campaign(resume_config).run(specs);
  ASSERT_EQ(resumed.resumed, specs.size() - 2);

  // Thread mode's results hold every kind of field the check compares.
  const auto& want = thread.results;
  ASSERT_EQ(want.size(), specs.size());
  const auto any = [&](auto predicate) {
    return std::any_of(want.begin(), want.end(), predicate);
  };
  using ddl::scenario::ScenarioResult;
  EXPECT_TRUE(any([](const ScenarioResult& r) {
    return r.architecture == Architecture::kCounter;
  }));
  EXPECT_TRUE(any([](const ScenarioResult& r) { return r.lock_cycles > 0; }));
  EXPECT_TRUE(any([](const ScenarioResult& r) { return r.mc_dies > 0; }));
  EXPECT_TRUE(any([](const ScenarioResult& r) { return !r.health.empty(); }));

  for (const auto* outcome : {&thread, &process, &resumed}) {
    ASSERT_EQ(outcome->results.size(), specs.size());
    std::string health;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioResult& got = outcome->results[i];
      const auto rendered = ddl::scenario::render_executed(got);
      EXPECT_EQ(rendered.line, thread.result_lines[i]);
      for (const std::string& line : rendered.health_lines) {
        health += line + "\n";
      }
      EXPECT_EQ(got.architecture, want[i].architecture) << specs[i].name;
      EXPECT_EQ(got.lock_cycles, want[i].lock_cycles) << specs[i].name;
      EXPECT_EQ(got.metrics.mean_vout, want[i].metrics.mean_vout)
          << specs[i].name;
      EXPECT_EQ(got.mc_dies, want[i].mc_dies) << specs[i].name;
      EXPECT_EQ(got.mc_inl_p95_lsb, want[i].mc_inl_p95_lsb) << specs[i].name;
      EXPECT_EQ(got.health.size(), want[i].health.size()) << specs[i].name;
    }
    EXPECT_EQ(health, thread.health_jsonl);
    EXPECT_EQ(outcome->jsonl(), thread.jsonl());
  }
}

TEST(CampaignTest, GracefulStopStartsNoUnitAndTheResumeRunsThemAll) {
  // A stop already requested when the run begins: no unit starts, so
  // every spec is skipped, nothing is journaled and the stream is empty.
  // A resume with the flag cleared then matches an uninterrupted run.
  std::vector<ScenarioSpec> specs = quick_batch();
  for (ScenarioSpec& spec : ScenarioRegistry::builtin().expand("yield")) {
    specs.push_back(std::move(spec));
  }
  const auto uninterrupted = Campaign(CampaignConfig{}).run(specs);

  std::atomic<bool> stop{true};
  CampaignConfig config;
  config.journal_dir = fresh_dir("stopped");
  config.jobs = 2;
  config.stop = &stop;
  const auto stopped = Campaign(config).run(specs);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.skipped, specs.size());
  EXPECT_EQ(stopped.executed, 0u);
  EXPECT_EQ(stopped.jsonl(), "");
  EXPECT_EQ(stopped.health_jsonl, "");

  stop = false;
  config.resume = true;
  const auto resumed = Campaign(config).run(specs);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.skipped, 0u);
  EXPECT_EQ(resumed.resumed, 0u);
  EXPECT_EQ(resumed.executed, specs.size());
  EXPECT_EQ(resumed.jsonl(), uninterrupted.jsonl());
  EXPECT_EQ(resumed.health_jsonl, uninterrupted.health_jsonl);
}

TEST(CampaignTest, ResumeRefusesAMismatchedScenarioList) {
  const auto specs = quick_batch();
  const std::string dir = fresh_dir("mismatch");
  CampaignConfig config;
  config.journal_dir = dir;
  Campaign(config).run(specs);

  config.resume = true;
  auto other = specs;
  other[0].name = "test/proposed/typical/renamed";
  EXPECT_THROW(Campaign(config).run(other), std::runtime_error);

  auto fewer = specs;
  fewer.pop_back();
  EXPECT_THROW(Campaign(config).run(fewer), std::runtime_error);
}

TEST(CampaignTest, ResumeWithoutAManifestThrows) {
  CampaignConfig config;
  config.journal_dir = fresh_dir("empty");
  config.resume = true;
  EXPECT_THROW(Campaign(config).run(quick_batch()), std::runtime_error);
}

TEST(CampaignTest, DuplicateScenarioNamesAreRejected) {
  std::vector<ScenarioSpec> specs = {quick_spec("dup", 1),
                                     quick_spec("dup", 2)};
  EXPECT_THROW(Campaign(CampaignConfig{}).run(specs), std::invalid_argument);
}

// ---- Isolation ------------------------------------------------------------

TEST(CampaignIsolationTest, HungScenarioTimesOutAsStructuredErrorRow) {
  std::vector<ScenarioSpec> specs = quick_batch();
  specs[0].debug_hang_ms = 60'000;
  specs[0].debug_hang_attempts = INT_MAX;  // Every attempt hangs.

  CampaignConfig config;
  config.jobs = 2;
  // Generous deadline: healthy 900-period scenarios finish well inside it
  // even under sanitizer slowdown, while the hang never does.
  config.isolation.timeout_ms = 3000;
  config.isolation.max_retries = 1;
  config.isolation.backoff_base_ms = 1;
  const auto outcome = Campaign(config).run(specs);

  const auto& row = outcome.results[0];
  EXPECT_FALSE(row.pass);
  EXPECT_EQ(row.error, ScenarioError::kTimeout);
  EXPECT_EQ(row.verdict(), "error");
  EXPECT_EQ(row.failure_reason, "error:timeout");
  EXPECT_EQ(row.attempts, 2);
  EXPECT_EQ(outcome.timeouts, 1u);
  // The rest of the batch is unharmed.
  for (std::size_t i = 1; i < outcome.results.size(); ++i) {
    EXPECT_TRUE(outcome.results[i].pass) << outcome.results[i].name;
  }
}

TEST(CampaignIsolationTest, TransientHangSucceedsOnRetry) {
  std::vector<ScenarioSpec> specs = {quick_spec("flaky", 21)};
  specs[0].debug_hang_ms = 60'000;
  specs[0].debug_hang_attempts = 1;  // Only the first attempt hangs.

  CampaignConfig config;
  config.isolation.timeout_ms = 3000;
  config.isolation.max_retries = 1;
  config.isolation.backoff_base_ms = 1;
  const auto outcome = Campaign(config).run(specs);

  EXPECT_TRUE(outcome.results[0].pass) << outcome.results[0].failure_reason;
  EXPECT_EQ(outcome.results[0].attempts, 2);
  EXPECT_EQ(outcome.retried, 1u);
  EXPECT_EQ(outcome.timeouts, 0u);
}

TEST(CampaignIsolationTest, ThrowingScenarioBecomesAnExceptionRow) {
  std::vector<ScenarioSpec> specs = {quick_spec("boom", 31),
                                     quick_spec("fine", 32)};
  specs[0].debug_throw = true;

  const auto outcome = Campaign(CampaignConfig{}).run(specs);
  const auto& row = outcome.results[0];
  EXPECT_FALSE(row.pass);
  EXPECT_EQ(row.error, ScenarioError::kException);
  EXPECT_EQ(row.failure_reason, "error:exception");
  EXPECT_NE(row.error_detail.find("debug_throw"), std::string::npos);
  EXPECT_EQ(row.attempts, 1);  // Exceptions are deterministic: no retry.
  EXPECT_EQ(outcome.exceptions, 1u);
  EXPECT_TRUE(outcome.results[1].pass);
}

TEST(CampaignIsolationTest, ErrorRowsAreJournaledAndResumable) {
  std::vector<ScenarioSpec> specs = {quick_spec("boom", 41),
                                     quick_spec("fine", 42)};
  specs[0].debug_throw = true;

  CampaignConfig config;
  config.journal_dir = fresh_dir("errors");
  const auto first = Campaign(config).run(specs);
  EXPECT_EQ(first.exceptions, 1u);

  config.resume = true;
  const auto resumed = Campaign(config).run(specs);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.jsonl(), first.jsonl());
  EXPECT_EQ(resumed.results[0].error, ScenarioError::kException);
  EXPECT_EQ(resumed.results[0].failure_reason, "error:exception");
}

TEST(CampaignIsolationTest, AutoTimeoutScalesWithRunLength) {
  ScenarioSpec spec = quick_spec("auto", 1);
  spec.periods = 1000;
  EXPECT_EQ(ddl::scenario::auto_timeout_ms(spec), 30'000u);
  spec.periods = 10'000;
  EXPECT_EQ(ddl::scenario::auto_timeout_ms(spec), 210'000u);
}

// ---- Chaos ----------------------------------------------------------------

ChaosCampaignSpec quick_chaos() {
  ChaosCampaignSpec chaos;
  chaos.base = quick_spec("storm-base", 2026);
  chaos.base.tolerance_v = 0.06;
  chaos.base.load = LoadSpec::constant(0.5);
  chaos.storms = 6;
  chaos.seed = 99;
  return chaos;
}

TEST(ChaosTest, ExpansionIsSeededDeterministicAndValid) {
  const auto a = ddl::scenario::expand_chaos(quick_chaos());
  const auto b = ddl::scenario::expand_chaos(quick_chaos());
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].name, "chaos/proposed/typical/storm-00");
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].family, "chaos");
    ASSERT_EQ(a[i].faults.size(), b[i].faults.size());
    EXPECT_GE(a[i].faults.size(), 1u);
    EXPECT_LE(a[i].faults.size(), 3u);
    for (std::size_t f = 0; f < a[i].faults.size(); ++f) {
      EXPECT_EQ(a[i].faults[f].kind, b[i].faults[f].kind);
      EXPECT_EQ(a[i].faults[f].victim_cell, b[i].faults[f].victim_cell);
      EXPECT_DOUBLE_EQ(a[i].faults[f].severity, b[i].faults[f].severity);
      EXPECT_EQ(a[i].faults[f].at_period, b[i].faults[f].at_period);
      EXPECT_EQ(a[i].faults[f].clear_period, b[i].faults[f].clear_period);
    }
    EXPECT_TRUE(ddl::scenario::validate(a[i]).empty());
  }

  auto reseeded = quick_chaos();
  reseeded.seed = 100;
  const auto c = ddl::scenario::expand_chaos(reseeded);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].faults.size() != c[i].faults.size() ||
                     a[i].faults[0].at_period != c[i].faults[0].at_period;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosTest, RejectsBasesThatCannotCarryStorms) {
  auto counter = quick_chaos();
  counter.base.architecture = Architecture::kCounter;
  EXPECT_THROW(ddl::scenario::expand_chaos(counter), std::invalid_argument);

  auto dvfs = quick_chaos();
  dvfs.base.dvfs = {{400, 0.9}};
  EXPECT_THROW(ddl::scenario::expand_chaos(dvfs), std::invalid_argument);

  auto faulted = quick_chaos();
  faulted.base.faults = {FaultSpec::delay_cell(0, 2.0)};
  EXPECT_THROW(ddl::scenario::expand_chaos(faulted), std::invalid_argument);

  // Storms stay valid by construction: no storm may outgrow the fault cap.
  auto greedy = quick_chaos();
  greedy.max_faults_per_storm = ddl::scenario::kMaxSpecEntries;
  EXPECT_NO_THROW(ddl::scenario::expand_chaos(greedy));
  greedy.max_faults_per_storm = ddl::scenario::kMaxSpecEntries + 1;
  EXPECT_THROW(ddl::scenario::expand_chaos(greedy), std::invalid_argument);
}

TEST(ChaosTest, SpecJsonRoundTripPreservesTheScenario) {
  ScenarioSpec spec = supervised_spec();
  spec.architecture = Architecture::kConventional;
  spec.dvfs = {{300, 0.9}, {600, 1.1}};
  spec.faults = {FaultSpec::delay_cell(3, 4.5, 100, 200),
                 FaultSpec::clock_period_step(1.25, 400)};
  spec.temp_ramp_c_per_us = 0.02;
  spec.supply_spike_v = -0.1;
  spec.spike_from_period = 50;
  spec.spike_until_period = 80;
  spec.expect_lock = false;
  spec.expect_min_lock_losses = 2;
  spec.expect_relock = true;

  const std::string line = ddl::scenario::spec_to_json(spec).to_json_line();
  const auto fields = ddl::analysis::parse_flat_json_line(line);
  ASSERT_TRUE(fields.has_value());
  const auto parse = ddl::scenario::spec_from_json_checked(*fields);
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  const ScenarioSpec& back = parse.spec;

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.family, spec.family);
  EXPECT_EQ(back.architecture, spec.architecture);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.corner.corner, spec.corner.corner);
  EXPECT_DOUBLE_EQ(back.corner.supply_v, spec.corner.supply_v);
  EXPECT_DOUBLE_EQ(back.temp_ramp_c_per_us, spec.temp_ramp_c_per_us);
  EXPECT_DOUBLE_EQ(back.supply_spike_v, spec.supply_spike_v);
  EXPECT_EQ(back.spike_from_period, spec.spike_from_period);
  EXPECT_EQ(back.load.kind, spec.load.kind);
  EXPECT_DOUBLE_EQ(back.load.level_a, spec.load.level_a);
  ASSERT_EQ(back.dvfs.size(), 2u);
  EXPECT_EQ(back.dvfs[1].at_period, 600u);
  EXPECT_DOUBLE_EQ(back.dvfs[1].vref_v, 1.1);
  EXPECT_EQ(back.periods, spec.periods);
  EXPECT_EQ(back.measure_from, spec.measure_from);
  EXPECT_DOUBLE_EQ(back.tolerance_v, spec.tolerance_v);
  EXPECT_EQ(back.expect_lock, false);
  EXPECT_EQ(back.allow_limit_cycling, spec.allow_limit_cycling);
  EXPECT_TRUE(back.supervision.enabled);
  EXPECT_EQ(back.supervision.config.watchdog_periods,
            spec.supervision.config.watchdog_periods);
  EXPECT_EQ(back.expect_min_lock_losses, 2u);
  EXPECT_TRUE(back.expect_relock);
  ASSERT_EQ(back.faults.size(), 2u);
  EXPECT_EQ(back.faults[0].kind, FaultSpec::Kind::kDelayCell);
  EXPECT_EQ(back.faults[0].victim_cell, 3u);
  EXPECT_DOUBLE_EQ(back.faults[0].severity, 4.5);
  EXPECT_EQ(back.faults[0].at_period, 100u);
  EXPECT_EQ(back.faults[0].clear_period, 200u);
  EXPECT_EQ(back.faults[1].kind, FaultSpec::Kind::kClockPeriodStep);
  EXPECT_DOUBLE_EQ(back.faults[1].severity, 1.25);
}

/// The shrinker's fixture: one genuinely harmful fault (a stuck tap inside
/// the locked range; found by the chaos fuzzer) buried among harmless
/// faults on cells beyond the lock point.
ScenarioSpec shrinkable_failure() {
  ScenarioSpec spec = quick_spec("shrink-me", 2026);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.periods = 1600;
  spec.measure_from = 1100;
  spec.faults = {FaultSpec::delay_cell(200, 2.0, 300),
                 FaultSpec::stuck_tap(103, 602, 1283),
                 FaultSpec::delay_cell(210, 2.0, 500, 900)};
  return spec;
}

TEST(ChaosShrinkTest, ShrinksToTheSingleHarmfulFault) {
  const auto report = ddl::scenario::shrink_failure(shrinkable_failure());
  ASSERT_TRUE(report.failing);
  EXPECT_EQ(report.failure_reason, "regulation_error");
  ASSERT_EQ(report.minimal.faults.size(), 1u);
  EXPECT_EQ(report.minimal.faults[0].kind, FaultSpec::Kind::kStuckTap);
  EXPECT_EQ(report.minimal.faults[0].victim_cell, 103u);
  EXPECT_EQ(report.removed_faults, 2u);
  EXPECT_GE(report.runs, 3u);
  EXPECT_TRUE(ddl::scenario::validate(report.minimal).empty());
}

TEST(ChaosShrinkTest, PassingSpecIsReportedNotShrunk) {
  const auto report = ddl::scenario::shrink_failure(quick_spec("healthy", 3));
  EXPECT_FALSE(report.failing);
  EXPECT_EQ(report.runs, 1u);
  EXPECT_TRUE(report.failure_reason.empty());
}

TEST(ChaosShrinkTest, ReplayBundleRoundTripsAndReproduces) {
  const auto report = ddl::scenario::shrink_failure(shrinkable_failure());
  ASSERT_TRUE(report.failing);
  const std::string document = ddl::scenario::replay_bundle_json(report);

  const auto bundle = ddl::scenario::parse_replay_bundle(document);
  EXPECT_EQ(bundle.expected_failure_reason, report.failure_reason);
  ASSERT_EQ(bundle.spec.faults.size(), report.minimal.faults.size());
  EXPECT_EQ(bundle.spec.faults[0].victim_cell,
            report.minimal.faults[0].victim_cell);
  EXPECT_EQ(bundle.spec.periods, report.minimal.periods);

  const auto result = ddl::scenario::run_scenario_guarded(bundle.spec).result;
  EXPECT_TRUE(ddl::scenario::replay_reproduced(
      result, bundle.expected_failure_reason))
      << result.failure_reason;

  EXPECT_THROW(ddl::scenario::parse_replay_bundle("{\"bundle\": \"other\"}"),
               std::invalid_argument);
  EXPECT_THROW(ddl::scenario::parse_replay_bundle("not json"),
               std::invalid_argument);
}

// ---- Flat JSON + atomic writes -------------------------------------------

TEST(FlatJsonTest, ParsesLinesAndPrettyDocumentsAlike) {
  const auto line = ddl::analysis::parse_flat_json_line(
      R"({"name": "a/b", "pass": true, "x": 1.5, "n": -3, "esc": "q\"\n"})");
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->at("name"), "a/b");
  EXPECT_EQ(line->at("pass"), "true");
  EXPECT_EQ(line->at("x"), "1.5");
  EXPECT_EQ(line->at("n"), "-3");
  EXPECT_EQ(line->at("esc"), "q\"\n");

  // The manifest / bundle dialect is pretty-printed: same parser.
  const auto pretty = ddl::analysis::parse_flat_json_line(
      "{\n  \"a\": 1,\n  \"b\": \"two\"\n}\n");
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(pretty->at("b"), "two");

  EXPECT_TRUE(ddl::analysis::parse_flat_json_line("{}").has_value());
}

TEST(FlatJsonTest, RejectsTornAndMalformedLines) {
  using ddl::analysis::parse_flat_json_line;
  EXPECT_FALSE(parse_flat_json_line("").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"name": "torn)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a": 1,)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a" 1})").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a": 1} trailing)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"([1, 2])").has_value());
}

TEST(AtomicWriteTest, WritesAndReplacesContent) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/report.json";
  ddl::analysis::write_file_atomic(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  ddl::analysis::write_file_atomic(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  // No temp litter left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_THROW(
      ddl::analysis::write_file_atomic(dir + "/no/such/dir/x.json", "x"),
      std::runtime_error);
}

// ---- CLI grammar ----------------------------------------------------------

TEST(CliTest, ParsesTheFullFlagSet) {
  const auto parsed = ddl::scenario::parse_runner_args(
      {"--suite", "regression", "--filter", "proposed", "--jobs", "4",
       "--out", "r.jsonl", "--health-out", "h.jsonl", "--journal", "dir",
       "--timeout-ms", "5000", "--retries", "3", "--backoff-ms", "10",
       "--chaos", "32", "--chaos-seed", "7", "--chaos-max-faults", "5",
       "--shrink", "--inject-hang", "250"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& options = parsed.options;
  EXPECT_EQ(options.suite, "regression");
  EXPECT_EQ(options.filter, "proposed");
  EXPECT_EQ(options.jobs, 4u);
  EXPECT_EQ(options.out_path, "r.jsonl");
  EXPECT_EQ(options.health_out_path, "h.jsonl");
  EXPECT_EQ(options.journal_dir, "dir");
  EXPECT_FALSE(options.resume);
  EXPECT_EQ(options.isolation.timeout_ms, 5000u);
  EXPECT_EQ(options.isolation.max_retries, 3);
  EXPECT_EQ(options.isolation.backoff_base_ms, 10u);
  EXPECT_EQ(options.chaos_storms, 32u);
  EXPECT_EQ(options.chaos_seed, 7u);
  EXPECT_EQ(options.chaos_max_faults, 5u);
  EXPECT_TRUE(options.shrink);
  EXPECT_EQ(options.inject_hang_ms, 250u);
}

TEST(CliTest, ResumeImpliesItsJournalDirectory) {
  const auto parsed =
      ddl::scenario::parse_runner_args({"--resume", "runs/nightly"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.options.resume);
  EXPECT_EQ(parsed.options.journal_dir, "runs/nightly");

  // Same directory twice is fine; diverging directories are not.
  EXPECT_TRUE(ddl::scenario::parse_runner_args(
                  {"--journal", "d", "--resume", "d"})
                  .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--journal", "a", "--resume", "b"})
                   .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--resume", "b", "--journal", "a"})
                   .ok());
}

TEST(CliTest, RejectsMalformedNumbers) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--jobs", "oops"},
        {"--jobs", "8oops"},
        {"--jobs", "-2"},
        {"--timeout-ms", "-1"},
        {"--timeout-ms", "1e3"},
        {"--retries", "99999999999999999999"},
        {"--chaos", "0"},
        {"--chaos-max-faults", "0"},
        {"--inject-hang", "0"}}) {
    const auto parsed = ddl::scenario::parse_runner_args(args);
    EXPECT_FALSE(parsed.ok()) << args[0] << " " << args[1];
    EXPECT_FALSE(parsed.error.empty());
  }
  // 0 keeps IsolationConfig's meaning: a deadline derived per spec, no cap.
  for (const char* flag : {"--timeout-ms", "--mem-limit-mb", "--cpu-limit-s"}) {
    EXPECT_TRUE(ddl::scenario::parse_runner_args({flag, "0"}).ok()) << flag;
  }
}

TEST(CliTest, RejectsMissingValuesAndUnknownFlags) {
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--suite"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--jobs"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--replay"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--frobnicate"}).ok());
}

TEST(CliTest, ReplayIsExclusiveWithBatchModes) {
  EXPECT_TRUE(ddl::scenario::parse_runner_args({"--replay", "b.json"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--replay", "b.json", "--chaos", "4"})
                   .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--replay", "b.json", "--resume", "d"})
                   .ok());
  EXPECT_FALSE(
      ddl::scenario::parse_runner_args({"--replay", "b.json", "--list"})
          .ok());
}

TEST(CliTest, IsolationModeMustBeThreadOrProcess) {
  EXPECT_EQ(ddl::scenario::parse_runner_args({}).options.isolation.mode,
            IsolationMode::kProcess);
  EXPECT_TRUE(ddl::scenario::parse_runner_args({"--isolation", "thread"}).ok());
  const auto bogus = ddl::scenario::parse_runner_args({"--isolation", "fork"});
  EXPECT_FALSE(bogus.ok());
  EXPECT_NE(bogus.error.find("thread|process"), std::string::npos)
      << bogus.error;
}

TEST(CliTest, ThreadIsolationRejectsEverySandboxOnlyFlag) {
  // Thread mode runs scenarios in process: no deadline, retry, rlimit or
  // crash containment, so asking for one is a usage error (exit 64), in
  // either flag order -- and process mode accepts every one of them.
  using ddl::scenario::parse_runner_args;
  const std::vector<std::pair<std::string, std::string>> sandbox_only = {
      {"--inject-crash", "segv"}, {"--mem-limit-mb", "64"},
      {"--cpu-limit-s", "5"},     {"--timeout-ms", "100"},
      {"--retries", "2"},         {"--backoff-ms", "10"},
      {"--inject-hang", "100"}};
  std::vector<std::string> all_of_them = {"--isolation", "process"};
  for (const auto& [flag, value] : sandbox_only) {
    const std::string expected = flag + " requires --isolation process";
    const auto got = parse_runner_args({"--isolation", "thread", flag, value});
    EXPECT_EQ(got.error.substr(0, expected.size()), expected);
    EXPECT_FALSE(parse_runner_args({flag, value, "--isolation", "thread"}).ok())
        << flag;
    EXPECT_TRUE(parse_runner_args({"--isolation", "process", flag, value}).ok())
        << flag;
    all_of_them.push_back(flag);
    all_of_them.push_back(value);
  }
  const auto process = parse_runner_args(all_of_them);
  ASSERT_TRUE(process.ok()) << process.error;
  EXPECT_EQ(process.options.isolation.mode, IsolationMode::kProcess);
  EXPECT_EQ(process.options.isolation.timeout_ms, 100u);
  EXPECT_EQ(process.options.isolation.max_retries, 2);
  EXPECT_EQ(process.options.isolation.backoff_base_ms, 10u);
  EXPECT_EQ(process.options.inject_hang_ms, 100u);
  EXPECT_EQ(process.options.inject_crash_kind, "segv");
  EXPECT_EQ(process.options.isolation.limits.mem_limit_mb, 64u);
  EXPECT_EQ(process.options.isolation.limits.cpu_limit_s, 5u);
}

TEST(CliTest, StrictNumericHelpers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(ddl::scenario::parse_u64("007", u));
  EXPECT_EQ(u, 7u);
  EXPECT_TRUE(ddl::scenario::parse_u64("18446744073709551615", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("18446744073709551616", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("1 ", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("+1", u));
  int n = 0;
  EXPECT_TRUE(ddl::scenario::parse_count("2147483647", n));
  EXPECT_EQ(n, 2147483647);
  EXPECT_FALSE(ddl::scenario::parse_count("2147483648", n));
}

TEST(FlagTableTest, RowsRangeCheckAndNameTheFlagInEveryError) {
  using namespace ddl::scenario;
  std::uint32_t permille = 0;
  int retries = 0;
  int port = 0;
  std::string mode;
  bool help = false;
  FlagTable flags({
      help_flag(help),
      number_flag("--permille", "N", "a rate", permille, 0, 1000),
      sandbox_only(number_flag("--retries", "N", "a count", retries)),
      sandbox_only(port_flag("--port", "a port", port)),
      choice_flag("--mode", "M", "a mode", {"a", "b"},
                  [&](const std::string& value) { mode = value; }),
  });
  EXPECT_EQ(flags.parse({"-h", "--permille", "1000", "--mode", "b"}), "");
  EXPECT_TRUE(help);
  EXPECT_EQ(permille, 1000u);
  EXPECT_EQ(mode, "b");
  EXPECT_EQ(flags.thread_isolation_error(), "");

  // A destination narrower than 64 bits caps the maximum: nothing wraps.
  // Each case parses a copy, so the sandbox-only memory starts empty.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--permille", "1001"},
        {"--retries", "2147483648"},
        {"--retries", "4294967297"},
        {"--port", "65536"},
        {"--port", "-1"},
        {"--mode", "c"},
        {"--port"}}) {
    const std::string error = FlagTable(flags).parse(args);
    EXPECT_EQ(error.substr(0, args[0].size()), args[0]) << error;
  }
  EXPECT_EQ(flags.parse({"--frobnicate"}), "unknown flag '--frobnicate'");

  FlagTable sandboxed(flags);
  ASSERT_EQ(sandboxed.parse({"--port", "65535", "--retries", "3"}), "");
  EXPECT_EQ(port, 65535);
  EXPECT_EQ(retries, 3);
  EXPECT_EQ(sandboxed.thread_isolation_error().rfind(
                "--port requires --isolation process", 0),
            0u);
  const std::string usage = sandboxed.usage("usage: tool");
  EXPECT_EQ(usage.rfind("usage: tool\n", 0), 0u);
  EXPECT_NE(usage.find("  --help, -h"), std::string::npos) << usage;
  EXPECT_NE(usage.find("a port [sandbox-only]"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("a rate [sandbox-only]"), std::string::npos) << usage;
}

// ---- Golden content fingerprints -------------------------------------------
//
// content_fingerprint_of hashes the spec codec's bytes into server job ids
// and crash-row details, so those bytes are a persisted contract: a writer
// change that moves any of these values orphans every existing daemon job
// directory and crash row.

/// A spec that sets every codec field away from its default, including the
/// conditional ones: supervision config, two DVFS steps, two faults and
/// every debug hook, plus a name that needs JSON escaping.
ScenarioSpec every_field_spec() {
  ScenarioSpec spec;
  spec.name = "golden/\"every\"\\field\t";
  spec.family = "golden";
  spec.architecture = Architecture::kHybrid;
  spec.clock_mhz = 1.25;
  spec.resolution_bits = 8;
  spec.counter_bits = 5;
  spec.seed = 2026;
  spec.corner.corner = ddl::cells::ProcessCorner::kSlow;
  spec.corner.supply_v = 0.95;
  spec.corner.temperature_c = 85.0;
  spec.temp_ramp_c_per_us = 0.02;
  spec.supply_spike_v = -0.1;
  spec.spike_from_period = 50;
  spec.spike_until_period = 80;
  spec.vref_v = 1.2;
  spec.load = LoadSpec::burst(0.2, 0.8, 0.02, 0.1);
  spec.load.from_period = 10;
  spec.load.until_period = 20;
  spec.dvfs = {{300, 0.9}, {600, 1.1}};
  spec.periods = 3000;
  spec.measure_from = 2000;
  spec.tolerance_v = 0.04;
  spec.settle_band_v = 0.05;
  spec.expect_lock = false;
  spec.allow_limit_cycling = true;
  spec.limit_cycle_stddev_v = 0.02;
  spec.supervision.enabled = true;
  ddl::core::SupervisorConfig& config = spec.supervision.config;
  config.tap_drift_window = 7;
  config.margin_floor_ps = 12.5;
  config.margin_periods = 3;
  config.watchdog_error_code = 9;
  config.watchdog_periods = 11;
  config.max_relock_attempts = 4;
  config.relock_backoff_periods = 13;
  config.relock_stability_periods = 17;
  config.coarse_resolution_loss_bits = 1;
  config.counter_fallback = false;
  spec.expect_min_lock_losses = 2;
  spec.expect_relock = true;
  spec.max_relock_latency_periods = 400;
  spec.expect_min_degradation = 1;
  spec.mc_dies = 64;
  spec.mc_inl_limit_lsb = 0.75;
  spec.mc_min_yield = 0.9;
  spec.mc_force_scalar = true;
  spec.faults = {FaultSpec::delay_cell(3, 4.5, 100, 200),
                 FaultSpec::clock_period_step(1.25, 400)};
  spec.debug_hang_ms = 250;
  spec.debug_hang_attempts = 2;
  spec.debug_throw = true;
  spec.debug_crash = "segv";
  return spec;
}

TEST(SpecCodecTest, GoldenContentFingerprints) {
  const std::map<std::string, std::string> golden{
      {"regulation", "60ace3fd51786687"}, {"transient", "906bb0a160d68bf7"},
      {"dvfs", "9f2ed9257edc45eb"},       {"pvt", "f7316e548f52386e"},
      {"fault", "9bb19881b5b1d442"},      {"recovery", "8360c82544943436"},
      {"yield", "2a3dffc6b3204329"},      {"smoke", "5a1a65d3ebd042e2"},
      {"chaos", "3f1f69906650d77b"},      {"regression", "71abdcbe9633b744"},
  };
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  ASSERT_EQ(registry.suite_names().size(), golden.size());
  for (const auto& [suite, fingerprint] : golden) {
    EXPECT_EQ(ddl::scenario::content_fingerprint_of(registry.expand(suite)),
              fingerprint)
        << suite;
  }
  EXPECT_EQ(ddl::scenario::content_fingerprint_of({every_field_spec()}),
            "d02ca3c872cfd7c3");
}

// ---- spec_from_json error paths (untrusted input must never abort) --------

TEST(SpecCheckedParseTest, CleanDocumentRoundTripsWithNoErrors) {
  ddl::scenario::ScenarioSpec spec;
  spec.name = "roundtrip/full";
  spec.family = "fault";
  spec.mc_dies = 64;
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(3, 2.5, 100, 200)};
  spec.dvfs = {{500, 0.9}};
  spec.supervision.enabled = true;
  const std::string line =
      ddl::scenario::spec_to_json(spec).to_json_line();
  const auto fields = ddl::analysis::parse_flat_json_line(line);
  ASSERT_TRUE(fields.has_value());
  const auto parse = ddl::scenario::spec_from_json_checked(*fields);
  EXPECT_TRUE(parse.ok()) << parse.errors.front();
  EXPECT_EQ(parse.spec.name, spec.name);
  EXPECT_EQ(parse.spec.mc_dies, 64u);
  ASSERT_EQ(parse.spec.faults.size(), 1u);
  EXPECT_EQ(parse.spec.faults[0].clear_period, 200u);
}

TEST(SpecCheckedParseTest, MalformedAndTruncatedJsonFailTheLineParser) {
  // The parse layer in front of spec_from_json_checked: garbage and torn
  // documents come back as nullopt, never an abort or an exception.
  EXPECT_FALSE(ddl::analysis::parse_flat_json_line("not json").has_value());
  EXPECT_FALSE(ddl::analysis::parse_flat_json_line("{\"a\":1,").has_value());
  const std::string full = "{\"name\":\"x\",\"periods\":2500}";
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const auto torn = ddl::analysis::parse_flat_json_line(full.substr(0, cut));
    if (torn.has_value()) {
      // The only prefix allowed to parse is one that is itself complete.
      EXPECT_EQ(cut, full.size());
    }
  }
  // The one spec-line read (specs.jsonl, the sandbox pipe) reports a line
  // that does not tokenize as an error, and reads a whole one strictly.
  const auto garbage = ddl::scenario::spec_from_line("not json");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.errors.front(), "line: not one flat JSON object");
  const std::string torn = full.substr(0, full.size() - 1);
  EXPECT_FALSE(ddl::scenario::spec_from_line(torn).ok());
  const auto whole =
      ddl::scenario::spec_from_line("{\"name\":\"x\",\"periods\":3000}");
  ASSERT_TRUE(whole.ok()) << whole.errors.front();
  EXPECT_EQ(whole.spec.name, "x");
  EXPECT_EQ(whole.spec.periods, 3000u);
}

TEST(SpecCheckedParseTest, UnknownKeysAreStructuredErrors) {
  std::map<std::string, std::string> fields{{"name", "x"},
                                            {"periosd", "2500"}};
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 1u);
  EXPECT_NE(parse.errors[0].find("periosd"), std::string::npos);
  EXPECT_NE(parse.errors[0].find("unknown key"), std::string::npos);
}

TEST(SpecCheckedParseTest, WrongTypedFieldsCollectPerKeyErrors) {
  std::map<std::string, std::string> fields{
      {"name", "x"},
      {"periods", "abc"},          // not an unsigned integer
      {"clock_mhz", "1.5oops"},    // trailing garbage
      {"expect_lock", "yes"},      // not true/false
      {"architecture", "quantum"}, // unknown enum
      {"resolution_bits", "-3"},   // negative count
      {"corner.process", "cryogenic"},  // unknown enum
      {"faults.count", "1"},
      {"faults.0.kind", "gremlin"},     // unknown enum inside a list
  };
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 7u);
  for (const char* key :
       {"periods", "clock_mhz", "expect_lock", "architecture",
        "resolution_bits", "corner.process", "faults.0.kind"}) {
    bool found = false;
    for (const std::string& error : parse.errors) {
      found = found || error.find(key) == 0;
    }
    EXPECT_TRUE(found) << "no error mentions " << key;
  }
  // Failed fields keep their defaults; the parse never throws.
  EXPECT_EQ(parse.spec.periods, 2500u);
  EXPECT_EQ(parse.spec.clock_mhz, 1.0);
}

TEST(SpecCheckedParseTest, IndexedKeysBeyondTheirCountAreUnknown) {
  std::map<std::string, std::string> fields{
      {"name", "x"},
      {"faults.count", "1"},
      {"faults.0.kind", "delay_cell"},
      {"faults.0.victim_cell", "3"},
      {"faults.0.severity", "2.0"},
      {"faults.0.at_period", "0"},
      {"faults.0.clear_period", "0"},
      {"faults.1.kind", "delay_cell"},  // beyond faults.count
  };
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 1u);
  EXPECT_NE(parse.errors[0].find("faults.1.kind"), std::string::npos);
  EXPECT_EQ(parse.spec.faults.size(), 1u);
}

TEST(SpecCheckedParseTest, CountsLargerThanTheKeysPresentReadNoEntries) {
  // Each entry the writer emits brings keys of its own, so a count above
  // the keys present is forged: it must not allocate entries no key backs.
  const std::map<std::string, std::string> fields{
      {"name", "x"}, {"faults.count", "10000000"}, {"dvfs.count", "4"}};
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_EQ(parse.errors[0].rfind("dvfs.count: count 4 exceeds", 0), 0u)
      << parse.errors[0];
  EXPECT_EQ(parse.errors[1].rfind("faults.count: count 10000000", 0), 0u)
      << parse.errors[1];
  EXPECT_TRUE(parse.spec.faults.empty());
  EXPECT_TRUE(parse.spec.dvfs.empty());
}

TEST(SpecCheckedParseTest, PrefixSelectsOneSpecAndErrorsNameTheFullKey) {
  ddl::analysis::JsonObject frame;
  frame.set("frame", "submit");
  ScenarioSpec first = every_field_spec();
  ScenarioSpec second = quick_spec("second", 5);
  ddl::scenario::spec_to_json_into(frame, first, "spec.0.");
  ddl::scenario::spec_to_json_into(frame, second, "spec.1.");
  auto fields = ddl::analysis::parse_flat_json_line(frame.to_json_line());
  ASSERT_TRUE(fields.has_value());
  for (const auto& [prefix, spec] :
       {std::pair{"spec.0.", &first}, std::pair{"spec.1.", &second}}) {
    const auto parse = ddl::scenario::spec_from_json_checked(*fields, prefix);
    ASSERT_TRUE(parse.ok()) << parse.errors.front();
    EXPECT_EQ(ddl::scenario::spec_to_json(parse.spec).to_json_line(),
              ddl::scenario::spec_to_json(*spec).to_json_line());
  }

  // Keys outside the prefix are not the reader's business; keys under it
  // are, and every error names the full key.
  (*fields)["spec.1.periods"] = "abc";
  (*fields)["spec.1.periosd"] = "2500";
  const auto parse = ddl::scenario::spec_from_json_checked(*fields, "spec.1.");
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_EQ(parse.errors[0].rfind("spec.1.periods: expected", 0), 0u)
      << parse.errors[0];
  EXPECT_EQ(parse.errors[1], "spec.1.periosd: unknown key");
}

TEST(SpecCodecTest, ReadOfWriteReproducesTheBytes) {
  // Every built-in spec plus the every-field spec with edge doubles in
  // several fields: the strict reader accepts whatever the writer writes,
  // subnormals included, and re-serializing reproduces the bytes.
  std::vector<ScenarioSpec> specs;
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  for (const std::string& suite : registry.suite_names()) {
    const auto expanded = registry.expand(suite);
    specs.insert(specs.end(), expanded.begin(), expanded.end());
  }
  for (const double edge :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e-310,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioSpec spec = every_field_spec();
    spec.tolerance_v = edge;
    spec.load.p_idle = edge;
    spec.dvfs[1].vref_v = edge;
    spec.faults[0].severity = edge;
    spec.supervision.config.margin_floor_ps = edge;
    specs.push_back(spec);
  }
  for (const ScenarioSpec& spec : specs) {
    const std::string line = ddl::scenario::spec_to_json(spec).to_json_line();
    const auto fields = ddl::analysis::parse_flat_json_line(line);
    ASSERT_TRUE(fields.has_value()) << line;
    const auto parse = ddl::scenario::spec_from_json_checked(*fields);
    ASSERT_TRUE(parse.ok()) << parse.errors.front();
    EXPECT_EQ(ddl::scenario::spec_to_json(parse.spec).to_json_line(), line);
  }
}

// ---- Row codec -------------------------------------------------------------

/// A result no suite produces: edge doubles in the metrics, a run that
/// never settled, strings that need escaping, `error` and one health event
/// of every kind.
ddl::scenario::ScenarioResult crafted_result(ScenarioError error) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ddl::scenario::ScenarioResult result;
  result.name = "crafted/\"quoted\"\\back\nline\ttab\x01" "ctl/\xc3\xa9";
  result.family = "crafted";
  result.architecture = Architecture::kCounter;
  result.corner.corner = ddl::cells::ProcessCorner::kSlow;
  result.corner.supply_v = -0.0;
  result.corner.temperature_c = std::numeric_limits<double>::denorm_min();
  result.seed = std::numeric_limits<std::uint64_t>::max();
  result.periods = 12345;
  result.locked = true;
  result.lock_cycles = 77;
  result.failure_reason = "error:" + std::string(to_string(error));
  result.failure_detail = "detail with \"quotes\"";
  result.error = error;
  result.error_detail = "worker said \\o/\r\n";
  result.attempts = 3;
  result.supervised = true;
  result.lock_losses = 2;
  result.relocks = 1;
  result.relock_latency_max = 41;
  result.degradation_level = 2;
  result.target_vref_v = std::numeric_limits<double>::max();
  result.metrics.mean_vout = inf;
  result.metrics.vout_stddev = -inf;
  result.metrics.max_ripple_v = nan;
  result.metrics.mean_abs_error_v = 0.0;
  result.metrics.distinct_duty_words = 9;
  result.metrics.limit_cycling = true;
  result.settle_period = -1;
  result.transitions_settled = 1;
  result.transitions_total = 2;
  result.efficiency = -std::numeric_limits<double>::max();
  result.mc_dies = 256;
  result.mc_yield = std::numeric_limits<double>::denorm_min();
  result.mc_inl_mean_lsb = -0.0;
  result.mc_inl_p95_lsb = nan;
  result.mc_inl_max_lsb = inf;
  for (const ddl::core::HealthEventKind kind :
       {ddl::core::HealthEventKind::kLockLost,
        ddl::core::HealthEventKind::kRelockAttempt,
        ddl::core::HealthEventKind::kRelocked,
        ddl::core::HealthEventKind::kRelockFailed,
        ddl::core::HealthEventKind::kDegraded}) {
    ddl::core::HealthEvent event;
    event.period = 100 + result.health.size();
    event.kind = kind;
    event.detail = "tap \"31\"\n";
    event.tap_position = 31;
    event.relock_latency_periods = 4;
    event.relock_cycles = 64;
    event.degradation = static_cast<int>(result.health.size());
    result.health.push_back(event);
  }
  return result;
}

TEST(RowCodecTest, ReadOfWriteReproducesTheBytes) {
  // Every row and health line of the regression, smoke and chaos suites,
  // plus one crafted result per error kind: the reader reads back what the
  // writer wrote, and rendering what it read reproduces the bytes.
  std::vector<ddl::scenario::ScenarioResult> results;
  for (const char* suite : {"regression", "smoke", "chaos"}) {
    const auto run =
        ScenarioRunner().run(ScenarioRegistry::builtin().expand(suite));
    results.insert(results.end(), run.begin(), run.end());
  }
  ASSERT_FALSE(ScenarioRunner::health_jsonl(results).empty());
  for (const ScenarioError error :
       {ScenarioError::kNone, ScenarioError::kException,
        ScenarioError::kTimeout, ScenarioError::kCrash,
        ScenarioError::kResourceLimit, ScenarioError::kWorkerLost}) {
    results.push_back(crafted_result(error));
  }
  for (const ddl::scenario::ScenarioResult& result : results) {
    const auto written = ddl::scenario::render_executed(result);
    const auto read =
        ddl::scenario::read_executed(written.line, written.health_lines);
    EXPECT_EQ(read.line, written.line);
    EXPECT_EQ(read.health_lines, written.health_lines);
    const auto again = ddl::scenario::render_executed(read.result);
    EXPECT_EQ(again.line, written.line);
    EXPECT_EQ(again.health_lines, written.health_lines) << written.line;
  }

  // What does not read keeps its default, and the bytes stay as they came.
  const auto torn = ddl::scenario::read_executed(
      R"({"schema_version": 2, "name": "torn)", {"not json"});
  EXPECT_EQ(torn.result.name, "");
  EXPECT_EQ(torn.line, R"({"schema_version": 2, "name": "torn)");
  ASSERT_EQ(torn.result.health.size(), 1u);
  EXPECT_EQ(torn.health_lines.front(), "not json");
  const auto mistyped = ddl::scenario::read_executed(
      R"({"name": "x", "lock_cycles": "many", "settle_period": 12x})", {});
  EXPECT_EQ(mistyped.result.name, "x");
  EXPECT_EQ(mistyped.result.lock_cycles, 0u);
  EXPECT_EQ(mistyped.result.settle_period, -1);
}

// ---- Replay bundle format --------------------------------------------------

TEST(ReplayBundleTest, BundleInTheOlderQuotedSortedFormStillParses) {
  // Bundles written before the spec codec had one writer carried the spec
  // keys sorted, every value a quoted string.  They read to the same spec.
  const ScenarioSpec spec = every_field_spec();
  ddl::analysis::JsonObject old_bundle;
  old_bundle.set("schema_version", 2);
  old_bundle.set("bundle", "chaos_replay");
  old_bundle.set("expected_failure_reason", "regulation_error");
  const auto fields = ddl::analysis::parse_flat_json_line(
      ddl::scenario::spec_to_json(spec).to_json_line());
  ASSERT_TRUE(fields.has_value());
  for (const auto& [key, value] : *fields) {
    old_bundle.set("spec." + key, value);
  }
  const std::string document = old_bundle.to_json();
  ASSERT_NE(document.find("\"spec.periods\": \"3000\""), std::string::npos);

  const auto bundle = ddl::scenario::parse_replay_bundle(document);
  EXPECT_EQ(bundle.expected_failure_reason, "regulation_error");
  EXPECT_EQ(ddl::scenario::spec_to_json(bundle.spec).to_json_line(),
            ddl::scenario::spec_to_json(spec).to_json_line());
}

TEST(ReplayBundleTest, UnknownSpecKeyRejectsTheBundleByName) {
  ddl::scenario::ShrinkReport report;
  report.minimal = quick_spec("bundled", 4);
  report.failure_reason = "regulation_error";
  const std::string document = ddl::scenario::replay_bundle_json(report);
  // The spec rides in key order with bare numbers.
  EXPECT_LT(document.find("\"spec.name\""), document.find("\"spec.family\""));
  EXPECT_NE(document.find("\"spec.periods\": 900"), std::string::npos);
  EXPECT_EQ(ddl::scenario::parse_replay_bundle(document).spec.periods, 900u);

  const std::string tampered =
      document.substr(0, document.rfind('}')) + ", \"spec.periosd\": 1}";
  try {
    ddl::scenario::parse_replay_bundle(tampered);
    FAIL() << "a bundle with an unknown spec key parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.periosd: unknown key"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
