#include "ddl/scenario/campaign.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {
namespace {

namespace fs = std::filesystem;

/// Dies one packed dispatch unit may carry: 64 of the yield suite's
/// 256-die scenarios.  Units as large as a whole planner group ran no
/// faster, but the sandbox worker's peak memory grew with the group.  A
/// scenario is never split, so a larger one runs alone.
constexpr std::size_t kUnitDieBudget = 16384;

/// One executed scenario: its verdict row, rendered line and health lines.
struct Executed {
  ScenarioResult result;
  std::string line;
  std::vector<std::string> health_lines;
  /// Cleared when the scenario's unit runs; a graceful stop leaves the
  /// rest of its shard unstarted.
  bool skipped = true;
};

/// Cuts one shard's specs (`shard_of[index] == shard`) into dispatch units
/// of spec indices, ordered by first member: the shard's members of each
/// planner group in runs of at most kUnitDieBudget dies -- one batched
/// kernel dispatch per unit -- and each scalar spec alone, so it keeps the
/// sandbox's deadline, retry and hook path.
std::vector<std::vector<std::size_t>> plan_units(
    const std::vector<ScenarioSpec>& specs, const BatchPlan& plan,
    const std::vector<std::size_t>& shard_of, std::size_t shard) {
  std::vector<std::vector<std::size_t>> units;
  for (const BatchGroup& group : plan.groups) {
    std::vector<std::size_t> unit;
    std::size_t dies = 0;
    for (const std::size_t index : group.members) {
      if (shard_of[index] != shard) {
        continue;
      }
      if (!unit.empty() && dies + specs[index].mc_dies > kUnitDieBudget) {
        units.push_back(std::move(unit));
        unit.clear();
        dies = 0;
      }
      unit.push_back(index);
      dies += specs[index].mc_dies;
    }
    if (!unit.empty()) {
      units.push_back(std::move(unit));
    }
  }
  for (const std::size_t index : plan.scalar) {
    if (shard_of[index] == shard) {
      units.push_back({index});
    }
  }
  std::sort(units.begin(), units.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  return units;
}

}  // namespace

std::string CampaignOutcome::jsonl() const {
  std::string out;
  for (const std::string& line : result_lines) {
    if (line.empty()) {
      continue;  // Scenario skipped by a graceful stop: no row.
    }
    out += line;
    out += '\n';
  }
  return out;
}

CampaignOutcome Campaign::run(const std::vector<ScenarioSpec>& specs) const {
  {
    std::set<std::string> names;
    for (const ScenarioSpec& spec : specs) {
      if (!names.insert(spec.name).second) {
        throw std::invalid_argument(
            "campaign: duplicate scenario name '" + spec.name +
            "' (the journal is keyed by name)");
      }
    }
  }

  const std::string fingerprint = fingerprint_of(specs);
  JournalState prior;
  std::unique_ptr<JournalWriter> writer;
  if (!config_.journal_dir.empty()) {
    fs::create_directories(config_.journal_dir);
    if (config_.resume) {
      check_resumable(config_.journal_dir, fingerprint, specs.size());
      prior = load_journal(config_.journal_dir);
      drop_torn_tail(journal_path(config_.journal_dir));
      drop_torn_tail(health_journal_path(config_.journal_dir));
    }
    writer = std::make_unique<JournalWriter>(
        config_.journal_dir, fingerprint, specs.size(), prior.lines.size(),
        /*append=*/config_.resume);
  }

  std::vector<std::size_t> pending;
  pending.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (prior.lines.count(specs[i].name) == 0) {
      pending.push_back(i);
    }
  }

  // One contiguous shard of `pending` per job.  The list is planned once
  // and each shard cuts its own specs into dispatch units.  Every shard's
  // executor -- in process isolation, its sandbox worker -- is built before
  // the pool starts a thread, so workers fork from a single-threaded
  // process (see ScenarioExecutor's constructor).
  SandboxCounters counters;
  const std::size_t jobs =
      config_.jobs ? config_.jobs : analysis::default_thread_count();
  const std::size_t shards = std::min(jobs, pending.size());
  // shard_of[index] == shards marks a committed spec, in no shard.
  std::vector<std::size_t> shard_of(specs.size(), shards);
  std::vector<std::unique_ptr<ScenarioExecutor>> executors;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const auto [begin, end] =
        analysis::shard_range(pending.size(), shards, shard);
    for (std::size_t i = begin; i < end; ++i) {
      shard_of[pending[i]] = shard;
    }
    executors.push_back(
        std::make_unique<ScenarioExecutor>(config_.isolation, &counters));
  }
  ScenarioWorkspace workspace;
  const BatchPlan plan = plan_batches(specs, workspace);
  std::vector<Executed> executed(specs.size());
  std::atomic<std::size_t> batched_units{0};
  analysis::ThreadPool pool(shards);
  pool.run_shards(shards, [&](std::size_t shard) {
    for (const std::vector<std::size_t>& unit :
         plan_units(specs, plan, shard_of, shard)) {
      // A graceful stop gates *starting* units: a running unit finishes
      // and journals normally, so the journal stays resumable and
      // non-torn.
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        return;
      }
      std::vector<ScenarioSpec> unit_specs;
      unit_specs.reserve(unit.size());
      for (const std::size_t index : unit) {
        unit_specs.push_back(specs[index]);
      }
      if (unit.size() > 1) {
        batched_units.fetch_add(1, std::memory_order_relaxed);
      }
      std::vector<ExecutedScenario> runs =
          executors[shard]->run_unit(unit_specs);
      if (writer) {
        std::vector<std::string> lines;
        std::vector<std::string> health_lines;
        for (const ExecutedScenario& run : runs) {
          lines.push_back(run.line);
          health_lines.insert(health_lines.end(), run.health_lines.begin(),
                              run.health_lines.end());
        }
        writer->record(lines, health_lines);
      }
      for (std::size_t k = 0; k < unit.size(); ++k) {
        Executed& entry = executed[unit[k]];
        entry.result = std::move(runs[k].result);
        entry.line = std::move(runs[k].line);
        entry.health_lines = std::move(runs[k].health_lines);
        entry.skipped = false;
      }
    }
  });

  CampaignOutcome outcome;
  outcome.results.resize(specs.size());
  outcome.result_lines.resize(specs.size());
  std::vector<std::vector<std::string>> health(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = prior.lines.find(specs[i].name);
    if (it == prior.lines.end()) {
      continue;
    }
    outcome.result_lines[i] = it->second;
    const auto fields = analysis::parse_flat_json_line(it->second);
    outcome.results[i] =
        fields ? reconstruct_result(*fields) : ScenarioResult{};
    const auto health_it = prior.health.find(specs[i].name);
    if (health_it != prior.health.end()) {
      health[i] = health_it->second;
    }
    ++outcome.resumed;
  }
  for (const std::size_t index : pending) {
    Executed& entry = executed[index];
    if (entry.skipped) {
      ++outcome.skipped;
      continue;
    }
    if (entry.result.error == ScenarioError::kTimeout) {
      ++outcome.timeouts;
    } else if (entry.result.error == ScenarioError::kException) {
      ++outcome.exceptions;
    }
    // kCrash / kResourceLimit / kWorkerLost rows are accounted via the
    // shared SandboxCounters below (the executor classifies them).
    if (entry.result.attempts > 1) {
      ++outcome.retried;
    }
    outcome.result_lines[index] = std::move(entry.line);
    health[index] = std::move(entry.health_lines);
    outcome.results[index] = std::move(entry.result);
    ++outcome.executed;
  }
  for (const std::vector<std::string>& lines : health) {
    for (const std::string& line : lines) {
      outcome.health_jsonl += line;
      outcome.health_jsonl += '\n';
    }
  }
  outcome.sandbox_crashes = counters.crashes.load();
  outcome.workers_respawned = counters.respawns.load();
  outcome.resource_kills = counters.resource_kills.load();
  outcome.workers_lost = counters.workers_lost.load();
  outcome.batched_units = batched_units.load();
  outcome.interrupted = outcome.skipped > 0;
  return outcome;
}

}  // namespace ddl::scenario
