#include "ddl/scenario/campaign.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/journal.h"

namespace ddl::scenario {
namespace {

namespace fs = std::filesystem;

/// One executed scenario: its spec index, verdict row, rendered line and
/// health lines.
struct Executed {
  std::size_t index = 0;
  ScenarioResult result;
  std::string line;
  std::vector<std::string> health_lines;
  bool skipped = false;
};

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

  // One contiguous shard of `pending` per job.  Every shard's executor --
  // in process isolation, its sandbox worker -- is built before the pool
  // starts a thread, so workers fork from a single-threaded process (see
  // ScenarioExecutor's constructor).
  SandboxCounters counters;
  const std::size_t jobs =
      config_.jobs ? config_.jobs : analysis::default_thread_count();
  const std::size_t shards = std::min(jobs, pending.size());
  std::vector<std::unique_ptr<ScenarioExecutor>> executors;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    executors.push_back(
        std::make_unique<ScenarioExecutor>(config_.isolation, &counters));
  }
  std::vector<Executed> executed(pending.size());
  analysis::ThreadPool pool(shards);
  pool.run_shards(shards, [&](std::size_t shard) {
    const auto [begin, end] =
        analysis::shard_range(pending.size(), shards, shard);
    for (std::size_t i = begin; i < end; ++i) {
      Executed& entry = executed[i];
      entry.index = pending[i];
      // A graceful stop gates *starting* scenarios: anything already
      // running finishes and journals normally, so the journal stays
      // resumable and non-torn.
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        entry.skipped = true;
        continue;
      }
      ExecutedScenario run = executors[shard]->run_one(specs[entry.index]);
      entry.result = std::move(run.result);
      entry.line = std::move(run.line);
      entry.health_lines = std::move(run.health_lines);
      if (writer) {
        writer->record(entry.line, entry.health_lines);
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
  for (Executed& entry : executed) {
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
    outcome.result_lines[entry.index] = std::move(entry.line);
    health[entry.index] = std::move(entry.health_lines);
    outcome.results[entry.index] = std::move(entry.result);
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
  outcome.interrupted = outcome.skipped > 0;
  return outcome;
}

}  // namespace ddl::scenario
