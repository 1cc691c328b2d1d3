#include "ddl/scenario/campaign.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ddl/analysis/parallel.h"
#include "ddl/scenario/journal.h"

namespace ddl::scenario {
namespace {

/// Dies one packed dispatch unit may carry: 64 of the yield suite's
/// 256-die scenarios.  Units as large as a whole planner group ran no
/// faster, but the sandbox worker's peak memory grew with the group.  A
/// scenario is never split, so a larger one runs alone.
constexpr std::uint64_t kUnitDieBudget = 16384;

/// Lane steps one lane unit may take (its wall in periods, lane_steps),
/// unless its longest loop alone takes longer: then that loop's length.
/// The regression suite's ~174k periods plan as four lane units of 9000,
/// 6000, 5000 and 2500 lane steps with all eight lanes busy through 96.5%
/// of them.  A kill -9 re-runs at most one unit's worth per executor and a
/// graceful stop waits for at most one per executor.  A scenario is never
/// split.
constexpr std::uint64_t kUnitLaneSteps = 6000;

/// Cuts the loops `pool` (spec indices; `periods` by index) into lane
/// units, longest wall first.  The loops go longest first, ties by index;
/// a unit opens at the longest loop left and takes the next ones, first
/// fit, while its lane_steps stay within max(kUnitLaneSteps, the opener's
/// length).
std::vector<std::vector<std::size_t>> lane_units(
    std::vector<std::size_t> pool, const std::vector<std::uint64_t>& periods) {
  std::stable_sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
    return periods[a] > periods[b];
  });
  std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> cut;
  std::vector<bool> placed(pool.size(), false);
  std::vector<std::uint64_t> lengths;
  for (std::size_t open = 0; open < pool.size(); ++open) {
    if (placed[open]) {
      continue;
    }
    const std::uint64_t budget = std::max(kUnitLaneSteps, periods[pool[open]]);
    std::vector<std::size_t> unit;
    lengths.clear();
    for (std::size_t next = open; next < pool.size(); ++next) {
      if (placed[next]) {
        continue;
      }
      lengths.push_back(periods[pool[next]]);
      if (lane_steps(lengths) > budget) {
        lengths.pop_back();
        continue;
      }
      unit.push_back(pool[next]);
      placed[next] = true;
    }
    cut.emplace_back(lane_steps(lengths), std::move(unit));
  }
  // Executors pull units in order: the longest walls first finish close
  // together.
  std::stable_sort(cut.begin(), cut.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<std::vector<std::size_t>> units;
  for (auto& entry : cut) {
    units.push_back(std::move(entry.second));
  }
  return units;
}

}  // namespace

CampaignJob::CampaignJob(const std::vector<ScenarioSpec>& specs,
                         const std::string& journal_dir, bool resume,
                         ScenarioWorkspace& workspace)
    : rows_(specs.size()), committed_(specs.size(), false) {
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
  plan_ = plan_batches(specs, workspace);
  dies_.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    dies_.push_back(spec.mc_dies);
  }
  lane_periods_.assign(specs.size(), 0);
  for (const std::size_t index : plan_.scalar) {
    if (lane_eligible(specs[index], workspace)) {
      lane_periods_[index] = specs[index].periods;
    }
  }
  if (journal_dir.empty()) {
    return;
  }

  const std::string fingerprint = fingerprint_of(specs);
  std::filesystem::create_directories(journal_dir);
  if (resume) {
    check_resumable(journal_dir, fingerprint, specs.size());
    auto prior = load_journal(journal_dir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto it = prior.find(specs[i].name);
      if (it == prior.end()) {
        continue;
      }
      rows_[i] = std::move(it->second);
      committed_[i] = true;
      ++resumed_;
    }
    completed_ = resumed_;
  }
  if (!done()) {
    journal_ = std::make_unique<JournalWriter>(
        journal_dir, fingerprint, specs.size(), completed_, /*append=*/resume);
  }
}

CampaignJob::~CampaignJob() = default;

std::vector<std::vector<std::size_t>> CampaignJob::units(
    bool pack_lanes) const {
  const auto pending = [&](std::size_t index) { return !committed_[index]; };
  std::vector<std::vector<std::size_t>> units;
  std::vector<std::size_t> loops;
  for (const std::size_t index : plan_.scalar) {
    if (!pending(index)) {
      continue;
    }
    if (pack_lanes && lane_periods_[index] > 0) {
      loops.push_back(index);
    } else {
      units.push_back({index});
    }
  }
  // With lanes the specs alone lead, in index order: each takes the
  // per-scenario path (hooks, deadline, retries), so its wall is the least
  // known, and a worker it loses is respawned for the units after it.  The
  // lane units follow, longest wall first, and the group units come last.
  std::size_t sorted_from = 0;
  if (pack_lanes) {
    for (std::vector<std::size_t>& unit : lane_units(loops, lane_periods_)) {
      units.push_back(std::move(unit));
    }
    sorted_from = units.size();
  }
  std::vector<std::size_t> members;
  for (const BatchGroup& group : plan_.groups) {
    members.clear();
    std::copy_if(group.members.begin(), group.members.end(),
                 std::back_inserter(members), pending);
    // Units of at most kUnitDieBudget dies; a scenario is never split, so
    // a larger one runs alone.
    std::uint64_t total = 0;
    for (const std::size_t index : members) {
      if (index == members.front() || total + dies_[index] > kUnitDieBudget) {
        units.emplace_back();
        total = 0;
      }
      units.back().push_back(index);
      total += dies_[index];
    }
  }
  std::sort(units.begin() + static_cast<std::ptrdiff_t>(sorted_from),
            units.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  return units;
}

void CampaignJob::commit(const std::vector<std::size_t>& unit,
                         std::vector<ExecutedScenario> runs) {
  const std::lock_guard<std::mutex> lock(commit_mutex_);
  std::vector<std::string> lines;
  std::vector<std::string> health_lines;
  if (journal_) {
    for (const ExecutedScenario& run : runs) {
      lines.push_back(run.line);
      health_lines.insert(health_lines.end(), run.health_lines.begin(),
                          run.health_lines.end());
    }
  }
  for (std::size_t k = 0; k < unit.size(); ++k) {
    rows_[unit[k]] = std::move(runs[k]);
    committed_[unit[k]] = true;
  }
  completed_ += unit.size();
  if (!journal_) {
    return;
  }
  try {
    journal_->record(lines, health_lines);
  } catch (const JournalIoError&) {
    journal_.reset();
    throw;
  }
  if (done()) {
    journal_.reset();
  }
}

void CampaignJob::close() { journal_.reset(); }

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
  ScenarioWorkspace workspace;
  CampaignJob job(specs, config_.journal_dir, config_.resume, workspace);
  // The one unit list, cut before the pool starts (units() must not run
  // beside a commit).  Every executor -- in process isolation, its sandbox
  // worker -- is built before the pool starts a thread, so workers fork
  // from a single-threaded process (see ScenarioExecutor's constructor).
  const std::vector<std::vector<std::size_t>> units =
      job.units(/*pack_lanes=*/true);
  SandboxCounters counters;
  const std::size_t jobs =
      config_.jobs ? config_.jobs : analysis::default_thread_count();
  std::vector<std::unique_ptr<ScenarioExecutor>> executors;
  for (std::size_t i = 0; i < std::min(jobs, units.size()); ++i) {
    executors.push_back(
        std::make_unique<ScenarioExecutor>(config_.isolation, &counters));
  }
  std::atomic<std::size_t> next_unit{0};
  std::atomic<std::size_t> batched_units{0};
  analysis::ThreadPool pool(executors.size());
  pool.run_shards(executors.size(), [&](std::size_t worker) {
    // Executors pull units in order.  A graceful stop gates *starting*
    // units: a running unit finishes and journals normally, so the journal
    // stays resumable and non-torn.
    for (std::size_t next = next_unit.fetch_add(1); next < units.size();
         next = next_unit.fetch_add(1)) {
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        return;
      }
      const std::vector<std::size_t>& unit = units[next];
      std::vector<ScenarioSpec> unit_specs;
      unit_specs.reserve(unit.size());
      for (const std::size_t index : unit) {
        unit_specs.push_back(specs[index]);
      }
      if (unit.size() > 1) {
        batched_units.fetch_add(1, std::memory_order_relaxed);
      }
      job.commit(unit, executors[worker]->run_unit(unit_specs));
    }
  });

  CampaignOutcome outcome;
  outcome.resumed = job.resumed();
  for (const std::vector<std::size_t>& unit : units) {
    for (const std::size_t index : unit) {
      if (!job.committed(index)) {
        ++outcome.skipped;
        continue;
      }
      const ScenarioResult& result = job.row(index).result;
      if (result.error == ScenarioError::kTimeout) {
        ++outcome.timeouts;
      } else if (result.error == ScenarioError::kException) {
        ++outcome.exceptions;
      }
      // kCrash / kResourceLimit / kWorkerLost rows are accounted via the
      // shared SandboxCounters below (the executor classifies them).
      if (result.attempts > 1) {
        ++outcome.retried;
      }
      ++outcome.executed;
    }
  }
  std::vector<ExecutedScenario> rows = std::move(job).take_rows();
  outcome.results.reserve(rows.size());
  outcome.result_lines.reserve(rows.size());
  for (ExecutedScenario& row : rows) {
    for (const std::string& line : row.health_lines) {
      outcome.health_jsonl += line;
      outcome.health_jsonl += '\n';
    }
    outcome.result_lines.push_back(std::move(row.line));
    outcome.results.push_back(std::move(row.result));
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
