#include "layers.h"

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/mc_batch.h"
#include "ddl/analysis/monte_carlo.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"

namespace perfbench {
namespace {

namespace sc = ddl::scenario;
namespace an = ddl::analysis;

/// The daemon's per-client inflight quota (ServiceConfig default): the
/// most scenarios one coalesced dispatch unit carries.
constexpr std::size_t kUnitQuota = 4;

/// Dispatch units of one job.  Campaign runs every spec alone; the daemon
/// claims specs in order and lets a batch-eligible spec pull later
/// eligible specs of the same job into its unit, up to the quota.
std::vector<std::vector<ScenarioSpec>> dispatch_units(
    const std::vector<ScenarioSpec>& specs, bool coalesce,
    sc::ScenarioWorkspace& workspace) {
  std::vector<std::vector<ScenarioSpec>> units;
  std::vector<bool> claimed(specs.size(), false);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (claimed[i]) {
      continue;
    }
    claimed[i] = true;
    units.push_back({specs[i]});
    if (!coalesce || !sc::batch_eligible(specs[i], workspace)) {
      continue;
    }
    for (std::size_t j = i + 1;
         j < specs.size() && units.back().size() < kUnitQuota; ++j) {
      if (!claimed[j] && sc::batch_eligible(specs[j], workspace)) {
        claimed[j] = true;
        units.back().push_back(specs[j]);
      }
    }
  }
  return units;
}

/// One dispatch unit in process, the way a sandbox worker runs it: a lone
/// spec through run_scenario_guarded, a coalesced unit through the
/// planner's batched dispatch (threads=1) plus guarded runs for the rest.
std::vector<sc::ScenarioResult> run_unit_in_process(
    const std::vector<ScenarioSpec>& unit, sc::ScenarioWorkspace& workspace) {
  std::vector<sc::ScenarioResult> results(unit.size());
  if (unit.size() == 1) {
    results[0] = sc::run_scenario_guarded(unit[0], workspace).result;
    return results;
  }
  const sc::BatchPlan plan = sc::plan_batches(unit, workspace);
  for (const sc::BatchGroup& group : plan.groups) {
    sc::run_batch_group(unit, group, workspace, /*threads=*/1, results);
  }
  for (const std::size_t index : plan.scalar) {
    results[index] = sc::run_scenario_guarded(unit[index], workspace).result;
  }
  return results;
}

/// The kernel dispatches the planner would make for `specs`: per group,
/// every member's dies packed scenario-major, run at threads=1.
void kernel_pass(Tracer& tracer, const LayerJob& job, const sc::BatchPlan& plan,
                 sc::ScenarioWorkspace& workspace, LayerFacts& facts) {
  for (const sc::BatchGroup& group : plan.groups) {
    const ScenarioSpec& first = job.specs[group.members.front()];
    const an::McBatchSpec mc =
        sc::mc_yield_kernel_spec(first, workspace.sizing_for(first));
    std::vector<an::BatchDie> dies;
    for (const std::size_t index : group.members) {
      const ScenarioSpec& spec = job.specs[index];
      std::vector<an::BatchFault> faults;
      for (const sc::FaultSpec& fault : spec.faults) {
        faults.push_back({0, fault.victim_cell, fault.severity});
      }
      for (std::size_t die = 0; die < spec.mc_dies; ++die) {
        dies.push_back({an::die_seed(spec.seed, die), faults});
      }
    }
    an::McBatchStats stats;
    {
      Tracer::Span span(&tracer, "analysis.mc_batch", job.id);
      an::monte_carlo_batched_dies(mc, dies, /*threads=*/1, &stats);
    }
    facts.kernel_dies += dies.size();
    facts.kernel_fallbacks += stats.scalar_fallbacks;
  }
}

std::string count_note(std::size_t count) {
  return "n=" + std::to_string(count);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) {
    total += value;
  }
  return total;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void layer_pass(Tracer& tracer, const std::vector<LayerJob>& jobs,
                bool coalesce, const std::filesystem::path& journal_dir,
                LayerFacts& facts, Tally& tally) {
  Tracer::Span root(&tracer, "driver.layers");
  std::size_t total = 0;
  for (const LayerJob& job : jobs) {
    total += job.specs.size();
  }
  sc::ScenarioWorkspace workspace;
  sc::SandboxCounters counters;
  std::filesystem::create_directories(journal_dir);
  sc::JournalWriter journal(journal_dir.string(), "layer-pass", total, 0,
                            /*append=*/false);
  {
    // Process isolation with the CLI/daemon defaults: one long-lived
    // sandbox worker, as one Campaign shard or one server worker has.
    sc::ScenarioExecutor executor(sc::IsolationConfig{}, &counters);
    for (const LayerJob& job : jobs) {
      for (const ScenarioSpec& spec : job.specs) {
        {
          Tracer::Span span(&tracer, "scenario.validate", spec.name);
          if (!sc::validate(spec).empty()) {
            tally.fail(1, spec.name + ": generated spec fails validate()");
          }
        }
        Tracer::Span span(&tracer, "scenario.spec_codec", spec.name);
        const std::string line = sc::spec_to_json(spec).to_json_line();
        const auto fields = an::parse_flat_json_line(line);
        const sc::SpecParse parsed = sc::spec_from_json_checked(*fields);
        span.end();
        if (!parsed.ok() ||
            sc::spec_to_json(parsed.spec).to_json_line() != line) {
          tally.fail(1, spec.name + ": spec codec does not round-trip");
        }
      }

      sc::BatchPlan plan;
      {
        Tracer::Span span(&tracer, "scenario.plan", job.id);
        plan = sc::plan_batches(job.specs, workspace);
      }
      facts.plan_specs += job.specs.size();
      for (const sc::BatchGroup& group : plan.groups) {
        facts.plan_grouped += group.members.size();
      }

      for (const auto& unit : dispatch_units(job.specs, coalesce, workspace)) {
        const std::string& request = unit.front().name;
        std::vector<sc::ExecutedScenario> executed;
        {
          Tracer::Span span(&tracer, "scenario.executor.run_unit", request);
          executed = executor.run_unit(unit);
        }
        std::vector<sc::ScenarioResult> results;
        const bool loop = unit.size() == 1 && unit.front().mc_dies == 0;
        if (loop) {
          facts.loop_specs[request] = {
              std::string(sc::to_string(unit.front().architecture)),
              unit.front().periods};
        }
        {
          Tracer::Span span(
              &tracer, loop ? "control.closed_loop" : "analysis.mc_yield_unit",
              request);
          results = run_unit_in_process(unit, workspace);
        }
        for (std::size_t i = 0; i < unit.size(); ++i) {
          std::string line;
          std::vector<std::string> health;
          {
            Tracer::Span span(&tracer, "scenario.render", unit[i].name);
            line = sc::to_json_line(results[i]);
            for (const auto& event : results[i].health) {
              health.push_back(
                  sc::health_to_json(results[i], event).to_json_line());
            }
          }
          tally.attempted += 1;
          if (i >= executed.size() || executed[i].line != line ||
              executed[i].health_lines != health) {
            tally.fail(1, unit[i].name +
                              ": sandbox row differs from the in-process row");
            continue;
          }
          Tracer::Span span(&tracer, "scenario.journal.record", unit[i].name);
          journal.record(executed[i].line, executed[i].health_lines);
        }
      }
      kernel_pass(tracer, job, plan, workspace, facts);
    }
  }
  facts.sandbox_crashes += counters.crashes.load();
  facts.sandbox_respawns += counters.respawns.load();
  facts.sandbox_workers_lost += counters.workers_lost.load();
}

void add_layer_metrics(Report& report, const Tracer& tracer,
                       const LayerFacts& facts) {
  auto p = [&](const std::string& span, double q) {
    return percentile(tracer.durations(span), q);
  };
  auto n = [&](const std::string& span) {
    return tracer.durations(span).size();
  };

  // --- service ------------------------------------------------------------
  report.add("service.start_ms", p("service.start", 0.5) / 1e3, "ms",
             count_note(n("service.start")) + "; -> setup_s @ daemon_mixed");
  report.add("service.submit_to_accepted_ms.p50",
             p("service.submit", 0.5) / 1e3, "ms",
             count_note(n("service.submit")) +
                 "; -> job_latency_p50_ms @ daemon_mixed");
  report.add("service.accepted_to_first_row_ms.p50",
             p("service.first_row", 0.5) / 1e3, "ms",
             count_note(n("service.first_row")) +
                 "; -> first_row_latency_p50_ms @ daemon_mixed");
  report.add("service.replay_ms.p50", p("driver.replay", 0.5) / 1e3, "ms",
             count_note(n("driver.replay")) +
                 "; resubmit -> job_done @ daemon_mixed");
  report.add("service.frame_codec_us",
             ratio(sum(tracer.durations("service.frame_codec")),
                   static_cast<double>(n("service.frame_codec"))),
             "us",
             "per job, " + count_note(n("service.frame_codec")) +
                 "; -> job_latency_p50_ms @ daemon_mixed, service.replay_ms");
  report.add("service.frames_per_job",
             ratio(static_cast<double>(facts.frames),
                   static_cast<double>(facts.frame_jobs)),
             "count",
             count_note(facts.frame_jobs) +
                 "; -> job_latency_p50_ms @ daemon_mixed, service.replay_ms");
  report.add("service.batched_units_frac",
             ratio(static_cast<double>(facts.batched_units),
                   static_cast<double>(facts.fresh_jobs)),
             "frac", "coalesced units per fresh job; -> jobs_per_s, "
                     "job_latency_p99_ms @ daemon_mixed");
  report.add("service.backpressure_frac",
             ratio(static_cast<double>(facts.backpressure_frames),
                   static_cast<double>(facts.submissions)),
             "frac", "-> jobs_per_s, job_latency_p99_ms @ daemon_mixed");
  report.add("service.error_frames", static_cast<double>(facts.error_frames),
             "count", "-> failed/attempted");

  // --- scenario: registry, spec, planner ----------------------------------
  report.add("scenario.expand_ms", p("scenario.expand", 0.5) / 1e3, "ms",
             count_note(n("scenario.expand")) + "; -> setup_s @ all");
  report.add("scenario.validate_us",
             mean(tracer.durations("scenario.validate")), "us",
             count_note(n("scenario.validate")) +
                 "; -> setup_s, job_latency_p50_ms @ daemon_mixed");
  report.add("scenario.spec_codec_us",
             mean(tracer.durations("scenario.spec_codec")), "us",
             count_note(n("scenario.spec_codec")) +
                 "; -> scenarios_per_s @ cli_yield, job_latency_p50_ms @ "
                 "daemon_mixed");
  report.add("scenario.plan_us", mean(tracer.durations("scenario.plan")), "us",
             count_note(n("scenario.plan")) +
                 "; -> scenarios_per_s @ cli_yield");
  report.add("scenario.plan_batched_frac",
             ratio(static_cast<double>(facts.plan_grouped),
                   static_cast<double>(facts.plan_specs)),
             "frac", "grouped specs / specs; -> mc_dies_per_s @ cli_yield");

  // --- scenario: executor -------------------------------------------------
  const auto sandboxed = tracer.by_request("scenario.executor.run_unit");
  auto in_process = tracer.by_request("control.closed_loop");
  for (const auto& [request, us] :
       tracer.by_request("analysis.mc_yield_unit")) {
    in_process[request] = us;
  }
  std::vector<double> tax;
  for (const auto& [request, us] : sandboxed) {
    const auto it = in_process.find(request);
    if (it != in_process.end()) {
      tax.push_back(us - it->second);
    }
  }
  report.add("scenario.executor_unit_ms.p50",
             p("scenario.executor.run_unit", 0.5) / 1e3, "ms",
             count_note(n("scenario.executor.run_unit")) +
                 "; -> scenarios_per_s @ cli_regression, cli_yield");
  report.add("scenario.sandbox_tax_us", mean(tax), "us",
             "mean of run_unit minus the same unit in process, " +
                 count_note(tax.size()) +
                 "; -> scenarios_per_s @ cli_yield, job_latency_p50_ms @ "
                 "daemon_mixed");
  report.add("scenario.sandbox_crashes",
             static_cast<double>(facts.sandbox_crashes), "count",
             "-> failed/attempted");
  report.add("scenario.sandbox_respawns",
             static_cast<double>(facts.sandbox_respawns), "count",
             "-> failed/attempted");
  report.add("scenario.sandbox_workers_lost",
             static_cast<double>(facts.sandbox_workers_lost), "count",
             "-> failed/attempted");
  report.add("scenario.retried", static_cast<double>(facts.retried), "count",
             "-> failed/attempted");

  // --- scenario: render, journal, campaign --------------------------------
  report.add("scenario.render_us", mean(tracer.durations("scenario.render")),
             "us", count_note(n("scenario.render")) +
                       "; -> scenarios_per_s @ cli_yield");
  const auto record = tracer.durations("scenario.journal.record");
  report.add("scenario.journal_record_us.p50", percentile(record, 0.5), "us",
             count_note(record.size()) +
                 "; -> scenarios_per_s @ cli_yield, job_latency_p50_ms @ "
                 "daemon_mixed");
  report.add("scenario.journal_record_us.p99", percentile(record, 0.99), "us",
             sample_note(record.size(), 0.99) +
                 "; -> job_latency_p99_ms @ daemon_mixed");
  report.add("scenario.journal_load_ms", p("scenario.journal.load", 0.5) / 1e3,
             "ms", count_note(n("scenario.journal.load")) +
                       "; -> service.replay_ms after a restart");
  const double busy_ms = (sum(tracer.durations("control.closed_loop")) +
                          sum(tracer.durations("analysis.mc_yield_unit"))) /
                         1e3;
  report.add("scenario.campaign_efficiency",
             ratio(busy_ms, facts.campaign_wall_ms *
                                static_cast<double>(facts.campaign_jobs)),
             "frac",
             "in-process unit busy / (Campaign::run wall x jobs); -> "
             "scenarios_per_s, sim_periods @ cli_regression");

  // --- analysis -----------------------------------------------------------
  report.add("analysis.mc_batch_dies_per_s",
             ratio(static_cast<double>(facts.kernel_dies),
                   sum(tracer.durations("analysis.mc_batch")) / 1e6),
             "1/s", std::to_string(facts.kernel_dies) +
                        " dies, threads=1; -> mc_dies_per_s @ cli_yield");
  report.add("analysis.mc_batch_scalar_fallback_frac",
             ratio(static_cast<double>(facts.kernel_fallbacks),
                   static_cast<double>(facts.kernel_dies)),
             "frac", "-> mc_dies_per_s @ cli_yield");

  // --- control ------------------------------------------------------------
  // The in-process closed-loop spans joined with the spec each one ran
  // (its request id): simulated periods per host second, in total and per
  // architecture.
  std::map<std::string, std::pair<double, double>> loop;  // periods, us
  for (const auto& [request, us] : tracer.by_request("control.closed_loop")) {
    const auto it = facts.loop_specs.find(request);
    if (it == facts.loop_specs.end()) {
      continue;
    }
    for (const std::string& key : {std::string(), it->second.first}) {
      loop[key].first += static_cast<double>(it->second.second);
      loop[key].second += us;
    }
  }
  report.add("control.closed_loop_periods_per_s",
             ratio(loop[""].first, loop[""].second / 1e6), "1/s",
             "run_scenario_guarded, 1 thread; -> sim periods/s @ "
             "cli_regression, slightly job_latency_p50_ms @ daemon_mixed");
  for (const char* arch : {"proposed", "conventional", "hybrid", "counter"}) {
    report.add(std::string("control.closed_loop_periods_per_s.") + arch,
               ratio(loop[arch].first, loop[arch].second / 1e6), "1/s",
               "-> sim periods/s @ cli_regression");
  }

  // --- trace closure ------------------------------------------------------
  const auto self = tracer.layer_self_us();
  const double root_ms = tracer.root_us() / 1e3;
  for (const char* layer : {"service", "scenario", "analysis", "control"}) {
    const auto it = self.find(layer);
    report.add(std::string("trace.self_ms.") + layer,
               it == self.end() ? 0.0 : it->second / 1e3, "ms",
               "layer self time in the traced run");
  }
  const auto driver = self.find("driver");
  const double unattributed = driver == self.end() ? 0.0 : driver->second / 1e3;
  report.add("trace.wall_ms", root_ms, "ms",
             "traced thread time (root spans)");
  report.add("trace.unattributed_ms", unattributed, "ms",
             "traced wall minus layer self time");
  report.add("trace.unattributed_frac", ratio(unattributed, root_ms), "frac",
             "");
  report.add("trace.overhead_ms",
             facts.traced_pass_ms - facts.untraced_pass_ms, "ms",
             "traced minus untraced wall of the same jobs");
  report.add("trace.overhead_frac",
             ratio(facts.traced_pass_ms - facts.untraced_pass_ms,
                   facts.untraced_pass_ms),
             "frac", "");
}

}  // namespace perfbench
