// daemon_mixed: an in-process ScenarioServer with the ddl_scenario_server
// defaults (2 workers, process isolation, a journaled state directory) on
// loopback TCP, loaded by 4 closed-loop ScenarioClients in this process.
// Each client waits for its job before submitting the next; every 4th
// submission resubmits one of that client's completed jobs, which the
// server replays.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/service/client.h"
#include "ddl/service/protocol.h"
#include "ddl/service/server.h"
#include "layers.h"
#include "reference.h"
#include "runs.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sc = ddl::scenario;
namespace sv = ddl::service;
using Clock = std::chrono::steady_clock;
using Fields = std::map<std::string, std::string>;
using ddl::analysis::WallTimer;

constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kReplayEvery = 4;  ///< Every 4th submission resubmits.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kPregenerated = 512;  ///< Fresh jobs per client.
constexpr std::size_t kLayerJobs = 32;  ///< Fresh jobs the layer pass replays.
constexpr std::size_t kWarmupIndex = 1'000'000;  ///< Warm-up job indices.

/// The ddl_scenario_server defaults (tools/ddl_scenario_server.cpp).
sv::ServiceConfig daemon_config(const fs::path& state_dir) {
  sv::ServiceConfig config;
  config.state_dir = state_dir.string();
  config.workers = kWorkers;
  config.dead_peer_timeout_ms = 30'000;
  config.partial_frame_timeout_ms = 10'000;
  return config;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string field(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

/// One job's frames as the client pumps them, dispatched the way
/// ScenarioClient::wait() does -- done here so the first `result` frame
/// can be timed and every frame counted.
struct Awaited {
  sv::ScenarioClient::JobOutcome outcome;
  std::size_t frames = 0;
  std::optional<Clock::time_point> first_row;
  std::vector<Fields> kept;  ///< Every frame, when asked to keep them.
};

/// Pumps frames for `job_id` until job_done (or, with `until_first_row`,
/// until its first result frame).  False on a transport or error frame.
bool pump(sv::ScenarioClient& client, const std::string& job_id,
          bool until_first_row, bool keep, Awaited& job) {
  auto& outcome = job.outcome;
  while (!outcome.done && !outcome.cancelled) {
    if (until_first_row && job.first_row) {
      return true;
    }
    const auto fields = client.next_frame();
    if (!fields) {
      outcome.error_code = "disconnected";
      return false;
    }
    ++job.frames;
    if (keep) {
      job.kept.push_back(*fields);
    }
    const std::string type = field(*fields, "frame");
    if (type == "error") {
      outcome.error_code = field(*fields, "code");
      outcome.error_detail = field(*fields, "detail");
      return false;
    }
    if (field(*fields, "job_id") != job_id) {
      continue;  // heartbeat, pong
    }
    if (type == "result") {
      if (!job.first_row) {
        job.first_row = Clock::now();
      }
      std::uint64_t index = 0;
      ddl::scenario::parse_u64(field(*fields, "index"), index);
      if (outcome.result_lines.size() <= index) {
        outcome.result_lines.resize(index + 1);
      }
      outcome.result_lines[index] = field(*fields, "row");
    } else if (type == "health") {
      outcome.health_lines.push_back(field(*fields, "row"));
    } else if (type == "job_done") {
      outcome.done = true;
    } else if (type == "cancelled") {
      outcome.cancelled = true;
    }
  }
  return outcome.done;
}

/// A job as one client delivered it.
struct Delivery {
  std::size_t job = 0;       ///< Index into the client's jobs.
  std::size_t original = 0;  ///< Replays: index of the fresh delivery.
  std::string job_id;
  std::string jsonl;
  std::string health_jsonl;
  std::vector<Fields> frames;  ///< Traced run only.
};

struct ClientState {
  std::size_t index = 0;
  std::unique_ptr<sv::ScenarioClient> client;
  std::vector<std::vector<ScenarioSpec>> jobs;  ///< Pregenerated fresh jobs.
  std::size_t next_job = 0;
  ddl::core::SplitMix64 rng;

  // Everything the client delivered, across passes.
  std::vector<Delivery> fresh;
  std::vector<Delivery> replays;
  std::vector<double> fresh_ms, first_row_ms, replay_ms;
  std::size_t submissions = 0;
  std::size_t frames = 0;
  std::size_t frame_jobs = 0;
  Tally tally;

  std::string tag(std::size_t job) const { return "j" + std::to_string(job); }
};

std::vector<ScenarioSpec> fresh_job(ClientState& state, std::uint64_t seed) {
  if (state.next_job >= state.jobs.size()) {
    state.jobs.push_back(daemon_job(seed, state.index, state.jobs.size()));
  }
  return state.jobs[state.next_job];
}

/// Submits one job (retrying on backpressure) and pumps it to job_done.
/// Returns the delivery, or nullopt after counting the failure.
std::optional<Delivery> submit_and_wait(ClientState& state,
                                        const std::string& tag,
                                        const std::vector<ScenarioSpec>& specs,
                                        bool replay, Tracer* tracer,
                                        double& total_ms,
                                        double& first_row_ms) {
  Tracer::Span root(tracer, replay ? "driver.replay" : "driver.job", tag);
  ++state.submissions;
  const Clock::time_point submitted = Clock::now();
  sv::ScenarioClient::Submission submission;
  {
    Tracer::Span span(tracer, replay ? "service.resubmit" : "service.submit",
                      tag);
    submission = state.client->submit_specs(tag, specs);
    while (submission.backpressure) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(submission.retry_ms));
      submission = state.client->submit_specs(tag, specs);
    }
  }
  const std::string what =
      "client " + std::to_string(state.index) + " " + tag;
  if (!submission.accepted) {
    state.tally.attempted += specs.size();
    state.tally.fail(specs.size(), what + ": not accepted (" +
                                       submission.error_code + " " +
                                       submission.error_detail + ")");
    return std::nullopt;
  }
  Awaited job;
  const bool keep = tracer != nullptr;
  bool ok = true;
  if (!replay) {
    Tracer::Span span(tracer, "service.first_row", tag);
    ok = pump(*state.client, submission.job_id, true, keep, job);
  }
  if (ok) {
    Tracer::Span span(tracer,
                      replay ? "service.replay_stream" : "service.stream", tag);
    ok = pump(*state.client, submission.job_id, false, keep, job);
  }
  const Clock::time_point done = Clock::now();
  if (!ok) {
    state.tally.attempted += specs.size();
    state.tally.fail(specs.size(), what + ": no job_done (" +
                                       job.outcome.error_code + ")");
    return std::nullopt;
  }
  total_ms = ms_between(submitted, done);
  first_row_ms = job.first_row ? ms_between(submitted, *job.first_row) : 0.0;
  // The submit frame and its `accepted` reply, plus everything pumped.
  state.frames += job.frames + 2;
  state.frame_jobs += 1;
  Delivery delivery;
  delivery.job_id = submission.job_id;
  delivery.jsonl = job.outcome.jsonl();
  delivery.health_jsonl = job.outcome.health_jsonl();
  delivery.frames = std::move(job.kept);
  return delivery;
}

/// One client's closed loop: until `deadline`, or exactly `count`
/// submissions when count > 0.
void client_loop(ClientState& state, std::uint64_t seed,
                 Clock::time_point deadline, std::size_t count,
                 Tracer* tracer) {
  for (std::size_t k = 0;
       count > 0 ? k < count : Clock::now() < deadline; ++k) {
    double total_ms = 0.0;
    double first_row_ms = 0.0;
    if (k % kReplayEvery == kReplayEvery - 1 && !state.fresh.empty()) {
      const std::size_t pick = state.rng.below(state.fresh.size());
      const std::size_t job = state.fresh[pick].job;
      auto delivery = submit_and_wait(state, state.tag(job), state.jobs[job],
                                      true, tracer, total_ms, first_row_ms);
      if (delivery) {
        delivery->job = job;
        delivery->original = pick;
        state.replay_ms.push_back(total_ms);
        state.replays.push_back(std::move(*delivery));
      }
      continue;
    }
    const std::vector<ScenarioSpec> specs = fresh_job(state, seed);
    const std::size_t job = state.next_job++;
    auto delivery = submit_and_wait(state, state.tag(job), specs, false,
                                    tracer, total_ms, first_row_ms);
    if (delivery) {
      delivery->job = job;
      state.fresh_ms.push_back(total_ms);
      state.first_row_ms.push_back(first_row_ms);
      state.fresh.push_back(std::move(*delivery));
    }
  }
}

/// Runs every client's loop on its own thread; returns the pass wall.
double run_pass(std::vector<ClientState>& clients, std::uint64_t seed,
                double seconds, const std::vector<std::size_t>& counts,
                Tracer* tracer) {
  WallTimer wall;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      client_loop(clients[c], seed, deadline,
                  counts.empty() ? 0 : counts[c], tracer);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return wall.elapsed_ms();
}

/// Starts a server and connects the clients, warming both sandbox workers
/// with one job per client.  Returns the set-up wall in ms.
double set_up(const fs::path& state_dir, std::uint64_t seed,
              std::unique_ptr<sv::ScenarioServer>& server,
              std::vector<ClientState>& clients, Tracer* tracer) {
  Tracer::Span root(tracer, "driver.setup");
  WallTimer wall;
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  server = std::make_unique<sv::ScenarioServer>(daemon_config(state_dir));
  {
    Tracer::Span span(tracer, "service.start");
    std::string error;
    if (!server->start(&error)) {
      throw std::runtime_error("server start failed: " + error);
    }
  }
  clients.clear();
  clients.resize(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientState& state = clients[c];
    state.index = c;
    state.rng.state = seed ^ (0x5eedull + c);
    {
      Tracer::Span span(tracer, "scenario.expand",
                        "client " + std::to_string(c));
      for (std::size_t j = 0; j < kPregenerated; ++j) {
        state.jobs.push_back(daemon_job(seed, c, j));
      }
    }
    sv::ClientConfig config;
    config.tcp_port = server->tcp_port();
    config.name = "perfbench-" + std::to_string(c);
    config.recv_timeout_ms = 60'000;
    state.client = std::make_unique<sv::ScenarioClient>(config);
    std::string error;
    if (!state.client->connect(&error)) {
      throw std::runtime_error("client connect failed: " + error);
    }
    Awaited warmup;
    const auto submission = state.client->submit_specs(
        "warmup", daemon_job(seed, c, kWarmupIndex));
    if (!submission.accepted ||
        !pump(*state.client, submission.job_id, false, false, warmup)) {
      throw std::runtime_error(
          "warm-up job failed: " + submission.error_code + " " +
          submission.error_detail + " " + warmup.outcome.error_code + " " +
          warmup.outcome.error_detail);
    }
  }
  return wall.elapsed_ms();
}

void tear_down(std::unique_ptr<sv::ScenarioServer>& server,
               std::vector<ClientState>& clients) {
  for (ClientState& state : clients) {
    if (state.client) {
      state.client->bye();
    }
  }
  if (server) {
    server->stop();
  }
}

/// The frames of `delivery` through the wire codec: the submit frame as
/// the client builds it and every frame the client received, encoded,
/// decoded by one FrameReader and parsed.
void frame_codec(Tracer& tracer, const std::vector<ScenarioSpec>& specs,
                 const Delivery& delivery, const std::string& tag) {
  std::vector<std::string> payloads;
  ddl::analysis::JsonObject submit = sv::make_frame("submit");
  submit.set("job", tag);
  submit.set("spec_count", static_cast<std::uint64_t>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto fields = ddl::analysis::parse_flat_json_line(
        sc::spec_to_json(specs[i]).to_json_line());
    for (const auto& [key, value] : *fields) {
      submit.set("spec." + std::to_string(i) + "." + key, value);
    }
  }
  payloads.push_back(submit.to_json_line());
  for (const Fields& fields : delivery.frames) {
    ddl::analysis::JsonObject frame = sv::make_frame(field(fields, "frame"));
    for (const auto& [key, value] : fields) {
      if (key != "frame") {
        frame.set(key, value);
      }
    }
    payloads.push_back(frame.to_json_line());
  }
  Tracer::Span span(&tracer, "service.frame_codec", delivery.job_id);
  std::string wire;
  for (const std::string& payload : payloads) {
    wire += sv::encode_frame(payload);
  }
  sv::FrameReader reader;
  reader.feed(wire.data(), wire.size());
  while (const auto payload = reader.next()) {
    sv::parse_frame_payload(*payload);
  }
}

}  // namespace

bool run_daemon(const RunOptions& options, Report& report, Tally& tally) {
  const ScratchDir scratch(options.work_dir /
                           ("run-" + std::to_string(::getpid())));
  const fs::path& dir = scratch.path();
  report.context("workers", std::to_string(kWorkers));
  report.context("clients", std::to_string(kClients));
  report.context("jobs", "n/a (server workers)");
  report.context("isolation", "process");

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  std::unique_ptr<sv::ScenarioServer> server;
  std::vector<ClientState> clients;
  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) {
      tear_down(server, clients);
    }
    setup_ms.push_back(set_up(dir / ("state-" + std::to_string(i)),
                              options.seed, server, clients, traced));
  }
  const fs::path state_dir =
      dir / ("state-" + std::to_string(kSetupRepeats - 1));

  LayerFacts facts;
  double loop_ms = 0.0;
  double rss_mb = 0.0;
  if (!options.trace) {
    loop_ms = run_pass(clients, options.seed, options.seconds, {}, nullptr);
    rss_mb = peak_rss_mb();
  } else {
    facts.untraced_pass_ms =
        run_pass(clients, options.seed, options.seconds / 4, {}, nullptr);
    std::vector<std::size_t> counts;
    std::vector<std::size_t> traced_from;
    for (const ClientState& state : clients) {
      counts.push_back(state.submissions);
      traced_from.push_back(state.fresh.size());
    }
    facts.traced_pass_ms =
        run_pass(clients, options.seed, 0, counts, traced);

    // Layer pass inputs: the first fresh jobs of the traced pass, spread
    // over the clients in turn.
    std::vector<LayerJob> layer_jobs;
    for (std::size_t i = 0; layer_jobs.size() < kLayerJobs; ++i) {
      bool any = false;
      for (std::size_t c = 0; c < clients.size(); ++c) {
        const std::size_t at = traced_from[c] + i;
        if (at >= clients[c].fresh.size() || layer_jobs.size() >= kLayerJobs) {
          continue;
        }
        any = true;
        const Delivery& delivery = clients[c].fresh[at];
        const auto& specs = clients[c].jobs[delivery.job];
        Tracer::Span root(&tracer, "driver.inspect");
        frame_codec(tracer, specs, delivery,
                    clients[c].tag(delivery.job));
        {
          Tracer::Span span(&tracer, "scenario.journal.load", delivery.job_id);
          sc::load_journal((state_dir / "jobs" / delivery.job_id).string());
        }
        layer_jobs.push_back({delivery.job_id, specs});
      }
      if (!any) {
        break;
      }
    }
    layer_pass(tracer, layer_jobs, /*coalesce=*/true, dir / "layers", facts,
               tally);
  }

  const sv::ServiceStats stats = server->stats();
  tear_down(server, clients);
  server.reset();
  const std::size_t leftover = leftover_children();

  // Correctness, outside the timed region: every fresh delivery against
  // the in-process reference, every replay against the reference and the
  // job's first delivery.
  std::vector<ScenarioSpec> all;
  std::vector<std::size_t> sizes;
  for (const ClientState& state : clients) {
    for (const Delivery& delivery : state.fresh) {
      const auto& specs = state.jobs[delivery.job];
      all.insert(all.end(), specs.begin(), specs.end());
      sizes.push_back(specs.size());
    }
  }
  const std::vector<Reference> references = make_references(all, sizes);
  std::size_t next = 0;
  std::vector<double> fresh_ms, first_row_ms, replay_ms;
  std::size_t fresh_jobs = 0;
  std::size_t replay_jobs = 0;
  std::size_t scenarios = 0;
  std::uint64_t dies = 0;
  std::uint64_t periods = 0;
  for (ClientState& state : clients) {
    tally.merge(state.tally);
    const std::size_t first = next;
    for (const Delivery& delivery : state.fresh) {
      const auto& specs = state.jobs[delivery.job];
      check_delivery(references[next++], delivery.jsonl, delivery.health_jsonl,
                     "client " + std::to_string(state.index) + " " +
                         delivery.job_id,
                     tally);
      scenarios += specs.size();
      dies += mc_dies(specs);
      periods += closed_loop_periods(specs);
    }
    for (const Delivery& replay : state.replays) {
      const Delivery& original = state.fresh[replay.original];
      const std::string what = "client " + std::to_string(state.index) +
                               " replay of " + replay.job_id;
      check_delivery(references[first + replay.original], replay.jsonl,
                     replay.health_jsonl, what, tally);
      if (replay.jsonl != original.jsonl ||
          replay.health_jsonl != original.health_jsonl) {
        tally.fail(1, what + ": differs from the first delivery");
      }
    }
    fresh_jobs += state.fresh.size();
    replay_jobs += state.replays.size();
    fresh_ms.insert(fresh_ms.end(), state.fresh_ms.begin(),
                    state.fresh_ms.end());
    first_row_ms.insert(first_row_ms.end(), state.first_row_ms.begin(),
                        state.first_row_ms.end());
    replay_ms.insert(replay_ms.end(), state.replay_ms.begin(),
                     state.replay_ms.end());
    facts.submissions += state.submissions;
    facts.frames += state.frames;
    facts.frame_jobs += state.frame_jobs;
  }
  if (!options.trace) {
    const double loop_s = loop_ms / 1e3;
    report.add("setup_s", median(setup_ms) / 1e3, "s",
               "median of " + std::to_string(setup_ms.size()) +
                   " set-ups (server start, connect, one warm-up job per "
                   "client)");
    report.add("peak_rss_mb", rss_mb, "MiB",
               "benchmark process + largest reaped sandbox worker");
    report.add("scenarios_per_s", static_cast<double>(scenarios) / loop_s,
               "1/s", std::to_string(scenarios) + " scenarios executed");
    report.add("mc_dies_per_s", static_cast<double>(dies) / loop_s, "1/s",
               std::to_string(dies) + " dies");
    report.add("jobs_per_s",
               static_cast<double>(fresh_jobs + replay_jobs) / loop_s, "1/s",
               std::to_string(fresh_jobs) + " fresh + " +
                   std::to_string(replay_jobs) + " replay jobs");
    report.add("job_latency_p50_ms", median(fresh_ms), "ms",
               sample_note(fresh_ms.size(), 0.5));
    report.add("first_row_latency_p50_ms", median(first_row_ms), "ms",
               sample_note(first_row_ms.size(), 0.5));
    report.context("job_latency_p99_ms",
                   std::to_string(percentile(fresh_ms, 0.99)) + " (" +
                       sample_note(fresh_ms.size(), 0.99) + ")");
    report.context("replay_latency_p50_ms",
                   std::to_string(median(replay_ms)) + " (" +
                       sample_note(replay_ms.size(), 0.5) + ")");
    report.context("sim_periods_per_s",
                   std::to_string(static_cast<double>(periods) / loop_s));
  } else {
    facts.fresh_jobs = stats.jobs_accepted;
    facts.batched_units = stats.batched_units;
    facts.backpressure_frames = stats.backpressure_frames;
    facts.error_frames = stats.error_frames;
    facts.sandbox_crashes += stats.sandbox_crashes;
    facts.sandbox_respawns += stats.workers_respawned;
    facts.sandbox_workers_lost += stats.workers_lost;
    add_layer_metrics(report, tracer, facts);
    tracer.write_jsonl(spans_path(options));
  }
  report.context("leftover_sandbox_workers", std::to_string(leftover));
  return leftover == 0;
}

}  // namespace perfbench
