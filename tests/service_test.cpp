// Tests for the campaign service: frame codec robustness (checksummed v2
// framing, poison permanence), the submit / stream / job_done round trip
// (byte-identical to the one-shot runner), quota backpressure as a frame
// (never a disconnect), fair round-robin scheduling across clients,
// mid-stream disconnect survival, journal-backed restart resume, structured
// error frames for malformed submissions, cooperative cancel with
// journal-consistent teardown, replay bundles judged by the client,
// submits that stay linear in their spec count or are refused before
// they are sent, a client that refuses a row indexed past the job cap,
// liveness timeouts (dead-peer and slowloris), per-tick adversarial
// budgets, and seeded chaos-proxy storms that must converge
// byte-identically anyway.
//
// Every test binds an ephemeral loopback port (or a temp-dir unix socket),
// so the suite is parallel-safe and needs no fixed resources.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ddl/core/hash.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"
#include "ddl/service/chaos_proxy.h"
#include "ddl/service/client.h"
#include "ddl/service/net_util.h"
#include "ddl/service/protocol.h"
#include "ddl/service/server.h"

// ASan and TSan allocators do not feed mallinfo2, so the heap test only
// runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DDL_SERVICE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DDL_SERVICE_SANITIZED 1
#endif
#endif

namespace {

namespace fs = std::filesystem;

using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;
using ddl::service::ChaosProxy;
using ddl::service::ChaosProxyConfig;
using ddl::service::ClientConfig;
using ddl::service::FrameReader;
using ddl::service::ResilientClientConfig;
using ddl::service::ResilientScenarioClient;
using ddl::service::ScenarioClient;
using ddl::service::ScenarioServer;
using ddl::service::ServiceConfig;

/// A fast proposed-line scenario (~15 ms): long enough to be a real
/// closed-loop run, short enough that suites of them stay snappy.
/// `periods` also doubles as the pacing knob -- the scheduling tests
/// stretch it to hold workers busy deterministically.
ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed,
                        std::uint64_t periods = 900) {
  ScenarioSpec spec;
  spec.name = "svc/proposed/typical/" + variant;
  spec.family = "svc";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = periods;
  spec.measure_from = (periods * 2) / 3;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

/// A supervised variant so the stream carries health frames too.
ScenarioSpec supervised_spec() {
  ScenarioSpec spec = quick_spec("supervised", 7);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.supervision.enabled = true;
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(31, 10.0, 400)};
  return spec;
}

/// The typical-corner 256-die yield spec under another name and seed: a
/// cheap kernel scenario.
ScenarioSpec yield_spec(const std::string& name, std::uint64_t seed) {
  static const ScenarioSpec typical = [] {
    for (const ScenarioSpec& spec :
         ddl::scenario::ScenarioRegistry::builtin().expand("yield")) {
      if (spec.name == "yield/proposed/typical/inl-256die") {
        return spec;
      }
    }
    ADD_FAILURE() << "no typical 256-die yield spec";
    return ScenarioSpec{};
  }();
  ScenarioSpec spec = typical;
  spec.name = name;
  spec.seed = seed;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ServiceConfig base_config() {
  ServiceConfig config;
  config.tcp_port = 0;  // Ephemeral.
  config.workers = 2;
  config.heartbeat_ms = 60'000;  // Out of the way unless a test wants it.
  return config;
}

ClientConfig client_for(const ScenarioServer& server, std::string name) {
  ClientConfig config;
  config.tcp_port = server.tcp_port();
  config.name = std::move(name);
  config.recv_timeout_ms = 30'000;  // A hung test fails, never wedges CI.
  return config;
}

/// Polls `done` every few milliseconds until it holds or the budget runs
/// out (the timeout tests watch server stats converge, not sleep blindly).
bool eventually(const std::function<bool()>& done,
                std::uint64_t budget_ms = 30'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Open descriptors of this process that point under `dir`.
std::size_t fds_under(const std::string& dir) {
  const std::string root = fs::canonical(dir).string() + "/";
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = fs::read_symlink(entry.path(), ec).string();
    count += !ec && target.rfind(root, 0) == 0 ? 1 : 0;
  }
  return count;
}

/// A bare loopback TCP connection: the adversarial tests drive the wire
/// by hand (half frames, silence) below anything ScenarioClient would do.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Completes the hello handshake on a raw socket and discards the reply.
bool raw_hello(int fd, const std::string& name) {
  ddl::analysis::JsonObject hello = ddl::service::make_frame("hello");
  hello.set("protocol_version",
            static_cast<std::uint64_t>(ddl::service::kProtocolVersion));
  hello.set("client", name);
  const std::string wire =
      ddl::service::encode_frame(hello.to_json_line());
  if (!ddl::service::net::send_all(fd, wire.data(), wire.size())) {
    return false;
  }
  FrameReader reader;
  char chunk[512];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      return false;
    }
    reader.feed(chunk, static_cast<std::size_t>(got));
    if (reader.next().has_value()) {
      return true;
    }
  }
}

/// Reads until the peer closes; returns everything received.
std::string drain_to_eof(int fd) {
  std::string bytes;
  char chunk[512];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  return bytes;
}

// ---- Frame codec ----------------------------------------------------------

TEST(FrameCodecTest, RoundTripsAcrossArbitraryFragmentation) {
  const std::vector<std::string> payloads = {
      R"({"frame":"hello","protocol_version":1})",
      "",  // Zero-length payload is a legal frame.
      R"({"frame":"result","row":"{\"name\":\"a/b\",\"pass\":true}"})",
  };
  std::string wire;
  for (const std::string& payload : payloads) {
    wire += ddl::service::encode_frame(payload);
  }
  // Feed one byte at a time: every length prefix and payload is split.
  FrameReader reader;
  std::vector<std::string> decoded;
  for (const char byte : wire) {
    reader.feed(&byte, 1);
    while (auto payload = reader.next()) {
      decoded.push_back(*payload);
    }
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodecTest, OversizedLengthPrefixPoisonsTheReader) {
  FrameReader reader;
  // ~2 GiB length word plus an arbitrary checksum word: a full v2 header.
  const unsigned char bogus[8] = {0x7f, 0x00, 0x00, 0x00,
                                  0xde, 0xad, 0xbe, 0xef};
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("exceeds"), std::string::npos);
  // Poisoned for good: further bytes never resynchronize.
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodecTest, ChecksumMismatchPoisonsTheReader) {
  std::string wire = ddl::service::encode_frame(R"({"frame":"ping"})");
  wire.back() ^= 0x20;  // One flipped payload bit -- the fuzzer's move.
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("checksum"), std::string::npos);
  EXPECT_EQ(reader.frames_decoded(), 0u);
}

TEST(FrameCodecTest, PoisonAfterValidFramesIsPermanent) {
  const std::string good = ddl::service::encode_frame(R"({"frame":"a"})");
  FrameReader reader;
  reader.feed(good.data(), good.size());
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.frames_decoded(), 1u);

  // An oversize length interleaved into a healthy stream...
  const unsigned char bogus[8] = {0x7f, 0, 0, 0, 0, 0, 0, 0};
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());

  // ...stays fatal even when perfectly valid frames follow: framing is
  // lost, so resynchronizing would risk decoding attacker-chosen bytes.
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_EQ(reader.frames_decoded(), 1u);
}

TEST(FrameCodecTest, TruncatedFrameYieldsNothingUntilTheBytesArrive) {
  const std::string wire = ddl::service::encode_frame(R"({"frame":"ping"})");
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 5);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());  // Incomplete, not corrupt.
  EXPECT_GT(reader.buffered(), 0u);
  EXPECT_EQ(reader.frames_decoded(), 0u);
  reader.feed(wire.data() + wire.size() - 5, 5);
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, R"({"frame":"ping"})");
  EXPECT_EQ(reader.frames_decoded(), 1u);
}

// ---- net_util -------------------------------------------------------------

TEST(NetUtilTest, RetryEintrRetriesInterruptedCallsOnly) {
  int calls = 0;
  const long result = ddl::service::net::retry_eintr([&]() -> long {
    if (++calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);

  // Any other errno passes through untouched on the first call.
  calls = 0;
  errno = 0;
  const long failed = ddl::service::net::retry_eintr([&]() -> long {
    ++calls;
    errno = EPIPE;
    return -1;
  });
  EXPECT_EQ(failed, -1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(errno, EPIPE);
}

TEST(FrameCodecTest, RowStringsSurviveTheEscapeRoundTrip) {
  // The acceptance-critical property: a JSONL row carried as a frame's
  // string field comes back byte-identical.
  const std::string row =
      R"({"schema_version":2,"name":"a/b","verdict":"pass","vout":0.9375})";
  ddl::analysis::JsonObject frame = ddl::service::make_frame("result");
  frame.set("row", row);
  const auto fields =
      ddl::service::parse_frame_payload(frame.to_json_line());
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(fields->at("row"), row);
}

// ---- Submit / stream round trip -------------------------------------------

TEST(ServiceTest, StreamedRowsAreByteIdenticalToTheRunner) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("a", 11), supervised_spec(), quick_spec("b", 12)};

  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("roundtrip");
  ScenarioServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ScenarioClient client(client_for(server, "alice"));
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto submission = client.submit_specs("nightly", specs);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;
  EXPECT_FALSE(submission.resumed);
  EXPECT_EQ(submission.scenarios, specs.size());

  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_EQ(outcome.resumed, 0u);

  ScenarioRunner runner(2);
  const auto results = runner.run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(results));
  EXPECT_FALSE(outcome.health_jsonl().empty());

  client.bye();
  server.stop();
}

TEST(ServiceTest, UnixDomainSocketSpeaksTheSameProtocol) {
  const std::string dir = fresh_dir("unix");
  ServiceConfig config = base_config();
  config.enable_tcp = false;
  config.unix_path = dir + "/ddl.sock";
  ScenarioServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.tcp_port(), 0);

  ClientConfig client_config;
  client_config.unix_path = config.unix_path;
  client_config.name = "unix-client";
  client_config.recv_timeout_ms = 30'000;
  ScenarioClient client(client_config);
  ASSERT_TRUE(client.connect(&error)) << error;
  EXPECT_TRUE(client.ping());

  const std::vector<ScenarioSpec> specs = {quick_spec("u", 21)};
  const auto submission = client.submit_specs("unix-job", specs);
  ASSERT_TRUE(submission.accepted);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  server.stop();
  EXPECT_FALSE(fs::exists(config.unix_path));  // Unlinked on shutdown.
}

TEST(ServiceTest, ResubmittingTheSameJobReplaysInsteadOfRerunning) {
  const std::vector<ScenarioSpec> specs = {quick_spec("r1", 31),
                                           quick_spec("r2", 32)};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("replay");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient first(client_for(server, "carol"));
  ASSERT_TRUE(first.connect());
  const auto sub1 = first.submit_specs("batch", specs);
  ASSERT_TRUE(sub1.accepted);
  const auto out1 = first.wait(sub1.job_id);
  ASSERT_TRUE(out1.done);
  first.bye();

  ScenarioClient second(client_for(server, "carol"));
  ASSERT_TRUE(second.connect());
  const auto sub2 = second.submit_specs("batch", specs);
  ASSERT_TRUE(sub2.accepted);
  EXPECT_TRUE(sub2.resumed);
  EXPECT_EQ(sub2.job_id, sub1.job_id);
  const auto out2 = second.wait(sub2.job_id);
  ASSERT_TRUE(out2.done);
  EXPECT_EQ(out2.jsonl(), out1.jsonl());
  // The replay reports the first delivery's counts.
  EXPECT_EQ(out2.executed, out1.executed);
  EXPECT_EQ(out2.resumed, out1.resumed);
  EXPECT_EQ(out2.passed, out1.passed);
  EXPECT_EQ(out2.failed, out1.failed);

  // Nothing ran twice: the second submit was pure replay.
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  server.stop();
}

// ---- Quotas and backpressure ----------------------------------------------

TEST(ServiceTest, QuotaExceededIsABackpressureFrameNotADisconnect) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_pending_jobs_per_client = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient client(client_for(server, "dave"));
  ASSERT_TRUE(client.connect());

  // Job A holds the quota: one long scenario on the only worker.
  const std::vector<ScenarioSpec> slow = {quick_spec("slow", 41, 20'000)};
  const auto sub_a = client.submit_specs("job-a", slow);
  ASSERT_TRUE(sub_a.accepted);

  // Job B trips the quota: explicit, retryable backpressure.
  const std::vector<ScenarioSpec> fast = {quick_spec("fast", 42)};
  const auto sub_b = client.submit_specs("job-b", fast);
  EXPECT_FALSE(sub_b.accepted);
  EXPECT_TRUE(sub_b.backpressure);
  EXPECT_GT(sub_b.retry_ms, 0u);
  EXPECT_EQ(server.stats().backpressure_frames, 1u);

  // The session survives the rejection...
  EXPECT_TRUE(client.ping());
  ASSERT_TRUE(client.wait(sub_a.job_id).done);

  // ...and the retry goes through once the quota frees up.
  const auto retry = client.submit_specs("job-b", fast);
  ASSERT_TRUE(retry.accepted);
  EXPECT_TRUE(client.wait(retry.job_id).done);
  server.stop();
}

TEST(ServiceTest, CoalescedBatchDispatchKeepsTheStreamByteIdentical) {
  // One worker and a deep quota hand the scheduler a queue of pending
  // MC-yield scenarios from the same job, which it must coalesce into
  // multi-entry dispatch units (stats().batched_units counts them); the
  // streamed rows must still match the one-shot runner byte for byte,
  // with the runtime-faulted rider taking the scalar path inside the
  // same job.
  auto specs = ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  specs.push_back(supervised_spec());

  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_inflight_per_client = 8;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient client(client_for(server, "batcher"));
  ASSERT_TRUE(client.connect());
  const auto submit = client.submit_specs("yield", specs);
  ASSERT_TRUE(submit.accepted);
  const auto outcome = client.wait(submit.job_id);
  ASSERT_TRUE(outcome.done);

  const auto reference = ScenarioRunner(1).run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  EXPECT_GT(server.stats().batched_units, 0u);
  server.stop();
}

TEST(ServiceTest, SchedulingIsFairRoundRobinAcrossClients) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_inflight_per_client = 1;
  config.record_dispatch_log = true;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  // A plug occupies the single worker (~400 ms) while the three measured
  // clients queue their jobs, so the dispatch order past the plug is a
  // pure function of the round-robin scheduler -- no submit-timing races.
  ScenarioClient plug(client_for(server, "plug"));
  ASSERT_TRUE(plug.connect());
  const auto plug_sub =
      plug.submit_specs("plug", {quick_spec("plug", 51, 20'000)});
  ASSERT_TRUE(plug_sub.accepted);

  std::vector<std::unique_ptr<ScenarioClient>> clients;
  std::vector<ScenarioClient::Submission> subs;
  for (const std::string name : {"c1", "c2", "c3"}) {
    auto client = std::make_unique<ScenarioClient>(client_for(server, name));
    ASSERT_TRUE(client->connect());
    std::vector<ScenarioSpec> specs;
    for (int i = 0; i < 3; ++i) {
      specs.push_back(
          quick_spec(name + "-" + std::to_string(i), 60 + i));
    }
    subs.push_back(client->submit_specs("fair", specs));
    ASSERT_TRUE(subs.back().accepted);
    clients.push_back(std::move(client));
  }
  ASSERT_TRUE(plug.wait(plug_sub.job_id).done);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i]->wait(subs[i].job_id).done);
  }

  const auto log = server.dispatch_log();
  ASSERT_EQ(log.size(), 10u);  // 1 plug + 3 clients x 3 scenarios.
  EXPECT_EQ(log[0], "plug");
  // Past the plug, every rotation serves all three clients exactly once.
  for (std::size_t i = 1; i + 2 < log.size(); i += 3) {
    const std::set<std::string> window(log.begin() + i, log.begin() + i + 3);
    EXPECT_EQ(window, (std::set<std::string>{"c1", "c2", "c3"}))
        << "rotation starting at dispatch " << i;
  }
  server.stop();
}

// ---- Disconnects and restarts ---------------------------------------------

TEST(ServiceTest, MidStreamDisconnectLeavesTheJobRunningAsAnOrphan) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("d1", 71, 4'000), quick_spec("d2", 72, 4'000),
      quick_spec("d3", 73, 4'000)};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("disconnect");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  {
    ScenarioClient client(client_for(server, "erin"));
    ASSERT_TRUE(client.connect());
    const auto submission = client.submit_specs("orphaned", specs);
    ASSERT_TRUE(submission.accepted);
    client.close();  // Vanish mid-stream, no bye.
  }

  // The job keeps executing with no session attached and completes.
  ASSERT_TRUE(server.wait_all_jobs_done(60'000));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());

  // A reconnecting client replays the full stream byte-exactly.
  ScenarioClient client(client_for(server, "erin"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("orphaned", specs);
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(submission.resumed);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  server.stop();
}

TEST(ServiceTest, RestartResumesTheJournalWithoutRerunningAnything) {
  const std::string state_dir = fresh_dir("restart");
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(quick_spec("res-" + std::to_string(i), 80 + i, 6'000));
  }

  std::size_t executed_before = 0;
  {
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    config.workers = 1;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "frank"));
    ASSERT_TRUE(client.connect());
    ASSERT_TRUE(client.submit_specs("long-haul", specs).accepted);
    // Let at least one scenario commit, then stop gracefully mid-job:
    // in-flight work finishes and journals, the rest stays pending.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().scenarios_executed < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.stop();
    executed_before = server.stats().scenarios_executed;
    ASSERT_GE(executed_before, 1u);
    ASSERT_LT(executed_before, specs.size());  // Stopped mid-job.
  }

  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, 1u);
  EXPECT_EQ(server.stats().scenarios_resumed, executed_before);
  // The orphan finishes without any client attached...
  ASSERT_TRUE(server.wait_all_jobs_done(60'000));
  // ...running only what the first server never committed.
  EXPECT_EQ(server.stats().scenarios_executed,
            specs.size() - executed_before);

  // And the reassembled stream is byte-identical to an uninterrupted run.
  ScenarioClient client(client_for(server, "frank"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("long-haul", specs);
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(submission.resumed);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.executed + outcome.resumed, specs.size());
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  server.stop();
}

TEST(ServiceTest, JobsCloseTheirJournalFilesWhenTheyEnd) {
  // Finished and cancelled jobs leave an index entry and their directory;
  // their journal files must not stay open, before or after a restart.
  const std::string state_dir = fresh_dir("journal_fds");
  constexpr std::size_t kJobs = 3;
  {
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    config.workers = 1;
    config.record_dispatch_log = true;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "olga"));
    ASSERT_TRUE(client.connect());
    for (std::size_t i = 0; i < kJobs; ++i) {
      const std::string name = "fd" + std::to_string(i);
      const auto submission =
          client.submit_specs(name, {quick_spec(name, 110 + i)});
      ASSERT_TRUE(submission.accepted);
      ASSERT_TRUE(client.wait(submission.job_id).done);
    }
    EXPECT_EQ(fds_under(state_dir), 0u);

    const auto doomed =
        client.submit_specs("doomed", {quick_spec("doomed", 119, 2'000'000)});
    ASSERT_TRUE(doomed.accepted);
    ASSERT_TRUE(
        eventually([&] { return server.dispatch_log().size() > kJobs; }));
    ASSERT_TRUE(client.cancel("doomed"));
    ASSERT_TRUE(client.wait(doomed.job_id).cancelled);
    EXPECT_EQ(fds_under(state_dir), 0u);
    client.bye();
    server.stop();
  }

  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, kJobs + 1);
  EXPECT_EQ(fds_under(state_dir), 0u);
  server.stop();
}

TEST(ServiceTest, DaemonJournalsResumeAsACampaign) {
  // The daemon and the CLI share one journal format: a finished job's
  // directory resumes under Campaign with nothing left to run.
  auto specs = ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  specs.push_back(quick_spec("shared", 131));
  specs.push_back(supervised_spec());
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("shared_journal");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "quinn"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("shared", specs);
  ASSERT_TRUE(submission.accepted);
  ASSERT_TRUE(client.wait(submission.job_id).done);
  client.bye();
  server.stop();

  ddl::scenario::CampaignConfig resume;
  resume.journal_dir = config.state_dir + "/jobs/" + submission.job_id;
  resume.resume = true;
  const auto outcome = ddl::scenario::Campaign(resume).run(specs);
  EXPECT_EQ(outcome.executed, 0u);
  EXPECT_EQ(outcome.resumed, specs.size());
  const auto reference = ScenarioRunner(1).run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(reference));
}

// ---- Closed jobs ----------------------------------------------------------

TEST(ServiceTest, ClosedJobsHoldOnlyAnIndexEntry) {
#ifdef DDL_SERVICE_SANITIZED
  GTEST_SKIP() << "sanitizer allocators do not feed mallinfo2";
#endif
  // A resident three-spec job holds several KiB of specs, rows and unit
  // plan; a closed one leaves an index entry of a few hundred bytes and
  // its directory.  So over 9N more jobs, after N that warm the server
  // up, the heap in use grows by well under 1 KiB per job.
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("closed_heap");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "uma"));
  ASSERT_TRUE(client.connect());

  const auto run = [&](std::size_t job) {
    const std::string name = "heap" + std::to_string(job);
    const std::vector<ScenarioSpec> specs = {
        quick_spec(name, 300 + job, 300),
        yield_spec(name + "/yield-a", 2 * job),
        yield_spec(name + "/yield-b", 2 * job + 1)};
    const auto submission = client.submit_specs(name, specs);
    EXPECT_TRUE(submission.accepted) << submission.error_code;
    auto outcome = client.wait(submission.job_id);
    EXPECT_TRUE(outcome.done) << outcome.error_code;
    return outcome;
  };
  const auto heap_in_use = [&] {
    EXPECT_TRUE(client.ping());  // The server has retired the last job.
    return static_cast<double>(mallinfo2().uordblks);
  };

  constexpr std::size_t kJobs = 20;
  const auto first = run(0);
  for (std::size_t job = 1; job < kJobs; ++job) {
    run(job);
  }
  const double before = heap_in_use();
  ScenarioClient::JobOutcome last;
  for (std::size_t job = kJobs; job < 10 * kJobs; ++job) {
    last = run(job);
  }
  const double per_job = (heap_in_use() - before) / (9 * kJobs);
  EXPECT_LT(per_job, 1024.0) << "bytes of heap per closed job";

  // Both ends replay byte-identically from their directories.
  const std::size_t executed = server.stats().scenarios_executed;
  const auto expect_replay = [&](std::size_t job,
                                 const ScenarioClient::JobOutcome& delivered) {
    const auto replayed = run(job);
    EXPECT_EQ(replayed.jsonl(), delivered.jsonl()) << "job " << job;
    EXPECT_EQ(replayed.health_jsonl(), delivered.health_jsonl());
    EXPECT_EQ(replayed.executed, delivered.executed);
    EXPECT_EQ(replayed.resumed, delivered.resumed);
  };
  expect_replay(0, first);
  expect_replay(10 * kJobs - 1, last);
  EXPECT_EQ(server.stats().scenarios_executed, executed);
  server.stop();
}

TEST(ServiceTest, AClosedJobIsItsDirectory) {
  // A resubmission reopens a closed job's directory.  With its last result
  // line cut, the job is not closed any more: it goes live as a restart
  // would place it, and only the missing scenario runs.
  const std::vector<ScenarioSpec> specs = {
      quick_spec("dir-a", 151), supervised_spec(), quick_spec("dir-b", 152)};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("closed_dir");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "vera"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("dir", specs);
  ASSERT_TRUE(submission.accepted);
  ASSERT_TRUE(client.wait(submission.job_id).done);
  ASSERT_EQ(server.stats().scenarios_executed, specs.size());

  const std::string journal = ddl::scenario::journal_path(
      config.state_dir + "/jobs/" + submission.job_id);
  std::string lines = ddl::scenario::read_file(journal);
  ASSERT_EQ(lines.back(), '\n');
  lines.pop_back();
  lines.resize(lines.rfind('\n') + 1);
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << lines;

  const auto reference = ScenarioRunner(1).run(specs);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("resubmission " + std::to_string(pass + 1));
    const auto again = client.submit_specs("dir", specs);
    ASSERT_TRUE(again.accepted);
    EXPECT_TRUE(again.resumed);
    const auto outcome = client.wait(again.job_id);
    ASSERT_TRUE(outcome.done)
        << outcome.error_code << ": " << outcome.error_detail;
    EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
    EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference));
    // The first resubmission ran the cut scenario; the second ran nothing.
    EXPECT_EQ(server.stats().scenarios_executed, specs.size() + 1);
    EXPECT_EQ(outcome.executed, 1u);
    EXPECT_EQ(outcome.resumed, specs.size() - 1);
  }

  // A directory that cannot be read is forgotten: the job runs afresh.
  fs::remove_all(config.state_dir + "/jobs/" + submission.job_id);
  const auto fresh = client.submit_specs("dir", specs);
  ASSERT_TRUE(fresh.accepted);
  EXPECT_FALSE(fresh.resumed);
  const auto rerun = client.wait(fresh.job_id);
  ASSERT_TRUE(rerun.done);
  EXPECT_EQ(rerun.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(server.stats().scenarios_executed, 2 * specs.size() + 1);
  server.stop();
}

// ---- Error paths ----------------------------------------------------------

TEST(ServiceTest, JournalDiskFaultIsAnErrorFrameAndTheJobFinishesInMemory) {
  const std::vector<ScenarioSpec> specs = {quick_spec("full", 141),
                                           supervised_spec()};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("disk_full");
  // Job identity as DESIGN.md defines it: client, tag and the content
  // fingerprint of the specs.  /dev/full accepts the journal's open and
  // fails every write with ENOSPC.
  const std::string id = ddl::core::fnv1a64_hex(
      "rita\nfull\n" + ddl::scenario::content_fingerprint_of(specs));
  const std::string job_dir = config.state_dir + "/jobs/" + id;
  fs::create_directories(job_dir);
  std::error_code ec;
  fs::create_symlink("/dev/full", ddl::scenario::journal_path(job_dir), ec);
  ASSERT_FALSE(ec) << ec.message();
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  {
    ScenarioClient client(client_for(server, "rita"));
    ASSERT_TRUE(client.connect());
    const auto submission = client.submit_specs("full", specs);
    ASSERT_TRUE(submission.accepted);
    ASSERT_EQ(submission.job_id, id);
    const auto outcome = client.wait(submission.job_id);
    EXPECT_EQ(outcome.error_code, "journal_io") << outcome.error_detail;
  }
  // Durability is dropped fail-closed; the job completes in memory.
  ASSERT_TRUE(server.wait_all_jobs_done(60'000));
  EXPECT_EQ(server.stats().journal_io_errors, 1u);

  ScenarioClient client(client_for(server, "rita"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("full", specs);
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(submission.resumed);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done) << outcome.error_code;
  const auto reference = ScenarioRunner(1).run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  server.stop();
}

TEST(ServiceTest, MalformedSubmissionsGetStructuredErrorFrames) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "mallory"));
  ASSERT_TRUE(client.connect());

  // Wrong-typed field inside a flattened spec.
  ddl::analysis::JsonObject bad_spec = ddl::service::make_frame("submit");
  bad_spec.set("job", "bad");
  bad_spec.set("spec_count", std::uint64_t{1});
  bad_spec.set("spec.0.name", "svc/x");
  bad_spec.set("spec.0.periods", "four-thousand");
  auto submission = client.submit_frame(bad_spec, "bad");
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.error_code, "invalid_spec");
  EXPECT_NE(submission.error_detail.find("spec.0.periods"),
            std::string::npos);

  // Unknown suite.
  submission = client.submit_suite("bad2", "no-such-suite");
  EXPECT_EQ(submission.error_code, "unknown_suite");

  // submit with neither suite nor specs.
  ddl::analysis::JsonObject empty = ddl::service::make_frame("submit");
  empty.set("job", "bad3");
  submission = client.submit_frame(empty, "bad3");
  EXPECT_EQ(submission.error_code, "invalid_submit");

  // A tiny frame whose list count no key backs: it must not turn into
  // thousands of default faults (a job that serializes for tens of seconds,
  // then overflows the sandbox frame limit).
  ddl::analysis::JsonObject forged = ddl::service::make_frame("submit");
  forged.set("job", "bad4");
  forged.set("spec_count", std::uint64_t{1});
  forged.set("spec.0.name", "svc/forged");
  forged.set("spec.0.family", "svc");
  forged.set("spec.0.faults.count", "30000");
  forged.set("spec.0.periods", "2500");
  EXPECT_LT(forged.to_json_line().size(), 200u);
  submission = client.submit_frame(forged, "bad4");
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.error_code, "invalid_spec");
  EXPECT_NE(submission.error_detail.find("spec.0.faults.count"),
            std::string::npos)
      << submission.error_detail;

  // A payload that is not JSON at all.
  ASSERT_TRUE(client.send_payload("certainly not json"));
  auto frame = client.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "error");
  EXPECT_EQ(frame->at("code"), "bad_frame");

  // An unknown frame type, and the submit kinds protocol v3 removed: a
  // chaos campaign and a replay bundle travel as plain spec lists.
  for (const std::string type :
       {"launch_missiles", "submit_chaos", "submit_replay"}) {
    ddl::analysis::JsonObject unknown = ddl::service::make_frame(type);
    unknown.set("job", "bad-" + type);
    unknown.set("spec.name", "svc/storm-base");
    ASSERT_TRUE(client.send_payload(unknown.to_json_line()));
    frame = client.next_frame();
    ASSERT_TRUE(frame.has_value()) << type;
    EXPECT_EQ(frame->at("code"), "unknown_frame") << type;
  }

  // None of it cost the connection.
  EXPECT_TRUE(client.ping());
  EXPECT_GE(server.stats().error_frames, 4u);
  server.stop();
}

TEST(ServiceTest, ProtocolVersionMismatchIsRejectedExplicitly) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());

  ClientConfig config = client_for(server, "old-client");
  ScenarioClient client(config);
  // Drive the handshake by hand with a wrong version.
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;  // Good handshake first.
  ddl::analysis::JsonObject stale = ddl::service::make_frame("hello");
  stale.set("protocol_version", 999);
  stale.set("client", "old-client");
  ASSERT_TRUE(client.send_payload(stale.to_json_line()));
  const auto reply = client.next_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at("frame"), "error");
  EXPECT_EQ(reply->at("code"), "protocol_mismatch");
  server.stop();
}

TEST(ServiceTest, HeartbeatsFlowOnAnIdleConnection) {
  ServiceConfig config = base_config();
  config.heartbeat_ms = 50;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "idle"));
  ASSERT_TRUE(client.connect());
  const auto frame = client.next_frame();  // Blocks until the beat.
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "heartbeat");
  server.stop();
}

// ---- Cancel ---------------------------------------------------------------

TEST(ServiceTest, CancelTearsDownCooperativelyAndSurvivesRestart) {
  const std::string state_dir = fresh_dir("cancel");
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(quick_spec("cx" + std::to_string(i), 90 + i, 20'000));
  }

  {
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    config.workers = 1;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "grace"));
    ASSERT_TRUE(client.connect());
    const auto submission = client.submit_specs("doomed", specs);
    ASSERT_TRUE(submission.accepted);

    // Cancel once real work is in flight: the claimed scenario must
    // finish and journal (cooperative), the queued ones must never run.
    ASSERT_TRUE(eventually(
        [&] { return server.stats().scenarios_executed >= 1; }));
    ASSERT_TRUE(client.cancel("doomed"));
    const auto outcome = client.wait(submission.job_id);
    EXPECT_TRUE(outcome.cancelled)
        << outcome.error_code << ": " << outcome.error_detail;
    EXPECT_FALSE(outcome.done);
    EXPECT_EQ(server.stats().jobs_cancelled, 1u);
    const std::size_t executed = server.stats().scenarios_executed;
    EXPECT_GE(executed, 1u);
    EXPECT_LT(executed, specs.size());

    // Cancelling again is idempotent: the terminal frame, not an error.
    ASSERT_TRUE(client.cancel("doomed"));
    const auto again = client.next_frame();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->at("frame"), "cancelled");
    client.bye();
    server.stop();
  }

  // Restart: the cancelled job is recovered for replay but scheduled
  // never -- a restart reschedules nothing that was cancelled.
  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  config.workers = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, 1u);
  ASSERT_TRUE(server.wait_all_jobs_done(5'000));  // Nothing is active.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().scenarios_executed, 0u);

  // Resubmission attaches, replays the committed rows, and reports the
  // job's terminal state as cancelled rather than silently rerunning it.
  ScenarioClient client(client_for(server, "grace"));
  ASSERT_TRUE(client.connect());
  const auto resubmission = client.submit_specs("doomed", specs);
  ASSERT_TRUE(resubmission.accepted);
  EXPECT_TRUE(resubmission.resumed);
  const auto replayed = client.wait(resubmission.job_id);
  EXPECT_TRUE(replayed.cancelled);
  EXPECT_FALSE(replayed.done);
  EXPECT_EQ(server.stats().scenarios_executed, 0u);
  server.stop();
}

TEST(ServiceTest, CancellingAnUnknownOrFinishedJobIsAStructuredError) {
  // Without a state dir the finished job stays resident; with one, only
  // its index entry does.  Both answer alike.
  for (const std::string& state_dir :
       {std::string(), fresh_dir("cancel_finished")}) {
    SCOPED_TRACE("state_dir '" + state_dir + "'");
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "judy"));
    ASSERT_TRUE(client.connect());

    ASSERT_TRUE(client.cancel("never-submitted"));
    auto frame = client.next_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");
    EXPECT_EQ(frame->at("code"), "unknown_job");

    const auto submission =
        client.submit_specs("quick", {quick_spec("cq", 99)});
    ASSERT_TRUE(submission.accepted);
    ASSERT_TRUE(client.wait(submission.job_id).done);
    ASSERT_TRUE(client.cancel("quick"));
    frame = client.next_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");
    EXPECT_EQ(frame->at("code"), "already_done");

    EXPECT_TRUE(client.ping());  // Neither error cost the connection.
    server.stop();
  }
}

TEST(ServiceTest, CancelFromASecondSessionEndsTheSubmittersWaitToo) {
  // The documented `--cancel` use: a second process cancels a job while
  // the submitter waits on it.  Both sessions get `cancelled`.  The
  // submitter's short silence budget fails the test instead of hanging it
  // if the terminal frame reaches only the cancelling session.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(quick_spec("two" + std::to_string(i), 60 + i, 20'000));
  }
  ServiceConfig config = base_config();
  config.workers = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ClientConfig submitter_config = client_for(server, "alice");
  submitter_config.recv_timeout_ms = 5'000;
  ScenarioClient submitter(submitter_config);
  ASSERT_TRUE(submitter.connect());
  const auto submission = submitter.submit_specs("long", specs);
  ASSERT_TRUE(submission.accepted);

  ScenarioClient canceller(client_for(server, "alice"));
  ASSERT_TRUE(canceller.connect());
  ASSERT_TRUE(canceller.cancel("long"));
  const auto cancelled = canceller.wait(submission.job_id);
  EXPECT_TRUE(cancelled.cancelled)
      << cancelled.error_code << ": " << cancelled.error_detail;
  const auto waited = submitter.wait(submission.job_id);
  EXPECT_TRUE(waited.cancelled)
      << waited.error_code << ": " << waited.error_detail;
  EXPECT_FALSE(waited.done);
  EXPECT_EQ(server.stats().jobs_cancelled, 1u);
  EXPECT_LT(server.stats().scenarios_executed, specs.size());
  canceller.bye();
  submitter.bye();
  server.stop();
}

TEST(ServiceTest, ResubmissionFromASecondSessionKeepsTheFirstAttached) {
  // A second session resubmits a live job: it gets the replay and the live
  // frames, and the first session still streams every row to job_done.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(quick_spec("both" + std::to_string(i), 50 + i, 5'000));
  }
  ServiceConfig config = base_config();
  config.workers = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ClientConfig first_config = client_for(server, "alice");
  first_config.recv_timeout_ms = 5'000;
  ScenarioClient first(first_config);
  ASSERT_TRUE(first.connect());
  const auto submission = first.submit_specs("shared", specs);
  ASSERT_TRUE(submission.accepted);

  ScenarioClient second(client_for(server, "alice"));
  ASSERT_TRUE(second.connect());
  const auto resubmission = second.submit_specs("shared", specs);
  ASSERT_TRUE(resubmission.accepted);
  EXPECT_TRUE(resubmission.resumed);
  EXPECT_EQ(resubmission.job_id, submission.job_id);
  EXPECT_LT(server.stats().scenarios_executed, specs.size());  // Live.

  const auto via_second = second.wait(submission.job_id);
  ASSERT_TRUE(via_second.done)
      << via_second.error_code << ": " << via_second.error_detail;
  const auto via_first = first.wait(submission.job_id);
  ASSERT_TRUE(via_first.done)
      << via_first.error_code << ": " << via_first.error_detail;
  const std::string expected =
      ScenarioRunner::jsonl(ScenarioRunner(1).run(specs));
  EXPECT_EQ(via_first.jsonl(), expected);
  EXPECT_EQ(via_second.jsonl(), expected);
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  second.bye();
  first.bye();
  server.stop();
}

TEST(ServiceTest, ResubmittingOnTheSameSessionFilesEachHealthLineOnce) {
  // The session already holds the first unit's frames when it resubmits
  // the live job; the replay sends them again, and each health line must
  // still be filed once.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    ScenarioSpec spec = supervised_spec();
    spec.name += "-" + std::to_string(i);
    spec.seed += i;
    specs.push_back(spec);
  }
  ServiceConfig config = base_config();
  config.workers = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "wendy"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("twice", specs);
  ASSERT_TRUE(submission.accepted);
  ASSERT_TRUE(
      eventually([&] { return server.stats().scenarios_executed >= 1; }));
  ASSERT_TRUE(client.ping());  // Files the first unit's frames.
  const auto resubmission = client.submit_specs("twice", specs);
  ASSERT_TRUE(resubmission.accepted);
  EXPECT_TRUE(resubmission.resumed);
  EXPECT_LT(server.stats().scenarios_executed, specs.size());  // Live.

  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  const auto reference = ScenarioRunner(1).run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference));
  client.bye();
  server.stop();
}

// ---- Sandbox crash containment --------------------------------------------

TEST(ServiceTest, WorkerCrashBecomesAStructuredRowAndTheDaemonSurvives) {
  ScenarioSpec crash = quick_spec("crash", 77);
  crash.debug_crash = "segv";
  const std::vector<ScenarioSpec> specs = {quick_spec("pre", 71), crash,
                                           quick_spec("post", 72)};

  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "ivan"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("crashy", specs);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;

  // The job completes: the crashing scenario is a structured error row,
  // not a dead daemon or a lost job.
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_NE(outcome.jsonl().find("\"error_kind\": \"crash\""),
            std::string::npos);
  EXPECT_NE(outcome.jsonl().find("sandbox worker killed by SIGSEGV"),
            std::string::npos);

  const auto stats = server.stats();
  EXPECT_EQ(stats.sandbox_crashes, 1u);
  EXPECT_GE(stats.workers_respawned, 1u);

  // The daemon still serves: a follow-up job runs clean on the respawned
  // worker.
  const auto after = client.submit_specs("after", {quick_spec("clean", 73)});
  ASSERT_TRUE(after.accepted);
  EXPECT_TRUE(client.wait(after.job_id).done);
  client.bye();
  server.stop();
}

TEST(ServiceTest, CancelKillsTheInFlightSandboxWorker) {
  // One deliberately slow scenario (~tens of seconds cooperatively): a
  // cancel must kill the sandbox worker's process group and tear the job
  // down in far less than that, with no row executed or journaled.
  const std::vector<ScenarioSpec> specs = {quick_spec("slow", 81, 2'000'000)};
  ServiceConfig config = base_config();
  config.workers = 1;
  config.record_dispatch_log = true;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "kate"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("slow", specs);
  ASSERT_TRUE(submission.accepted);

  // Wait until the scenario is claimed by the worker (dispatch-logged),
  // then cancel while it is genuinely in flight.
  ASSERT_TRUE(eventually([&] { return !server.dispatch_log().empty(); }));
  ASSERT_TRUE(client.cancel("slow"));
  const auto outcome = client.wait(submission.job_id);
  EXPECT_TRUE(outcome.cancelled)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_FALSE(outcome.done);
  // Killed, not cooperatively finished: nothing completed.
  EXPECT_EQ(server.stats().scenarios_executed, 0u);
  EXPECT_EQ(server.stats().jobs_cancelled, 1u);

  // The worker respawns for the next job.
  const auto after = client.submit_specs("after", {quick_spec("next", 82)});
  ASSERT_TRUE(after.accepted);
  EXPECT_TRUE(client.wait(after.job_id).done);
  client.bye();
  server.stop();
}

// ---- Replay bundles -------------------------------------------------------

TEST(ServiceTest, ReplayBundleJobsReportReproduction) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ResilientClientConfig resilient;
  resilient.base = client_for(server, "heidi");
  ResilientScenarioClient client(resilient);

  ddl::scenario::ReplayBundle bundle;
  bundle.spec = quick_spec("replayed", 97);
  bundle.expected_failure_reason = "";  // Expecting a pass...
  auto outcome = client.run_replay("repro-pass", bundle);
  ASSERT_TRUE(outcome.done) << outcome.error_code << ": "
                            << outcome.error_detail;
  EXPECT_EQ(outcome.scenarios, 1u);
  EXPECT_TRUE(outcome.reproduced);  // ...and the pass reproduced.

  // The same spec expecting a failure it does not produce: the job runs
  // to done, but the bundle's verdict did not reproduce.
  bundle.expected_failure_reason = "no_lock";
  outcome = client.run_replay("repro-miss", bundle);
  ASSERT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.reproduced);

  // Two bundles of one spec under one tag are one job: the second
  // replays the first's row, and judges it by its own expectation.
  outcome = client.run_replay("repro", bundle);
  ASSERT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.reproduced);
  bundle.expected_failure_reason = "";
  outcome = client.run_replay("repro", bundle);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.executed, 1u);  // The first delivery's count.
  EXPECT_TRUE(outcome.reproduced);
  EXPECT_EQ(server.stats().jobs_attached, 1u);
  EXPECT_EQ(server.stats().scenarios_executed, 3u);
  server.stop();
}

TEST(ServiceTest, ChaosJobsStreamTheRunnersBytesAndReplay) {
  // A chaos campaign the client expanded: the streams match the runner
  // over the same expansion, and a resubmission replays.  The base is
  // supervised, so the storms' faults reach the health stream.
  ddl::scenario::ChaosCampaignSpec chaos;
  chaos.base = quick_spec("storm-base", 2026);
  chaos.base.tolerance_v = 0.06;
  chaos.base.load = LoadSpec::constant(0.5);
  chaos.base.supervision.enabled = true;
  chaos.storms = 6;
  chaos.seed = 99;
  const std::vector<ScenarioSpec> storms = ddl::scenario::expand_chaos(chaos);
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("chaos_job");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ResilientClientConfig resilient;
  resilient.base = client_for(server, "mallory");
  ResilientScenarioClient client(resilient);

  const auto outcome = client.run_specs("storms", storms);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.scenarios, chaos.storms);
  const auto results = ScenarioRunner(1).run(storms);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(results));
  EXPECT_FALSE(outcome.health_jsonl().empty());

  const auto replayed = client.run_specs("storms", storms);
  ASSERT_TRUE(replayed.done)
      << replayed.error_code << ": " << replayed.error_detail;
  EXPECT_EQ(replayed.jsonl(), outcome.jsonl());
  EXPECT_EQ(replayed.health_jsonl(), outcome.health_jsonl());
  EXPECT_EQ(server.stats().scenarios_executed, chaos.storms);
  server.stop();
}

// ---- Large submits --------------------------------------------------------

TEST(ServiceTest, ASpecListSubmitCostsTimeLinearInItsSpecs) {
  // Yield specs whose last name repeats the first: the server reads the
  // whole list, then refuses it, so nothing runs and the time is the
  // submit's own -- the client writing the frame, the server reading it.
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "bulk"));
  ASSERT_TRUE(client.connect());
  const auto us_per_spec = [&](std::size_t count, int repeats) {
    std::vector<ScenarioSpec> specs;
    for (std::size_t i = 0; i < count; ++i) {
      specs.push_back(yield_spec("bulk/" + std::to_string(i), i));
    }
    specs.back().name = specs.front().name;
    double best = 0.0;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      const auto submission = client.submit_specs("bulk", specs);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      EXPECT_EQ(submission.error_code, "duplicate_names") << count;
      best = repeat == 0 ? us : std::min(best, us);
    }
    return best / static_cast<double>(count);
  };
  const double small = us_per_spec(100, 5);
  const double large = us_per_spec(2000, 3);
  EXPECT_LT(large, 4.0 * small)
      << "2000 specs: " << large << " us/spec, 100 specs: " << small
      << " us/spec";
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  server.stop();
}

TEST(ServiceTest, AnOversizedSubmitIsAFinalErrorNotATransportFailure) {
  // One spec whose name alone passes the frame cap: nothing is sent, and
  // no reconnect can make the frame fit.
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioSpec huge =
      quick_spec(std::string(ddl::service::kMaxFramePayload, 'x'), 3);
  ScenarioClient plain(client_for(server, "bulk"));
  ASSERT_TRUE(plain.connect());
  const auto submission = plain.submit_specs("huge", {huge});
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.error_code, "frame_too_large");
  EXPECT_TRUE(plain.ping());  // The connection is untouched.

  ResilientClientConfig resilient;
  resilient.base = client_for(server, "bulk");
  resilient.max_attempts = 3;
  ResilientScenarioClient client(resilient);
  const auto outcome = client.run_specs("huge", {huge});
  EXPECT_FALSE(outcome.done);
  EXPECT_EQ(outcome.error_code, "frame_too_large") << outcome.error_detail;
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  server.stop();
}

TEST(ServiceTest, AResultIndexedPastTheJobCapIsABadFrame) {
  // A peer that answers the handshake and the submit, then streams a row
  // at index 2^40: the client refuses the frame instead of sizing its row
  // table by it, and closes.
  int port = 0;
  std::string error;
  const int listener =
      ddl::service::net::listen_loopback(0, "bind", port, error);
  ASSERT_GE(listener, 0) << error;
  std::thread peer([listener] {
    pollfd ready{listener, POLLIN, 0};
    if (::poll(&ready, 1, 30'000) != 1) {
      return;
    }
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    const auto send = [fd](const ddl::analysis::JsonObject& frame) {
      const std::string wire = ddl::service::encode_frame(frame);
      ddl::service::net::send_all(fd, wire.data(), wire.size());
    };
    FrameReader reader;
    char chunk[4096];
    for (bool submitted = false; !submitted;) {
      while (const auto payload = reader.next()) {
        const auto fields = ddl::service::parse_frame_payload(*payload);
        if (!fields) {
          continue;
        }
        const std::string& type = fields->at("frame");
        if (type == "hello") {
          send(ddl::service::make_frame("hello"));
        } else if (type == "submit") {
          ddl::analysis::JsonObject accepted =
              ddl::service::make_frame("accepted");
          accepted.set("job", fields->at("job"));
          accepted.set("job_id", "forged");
          accepted.set("scenarios", std::uint64_t{1});
          send(accepted);
          ddl::analysis::JsonObject result = ddl::service::make_frame("result");
          result.set("job_id", "forged");
          result.set("index", std::uint64_t{1} << 40);
          result.set("row", "{}");
          send(result);
          submitted = true;
        }
      }
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        break;
      }
      reader.feed(chunk, static_cast<std::size_t>(got));
    }
    drain_to_eof(fd);  // Until the client closes.
    ::close(fd);
  });

  ClientConfig config;
  config.tcp_port = port;
  config.name = "victim";
  config.recv_timeout_ms = 30'000;
  ScenarioClient client(config);
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_suite("huge_index", "smoke");
  ASSERT_TRUE(submission.accepted);
  const auto outcome = client.wait(submission.job_id);
  EXPECT_FALSE(outcome.done);
  EXPECT_EQ(outcome.error_code, "bad_frame") << outcome.error_detail;
  EXPECT_TRUE(outcome.result_lines.empty());
  peer.join();
  ::close(listener);
}

// ---- Liveness timeouts and adversarial budgets ----------------------------

TEST(ServiceTest, DeadPeerTimeoutReapsSilentSessions) {
  ServiceConfig config = base_config();
  config.dead_peer_timeout_ms = 100;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  // Never says hello, never pings: reaped with a structured goodbye.
  ASSERT_TRUE(eventually(
      [&] { return server.stats().sessions_timed_out >= 1; }));
  const std::string bytes = drain_to_eof(fd);
  EXPECT_NE(bytes.find("dead_peer"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, ClientHeartbeatsKeepALongWaitAlive) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.dead_peer_timeout_ms = 300;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ClientConfig client_config = client_for(server, "ivan");
  client_config.heartbeat_ms = 50;
  ScenarioClient client(client_config);
  ASSERT_TRUE(client.connect());
  // ~800 ms of worker time on the one worker: far past the dead-peer
  // window, so only the client's pings keep the blocked wait() alive.
  const std::vector<ScenarioSpec> specs = {quick_spec("hb1", 55, 20'000),
                                           quick_spec("hb2", 56, 20'000)};
  const auto submission = client.submit_specs("patient", specs);
  ASSERT_TRUE(submission.accepted);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(server.stats().sessions_timed_out, 0u);
  server.stop();
}

TEST(ServiceTest, PartialFrameTimeoutDefeatsSlowloris) {
  ServiceConfig config = base_config();
  config.partial_frame_timeout_ms = 100;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "slow"));
  // Three bytes of a header, then silence: the classic slowloris hold.
  const char partial[3] = {0, 0, 0};
  ASSERT_TRUE(ddl::service::net::send_all(fd, partial, sizeof(partial)));
  ASSERT_TRUE(eventually(
      [&] { return server.stats().sessions_timed_out >= 1; }));
  const std::string bytes = drain_to_eof(fd);
  EXPECT_NE(bytes.find("partial_frame_timeout"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, AbortedMidSubmitCreatesNoJob) {
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("abort");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "killed"));
  // Half a submit frame, then an abortive close (RST) -- the wire-level
  // shape of a client killed -9 mid-write.
  ddl::analysis::JsonObject submit = ddl::service::make_frame("submit");
  submit.set("job", "never-lands");
  submit.set("spec_count", std::uint64_t{1});
  submit.set("spec.0.name", "svc/cut/short");
  const std::string wire =
      ddl::service::encode_frame(submit.to_json_line());
  ASSERT_TRUE(
      ddl::service::net::send_all(fd, wire.data(), wire.size() / 2));
  struct linger hard_close = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);

  // The half frame dies with the session: no job, no crash, full service
  // for the next client.
  ASSERT_TRUE(
      eventually([&] { return server.stats().sessions_closed >= 1; }));
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  ScenarioClient client(client_for(server, "after"));
  ASSERT_TRUE(client.connect());
  const auto submission =
      client.submit_specs("fine", {quick_spec("ok", 58)});
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(client.wait(submission.job_id).done);
  EXPECT_EQ(server.stats().jobs_accepted, 1u);
  server.stop();
}

TEST(ServiceTest, FrameFloodIsServedUnderPerTickBudgets) {
  ServiceConfig config = base_config();
  config.max_frames_per_tick = 2;  // Tiny budget: force deferred drains.
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "flood"));
  ASSERT_TRUE(client.connect());

  // Blast a burst far over the per-tick budget; fairness slicing may
  // defer frames across ticks but must never drop or reorder them.
  constexpr int kPings = 32;
  for (int i = 0; i < kPings; ++i) {
    ddl::analysis::JsonObject ping = ddl::service::make_frame("ping");
    ping.set("nonce", "n" + std::to_string(i));
    ASSERT_TRUE(client.send_payload(ping.to_json_line()));
  }
  int pongs = 0;
  while (pongs < kPings) {
    const auto frame = client.next_frame();
    ASSERT_TRUE(frame.has_value()) << "after " << pongs << " pongs";
    if (frame->at("frame") == "pong") {
      pongs++;
    }
  }
  EXPECT_EQ(pongs, kPings);
  server.stop();
}

// ---- Chaos storms ---------------------------------------------------------

// The acceptance contract of the whole harness: seeded storms through the
// chaos proxy -- resets, truncation, fuzzing, trickle, stalls -- and the
// resilient client still converges to a campaign JSONL byte-identical to
// a direct one-shot runner invocation.  (CI runs 20+ seeds against the
// real daemon through ddl_chaos_proxy; this in-process version keeps a
// handful in every ctest run.)
TEST(ChaosStormTest, SeededStormsConvergeByteIdenticalToTheRunner) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("storm-a", 91), supervised_spec(), quick_spec("storm-b", 92)};
  const auto golden_results = ScenarioRunner(2).run(specs);
  const std::string golden = ScenarioRunner::jsonl(golden_results);

  std::size_t faults_total = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ServiceConfig config = base_config();
    config.state_dir = fresh_dir("storm" + std::to_string(seed));
    config.partial_frame_timeout_ms = 1'000;  // Bound fuzz-extended reads.
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());

    ChaosProxyConfig proxy_config;
    proxy_config.upstream_port = server.tcp_port();
    proxy_config.seed = seed;
    // Hot enough that most storms meet several faults, cool enough that
    // an attempt still has even odds: a full submit + stream round trip
    // crosses ~15 chunk-sized fault decision points, so the per-chunk
    // fault probability compounds fast.
    proxy_config.p_reset_permille = 10;
    proxy_config.p_truncate_permille = 10;
    proxy_config.p_fuzz_permille = 15;
    proxy_config.p_duplicate_permille = 10;
    proxy_config.p_trickle_permille = 5;
    proxy_config.p_stall_permille = 10;
    proxy_config.stall_ms = 40;
    proxy_config.chunk_bytes = 1024;  // More fault decision points.
    ChaosProxy proxy(proxy_config);
    std::string error;
    ASSERT_TRUE(proxy.start(&error)) << error;

    ResilientClientConfig resilient;
    resilient.base.tcp_port = proxy.listen_port();
    resilient.base.name = "stormrider";
    resilient.base.recv_timeout_ms = 2'000;  // Storms wedge; budgets free.
    resilient.base.heartbeat_ms = 200;
    resilient.max_attempts = 64;
    resilient.initial_backoff_ms = 5;
    resilient.max_backoff_ms = 50;
    ResilientScenarioClient client(resilient);

    const auto outcome = client.run_specs("storm-job", specs);
    ASSERT_TRUE(outcome.done)
        << outcome.error_code << ": " << outcome.error_detail
        << " (reconnects=" << client.reconnects() << ")";
    EXPECT_EQ(outcome.jsonl(), golden);
    EXPECT_EQ(outcome.health_jsonl(),
              ScenarioRunner::health_jsonl(golden_results));

    faults_total += proxy.stats().faults();
    proxy.stop();
    server.stop();
  }
  // Five seeded storms at these rates inject faults with near certainty;
  // zero would mean the proxy stopped attacking, not that we got lucky.
  EXPECT_GT(faults_total, 0u);
}

TEST(ChaosStormTest, CleanProxyIsAnInvisiblePassthrough) {
  const std::vector<ScenarioSpec> specs = {quick_spec("clean", 96)};
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.tcp_port();
  proxy_config.p_reset_permille = 0;
  proxy_config.p_truncate_permille = 0;
  proxy_config.p_fuzz_permille = 0;
  proxy_config.p_duplicate_permille = 0;
  proxy_config.p_trickle_permille = 0;
  proxy_config.p_stall_permille = 0;
  proxy_config.p_split_permille = 0;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.start());

  ResilientClientConfig resilient;
  resilient.base.tcp_port = proxy.listen_port();
  resilient.base.name = "calm";
  resilient.base.recv_timeout_ms = 30'000;
  ResilientScenarioClient client(resilient);
  const auto outcome = client.run_specs("calm-job", specs);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(proxy.stats().faults(), 0u);
  EXPECT_GT(proxy.stats().forwarded_bytes, 0u);
  proxy.stop();
  server.stop();
}

}  // namespace
