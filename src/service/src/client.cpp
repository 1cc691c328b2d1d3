#include "ddl/service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "ddl/scenario/cli.h"
#include "ddl/scenario/runner.h"
#include "ddl/service/net_util.h"

namespace ddl::service {

namespace {

std::uint64_t u64_field(const std::map<std::string, std::string>& fields,
                        const std::string& key) {
  std::uint64_t value = 0;
  const auto it = fields.find(key);
  if (it != fields.end()) {
    scenario::parse_u64(it->second, value);
  }
  return value;
}

std::string text_field(const std::map<std::string, std::string>& fields,
                       const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

/// Files one stream frame of a job into its outcome.  Health frames come
/// in the order units complete; each goes to its place by (index, seq), so
/// the health stream reads in index order, as the runner writes it.  A
/// frame filed again (a replay to a session that already holds the row)
/// replaces its line, as a result frame does.  Returns false, filing
/// nothing, for a `result` or `health` frame indexed past the largest job:
/// the peer is not a server that ran one.
bool file_frame(ScenarioClient::JobOutcome& outcome,
                const std::map<std::string, std::string>& fields) {
  const std::string type = text_field(fields, "frame");
  if ((type == "result" || type == "health") &&
      u64_field(fields, "index") >= kMaxJobSpecs) {
    return false;
  }
  if (type == "result") {
    const std::size_t index =
        static_cast<std::size_t>(u64_field(fields, "index"));
    if (outcome.result_lines.size() <= index) {
      outcome.result_lines.resize(index + 1);
    }
    outcome.result_lines[index] = text_field(fields, "row");
  } else if (type == "health") {
    const std::pair<std::uint64_t, std::uint64_t> key{
        u64_field(fields, "index"), u64_field(fields, "seq")};
    auto& keys = outcome.health_keys;
    const auto at = std::lower_bound(keys.begin(), keys.end(), key);
    const auto line = outcome.health_lines.begin() + (at - keys.begin());
    if (at != keys.end() && *at == key) {
      *line = text_field(fields, "row");
    } else {
      outcome.health_lines.insert(line, text_field(fields, "row"));
      keys.insert(at, key);
    }
  } else if (type == "job_done") {
    outcome.scenarios =
        static_cast<std::size_t>(u64_field(fields, "scenarios"));
    outcome.passed = static_cast<std::size_t>(u64_field(fields, "passed"));
    outcome.failed = static_cast<std::size_t>(u64_field(fields, "failed"));
    outcome.executed =
        static_cast<std::size_t>(u64_field(fields, "executed"));
    outcome.resumed = static_cast<std::size_t>(u64_field(fields, "resumed"));
    outcome.done = true;
  } else if (type == "cancelled") {
    outcome.cancelled = true;
  }
  return true;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    if (!line.empty()) {
      out += line;
      out += "\n";
    }
  }
  return out;
}

}  // namespace

ScenarioClient::ScenarioClient(ClientConfig config)
    : config_(std::move(config)) {}

ScenarioClient::~ScenarioClient() { close(); }

bool ScenarioClient::connect(std::string* error) {
  auto fail = [&](const std::string& detail) {
    close();
    if (error != nullptr) {
      *error = detail;
    }
    return false;
  };
  close();
  reader_ = FrameReader();
  inbox_.clear();  // Stale stream state; a resubmit replays everything.

  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      return fail("unix socket path too long");
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return fail("socket(AF_UNIX) failed: " +
                  std::string(std::strerror(errno)));
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("connect('" + config_.unix_path +
                  "') failed: " + std::string(std::strerror(errno)));
    }
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return fail("socket() failed: " + std::string(std::strerror(errno)));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      return fail("bad host '" + config_.host + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("connect(" + config_.host + ":" +
                  std::to_string(config_.tcp_port) +
                  ") failed: " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  analysis::JsonObject hello = make_frame("hello");
  hello.set("protocol_version", kProtocolVersion);
  hello.set("client", config_.name);
  if (!send_payload(hello.to_json_line())) {
    return fail("hello send failed");
  }
  const auto reply = next_frame();
  if (!reply) {
    return fail("connection closed during handshake");
  }
  if (text_field(*reply, "frame") != "hello") {
    return fail("handshake rejected: " + text_field(*reply, "detail"));
  }
  return true;
}

void ScenarioClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ScenarioClient::bye() {
  if (fd_ >= 0) {
    send_payload(make_frame("bye").to_json_line());
  }
  close();
}

bool ScenarioClient::send_payload(const std::string& payload) {
  if (fd_ < 0) {
    return false;
  }
  std::string framed;
  try {
    framed = encode_frame(payload);
  } catch (const std::exception&) {
    return false;
  }
  if (!net::send_all(fd_, framed.data(), framed.size())) {
    close();
    return false;
  }
  return true;
}

std::optional<std::map<std::string, std::string>> ScenarioClient::next_frame() {
  using MonoClock = std::chrono::steady_clock;
  auto start = MonoClock::now();  // Reset whenever bytes arrive.
  auto last_ping = start;
  for (;;) {
    if (auto payload = reader_.next()) {
      auto fields = parse_frame_payload(*payload);
      if (fields) {
        return fields;
      }
      continue;  // Unparseable payload: skip it, keep the stream.
    }
    if (reader_.failed() || fd_ < 0) {
      close();
      return std::nullopt;
    }

    // Block in poll(), not recv(): the slice lets this loop send
    // heartbeat pings while waiting (the server's dead-peer pairing) and
    // enforce recv_timeout_ms as a *total-silence* budget rather than a
    // per-recv one.
    const auto now = MonoClock::now();
    long slice_ms = -1;  // Infinite when neither budget is configured.
    if (config_.recv_timeout_ms > 0) {
      const long left =
          static_cast<long>(config_.recv_timeout_ms) -
          static_cast<long>(
              std::chrono::duration_cast<std::chrono::milliseconds>(now - start)
                  .count());
      if (left <= 0) {
        close();  // Total silence past the budget: the peer is dead.
        return std::nullopt;
      }
      slice_ms = left;
    }
    if (config_.heartbeat_ms > 0) {
      const long until_ping =
          static_cast<long>(config_.heartbeat_ms) -
          static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                now - last_ping)
                                .count());
      if (until_ping <= 0) {
        analysis::JsonObject ping_frame = make_frame("ping");
        ping_frame.set("nonce", "heartbeat");
        if (!send_payload(ping_frame.to_json_line())) {
          return std::nullopt;
        }
        last_ping = MonoClock::now();
        continue;
      }
      slice_ms = slice_ms < 0 ? until_ping
                              : std::min(slice_ms, until_ping);
    }

    pollfd pfd{fd_, POLLIN, 0};
    const int ready = net::retry_eintr(
        [&] { return ::poll(&pfd, 1, static_cast<int>(slice_ms)); });
    if (ready < 0) {
      close();
      return std::nullopt;
    }
    if (ready == 0) {
      continue;  // Slice expired: re-check the budgets above.
    }
    char chunk[4096];
    const ssize_t got = net::retry_eintr(
        [&] { return ::recv(fd_, chunk, sizeof(chunk), 0); });
    if (got > 0) {
      reader_.feed(chunk, static_cast<std::size_t>(got));
      start = MonoClock::now();  // Bytes arrived: the peer is alive.
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;  // Spurious wakeup.
    }
    close();  // EOF or hard error.
    return std::nullopt;
  }
}

ScenarioClient::Submission ScenarioClient::submit_suite(
    const std::string& job_tag, const std::string& suite,
    const std::string& filter) {
  analysis::JsonObject frame = make_frame("submit");
  frame.set("job", job_tag);
  frame.set("suite", suite);
  if (!filter.empty()) {
    frame.set("filter", filter);
  }
  return submit_frame(frame, job_tag);
}

ScenarioClient::Submission ScenarioClient::submit_specs(
    const std::string& job_tag,
    const std::vector<scenario::ScenarioSpec>& specs) {
  analysis::JsonObject frame = make_frame("submit");
  frame.set("job", job_tag);
  frame.set("spec_count", static_cast<std::uint64_t>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    scenario::spec_to_json_into(frame, specs[i],
                                "spec." + std::to_string(i) + ".");
  }
  return submit_frame(frame, job_tag);
}

bool ScenarioClient::cancel(const std::string& job_tag) {
  analysis::JsonObject frame = make_frame("cancel");
  frame.set("job", job_tag);
  return send_payload(frame.to_json_line());
}

ScenarioClient::Submission ScenarioClient::submit_frame(
    const analysis::JsonObject& frame, const std::string& job_tag) {
  Submission submission;
  const std::string payload = frame.to_json_line();
  if (payload.size() > kMaxFramePayload) {
    submission.error_code = "frame_too_large";
    submission.error_detail =
        "submit of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame cap";
    return submission;
  }
  if (!send_payload(payload)) {
    submission.error_code = "disconnected";
    submission.error_detail = "submit send failed";
    return submission;
  }
  return pump_for_submit_reply(job_tag);
}

ScenarioClient::Submission ScenarioClient::pump_for_submit_reply(
    const std::string& job_tag) {
  Submission submission;
  for (;;) {
    const auto fields = next_frame();
    if (!fields) {
      submission.error_code = "disconnected";
      submission.error_detail = "connection closed before the submit reply";
      return submission;
    }
    const std::string type = text_field(*fields, "frame");
    if (type == "accepted" && text_field(*fields, "job") == job_tag) {
      submission.accepted = true;
      submission.resumed = text_field(*fields, "resumed") == "true";
      submission.job_id = text_field(*fields, "job_id");
      submission.scenarios =
          static_cast<std::size_t>(u64_field(*fields, "scenarios"));
      return submission;
    }
    if (type == "backpressure" && text_field(*fields, "job") == job_tag) {
      submission.backpressure = true;
      submission.retry_ms = u64_field(*fields, "retry_ms");
      submission.error_detail = text_field(*fields, "reason");
      return submission;
    }
    if (type == "error") {
      submission.error_code = text_field(*fields, "code");
      submission.error_detail = text_field(*fields, "detail");
      return submission;
    }
    absorb(*fields);  // Stream frames of previously submitted jobs.
  }
}

void ScenarioClient::absorb(const std::map<std::string, std::string>& fields) {
  const std::string job_id = text_field(fields, "job_id");
  if (job_id.empty()) {
    return;  // heartbeat / pong / hello: nothing to buffer.
  }
  if (!file_frame(inbox_[job_id], fields)) {
    close();  // The next read reports the connection gone.
  }
}

ScenarioClient::JobOutcome ScenarioClient::wait(const std::string& job_id) {
  JobOutcome outcome;
  const auto buffered = inbox_.find(job_id);
  if (buffered != inbox_.end()) {
    outcome = std::move(buffered->second);
    inbox_.erase(buffered);
  }
  while (!outcome.done && !outcome.cancelled) {
    const auto fields = next_frame();
    if (!fields) {
      outcome.error_code = "disconnected";
      outcome.error_detail = "connection closed mid-stream";
      return outcome;
    }
    const std::string type = text_field(*fields, "frame");
    if (type == "heartbeat") {
      outcome.heartbeats++;
      continue;
    }
    if (type == "error") {
      outcome.error_code = text_field(*fields, "code");
      outcome.error_detail = text_field(*fields, "detail");
      return outcome;
    }
    if (text_field(*fields, "job_id") == job_id) {
      if (!file_frame(outcome, *fields)) {
        close();
        outcome.error_code = "bad_frame";
        outcome.error_detail = "a row indexed past the job cap";
        return outcome;
      }
      continue;
    }
    absorb(*fields);
  }
  return outcome;
}

bool ScenarioClient::ping() {
  analysis::JsonObject frame = make_frame("ping");
  frame.set("nonce", "liveness");
  if (!send_payload(frame.to_json_line())) {
    return false;
  }
  for (;;) {
    const auto fields = next_frame();
    if (!fields) {
      return false;
    }
    if (text_field(*fields, "frame") == "pong") {
      return true;
    }
    absorb(*fields);
  }
}

std::string ScenarioClient::JobOutcome::jsonl() const {
  return joined(result_lines);
}

std::string ScenarioClient::JobOutcome::health_jsonl() const {
  return joined(health_lines);
}

// --- ResilientScenarioClient -----------------------------------------------

ResilientScenarioClient::ResilientScenarioClient(ResilientClientConfig config)
    : config_(std::move(config)), client_(config_.base) {}

template <typename SubmitFn>
ScenarioClient::JobOutcome ResilientScenarioClient::run(SubmitFn&& submit) {
  ScenarioClient::JobOutcome outcome;
  std::uint64_t backoff_ms = config_.initial_backoff_ms;
  std::size_t attempts = 0;
  bool submitted_once = false;

  auto fail_attempt = [&](const std::string& code,
                          const std::string& detail,
                          std::uint64_t wait_ms) {
    attempts++;
    outcome.error_code = code;
    outcome.error_detail = detail;
    if (attempts >= config_.max_attempts) {
      return true;  // Budget spent: the caller gets the last error.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    backoff_ms = std::min(backoff_ms * 2, config_.max_backoff_ms);
    return false;
  };

  for (;;) {
    if (!client_.connected()) {
      std::string error;
      if (!client_.connect(&error)) {
        if (fail_attempt("connect_failed", error, backoff_ms)) {
          return outcome;
        }
        continue;
      }
      if (submitted_once) {
        reconnects_++;
      }
    }

    const ScenarioClient::Submission submission = submit(client_);
    if (submitted_once && (submission.accepted || submission.backpressure)) {
      resubmits_++;
    }
    submitted_once = true;
    if (submission.backpressure) {
      // Quota, not failure -- but still budgeted, so a server wedged at
      // its quota cannot spin this loop forever.
      const std::uint64_t wait_ms =
          submission.retry_ms > 0 ? submission.retry_ms : backoff_ms;
      if (fail_attempt("backpressure", submission.error_detail, wait_ms)) {
        return outcome;
      }
      continue;
    }
    if (!submission.accepted) {
      // Transport-origin failures are retryable: `bad_frame` means the
      // bytes the server read were not the bytes we sent (a fuzzed or
      // truncated frame poisoned its reader), and the liveness codes mean
      // the link wedged -- a fresh connection carries clean bytes.
      const bool transport_failure =
          submission.error_code == "disconnected" ||
          submission.error_code == "bad_frame" ||
          submission.error_code == "dead_peer" ||
          submission.error_code == "partial_frame_timeout";
      if (transport_failure) {
        client_.close();
        if (fail_attempt(submission.error_code, submission.error_detail,
                         backoff_ms)) {
          return outcome;
        }
        continue;
      }
      // A semantic rejection (invalid spec, unknown suite, a frame over
      // the cap...) is final: retrying the same bytes cannot change the
      // answer.
      outcome.error_code = submission.error_code;
      outcome.error_detail = submission.error_detail;
      return outcome;
    }

    outcome = client_.wait(submission.job_id);
    if (outcome.done || outcome.cancelled) {
      return outcome;
    }
    // Dropped mid-stream (reset, truncation, fuzz-poisoned reader):
    // reconnect and resubmit -- idempotent job identity means the server
    // replays every committed row and no scenario runs twice.
    client_.close();
    if (fail_attempt(outcome.error_code.empty() ? "disconnected"
                                                : outcome.error_code,
                     outcome.error_detail, backoff_ms)) {
      return outcome;
    }
  }
}

ScenarioClient::JobOutcome ResilientScenarioClient::run_suite(
    const std::string& job_tag, const std::string& suite,
    const std::string& filter) {
  return run([&](ScenarioClient& client) {
    return client.submit_suite(job_tag, suite, filter);
  });
}

ScenarioClient::JobOutcome ResilientScenarioClient::run_specs(
    const std::string& job_tag,
    const std::vector<scenario::ScenarioSpec>& specs) {
  return run([&](ScenarioClient& client) {
    return client.submit_specs(job_tag, specs);
  });
}

ScenarioClient::JobOutcome ResilientScenarioClient::run_replay(
    const std::string& job_tag, const scenario::ReplayBundle& bundle) {
  ScenarioClient::JobOutcome outcome = run_specs(job_tag, {bundle.spec});
  if (outcome.done && !outcome.result_lines.empty()) {
    outcome.reproduced = scenario::replay_reproduced(
        scenario::read_executed(outcome.result_lines[0], {}).result,
        bundle.expected_failure_reason);
  }
  return outcome;
}

}  // namespace ddl::service
