#include "ddl/service/chaos_proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ddl/core/hash.h"
#include "ddl/service/net_util.h"

namespace ddl::service {

namespace {

using Clock = std::chrono::steady_clock;

/// The shared splitmix64 stream step (core/hash.h); the per-connection
/// state word lives inside Conn, so the free-function form fits here.
using core::splitmix64_next;

/// An abortive close: SO_LINGER with zero timeout turns close() into a
/// TCP RST, so the peer sees ECONNRESET (the fault being modeled), not a
/// tidy FIN.
void rst_close(int fd) {
  if (fd < 0) {
    return;
  }
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);
}

/// What the fault schedule decided for one forwarded chunk.
enum class Fault {
  kNone,
  kSplit,
  kReset,
  kTruncate,
  kFuzz,
  kDuplicate,
  kTrickle,
  kStall,
};

/// One relay direction of a proxied connection.
struct Direction {
  int from = -1;
  int to = -1;
  std::string pending;       ///< Bytes accepted from `from`, not yet sent.
  std::size_t offset = 0;    ///< Sent prefix of pending.
  std::size_t trickle_left = 0;  ///< Bytes still to dribble one at a time.
  Clock::time_point gate = Clock::time_point::min();  ///< No sends before.
  bool split_next = false;   ///< Next flush sends only half of pending.
  bool eof = false;          ///< `from` reached EOF; flush then close.

  std::size_t backlog() const noexcept { return pending.size() - offset; }
};

struct Conn {
  int client_fd = -1;
  int server_fd = -1;
  Direction up;    ///< client -> server
  Direction down;  ///< server -> client
  std::uint64_t rng = 0;
  bool doomed = false;       ///< RST both sides once flushed (truncate).
  bool dead = false;
};

}  // namespace

struct ChaosProxy::Impl {
  explicit Impl(ChaosProxyConfig config) : config(std::move(config)) {}

  ChaosProxyConfig config;
  int listen_fd = -1;
  int bound_port = 0;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  std::thread relay_thread;
  std::atomic<bool> stop_requested{false};
  bool started = false;
  bool joined = false;
  std::mutex lifecycle_mutex;

  std::map<int, std::size_t> fd_to_conn;  ///< Either side's fd -> index.
  std::vector<Conn> conns;

  mutable std::mutex stats_mutex;
  ChaosProxyStats stats_data;

  void bump(std::size_t ChaosProxyStats::* counter, std::size_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_data.*counter += by;
  }

  // --- Fault schedule ---------------------------------------------------

  Fault draw_fault(Conn& conn) {
    const std::uint32_t draw =
        static_cast<std::uint32_t>(splitmix64_next(conn.rng) % 1000);
    std::uint32_t band = config.p_reset_permille;
    if (draw < band) {
      return Fault::kReset;
    }
    if (draw < (band += config.p_truncate_permille)) {
      return Fault::kTruncate;
    }
    if (draw < (band += config.p_fuzz_permille)) {
      return Fault::kFuzz;
    }
    if (draw < (band += config.p_duplicate_permille)) {
      return Fault::kDuplicate;
    }
    if (draw < (band += config.p_trickle_permille)) {
      return Fault::kTrickle;
    }
    if (draw < (band += config.p_stall_permille)) {
      return Fault::kStall;
    }
    if (draw < (band += config.p_split_permille)) {
      return Fault::kSplit;
    }
    return Fault::kNone;
  }

  /// Applies the per-chunk fault decision and queues the (possibly
  /// mutated) bytes onto `dir`.  Returns false when the connection died.
  bool apply_fault(Conn& conn, Direction& dir, std::string chunk) {
    switch (draw_fault(conn)) {
      case Fault::kReset:
        bump(&ChaosProxyStats::resets);
        kill_conn(conn);
        return false;
      case Fault::kTruncate: {
        // Forward a strict prefix -- a mid-frame tear whenever the chunk
        // spans a frame boundary -- then RST once it drains.
        const std::size_t keep = chunk.size() / 2;
        dir.pending += chunk.substr(0, keep == 0 ? 1 : keep);
        conn.doomed = true;
        bump(&ChaosProxyStats::truncations);
        return true;
      }
      case Fault::kFuzz: {
        // Flip 1-4 bytes anywhere in the chunk: early offsets hit frame
        // headers (length prefix, checksum), later ones hit JSON bodies.
        const std::size_t flips = 1 + splitmix64_next(conn.rng) % 4;
        for (std::size_t i = 0; i < flips && !chunk.empty(); ++i) {
          const std::size_t at = splitmix64_next(conn.rng) % chunk.size();
          chunk[at] = static_cast<char>(chunk[at] ^
                                        (1u << (splitmix64_next(conn.rng) % 8)));
        }
        dir.pending += chunk;
        bump(&ChaosProxyStats::fuzzed_chunks);
        return true;
      }
      case Fault::kDuplicate:
        // A broken middlebox retransmit: the stream carries the bytes
        // twice, which desynchronizes framing past the first copy.
        dir.pending += chunk;
        dir.pending += chunk;
        bump(&ChaosProxyStats::duplicated_chunks);
        return true;
      case Fault::kTrickle:
        dir.pending += chunk;
        dir.trickle_left =
            std::min(config.trickle_bytes, dir.backlog());
        bump(&ChaosProxyStats::trickled_chunks);
        return true;
      case Fault::kStall:
        dir.gate = Clock::now() + std::chrono::milliseconds(config.stall_ms);
        dir.pending += chunk;
        bump(&ChaosProxyStats::stalls);
        return true;
      case Fault::kSplit:
        dir.pending += chunk;
        dir.split_next = true;
        bump(&ChaosProxyStats::split_chunks);
        return true;
      case Fault::kNone:
        dir.pending += chunk;
        return true;
    }
    return true;
  }

  // --- Connection lifecycle ---------------------------------------------

  void kill_conn(Conn& conn) {
    if (conn.dead) {
      return;
    }
    conn.dead = true;
    fd_to_conn.erase(conn.client_fd);
    fd_to_conn.erase(conn.server_fd);
    rst_close(conn.client_fd);
    rst_close(conn.server_fd);
    conn.client_fd = conn.server_fd = -1;
  }

  void close_conn_graceful(Conn& conn) {
    if (conn.dead) {
      return;
    }
    conn.dead = true;
    fd_to_conn.erase(conn.client_fd);
    fd_to_conn.erase(conn.server_fd);
    ::close(conn.client_fd);
    ::close(conn.server_fd);
    conn.client_fd = conn.server_fd = -1;
  }

  void accept_connections() {
    for (;;) {
      const int client = static_cast<int>(
          net::retry_eintr([&] { return ::accept(listen_fd, nullptr, nullptr); }));
      if (client < 0) {
        return;  // EAGAIN: drained.
      }
      const int server = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(config.upstream_port));
      if (server < 0 ||
          ::inet_pton(AF_INET, config.upstream_host.c_str(), &addr.sin_addr) !=
              1 ||
          net::retry_eintr([&] {
            return ::connect(server, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr));
          }) != 0) {
        // Upstream unreachable: the client sees an immediate reset, which
        // is itself a fault worth exercising.
        rst_close(client);
        if (server >= 0) {
          ::close(server);
        }
        continue;
      }
      net::set_nonblocking(client);
      net::set_nonblocking(server);
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

      Conn conn;
      conn.client_fd = client;
      conn.server_fd = server;
      conn.up = Direction{client, server, "", 0, 0,
                          Clock::time_point::min(), false, false};
      conn.down = Direction{server, client, "", 0, 0,
                            Clock::time_point::min(), false, false};
      conn.rng = config.seed ^
                 (0x9e3779b97f4a7c15ull * (conns.size() + 1));
      const std::size_t index = conns.size();
      conns.push_back(std::move(conn));
      fd_to_conn[client] = index;
      fd_to_conn[server] = index;
      bump(&ChaosProxyStats::connections);
    }
  }

  // --- Relay ------------------------------------------------------------

  /// Reads one chunk off `dir.from` and queues it through the fault
  /// schedule.  Returns false when the connection is gone.
  bool pump_read(Conn& conn, Direction& dir) {
    if (dir.eof || dir.backlog() > std::size_t{256} * 1024) {
      return true;  // Backpressure: stop reading until the backlog drains.
    }
    std::vector<char> chunk(config.chunk_bytes == 0 ? 2048
                                                    : config.chunk_bytes);
    const ssize_t got = net::retry_eintr(
        [&] { return ::recv(dir.from, chunk.data(), chunk.size(), 0); });
    if (got > 0) {
      return apply_fault(conn, dir, std::string(chunk.data(),
                                                static_cast<std::size_t>(got)));
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    dir.eof = true;  // EOF or hard error: flush what's queued, then close.
    return true;
  }

  /// Sends queued bytes honoring stalls, trickles and splits.  Returns
  /// false when the connection died mid-send.
  bool pump_write(Conn& conn, Direction& dir) {
    const auto now = Clock::now();
    if (now < dir.gate) {
      return true;
    }
    while (dir.backlog() > 0) {
      std::size_t len = dir.backlog();
      if (dir.trickle_left > 0) {
        len = 1;  // Slowloris: one byte, then wait out the gap.
      } else if (dir.split_next) {
        len = (len + 1) / 2;
      }
      const ssize_t sent = net::retry_eintr([&] {
        return ::send(dir.to, dir.pending.data() + dir.offset, len,
                      MSG_NOSIGNAL);
      });
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      if (sent <= 0) {
        kill_conn(conn);
        return false;
      }
      dir.offset += static_cast<std::size_t>(sent);
      bump(&ChaosProxyStats::forwarded_bytes,
           static_cast<std::size_t>(sent));
      dir.split_next = false;
      if (dir.trickle_left > 0) {
        dir.trickle_left--;
        dir.gate = now + std::chrono::milliseconds(config.trickle_gap_ms);
        break;  // Next byte after the gap.
      }
    }
    if (dir.offset == dir.pending.size()) {
      dir.pending.clear();
      dir.offset = 0;
    }
    return true;
  }

  /// The earliest future gate across live connections (for poll timeout).
  long next_gate_ms() const {
    const auto now = Clock::now();
    long best = 50;
    for (const Conn& conn : conns) {
      for (const Direction* dir : {&conn.up, &conn.down}) {
        if (conn.dead || dir->backlog() == 0 || dir->gate <= now) {
          continue;
        }
        const long ms = static_cast<long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(dir->gate -
                                                                  now)
                .count());
        best = std::min(best, std::max(1l, ms));
      }
    }
    return best;
  }

  void relay_main() {
    while (!stop_requested.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      for (const auto& [fd, index] : fd_to_conn) {
        const Conn& conn = conns[index];
        const Direction& reading =
            fd == conn.client_fd ? conn.up : conn.down;
        const Direction& writing =
            fd == conn.client_fd ? conn.down : conn.up;
        short events = 0;
        if (!reading.eof && reading.backlog() <= std::size_t{256} * 1024) {
          events |= POLLIN;
        }
        if (writing.backlog() > 0) {
          events |= POLLOUT;
        }
        fds.push_back(pollfd{fd, events, 0});
      }

      const int ready = static_cast<int>(net::retry_eintr([&] {
        return ::poll(fds.data(), fds.size(),
                      static_cast<int>(next_gate_ms()));
      }));
      if (ready < 0) {
        break;
      }
      if (fds[0].revents & POLLIN) {
        char sink[64];
        while (::read(wake_read_fd, sink, sizeof(sink)) > 0) {
        }
      }
      if (fds[1].revents & POLLIN) {
        accept_connections();
      }

      // Reads first (they queue bytes), then time-gated writes.
      for (std::size_t i = 2; i < fds.size(); ++i) {
        const auto it = fd_to_conn.find(fds[i].fd);
        if (it == fd_to_conn.end()) {
          continue;  // Closed earlier this pass.
        }
        Conn& conn = conns[it->second];
        if (conn.dead) {
          continue;
        }
        Direction& dir = fds[i].fd == conn.client_fd ? conn.up : conn.down;
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!pump_read(conn, dir)) {
            continue;
          }
        }
      }
      for (Conn& conn : conns) {
        if (conn.dead) {
          continue;
        }
        if (!pump_write(conn, conn.up) || !pump_write(conn, conn.down)) {
          continue;
        }
        const bool flushed =
            conn.up.backlog() == 0 && conn.down.backlog() == 0;
        if (conn.doomed && flushed) {
          kill_conn(conn);  // Truncation completes as a reset.
        } else if ((conn.up.eof || conn.down.eof) && flushed) {
          close_conn_graceful(conn);
        }
      }
    }

    for (Conn& conn : conns) {
      kill_conn(conn);
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }
};

ChaosProxy::ChaosProxy(ChaosProxyConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::start(std::string* error) {
  Impl& impl = *impl_;
  auto fail = [&](const std::string& detail) {
    for (int* fd : {&impl.listen_fd, &impl.wake_read_fd,
                    &impl.wake_write_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    if (error != nullptr) {
      *error = detail;
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (impl.started) {
      return fail("proxy already started");
    }
  }
  const std::uint64_t total =
      std::uint64_t{impl.config.p_reset_permille} +
      impl.config.p_truncate_permille + impl.config.p_fuzz_permille +
      impl.config.p_duplicate_permille + impl.config.p_trickle_permille +
      impl.config.p_stall_permille + impl.config.p_split_permille;
  if (total > 1000) {
    return fail("fault probabilities sum to " + std::to_string(total) +
                " permille (cap is 1000)");
  }
  if (impl.config.upstream_port <= 0) {
    return fail("upstream_port must name the real server");
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail("pipe() failed: " + std::string(std::strerror(errno)));
  }
  impl.wake_read_fd = pipe_fds[0];
  impl.wake_write_fd = pipe_fds[1];
  net::set_nonblocking(impl.wake_read_fd);
  net::set_nonblocking(impl.wake_write_fd);

  std::string detail;
  impl.listen_fd = net::listen_loopback(impl.config.listen_port, "bind/listen",
                                        impl.bound_port, detail);
  if (impl.listen_fd < 0) {
    return fail(detail);
  }

  impl.relay_thread = std::thread([this] { impl_->relay_main(); });
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    impl.started = true;
  }
  return true;
}

void ChaosProxy::stop() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (!impl.started || impl.joined) {
      return;
    }
    impl.joined = true;
  }
  impl.stop_requested.store(true, std::memory_order_release);
  if (impl.wake_write_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t wrote =
        ::write(impl.wake_write_fd, &byte, 1);
  }
  if (impl.relay_thread.joinable()) {
    impl.relay_thread.join();
  }
  for (int* fd : {&impl.wake_read_fd, &impl.wake_write_fd}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

int ChaosProxy::listen_port() const noexcept { return impl_->bound_port; }

ChaosProxyStats ChaosProxy::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats_data;
}

}  // namespace ddl::service
