// Small shared socket-I/O helpers for the service endpoints (server,
// client, chaos proxy), factored out so EINTR handling, nonblocking mode
// and the loopback listener are written once instead of per call site.
//
// The EINTR contract: a signal delivered mid-syscall (SIGTERM reaching the
// graceful-shutdown handler, a watchdog alarm, a debugger attach) makes
// send/recv/accept/poll return -1 with errno == EINTR.  That is a retry,
// never an error -- an endpoint that treats it as peer-gone drops a healthy
// connection exactly when the deployment is busiest with signals.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace ddl::service::net {

/// Calls `fn` (a syscall wrapper returning ssize_t/int) until it returns
/// without EINTR.  Any other outcome -- success, EAGAIN, a hard error --
/// is returned to the caller untouched.
template <typename Fn>
auto retry_eintr(Fn&& fn) -> decltype(fn()) {
  for (;;) {
    const auto result = fn();
    if (result >= 0 || errno != EINTR) {
      return result;
    }
  }
}

/// Blocking full-buffer send with EINTR retry (MSG_NOSIGNAL so a dead peer
/// is an error return, not a SIGPIPE).  True iff every byte was accepted.
inline bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t got = retry_eintr(
        [&] { return ::send(fd, data + sent, size - sent, MSG_NOSIGNAL); });
    if (got <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

inline bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// A nonblocking TCP listener on 127.0.0.1:`port` (0 picks a free port).
/// Returns its fd and sets `bound_port`, or returns -1 with `error` set to
/// "socket() failed: <why>" or "<bind_label> failed: <why>".
inline int listen_loopback(int port, const std::string& bind_label,
                           int& bound_port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "socket() failed: " + std::string(std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    error = bind_label + " failed: " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t length = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length);
  bound_port = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

}  // namespace ddl::service::net
