#include "ipc/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "support/fault.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// A write to a peer-closed socket must surface as EPIPE (a typed
// kClosed error the caller handles — heartbeats use exactly this as
// the dead-peer signal), never as a process-killing SIGPIPE. Installed
// once per process, the first time any socket is created here.
void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa = {};
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    struct sigaction current = {};
    // Respect an embedder's own SIGPIPE handler, if any.
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      (void)::sigaction(SIGPIPE, &sa, nullptr);
    }
  });
}

}  // namespace

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  ignore_sigpipe();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_error("socket", errno);

  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return errno_error("bind 127.0.0.1:" + std::to_string(port), errno);
  }
  if (::listen(fd.get(), 16) != 0) return errno_error("listen", errno);

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_error("getsockname", errno);
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<TcpStream> TcpListener::accept() {
  while (true) {
    // Delayed-accept injection widens the window in which a client's
    // connect has succeeded but no one is reading its hello yet.
    if (fault::Decision f = fault::probe("socket.accept")) {
      if (f.kind == fault::Kind::kDelay) {
        sleep_for_millis(f.delay_millis);  // sleep-ok: fault-injected delay
      }
      if (f.kind == fault::Kind::kEintr) continue;
      if (f.kind == fault::Kind::kConnReset) {
        return errno_error("accept (injected)", ECONNRESET);
      }
    }
    int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) return TcpStream(Fd(client));
    if (errno == EINTR) continue;
    // A connection that was reset while queued is the peer's failure,
    // not the listener's: keep accepting.
    if (errno == ECONNABORTED) continue;
    return errno_error("accept", errno);
  }
}

Result<TcpStream> TcpListener::accept_timeout(int timeout_millis) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  while (true) {
    int rc = ::poll(&pfd, 1, timeout_millis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("poll", errno);
    }
    if (rc == 0) return Error(ErrorCode::kTimeout, "accept timed out");
    return accept();
  }
}

Result<TcpStream> TcpStream::connect(std::uint16_t port) {
  ignore_sigpipe();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_error("socket", errno);
  sockaddr_in addr = loopback_addr(port);
  while (true) {
    if (fault::Decision f = fault::probe("socket.connect")) {
      if (f.kind == fault::Kind::kDelay) {
        sleep_for_millis(f.delay_millis);  // sleep-ok: fault-injected delay
      }
      if (f.kind == fault::Kind::kEintr) continue;
      if (f.kind == fault::Kind::kConnReset) {
        return errno_error("connect (injected)", ECONNRESET);
      }
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return TcpStream(std::move(fd));
    }
    if (errno == EINTR) continue;
    return errno_error("connect 127.0.0.1:" + std::to_string(port), errno);
  }
}

Result<TcpStream> TcpStream::connect_retry(std::uint16_t port,
                                           int timeout_millis) {
  Stopwatch watch;
  while (true) {
    auto stream = connect(port);
    if (stream.is_ok()) return stream;
    if (timeout_millis <= 0 ||
        watch.elapsed_seconds() * 1000.0 > timeout_millis) {
      return Error(ErrorCode::kTimeout,
                   "connect_retry to port " + std::to_string(port) + ": " +
                       stream.error().message());
    }
    sleep_for_millis(5);  // sleep-ok: connect_retry races server start
  }
}

Result<bool> TcpStream::readable(int timeout_millis) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  while (true) {
    int rc = ::poll(&pfd, 1, timeout_millis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("poll", errno);
    }
    return rc > 0;
  }
}

Status TcpStream::set_nodelay(bool on) {
  int flag = on ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) !=
      0) {
    return errno_error("setsockopt TCP_NODELAY", errno);
  }
  return Status::ok();
}

}  // namespace dionea::ipc
