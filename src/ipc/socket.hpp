// TCP sockets over loopback.
//
// §4: "Server and client interact through a predefined protocol using
// TCP/IP, making possible to debug remote processes." The debug server
// listens on an ephemeral port; the client connects. Dionea uses three
// sockets per session (connection listener, source sync, commands) —
// see debugger/session.hpp for how the three channels map onto these.
#pragma once

#include <cstdint>
#include <string>

#include "ipc/fd.hpp"
#include "support/result.hpp"

namespace dionea::ipc {

class TcpStream;

// Listening socket bound to 127.0.0.1:<port> (port 0 = ephemeral).
class TcpListener {
 public:
  static Result<TcpListener> bind(std::uint16_t port = 0);

  TcpListener(TcpListener&&) = default;
  TcpListener& operator=(TcpListener&&) = default;

  std::uint16_t port() const noexcept { return port_; }
  int raw_fd() const noexcept { return fd_.get(); }

  // Blocking accept.
  Result<TcpStream> accept();

  // Accept with timeout; kTimeout if nothing arrives.
  Result<TcpStream> accept_timeout(int timeout_millis);

  void close() noexcept { fd_.reset(); }
  bool valid() const noexcept { return fd_.valid(); }

 private:
  TcpListener(Fd fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}
  Fd fd_;
  std::uint16_t port_ = 0;
};

// Connected stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  static Result<TcpStream> connect(std::uint16_t port);
  // Retry connect until deadline — the client races server startup.
  // A budget of 0 makes exactly one attempt.
  static Result<TcpStream> connect_retry(std::uint16_t port,
                                         int timeout_millis);

  TcpStream(TcpStream&&) = default;
  TcpStream& operator=(TcpStream&&) = default;

  bool valid() const noexcept { return fd_.valid(); }
  int raw_fd() const noexcept { return fd_.get(); }
  Fd& fd() noexcept { return fd_; }

  Status write_all(const void* data, size_t len) {
    return fd_.write_all(data, len);
  }
  Status read_exact(void* data, size_t len) {
    return fd_.read_exact(data, len);
  }
  // Deadline-bounded read: a peer that dies mid-frame (half-open
  // connection) yields kTimeout instead of wedging the caller.
  Status read_exact_timeout(void* data, size_t len, int timeout_millis) {
    return fd_.read_exact_timeout(data, len, timeout_millis);
  }

  // True when bytes are readable within the timeout (0 = poll).
  Result<bool> readable(int timeout_millis);

  void close() noexcept { fd_.reset(); }

  // Disable Nagle: debug commands are tiny request/response pairs.
  Status set_nodelay(bool on);

 private:
  Fd fd_;
};

}  // namespace dionea::ipc
