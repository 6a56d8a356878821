#include "ipc/fd.hpp"

#include <fcntl.h>
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/fault.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

// Apply an injected fault decision to one transfer attempt. Returns a
// non-OK status when the fault must surface as an error; otherwise may
// shrink `*chunk` (short transfer) or stall (delay). kEintr is
// reported through *interrupted so the caller's retry loop runs —
// exactly the path a real EINTR would take.
Status apply_io_fault(const char* site, size_t* chunk, bool* interrupted) {
  fault::Decision decision = fault::probe(site);
  *interrupted = false;
  switch (decision.kind) {
    case fault::Kind::kNone:
    case fault::Kind::kTorn:
      return Status::ok();
    case fault::Kind::kEintr:
      *interrupted = true;
      return Status::ok();
    case fault::Kind::kConnReset:
      return errno_error(std::string(site) + " (injected)", ECONNRESET);
    case fault::Kind::kDelay:
      sleep_for_millis(decision.delay_millis);  // sleep-ok: injected delay
      return Status::ok();
    case fault::Kind::kShortIo:
      *chunk = std::min(*chunk, std::max<size_t>(decision.cap_bytes, 1));
      return Status::ok();
  }
  return Status::ok();
}

}  // namespace

Result<Fd> Fd::duplicate() const {
  int duped = ::fcntl(fd_, F_DUPFD_CLOEXEC, 0);
  if (duped < 0) return errno_error("dup", errno);
  return Fd(duped);
}

Status Fd::set_nonblocking(bool nonblocking) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return errno_error("fcntl F_GETFL", errno);
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd_, F_SETFL, flags) < 0) {
    return errno_error("fcntl F_SETFL", errno);
  }
  return Status::ok();
}

Status Fd::set_cloexec(bool cloexec) {
  int flags = ::fcntl(fd_, F_GETFD, 0);
  if (flags < 0) return errno_error("fcntl F_GETFD", errno);
  if (cloexec) {
    flags |= FD_CLOEXEC;
  } else {
    flags &= ~FD_CLOEXEC;
  }
  if (::fcntl(fd_, F_SETFD, flags) < 0) {
    return errno_error("fcntl F_SETFD", errno);
  }
  return Status::ok();
}

Status Fd::write_all(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    size_t chunk = len - off;
    bool interrupted = false;
    DIONEA_RETURN_IF_ERROR(apply_io_fault("fd.write", &chunk, &interrupted));
    if (interrupted) continue;
    ssize_t n = ::write(fd_, p + off, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("write after " + std::to_string(off) + " of " +
                             std::to_string(len) + " bytes",
                         errno);
    }
    off += static_cast<size_t>(n);
  }
  return Status::ok();
}

Status Fd::read_exact(void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t off = 0;
  while (off < len) {
    size_t chunk = len - off;
    bool interrupted = false;
    DIONEA_RETURN_IF_ERROR(apply_io_fault("fd.read", &chunk, &interrupted));
    if (interrupted) continue;
    ssize_t n = ::read(fd_, p + off, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("read after " + std::to_string(off) + " of " +
                             std::to_string(len) + " bytes",
                         errno);
    }
    if (n == 0) {
      return Status(ErrorCode::kClosed, "EOF after " + std::to_string(off) +
                                            " of " + std::to_string(len) +
                                            " bytes");
    }
    off += static_cast<size_t>(n);
  }
  return Status::ok();
}

Status Fd::read_exact_timeout(void* data, size_t len, int timeout_millis) {
  char* p = static_cast<char*>(data);
  size_t off = 0;
  Stopwatch watch;
  while (off < len) {
    int remaining =
        timeout_millis - static_cast<int>(watch.elapsed_seconds() * 1000.0);
    if (remaining <= 0) {
      return Status(ErrorCode::kTimeout,
                    "read stalled after " + std::to_string(off) + " of " +
                        std::to_string(len) + " bytes");
    }
    pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, remaining);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("poll", errno);
    }
    if (rc == 0) continue;  // re-check the deadline at the loop head
    size_t chunk = len - off;
    bool interrupted = false;
    DIONEA_RETURN_IF_ERROR(apply_io_fault("fd.read", &chunk, &interrupted));
    if (interrupted) continue;
    ssize_t n = ::read(fd_, p + off, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("read after " + std::to_string(off) + " of " +
                             std::to_string(len) + " bytes",
                         errno);
    }
    if (n == 0) {
      return Status(ErrorCode::kClosed, "EOF after " + std::to_string(off) +
                                            " of " + std::to_string(len) +
                                            " bytes");
    }
    off += static_cast<size_t>(n);
  }
  return Status::ok();
}

Result<size_t> Fd::read_some(void* data, size_t len) {
  while (true) {
    size_t chunk = len;
    bool interrupted = false;
    DIONEA_RETURN_IF_ERROR(apply_io_fault("fd.read", &chunk, &interrupted));
    if (interrupted) continue;
    ssize_t n = ::read(fd_, data, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("read", errno);
    }
    return static_cast<size_t>(n);
  }
}

}  // namespace dionea::ipc
