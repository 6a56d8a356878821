#include "support/child_wait.hpp"

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "support/scope_guard.hpp"
#include "support/strings.hpp"
#include "support/timing.hpp"

namespace dionea {

namespace {

// Re-check cadence when no pidfd can be opened.
constexpr int kFallbackSliceMillis = 5;

int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
}

// One waitpid(WNOHANG): the status when reaped, nullopt while running.
Result<std::optional<int>> try_reap(pid_t pid) {
  while (true) {
    int status = 0;
    pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return std::optional<int>(status);
    if (got == 0) return std::optional<int>();
    if (errno == EINTR) continue;
    return errno_error(strings::format("waitpid(%d)", static_cast<int>(pid)),
                       errno);
  }
}

}  // namespace

Result<std::optional<int>> wait_child_exit(pid_t pid, int timeout_millis) {
  auto reaped = try_reap(pid);
  if (!reaped.is_ok() || reaped.value().has_value() || timeout_millis <= 0) {
    return reaped;
  }
  const double deadline = mono_seconds() + timeout_millis / 1000.0;
  const int pidfd = open_pidfd(pid);
  auto close_pidfd = on_scope_exit([pidfd] {
    if (pidfd >= 0) ::close(pidfd);
  });
  while (true) {
    int remaining =
        static_cast<int>(std::ceil((deadline - mono_seconds()) * 1000.0));
    if (remaining <= 0) return std::optional<int>();
    if (pidfd >= 0) {
      pollfd pfd{pidfd, POLLIN, 0};
      (void)::poll(&pfd, 1, remaining);  // EINTR: re-check, then go again
    } else {
      int slice = std::min(remaining, kFallbackSliceMillis);
      sleep_for_millis(slice);  // sleep-ok: fallback without a pidfd
    }
    reaped = try_reap(pid);
    if (!reaped.is_ok() || reaped.value().has_value()) return reaped;
  }
}

int exit_code_of(int wait_status) noexcept {
  if (WIFEXITED(wait_status)) return WEXITSTATUS(wait_status);
  if (WIFSIGNALED(wait_status)) return -WTERMSIG(wait_status);
  return -1;
}

}  // namespace dionea
