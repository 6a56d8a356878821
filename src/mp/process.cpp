#include "mp/process.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "support/child_wait.hpp"

namespace dionea::mp {

int kill_grace_millis(int fallback) noexcept {
  // Read per call, not once: tests flip the variable between phases
  // and a process-wide cache would pin the first value forever.
  const char* v = std::getenv("DIONEA_KILL_GRACE_MS");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0 || parsed > 60'000) {
    return fallback;
  }
  return static_cast<int>(parsed);
}

Result<Process> Process::spawn(const std::function<int()>& fn) {
  std::fflush(nullptr);  // don't double-flush parent's stdio buffers
  pid_t pid = ::fork();
  if (pid < 0) return errno_error("fork", errno);
  if (pid == 0) {
    int code = 1;
    // No exceptions may escape across _exit.
    try {
      code = fn();
    } catch (...) {
      std::fprintf(stderr, "mp::Process: child function threw\n");
      code = 70;  // EX_SOFTWARE
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  return Process(pid);
}

Process::~Process() {
  if (valid()) (void)terminate(kill_grace_millis(kDestructorGraceMillis));
}

Result<int> Process::terminate(int grace_millis) {
  if (!valid()) return Error(ErrorCode::kInvalidArgument, "invalid process");
  // Already dead? Just reap.
  DIONEA_ASSIGN_OR_RETURN(std::optional<int> code, try_wait());
  if (code.has_value()) return *code;
  (void)::kill(pid_, SIGTERM);
  auto waited = wait_timeout(grace_millis);
  if (waited.is_ok()) return waited;
  if (waited.error().code() != ErrorCode::kTimeout) return waited;
  // The child ignored (or blocked) SIGTERM; escalate.
  (void)::kill(pid_, SIGKILL);
  return wait();
}

Result<int> Process::wait() {
  if (!valid()) return Error(ErrorCode::kInvalidArgument, "invalid process");
  while (true) {
    int status = 0;
    pid_t got = ::waitpid(pid_, &status, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno_error("waitpid", errno);
    }
    pid_ = -1;
    return exit_code_of(status);
  }
}

Result<std::optional<int>> Process::try_wait() { return reap(0); }

Result<int> Process::wait_timeout(int timeout_millis) {
  DIONEA_ASSIGN_OR_RETURN(std::optional<int> code, reap(timeout_millis));
  if (code.has_value()) return *code;
  return Error(ErrorCode::kTimeout,
               "pid " + std::to_string(pid_) + " still running");
}

Result<std::optional<int>> Process::reap(int timeout_millis) {
  if (!valid()) return Error(ErrorCode::kInvalidArgument, "invalid process");
  DIONEA_ASSIGN_OR_RETURN(std::optional<int> status,
                          wait_child_exit(pid_, timeout_millis));
  if (!status.has_value()) return std::optional<int>();
  pid_ = -1;
  return std::optional<int>(exit_code_of(*status));
}

Status Process::kill(int signal) {
  if (!valid()) return Status(ErrorCode::kInvalidArgument, "invalid process");
  if (::kill(pid_, signal) != 0) return errno_error("kill", errno);
  return Status::ok();
}

bool Process::running() {
  auto code = try_wait();
  return code.is_ok() && !code.value().has_value();
}

}  // namespace dionea::mp
