// The one child-exit wait: every caller that reaps a forked child (the
// VM's waitpid builtin, mp::Process, the parallel map's workers) blocks
// here instead of re-checking waitpid(WNOHANG) on a sleep cadence.
//
// The wait opens a pidfd for the child (pidfd_open, Linux >= 5.3) and
// blocks in poll(2) until the kernel marks it readable — the child has
// exited — then reaps it with waitpid. A child that exits mid-wait is
// therefore reaped within microseconds, not at the next sleep slice.
// Where pidfd_open fails (ENOSYS on older kernels, EMFILE when out of
// descriptors) the wait falls back to re-checking after one bounded
// sleep slice; callers see only the latency difference.
#pragma once

#include <sys/types.h>

#include <optional>

#include "support/result.hpp"

namespace dionea {

// Wait up to `timeout_millis` for child `pid` to exit, then reap it.
// Returns the raw waitpid status, nullopt when the child is still
// running at the deadline (timeout_millis <= 0 only checks), or the
// waitpid error as "waitpid(<pid>): <strerror>" — e.g. ECHILD for a
// pid that is not this process's child.
Result<std::optional<int>> wait_child_exit(pid_t pid, int timeout_millis);

// The exit code a reaped child reports to callers: its exit status, or
// -signal when a signal killed it (-1 for any other status).
int exit_code_of(int wait_status) noexcept;

}  // namespace dionea
