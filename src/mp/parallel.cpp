#include "mp/parallel.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "ipc/pipe.hpp"
#include "mp/serialize.hpp"
#include "support/child_wait.hpp"
#include "support/logging.hpp"
#include "support/timing.hpp"

namespace dionea::mp::parallel {
namespace {

using vm::Value;

// ---- length-prefixed pickled values over raw pipe fds ----

Status write_value(ipc::Fd& fd, const Value& value) {
  DIONEA_ASSIGN_OR_RETURN(std::string bytes, serialize(value));
  std::uint32_t len = static_cast<std::uint32_t>(bytes.size());
  char header[4];
  std::memcpy(header, &len, sizeof(len));
  DIONEA_RETURN_IF_ERROR(fd.write_all(header, sizeof(header)));
  return fd.write_all(bytes.data(), bytes.size());
}

// kClosed on EOF, kTimeout when the deadline passes first.
Result<Value> read_value_deadline(ipc::Fd& fd, double deadline_mono) {
  auto wait_readable = [&]() -> Status {
    while (true) {
      int remaining = static_cast<int>((deadline_mono - mono_seconds()) * 1e3);
      if (remaining <= 0) return Status(ErrorCode::kTimeout, "pipe read");
      pollfd pfd{fd.get(), POLLIN, 0};
      int rc = ::poll(&pfd, 1, remaining);
      if (rc > 0) return Status::ok();
      if (rc < 0 && errno != EINTR) return errno_error("poll", errno);
      if (rc == 0) return Status(ErrorCode::kTimeout, "pipe read");
    }
  };
  DIONEA_RETURN_IF_ERROR(wait_readable());
  char header[4];
  DIONEA_RETURN_IF_ERROR(fd.read_exact(header, sizeof(header)));
  std::uint32_t len;
  std::memcpy(&len, header, sizeof(len));
  std::string bytes(len, '\0');
  if (len > 0) DIONEA_RETURN_IF_ERROR(fd.read_exact(bytes.data(), len));
  return deserialize(bytes);
}

// Blocking read used by workers; kClosed on EOF.
Result<Value> read_value_blocking(ipc::Fd& fd) {
  char header[4];
  DIONEA_RETURN_IF_ERROR(fd.read_exact(header, sizeof(header)));
  std::uint32_t len;
  std::memcpy(&len, header, sizeof(len));
  std::string bytes(len, '\0');
  if (len > 0) DIONEA_RETURN_IF_ERROR(fd.read_exact(bytes.data(), len));
  return deserialize(bytes);
}

struct Worker {
  ipc::Pipe in;   // parent writes -> child reads
  ipc::Pipe out;  // child writes -> parent reads
  pid_t pid = -1;
  std::vector<size_t> item_indices;  // which items this worker owns
};

// The forked child's life: drop fds it must not hold (fix only), read
// tasks until EOF on stdin-pipe, apply fn, stream results, exit.
[[noreturn]] void child_main(
    Worker& self, std::vector<Worker>* siblings_to_close,
    const std::function<Value(const Value&)>& fn) {
  self.in.close_write();
  self.out.close_read();
  if (siblings_to_close != nullptr) {
    // 0.5.10 discipline: "each of the forked processes can close the
    // copied but unused pipes (for sibling processes)".
    for (Worker& sibling : *siblings_to_close) {
      if (&sibling == &self) continue;
      sibling.in.close_read();
      sibling.in.close_write();
      sibling.out.close_read();
      sibling.out.close_write();
    }
  }
  while (true) {
    auto task = read_value_blocking(self.in.read_end());
    if (!task.is_ok()) {
      // EOF = no more work. Anything else also ends the worker.
      std::fflush(nullptr);
      ::_exit(task.error().code() == ErrorCode::kClosed ? 0 : 6);
    }
    const auto& pair = task.value().as_list()->items;
    Value result = fn(pair[1]);
    auto tagged = std::make_shared<vm::List>();
    tagged->items.push_back(pair[0]);
    tagged->items.push_back(std::move(result));
    Status written = write_value(self.out.write_end(), Value(std::move(tagged)));
    if (!written.is_ok()) {
      std::fflush(nullptr);
      ::_exit(7);
    }
  }
}

// Parent-side interaction with one worker: feed its items, close the
// write end (EOF = end of work), then collect its results.
Status interact(Worker& worker, const std::vector<Value>& items,
                std::vector<Value>* results, double deadline) {
  for (size_t index : worker.item_indices) {
    auto task = std::make_shared<vm::List>();
    task->items.push_back(Value(static_cast<std::int64_t>(index)));
    task->items.push_back(items[index]);
    DIONEA_RETURN_IF_ERROR(
        write_value(worker.in.write_end(), Value(std::move(task))));
  }
  worker.in.close_write();  // our copy; a leaked sibling copy may remain!
  for (size_t i = 0; i < worker.item_indices.size(); ++i) {
    DIONEA_ASSIGN_OR_RETURN(Value tagged, read_value_deadline(
                                              worker.out.read_end(), deadline));
    const auto& pair = tagged.as_list()->items;
    (*results)[static_cast<size_t>(pair[0].as_int())] = pair[1];
  }
  return Status::ok();
}

void kill_and_reap(std::vector<Worker>& workers) {
  for (Worker& worker : workers) {
    if (worker.pid <= 0) continue;
    (void)::kill(worker.pid, SIGKILL);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker.pid = -1;
  }
}

// Wait for every worker to exit by the deadline. The v0.5.9 deadlock
// manifests exactly here: the children delivered their results but
// hang forever waiting for an EOF that a sibling's leaked fd keeps
// from arriving.
bool reap_until(std::vector<Worker>& workers, double deadline_mono) {
  for (Worker& worker : workers) {
    if (worker.pid <= 0) continue;
    int remaining =
        static_cast<int>(std::ceil((deadline_mono - mono_seconds()) * 1e3));
    auto reaped = wait_child_exit(worker.pid, remaining);
    if (reaped.is_ok() && !reaped.value().has_value()) return false;
    worker.pid = -1;  // reaped, or not ours to wait for any more
  }
  return true;
}

}  // namespace

Result<std::vector<Value>> map_in_processes(
    const std::vector<Value>& items,
    const std::function<Value(const Value&)>& fn, const Options& options) {
  if (options.worker_count <= 0) {
    return Error(ErrorCode::kInvalidArgument, "need at least one worker");
  }
  const int worker_count =
      static_cast<int>(std::min<size_t>(
          static_cast<size_t>(options.worker_count),
          items.empty() ? 1 : items.size()));
  auto workers = std::make_unique<std::vector<Worker>>(
      static_cast<size_t>(worker_count));
  for (size_t i = 0; i < items.size(); ++i) {
    (*workers)[i % static_cast<size_t>(worker_count)].item_indices.push_back(i);
  }

  const double deadline = mono_seconds() + options.timeout_millis / 1000.0;
  std::vector<Value> results(items.size());
  std::fflush(nullptr);

  if (options.version == Version::kV0_5_9) {
    // BUGGY path: each interaction thread creates its worker's pipes
    // and forks, interleaved with its siblings. Children do NOT close
    // sibling fds (they don't know about them — the snapshot they
    // inherited depends on the race).
    std::vector<std::thread> threads;
    std::vector<Status> outcomes(static_cast<size_t>(worker_count),
                                 Status::ok());
    std::atomic<int> pipes_ready{0};
    std::atomic<int> forks_done{0};
    std::mutex fork_mutex;  // serializes only the fork itself, not the
                            // pipe-creation/fork *ordering* across threads
    for (int w = 0; w < worker_count; ++w) {
      threads.emplace_back([&, w] {
        Worker& worker = (*workers)[static_cast<size_t>(w)];
        auto in = ipc::Pipe::create();
        auto out = ipc::Pipe::create();
        if (!in.is_ok() || !out.is_ok()) {
          outcomes[static_cast<size_t>(w)] =
              Status(ErrorCode::kOsError, "pipe creation failed");
          return;
        }
        worker.in = std::move(in).value();
        worker.out = std::move(out).value();
        if (options.disturb_delay_millis > 0) {
          // The window disturb mode exposes: sibling threads fork while
          // our pipes exist but before our own fork snapshots them. A
          // timed sleep alone leaves the ordering to the scheduler (a
          // starved sibling may not even have created its pipes yet),
          // so hold the window open until every sibling's pipes exist —
          // then every child inherits every sibling's write ends, the
          // §6.4 leak, on any machine under any load.
          pipes_ready.fetch_add(1, std::memory_order_acq_rel);
          while (pipes_ready.load(std::memory_order_acquire) < worker_count &&
                 mono_seconds() < deadline) {
            sleep_for_millis(1);  // sleep-ok: disturb-mode fork window
          }
          sleep_for_millis(  // sleep-ok: disturb-mode delay
              options.disturb_delay_millis);
        }
        {
          std::scoped_lock lock(fork_mutex);
          pid_t pid = ::fork();
          if (pid == 0) {
            child_main(worker, /*siblings_to_close=*/nullptr, fn);
          }
          worker.pid = pid;
        }
        if (worker.pid < 0) {
          outcomes[static_cast<size_t>(w)] =
              Status(ErrorCode::kOsError, "fork failed");
          return;
        }
        if (options.disturb_delay_millis > 0) {
          // Second half of the window: no parent-side thread may close
          // a write end until the last sibling has forked — a thread
          // that raced ahead (fed its child and closed its pipe before
          // a starved sibling forked) lets that child see EOF, exit,
          // and cascade the whole leak cycle apart.
          forks_done.fetch_add(1, std::memory_order_acq_rel);
          while (forks_done.load(std::memory_order_acquire) < worker_count &&
                 mono_seconds() < deadline) {
            sleep_for_millis(1);  // sleep-ok: disturb-mode fork window
          }
        }
        worker.in.close_read();
        worker.out.close_write();
        outcomes[static_cast<size_t>(w)] =
            interact(worker, items, &results, deadline);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Status& outcome : outcomes) {
      if (!outcome.is_ok()) {
        kill_and_reap(*workers);
        return outcome.error();
      }
    }
    if (!reap_until(*workers, deadline)) {
      kill_and_reap(*workers);
      return Error(ErrorCode::kTimeout,
                   "parallel v0.5.9 deadlock: a child is waiting for EOF "
                   "on a pipe whose write end leaked into a sibling "
                   "process (§6.4)");
    }
    return results;
  }

  // FIXED path (0.5.10): all pipes first, then sequential forks by
  // this (the main) thread; every child closes sibling fds.
  for (Worker& worker : *workers) {
    DIONEA_ASSIGN_OR_RETURN(worker.in, ipc::Pipe::create());
    DIONEA_ASSIGN_OR_RETURN(worker.out, ipc::Pipe::create());
  }
  for (Worker& worker : *workers) {
    pid_t pid = ::fork();
    if (pid < 0) {
      kill_and_reap(*workers);
      return errno_error("fork", errno);
    }
    if (pid == 0) child_main(worker, workers.get(), fn);
    worker.pid = pid;
    worker.in.close_read();
    worker.out.close_write();
  }
  // Interaction threads are fine now — the forks are already done.
  std::vector<std::thread> threads;
  std::vector<Status> outcomes(workers->size(), Status::ok());
  for (size_t w = 0; w < workers->size(); ++w) {
    threads.emplace_back([&, w] {
      outcomes[w] = interact((*workers)[w], items, &results, deadline);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& outcome : outcomes) {
    if (!outcome.is_ok()) {
      kill_and_reap(*workers);
      return outcome.error();
    }
  }
  if (!reap_until(*workers, deadline)) {
    kill_and_reap(*workers);
    return Error(ErrorCode::kTimeout, "workers did not exit");
  }
  return results;
}

}  // namespace dionea::mp::parallel
