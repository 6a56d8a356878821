// fork(2) semantics in the VM: only the calling thread survives
// (Listing 1/2), sync objects are re-initialized, fork handlers run in
// pthread_atfork order, and fork-with-block matches Listing 3.
#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace dionea::vm {
namespace {

using test::expect_ml_output;
using test::run_ml;

TEST(ForkTest, PidZeroInChildPositiveInParent) {
  const char* program =
      "pid = fork()\n"
      "if pid == 0\n"
      "  exit(5)\n"
      "end\n"
      "assert(pid > 0)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "5\n");
}

TEST(ForkTest, ForkWithBlockRunsChildAndExitsZero) {
  // Listing 3: the block runs in the child, then Kernel.exit(0).
  const char* program =
      "pid = fork(fn()\n"
      "  x = 1 + 1\n"
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "0\n");
}

TEST(ForkTest, ChildSeesCopyOfHeap) {
  const char* program =
      "data = [1, 2, 3]\n"
      "pid = fork(fn()\n"
      "  push(data, 4)\n"          // child-only mutation
      "  exit(len(data))\n"
      "end)\n"
      "st = waitpid(pid)\n"
      "puts(st)\n"
      "puts(len(data))";           // parent copy unchanged
  expect_ml_output(program, "4\n3\n");
}

TEST(ForkTest, OnlyForkingThreadSurvivesInChild) {
  // A sibling thread keeps incrementing in the parent; in the child it
  // must be gone (the counter freezes at the fork snapshot).
  const char* program =
      "box = [0]\n"
      "spawn(fn()\n"
      "  while true\n"
      "    box[0] = box[0] + 1\n"
      "    sleep(0.01)\n"
      "  end\n"
      "end)\n"
      "sleep(0.1)\n"
      "pid = fork(fn()\n"
      "  snapshot = box[0]\n"
      "  sleep(0.2)\n"
      "  if box[0] == snapshot\n"  // nobody advanced it: thread is gone
      "    exit(0)\n"
      "  end\n"
      "  exit(1)\n"
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "0\n");
}

TEST(ForkTest, ChildCanSpawnNewThreads) {
  // After the VM's child handler reinitializes the GIL and registry,
  // threading must work again in the child.
  const char* program =
      "pid = fork(fn()\n"
      "  t = spawn(fn() return 21 end)\n"
      "  exit(join(t) * 2 - 40)\n"   // 2
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "2\n");
}

TEST(ForkTest, MutexHeldByVanishedThreadIsReleasedInChild) {
  // §5.3 problem 1: a sibling holds the mutex at fork time; the child
  // must still be able to take it (ownership by a vanished thread is
  // cleared by reinit_in_child).
  const char* program =
      "m = mutex()\n"
      "ready = queue()\n"
      "spawn(fn()\n"
      "  lock(m)\n"
      "  ready.push(true)\n"
      "  sleep(10)\n"
      "end)\n"
      "ready.pop()\n"               // sibling now owns m
      "pid = fork(fn()\n"
      "  lock(m)\n"                 // must not hang
      "  unlock(m)\n"
      "  exit(0)\n"
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "0\n");
}

TEST(ForkTest, QueueContentsCopiedWaitersNot) {
  const char* program =
      "q = queue()\n"
      "q.push(7)\n"
      "pid = fork(fn()\n"
      "  exit(q.pop())\n"           // sees the copied item
      "end)\n"
      "puts(waitpid(pid))\n"
      "puts(q.pop())";              // parent's copy still has it
  expect_ml_output(program, "7\n7\n");
}

TEST(ForkTest, NestedForks) {
  const char* program =
      "pid = fork(fn()\n"
      "  inner = fork(fn()\n"
      "    exit(3)\n"
      "  end)\n"
      "  exit(waitpid(inner) + 1)\n"
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "4\n");
}

TEST(ForkTest, SequentialForksAllReaped) {
  const char* program =
      "pids = []\n"
      "for i in 5\n"
      "  push(pids, fork(fn() exit(0) end))\n"
      "end\n"
      "total = 0\n"
      "for p in pids\n"
      "  total = total + waitpid(p)\n"
      "end\n"
      "puts(total)";
  expect_ml_output(program, "0\n");
}

TEST(ForkTest, ChildExitCodePropagatesThroughRunResult) {
  test::RunOutcome outcome = run_ml(
      "pid = fork()\n"
      "if pid == 0\n"
      "  exit(9)\n"
      "end\n"
      "st = waitpid(pid)\n"
      "exit(st)");
  EXPECT_TRUE(outcome.exited);
  EXPECT_EQ(outcome.exit_code, 9);
}

TEST(ForkTest, ChildRuntimeErrorExitsNonzero) {
  const char* program =
      "pid = fork(fn()\n"
      "  boom_undefined()\n"
      "end)\n"
      "puts(waitpid(pid))";
  expect_ml_output(program, "1\n");
}

// ---- waitpid: the child-exit wait ----

// A program blocked in waitpid on a child that runs until the test
// kills it: it prints the child's pid, then waits. The run happens on
// a background thread so the test can act on the child, or on the VM,
// while the wait is in progress.
class BlockedWaitpid {
 public:
  BlockedWaitpid() {
    interp_.vm().set_output([this](std::string_view text) {
      std::scoped_lock lock(mutex_);
      output_.append(text);
    });
    runner_ = std::thread([this] {
      result_ = interp_.run_string(
          "pid = fork(fn()\n"
          "  sleep(60)\n"
          "end)\n"
          "puts(pid)\n"
          "puts(waitpid(pid))",
          "waitpid.ml");
      finished_.store(true);
    });
  }
  ~BlockedWaitpid() {
    if (child_ > 0) {
      (void)::kill(child_, SIGKILL);
      (void)::waitpid(child_, nullptr, 0);
    }
    interp_.vm().request_exit(0);
    runner_.join();
  }

  // The child's pid once the program has printed it, else -1.
  pid_t child() {
    EXPECT_TRUE(test::poll_until([this] {
      std::scoped_lock lock(mutex_);
      return output_.find('\n') != std::string::npos;
    }));
    std::scoped_lock lock(mutex_);
    child_ = static_cast<pid_t>(std::atoi(output_.c_str()));
    return child_ > 0 ? child_ : -1;
  }
  // The child is gone; the destructor must not kill a recycled pid.
  void forget_child() { child_ = -1; }
  bool finished() const { return finished_.load(); }
  const RunResult& result() const { return result_; }
  std::string output() {
    std::scoped_lock lock(mutex_);
    return output_;
  }
  Vm& vm() { return interp_.vm(); }

 private:
  Interp interp_;
  std::mutex mutex_;
  std::string output_;
  pid_t child_ = -1;
  RunResult result_;
  std::atomic<bool> finished_{false};
  std::thread runner_;
};

TEST(WaitpidTest, InterruptCancelsWaitOnLiveChild) {
  BlockedWaitpid run;
  pid_t child = run.child();
  ASSERT_GT(child, 0);
  sleep_for_millis(50);  // let the main thread settle into the wait
  ASSERT_FALSE(run.finished());
  Stopwatch watch;
  run.vm().request_exit(3);
  EXPECT_TRUE(test::poll_until([&] { return run.finished(); }, 1000))
      << "waitpid ignored the interrupt";
  EXPECT_LT(watch.elapsed_seconds(), 1.0);
  EXPECT_TRUE(run.result().exited);
  EXPECT_EQ(run.result().exit_code, 3);
  // The wait was cancelled, not satisfied: no verdict was printed and
  // the child is still running.
  EXPECT_EQ(run.output(), std::to_string(child) + "\n");
  EXPECT_EQ(::kill(child, 0), 0);
}

TEST(WaitpidTest, SignalledChildReportsMinusSigno) {
  BlockedWaitpid run;
  pid_t child = run.child();
  ASSERT_GT(child, 0);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ASSERT_TRUE(test::poll_until([&] { return run.finished(); }));
  run.forget_child();  // reaped by the program's waitpid
  EXPECT_TRUE(run.result().ok) << run.result().error.to_string();
  EXPECT_EQ(run.output(),
            std::to_string(child) + "\n" + std::to_string(-SIGKILL) + "\n");
}

TEST(WaitpidTest, NonChildPidRaisesRuntimeError) {
  // pid 1 exists but is never this process's child: ECHILD.
  test::expect_ml_error("waitpid(1)",
                        std::string("waitpid(1): ") + std::strerror(ECHILD));
}

// ---- C++-level fork hooks ----

TEST(ForkHooksTest, OrderMatchesPthreadAtfork) {
  vm::Interp interp;
  auto log = std::make_shared<std::vector<std::string>>();
  interp.vm().add_fork_handlers(ForkHooks{
      [log](Vm&) { log->push_back("prepare-1"); },
      [log](Vm&, int) { log->push_back("parent-1"); },
      nullptr,
  });
  interp.vm().add_fork_handlers(ForkHooks{
      [log](Vm&) { log->push_back("prepare-2"); },
      [log](Vm&, int) { log->push_back("parent-2"); },
      nullptr,
  });
  interp.vm().set_output([](std::string_view) {});
  auto result = interp.run_string(
      "pid = fork(fn() exit(0) end)\nwaitpid(pid)", "hooks.ml");
  ASSERT_TRUE(result.ok) << result.error.to_string();
  // prepare: newest-first; parent: registration order.
  ASSERT_EQ(log->size(), 4u);
  EXPECT_EQ((*log)[0], "prepare-2");
  EXPECT_EQ((*log)[1], "prepare-1");
  EXPECT_EQ((*log)[2], "parent-1");
  EXPECT_EQ((*log)[3], "parent-2");
}

TEST(ForkHooksTest, ChildHookRunsInChild) {
  vm::Interp interp;
  interp.vm().add_fork_handlers(ForkHooks{
      nullptr,
      nullptr,
      [](Vm& vm, int) {
        // Visible only via the child's exit code.
        vm.set_global("from_child_hook", Value(11));
      },
  });
  interp.vm().set_output([](std::string_view) {});
  auto result = interp.run_string(
      "from_child_hook = 0\n"
      "pid = fork(fn() exit(from_child_hook) end)\n"
      "exit(waitpid(pid))",
      "childhook.ml");
  ASSERT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 11);
}

TEST(ForkHooksTest, IsForkedChildFlagAndDepth) {
  vm::Interp interp;
  EXPECT_FALSE(interp.vm().is_forked_child());
  EXPECT_EQ(interp.vm().fork_depth(), 0);
  interp.vm().set_output([](std::string_view) {});
  auto result = interp.run_string(
      "pid = fork(fn() exit(0) end)\nwaitpid(pid)", "flag.ml");
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(interp.vm().is_forked_child());  // parent side unchanged
}

}  // namespace
}  // namespace dionea::vm

namespace dionea::vm {
namespace {

using test::expect_ml_output;

TEST(ForkSyncTest, CondVariableUsableInChild) {
  // VmCond is re-initialized in the child; signal/wait must work on the
  // child's fresh threads.
  expect_ml_output(
      "m = mutex()\n"
      "c = cond()\n"
      "pid = fork(fn()\n"
      "  box = [0]\n"
      "  t = spawn(fn()\n"
      "    lock(m)\n"
      "    while box[0] == 0\n"
      "      wait(c, m)\n"
      "    end\n"
      "    unlock(m)\n"
      "    return nil\n"
      "  end)\n"
      "  sleep(0.05)\n"
      "  lock(m)\n"
      "  box[0] = 1\n"
      "  unlock(m)\n"
      "  signal(c)\n"
      "  join(t)\n"
      "  exit(0)\n"
      "end)\n"
      "puts(waitpid(pid))",
      "0\n");
}

TEST(ForkSyncTest, ParentSyncObjectsUnaffectedByChild) {
  // The child locking its copy of a mutex must not affect the parent's.
  expect_ml_output(
      "m = mutex()\n"
      "sync = ipc_queue()\n"
      "pid = fork(fn()\n"
      "  lock(m)\n"
      "  ipc_push(sync, 1)\n"
      "  sleep(0.3)\n"          // hold it while the parent checks
      "  exit(0)\n"
      "end)\n"
      "ipc_pop(sync)\n"          // child definitely holds its copy now
      "puts(locked(m))\n"        // parent copy: still free
      "lock(m)\n"
      "puts(locked(m))\n"
      "unlock(m)\n"
      "waitpid(pid)",
      "false\ntrue\n");
}

TEST(ForkSyncTest, ThreadHandlesFromParentAreInertInChild) {
  // A ThreadHandle captured before the fork refers to a thread that no
  // longer exists in the child; join returns its last known result or
  // nil, but never hangs.
  test::RunOutcome outcome = test::run_ml(
      "t = spawn(fn()\n"
      "  sleep(5)\n"
      "  return 1\n"
      "end)\n"
      "pid = fork(fn()\n"
      "  exit(0)\n"              // child exits without touching t
      "end)\n"
      "st = waitpid(pid)\n"
      "puts(st)\n"
      "exit(0)");                // don't wait 5s for the sleeper
  EXPECT_TRUE(outcome.exited);
  EXPECT_EQ(outcome.output, "0\n");
}

TEST(ForkSyncTest, ForkInsideSpawnedThread) {
  // §5.1: "only the thread that called fork remains in the child" —
  // here the FORKING thread is not main; in the child it becomes main.
  expect_ml_output(
      "q = queue()\n"
      "t = spawn(fn()\n"
      "  pid = fork(fn()\n"
      "    exit(7)\n"
      "  end)\n"
      "  q.push(waitpid(pid))\n"
      "  return nil\n"
      "end)\n"
      "puts(q.pop())\n"
      "join(t)",
      "7\n");
}

}  // namespace
}  // namespace dionea::vm
