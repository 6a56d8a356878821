// Hostile-fork survival corpus, in-process half: forks fired at the
// worst possible moments for the §5.4 handlers. Every scenario asserts
// the same contract — the client stays attached to the parent, the
// child either exits cleanly or leaves a post-mortem report, and
// MiniSan stays quiet about the debugger's own machinery.
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "ipc/socket.hpp"
#include "support/crash_report.hpp"
#include "support/temp_file.hpp"
#include "testutil.hpp"

namespace dionea::dbg {
namespace {

using test::DebugHarness;
using test::HarnessOptions;

// The shared post-scenario contract: parent session still attached and
// answering, no crash event pending for the parent, MiniSan quiet.
void expect_parent_survived(DebugHarness& harness) {
  client::Session* parent = harness.session();
  ASSERT_NE(parent, nullptr);
  EXPECT_TRUE(parent->connected());
  auto pong = parent->ping();
  EXPECT_TRUE(pong.is_ok()) << pong.error().to_string();
  auto analysis = parent->analysis_report(/*run_lint=*/true);
  ASSERT_TRUE(analysis.is_ok()) << analysis.error().to_string();
  EXPECT_TRUE(analysis.value().findings.empty())
      << analysis.value().findings.size() << " dynamic findings";
  EXPECT_TRUE(analysis.value().lint_findings.empty())
      << analysis.value().lint_findings.size() << " lint findings";
}

// Scenario 1: fork while a sibling thread holds a VM mutex. The child
// inherits the mutex mid-critical-section with its owner gone; fork
// handler C must reinit it so the child's own lock() does not deadlock
// on a ghost owner.
TEST(HostileForkTest, ForkWhileSiblingHoldsVmMutex) {
  DebugHarness harness(
      "m = mutex()\n"
      "held = queue()\n"
      "t = spawn(fn()\n"
      "  lock(m)\n"
      "  held.push(1)\n"
      "  sleep(0.2)\n"
      "  unlock(m)\n"
      "  return 1\n"
      "end)\n"
      "held.pop()\n"  // sibling provably inside the critical section
      "pid = fork()\n"
      "if pid == 0\n"
      "  lock(m)\n"  // must not block on the dead sibling's ownership
      "  unlock(m)\n"
      "  exit(0)\n"
      "end\n"
      "join(t)\n"
      "st = waitpid(pid)\n"
      "puts(st)",
      HarnessOptions{.stop_at_entry = false, .stop_forked_children = true});
  harness.launch();

  auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
  ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
  int child_pid = static_cast<int>(forked.value().payload.get_int("child_pid"));
  auto child_h = harness.client().attach(child_pid, 5000);
  ASSERT_TRUE(child_h.is_ok()) << child_h.error().to_string();
  client::Session* child = harness.client().session(child_h.value());
  EXPECT_TRUE(child->connected());
  // Handler C's self-check must have found nothing to repair. The
  // regression this guards: the socket half of the check once ran
  // AFTER the child's new listener started accepting, so a client that
  // attached fast (exactly what await_process does) had its fresh
  // session mistaken for leaked parent fds and severed.
  auto child_stats = child->stats();
  ASSERT_TRUE(child_stats.is_ok()) << child_stats.error().to_string();
  EXPECT_EQ(child_stats.value().counter("fork_selfcheck_repairs"), 0);
  EXPECT_EQ(child_stats.value().counter("crash_reports"), 0);
  // Parked at birth, before its lock(m): resume it into the critical
  // section the dead sibling never finished.
  auto birth = child->wait_stopped(5000);
  ASSERT_TRUE(birth.is_ok()) << birth.error().to_string();
  ASSERT_TRUE(child->cont(birth.value().tid).is_ok());

  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "0\n");  // child exited cleanly
  expect_parent_survived(harness);
}

// Scenario 2: fork while the trace hook is active (single-step mode).
// Handler A disables tracing across the fork; the child must come up
// with working breakpoints, not a torn trace state.
TEST(HostileForkTest, ForkFromInsideActiveTraceHook) {
  DebugHarness harness(
      "pid = fork()\n"   // 1 <- stepped over: fork fires under tracing
      "if pid == 0\n"    // 2
      "  c = 41\n"       // 3
      "  c = c + 1\n"    // 4 <- breakpoint must fire in the child
      "  exit(c)\n"      // 5
      "end\n"
      "st = waitpid(pid)\n"
      "puts(st)",
      HarnessOptions{.stop_at_entry = true});
  harness.launch();
  auto entry = harness.session()->wait_stopped(5000);
  ASSERT_TRUE(entry.is_ok()) << entry.error().to_string();
  ASSERT_TRUE(harness.session()->set_breakpoint("test.ml", 4).is_ok());
  // step (not cont): the fork call executes with the trace hook live.
  ASSERT_TRUE(harness.session()->step(entry.value().tid).is_ok());

  auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
  ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
  int child_pid = static_cast<int>(forked.value().payload.get_int("child_pid"));
  auto child_h = harness.client().attach(child_pid, 5000);
  ASSERT_TRUE(child_h.is_ok()) << child_h.error().to_string();
  client::Session* child = harness.client().session(child_h.value());

  // The child inherits the in-flight step: its first stop is the step
  // completing on its own side of the fork (line 2), proof the trace
  // hook survived the fork torn-free.
  auto inherited = child->wait_stopped(10'000);
  ASSERT_TRUE(inherited.is_ok()) << inherited.error().to_string();
  EXPECT_EQ(inherited.value().reason, "step");
  EXPECT_EQ(inherited.value().line, 2);
  ASSERT_TRUE(child->cont(inherited.value().tid).is_ok());

  // And the inherited breakpoint table still fires.
  auto hit = child->wait_stopped(10'000);
  ASSERT_TRUE(hit.is_ok()) << hit.error().to_string();
  EXPECT_EQ(hit.value().reason, "breakpoint");
  EXPECT_EQ(hit.value().line, 4);
  ASSERT_TRUE(child->cont(hit.value().tid).is_ok());

  // Un-wedge the parent (it is stopped after its step) and finish.
  auto stepped = harness.session()->wait_stopped(5000);
  ASSERT_TRUE(stepped.is_ok()) << stepped.error().to_string();
  ASSERT_TRUE(harness.session()->cont(stepped.value().tid).is_ok());
  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "42\n");
  expect_parent_survived(harness);
}

// Scenario 3: fork with an mp queue mid-push on a sibling thread. The
// queue's pipe spans the fork; both sides keep using it afterwards.
TEST(HostileForkTest, ForkWithMpQueueMidPush) {
  DebugHarness harness(
      "q = ipc_queue()\n"
      "t = spawn(fn()\n"
      "  i = 0\n"
      "  while i < 500\n"
      "    ipc_push(q, i)\n"
      "    i = i + 1\n"
      "  end\n"
      "  return i\n"
      "end)\n"
      "pid = fork()\n"  // lands somewhere inside the sibling's pushes
      "if pid == 0\n"
      "  ipc_push(q, 777777)\n"  // child's copy of the queue still works
      "  exit(0)\n"
      "end\n"
      "join(t)\n"
      "st = waitpid(pid)\n"
      "seen = 0\n"
      "found = 0\n"
      "while seen < 501\n"
      "  v = ipc_pop(q)\n"
      "  if v == 777777\n"
      "    found = 1\n"
      "  end\n"
      "  seen = seen + 1\n"
      "end\n"
      "puts(st)\n"
      "puts(found)",
      HarnessOptions{.stop_at_entry = false});
  harness.launch();

  auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
  ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  // Clean child exit, and its push actually traversed the fork.
  EXPECT_EQ(harness.output(), "0\n1\n");
  expect_parent_survived(harness);
}

// Scenario 4: fork storm with immediate child crashes. Five children
// in a tight loop, each SIGSEGVing in a native right after birth; the
// parent must stay attached and debuggable through all five corpses,
// and each corpse must leave a post-mortem report.
TEST(HostileForkTest, ForkStormWithImmediateChildCrash) {
  DebugHarness harness(
      "n = 0\n"
      "crashed = 0\n"
      "while n < 5\n"
      "  pid = fork()\n"
      "  if pid == 0\n"
      "    hostile_segv()\n"
      "    exit(9)\n"  // unreachable
      "  end\n"
      "  st = waitpid(pid)\n"
      "  if st < 0\n"
      "    crashed = crashed + 1\n"
      "  end\n"
      "  n = n + 1\n"
      "end\n"
      "puts(crashed)",
      HarnessOptions{.stop_at_entry = false});
  harness.vm().define_native(
      "hostile_segv", 0, 0,
      [](vm::Vm&, vm::InterpThread&,
         std::vector<vm::Value>&) -> vm::NativeResult {
        volatile int* bad = nullptr;
        *bad = 1;  // SIGSEGV with the GIL held (natives run under it)
        return vm::Value();
      });
  harness.launch();

  std::vector<int> child_pids;
  for (int i = 0; i < 5; ++i) {
    auto forked = harness.session()->wait_event(proto::Event::kForked, 15'000);
    ASSERT_TRUE(forked.is_ok()) << "fork " << i << ": "
                                << forked.error().to_string();
    child_pids.push_back(
        static_cast<int>(forked.value().payload.get_int("child_pid")));
  }
  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "5\n");  // all five died of the signal

  // Every corpse left a DIONEA-CRASH report keyed by its own pid.
  for (int pid : child_pids) {
    std::string report_path = crash::crash_dir_string() + "/dionea-crash." +
                              std::to_string(pid) + ".txt";
    auto report = read_file(report_path);
    ASSERT_TRUE(report.is_ok()) << report_path << " missing";
    EXPECT_EQ(report.value().rfind("DIONEA-CRASH v1\n", 0), 0u);
    EXPECT_NE(report.value().find("signal: 11"), std::string::npos);
    (void)::unlink(report_path.c_str());
  }
  expect_parent_survived(harness);
}

// Scenario 5: double fork with a dead intermediate parent. The
// grandchild is orphaned at birth (its parent exits immediately); it
// must still rebind, publish its record, and be attachable while the
// original client keeps the session to the grandparent.
TEST(HostileForkTest, DoubleForkWithDeadIntermediateParent) {
  DebugHarness harness(
      "q = ipc_queue()\n"
      "pid = fork()\n"
      "if pid == 0\n"
      "  g = fork()\n"
      "  if g == 0\n"
      "    ipc_push(q, getpid())\n"
      "    sleep(1.5)\n"  // stay alive long enough to be attached
      "    exit(0)\n"
      "  end\n"
      "  exit(3)\n"  // intermediate dies at once: grandchild orphaned
      "end\n"
      "st = waitpid(pid)\n"
      "gp = ipc_pop(q)\n"
      "puts(st)",
      HarnessOptions{.stop_at_entry = false});
  harness.launch();

  // First kForked: the intermediate. (The grandchild's own kForked is
  // announced on the intermediate's session, which dies immediately —
  // we learn the grandchild pid through the queue instead.)
  auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
  ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
  int intermediate = static_cast<int>(
      forked.value().payload.get_int("child_pid"));

  // The orphan publishes its record; find its pid in the port file.
  int grandchild = 0;
  ASSERT_TRUE(test::poll_until([&] {
    (void)harness.client().refresh(100);
    for (client::SessionHandle h : harness.client().sessions()) {
      int pid = harness.client().pid_of(h);
      if (pid != static_cast<int>(::getpid()) && pid != intermediate) {
        grandchild = pid;
        return true;
      }
    }
    return false;
  }, 10'000)) << "orphaned grandchild never published a session";

  client::Session* orphan =
      harness.client().session(harness.client().handle_for_pid(grandchild));
  ASSERT_NE(orphan, nullptr);
  EXPECT_TRUE(orphan->connected());
  auto pong = orphan->ping();
  EXPECT_TRUE(pong.is_ok()) << pong.error().to_string();

  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "3\n");
  expect_parent_survived(harness);
}

// Fork while a client connection is mid-handshake: the listener thread
// has accepted it but its hello has not arrived (here it never does).
// The child must not inherit the connection, or the peer would see it
// stay open until the child exits instead of when the parent's server
// gives up on the hello (2 s).
TEST(HostileForkTest, ForkMidHandshakeDoesNotLeakTheConnection) {
  DebugHarness harness(
      "sleep(0.3)\n"  // the silent connection below is pending by now
      "pid = fork(fn()\n"
      "  sleep(4)\n"
      "end)\n"
      "puts(waitpid(pid))",
      HarnessOptions{.stop_at_entry = false});
  harness.launch();
  auto silent = ipc::TcpStream::connect(harness.server().port());
  ASSERT_TRUE(silent.is_ok()) << silent.error().to_string();
  auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
  ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
  auto child = static_cast<pid_t>(forked.value().payload.get_int("child_pid"));

  auto readable = silent.value().readable(3'500);
  ASSERT_TRUE(readable.is_ok()) << readable.error().to_string();
  ASSERT_TRUE(readable.value()) << "the forked child kept the connection open";
  char byte = 0;
  EXPECT_EQ(::recv(silent.value().raw_fd(), &byte, 1, 0), 0);  // EOF
  EXPECT_EQ(::kill(child, 0), 0) << "the child exited before the check";

  auto result = harness.join();
  EXPECT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "0\n");
  expect_parent_survived(harness);
}

// Scenario 6: fork under active replay recording. The DRLG engine is
// live on both sides of the fork; the child keeps its own log and the
// parent's recording survives the storm.
TEST(HostileForkTest, ForkUnderActiveReplayRecording) {
  auto tmp = TempDir::create("hostile-replay");
  ASSERT_TRUE(tmp.is_ok());
  replay::Engine& engine = replay::Engine::instance();
  ASSERT_TRUE(engine.start_record(tmp.value().path()).is_ok());
  {
    DebugHarness harness(
        "pid = fork()\n"
        "if pid == 0\n"
        "  x = 21\n"
        "  exit(x * 2 - 42)\n"
        "end\n"
        "st = waitpid(pid)\n"
        "puts(st)",
        HarnessOptions{.stop_at_entry = false});
    harness.launch();
    auto forked = harness.session()->wait_event(proto::Event::kForked, 10'000);
    ASSERT_TRUE(forked.is_ok()) << forked.error().to_string();
    auto result = harness.join();
    EXPECT_TRUE(result.ok) << result.error.to_string();
    EXPECT_EQ(harness.output(), "0\n");
    expect_parent_survived(harness);
  }
  engine.stop();
}

}  // namespace
}  // namespace dionea::dbg
