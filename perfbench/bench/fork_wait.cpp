// fork-wait: sequential fork cycles under a debugger that stops every
// forked child at birth. Each cycle: the parent forks, the client adopts
// the child through the port file, continues it, the child exits, and
// the parent reaps it. Fork handlers A/B/C, the port-file handoff,
// client discovery and waitpid do the work.
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "client/client.hpp"
#include "debugger/server.hpp"
#include "mp/vm_bindings.hpp"
#include "scenarios.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"
#include "support/trace_export.hpp"

namespace perfbench {
namespace {

using namespace dionea;
namespace proto = dbg::proto;

constexpr const char* kFile = "forkwait.ml";
// Fork cycles a run plans per second of its budget (a cycle takes
// 20-40 ms here, most of it sleep slices in waitpid and discovery).
constexpr double kCyclesPerSecond = 40;

// The seed picks the value the child computes before exiting 0.
std::string program(std::uint64_t seed) {
  Rng rng(seed);
  return strings::format(
      "while bench_running()\n"
      "  bench_forking()\n"
      "  pid = fork(fn()\n"
      "    v = %lld\n"
      "    exit(v - v)\n"
      "  end)\n"
      "  bench_reaped(pid, waitpid(pid))\n"
      "end\n",
      static_cast<long long>(rng.next_range(1000, 9999)));
}

struct Shared {
  std::atomic<bool> running{true};
  std::mutex mutex;
  std::vector<double> fork_start;            // guarded by mutex
  std::vector<std::pair<int, double>> reaped;  // pid, time; guarded by mutex
  std::vector<std::string> errors;           // guarded by mutex
};

class Fixture {
 public:
  explicit Fixture(std::uint64_t seed) : source_(program(seed)) {}
  ~Fixture() { (void)finish(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Status start(double* server_start_ms) {
    auto tmp = TempDir::create("perfbench-fw");
    if (!tmp.is_ok()) return tmp.error();
    tmp_ = std::make_unique<TempDir>(std::move(tmp).value());
    interp_ = std::make_unique<vm::Interp>();
    mp::install_vm_bindings(interp_->vm());
    auto shared = shared_;
    interp_->vm().define_native(
        "bench_running", 0, 0,
        [shared](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>&)
            -> vm::NativeResult { return vm::Value(shared->running.load()); });
    interp_->vm().define_native(
        "bench_forking", 0, 0,
        [shared](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>&)
            -> vm::NativeResult {
          std::scoped_lock lock(shared->mutex);
          shared->fork_start.push_back(now_s());
          return vm::Value();
        });
    interp_->vm().define_native(
        "bench_reaped", 2, 2,
        [shared](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>& args)
            -> vm::NativeResult {
          double t = now_s();
          std::scoped_lock lock(shared->mutex);
          int pid = static_cast<int>(args[0].as_int());
          shared->reaped.emplace_back(pid, t);
          if (!args[1].is_int() || args[1].as_int() != 0) {
            shared->errors.push_back(strings::format(
                "child %d exited %s", pid, args[1].repr().c_str()));
          }
          return vm::Value();
        });
    dbg::DebugServer::Options options;
    options.port_file = tmp_->file("ports");
    options.stop_at_entry = true;
    options.stop_forked_children = true;
    server_ = std::make_unique<dbg::DebugServer>(interp_->vm(), options);
    server_->register_source(kFile, source_);
    double t0 = now_s();
    Status started = [&] {
      trace::Span span("debugger.server_start", kSpanCategory);
      return server_->start();
    }();
    *server_start_ms = (now_s() - t0) * 1e3;
    if (!started.is_ok()) return started;
    std::fflush(nullptr);  // children must not inherit unwritten output
    runner_ = std::thread([this] {
      vm::RunResult result = interp_->run_string(source_, kFile);
      leave_if_forked_child(*interp_, result, "");
      result_ = result;
      finished_.store(true);
    });
    client_ = client::Client::discover(tmp_->file("ports"));
    auto parent = client_->attach(static_cast<int>(::getpid()), 5000);
    if (!parent.is_ok()) return parent.error();
    parent_ = parent.value();
    auto entry = client_->session(parent_)->wait_stopped(5000);
    if (!entry.is_ok()) return entry.error();
    main_tid_ = entry.value().tid;
    return Status::ok();
  }

  Status finish() {
    if (!runner_.joinable()) return Status::ok();
    shared_->running.store(false);
    server_->stop();
    // A parent still waiting on a child nobody adopted: interrupt it.
    for (double give_up = now_s() + 1; !finished_.load() && now_s() < give_up;) {
      sleep_for_millis(5);
    }
    if (!finished_.load()) interp_->vm().request_exit(1);
    runner_.join();
    if (!result_.ok) {
      return Status(ErrorCode::kInternal,
                    "fork-wait program failed: " + result_.error.to_string());
    }
    return Status::ok();
  }

  client::Client& client() { return *client_; }
  client::Session& parent() { return *client_->session(parent_); }
  std::int64_t main_tid() const { return main_tid_; }
  Shared& shared() { return *shared_; }
  bool finished() const { return finished_.load(); }

 private:
  std::string source_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
  std::unique_ptr<TempDir> tmp_;
  std::unique_ptr<vm::Interp> interp_;
  std::unique_ptr<dbg::DebugServer> server_;
  std::unique_ptr<client::Client> client_;
  client::SessionHandle parent_{};
  std::int64_t main_tid_ = 0;
  vm::RunResult result_;
  std::atomic<bool> finished_{false};
  std::thread runner_;  // last: joined before the members it uses go
};

// One adopted child: forked (parent's event decoded) -> child's stop
// decoded -> child continued -> child's terminated decoded.
struct Cycle {
  int pid = 0;
  double forked = 0;
  double attached = 0;
  double stopped = 0;
  double terminated = 0;
};

Status adopt_one(client::Client& client, client::Session& parent, Cycle* c,
                 int forked_timeout_ms = 5000) {
  Result<client::DebugEvent> forked = [&] {
    trace::Span span("client.wait_forked", kSpanCategory);
    return parent.wait_event(proto::Event::kForked, forked_timeout_ms);
  }();
  if (!forked.is_ok()) return forked.error();
  c->forked = now_s();
  c->pid = static_cast<int>(forked.value().payload.get_int("child_pid"));
  Result<client::SessionHandle> handle = [&] {
    trace::Span span("client.attach", kSpanCategory);
    return client.attach(c->pid, 5000);
  }();
  if (!handle.is_ok()) return handle.error();
  c->attached = now_s();
  client::Session* child = client.session(handle.value());
  auto stop = child->wait_stopped(5000);
  if (!stop.is_ok()) return stop.error();
  c->stopped = now_s();
  if (Status s = child->cont(stop.value().tid); !s.is_ok()) return s;
  auto done = child->wait_event(proto::Event::kTerminated, 5000);
  if (!done.is_ok()) return done.error();
  c->terminated = now_s();
  client.drop(handle.value());
  return Status::ok();
}

// Mean fork-handler time per fork (A + B in the parent, C in the child)
// from the program's own fork spans, written when DIONEA_TRACE_OUT is
// set. Only spans inside [begin, end] and children in `pids` count.
double fork_handler_us(const std::string& trace_out, double begin, double end,
                       const std::set<int>& pids) {
  if (trace_out.empty() || pids.empty()) return 0;
  trace::flush();
  auto span_total = [&](const std::string& path, bool windowed) {
    double total = 0;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"cat\":\"fork\"") == std::string::npos) continue;
      auto number = [&](const char* key) {
        size_t at = line.find(key);
        return at == std::string::npos ? 0.0
                                        : std::atof(line.c_str() + at + std::strlen(key));
      };
      double ts = number("\"ts\":") / 1e6;  // µs -> s
      if (windowed && (ts < begin || ts > end)) continue;
      total += number("\"dur\":");
    }
    return total;
  };
  double total = span_total(trace_out, true);
  for (int pid : pids) {
    std::string child = trace_out + "." + std::to_string(pid);
    total += span_total(child, false);
    std::remove(child.c_str());
  }
  return total / static_cast<double>(pids.size());
}

}  // namespace

void run_fork_wait(Context& ctx) {
  Report& report = *ctx.report;
  std::vector<double> setups;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    if (fx) {
      // A fixture parked at entry ends as soon as it is released.
      if (Status s = fx->finish(); !s.is_ok()) report.fail(s.to_string());
      fx.reset();
    }
    double t0 = now_s();
    fx = std::make_unique<Fixture>(ctx.seed);
    double start_ms = 0;
    Status s = fx->start(&start_ms);
    setups.push_back(now_s() - t0);
    ctx.server_start_ms->push_back(start_ms);
    report.attempt();
    if (!s.is_ok()) {
      report.fail("fork-wait set-up: " + s.to_string());
      return;
    }
  }
  report_setup(ctx, setups);

  std::vector<Cycle> cycles;
  std::set<int> adopted;
  const int planned = std::max(30, static_cast<int>(ctx.seconds * kCyclesPerSecond));
  double t_begin = now_s();
  if (Status s = fx->parent().cont(fx->main_tid()); !s.is_ok()) {
    report.fail("cont parent: " + s.to_string());
    return;
  }
  while (static_cast<int>(cycles.size()) < planned && now_s() < ctx.deadline) {
    Cycle c;
    Status s = adopt_one(fx->client(), fx->parent(), &c);
    if (!s.is_ok()) {
      report.fail("fork cycle: " + s.to_string());
      break;
    }
    if (!adopted.insert(c.pid).second) {
      report.fail(strings::format("child %d adopted twice", c.pid));
    }
    cycles.push_back(c);
  }
  // The parent may have one more fork in flight: adopt it so it ends.
  fx->shared().running.store(false);
  for (double give_up = now_s() + 10; !fx->finished();) {
    Cycle c;
    Status s = adopt_one(fx->client(), fx->parent(), &c, 100);
    if (s.is_ok()) {
      adopted.insert(c.pid);
    } else if (s.error().code() != ErrorCode::kTimeout || now_s() > give_up) {
      report.fail("fork-wait wind-down: " + s.to_string());
      break;
    }
  }
  double t_end = now_s();
  if (Status s = fx->finish(); !s.is_ok()) report.fail(s.to_string());

  // Join the VM's view (fork start, reap) with the client's, by pid.
  Shared& shared = fx->shared();
  std::scoped_lock lock(shared.mutex);
  for (const std::string& e : shared.errors) report.fail(e);
  std::vector<double> attach_ms, cycle_ms, lag_ms, client_attach_ms;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const Cycle& c = cycles[i];
    report.attempt();
    client_attach_ms.push_back((c.stopped - c.forked) * 1e3);
    attach_ms.push_back((c.attached - c.forked) * 1e3);
    if (i + 1 < cycles.size()) {
      lag_ms.push_back((cycles[i + 1].forked - c.terminated) * 1e3);
    }
  }
  std::size_t reaped_adopted = 0;
  for (std::size_t i = 0; i < shared.reaped.size(); ++i) {
    if (i < shared.fork_start.size()) {
      cycle_ms.push_back((shared.reaped[i].second - shared.fork_start[i]) * 1e3);
    }
    if (adopted.count(shared.reaped[i].first) > 0) ++reaped_adopted;
  }
  if (reaped_adopted != adopted.size() || shared.reaped.size() != adopted.size() ||
      shared.fork_start.size() != adopted.size()) {
    report.fail(strings::format("forked %zu, adopted %zu, reaped %zu",
                                shared.fork_start.size(), adopted.size(),
                                shared.reaped.size()));
  }
  if (cycles.empty()) return;

  report.add_timing("child_attach_p50_ms", "child_attach_tail_ms", "ms",
                    summarize(client_attach_ms, kTailCap));
  report.add_timing("fork_cycle_p50_ms", "fork_cycle_tail_ms", "ms",
                    summarize(cycle_ms, kTailCap));
  report.add("vm.waitpid_lag_ms", "ms", percentile(lag_ms, 50), lag_ms.size());
  report.add("client.attach_ms", "ms", percentile(attach_ms, 50),
             attach_ms.size());
  double handlers = fork_handler_us(ctx.trace_out, t_begin, t_end, adopted);
  if (handlers > 0) {
    report.add("debugger.fork_handler_us", "us", handlers, adopted.size());
  }
}

}  // namespace perfbench
