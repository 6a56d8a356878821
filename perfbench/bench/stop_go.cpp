// stop-go: one client loops over a thread-filtered breakpoint hit in a
// hot loop, frames + locals while stopped, then cont. A sibling
// interpreter thread runs the same breakpoint line and must never stop.
// The debugger command path, wire framing and client decode do the
// work; dispatch does little.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "client/session.hpp"
#include "debugger/server.hpp"
#include "scenarios.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"

namespace perfbench {
namespace {

using namespace dionea;

constexpr const char* kFile = "stopgo.ml";
constexpr int kBreakLine = 5;
constexpr int kLinesPerIteration = 3;  // lines 4, 5 and 6 of one loop turn

// The seed picks the values of the frame's locals, never their sizes.
std::string program(std::uint64_t seed) {
  Rng rng(seed);
  return strings::format(
      "fn spin(slot)\n"                  // 1
      "  tag = \"%s\"\n"                 // 2
      "  i = %lld\n"                     // 3
      "  while bench_running()\n"        // 4
      "    i = i + 1\n"                  // 5  <- breakpoint, main thread only
      "    bench_progress(slot)\n"       // 6
      "  end\n"                          // 7
      "  return i\n"                     // 8
      "end\n"                            // 9
      "sib = spawn(spin, 1)\n"           // 10
      "spin(0)\n"                        // 11
      "join(sib)\n",                     // 12
      rng.next_word(12, 12).c_str(),
      static_cast<long long>(rng.next_range(100000, 999999)));
}

struct Shared {
  std::atomic<bool> running{true};
  std::atomic<std::int64_t> sibling_iterations{0};
};

// One debuggee under a debugger, parked at its first breakpoint hit.
class Fixture {
 public:
  explicit Fixture(std::uint64_t seed) : source_(program(seed)) {}

  ~Fixture() { (void)finish(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Status start(double* server_start_ms) {
    auto tmp = TempDir::create("perfbench-sg");
    if (!tmp.is_ok()) return tmp.error();
    tmp_ = std::make_unique<TempDir>(std::move(tmp).value());
    interp_ = std::make_unique<vm::Interp>();
    auto shared = shared_;
    interp_->vm().define_native(
        "bench_running", 0, 0,
        [shared](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>&)
            -> vm::NativeResult { return vm::Value(shared->running.load()); });
    interp_->vm().define_native(
        "bench_progress", 1, 1,
        [shared](vm::Vm& vm, vm::InterpThread& th, std::vector<vm::Value>& args)
            -> vm::NativeResult {
          if (args[0].as_int() == 1) {
            shared->sibling_iterations.fetch_add(1, std::memory_order_relaxed);
            // Let a waiting thread have the GIL, as a thread doing I/O
            // would.
            vm::Vm::BlockScope yield(vm, th, vm::ThreadState::kIoBlocked, "progress");
          }
          return vm::Value();
        });
    dbg::DebugServer::Options options;
    options.port_file = tmp_->file("ports");
    options.stop_at_entry = true;
    server_ = std::make_unique<dbg::DebugServer>(interp_->vm(), options);
    server_->register_source(kFile, source_);
    double t0 = now_s();
    Status started = [&] {
      trace::Span span("debugger.server_start", kSpanCategory);
      return server_->start();
    }();
    *server_start_ms = (now_s() - t0) * 1e3;
    if (!started.is_ok()) return started;
    runner_ = std::thread([this] {
      result_ = interp_->run_string(source_, kFile);
    });
    auto att = client::Session::attach(server_->port(), 5000);
    if (!att.is_ok()) return att.error();
    session_ = std::move(att).value();
    auto entry = session_->wait_stopped(5000);
    if (!entry.is_ok()) return entry.error();
    main_tid_ = entry.value().tid;
    auto bp = session_->set_breakpoint(kFile, kBreakLine, main_tid_);
    if (!bp.is_ok()) return bp.error();
    if (Status s = session_->cont(main_tid_); !s.is_ok()) return s;
    auto first = session_->wait_stopped(5000);
    if (!first.is_ok()) return first.error();
    return check_stop(first.value());
  }

  Status check_stop(const client::StopInfo& stop) const {
    if (stop.tid != main_tid_ || stop.line != kBreakLine ||
        stop.reason != "breakpoint") {
      return Status(ErrorCode::kInternal,
                    strings::format("unexpected stop tid=%lld line=%d (%s)",
                                    static_cast<long long>(stop.tid), stop.line,
                                    stop.reason.c_str()));
    }
    return Status::ok();
  }

  // Resume everything and wait for the program to end.
  Status finish() {
    if (!runner_.joinable()) return Status::ok();
    shared_->running.store(false);
    if (session_ != nullptr && session_->connected()) {
      (void)session_->clear_breakpoint(0);
      (void)session_->cont_all();
    }
    server_->stop();  // resumes anything still parked
    runner_.join();
    if (!result_.ok) {
      return Status(ErrorCode::kInternal,
                    "stop-go program failed: " + result_.error.to_string());
    }
    return Status::ok();
  }

  client::Session& session() { return *session_; }
  std::int64_t main_tid() const { return main_tid_; }
  Shared& shared() { return *shared_; }

 private:
  std::string source_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
  std::unique_ptr<TempDir> tmp_;
  std::unique_ptr<vm::Interp> interp_;
  std::unique_ptr<dbg::DebugServer> server_;
  std::unique_ptr<client::Session> session_;
  std::int64_t main_tid_ = 0;
  vm::RunResult result_;
  std::thread runner_;  // last: joined before the members it uses go
};

// The value of local `name` in a locals listing, or "".
std::string local(const std::vector<std::pair<std::string, std::string>>& locals,
                  const std::string& name) {
  for (const auto& [k, v] : locals) {
    if (k == name) return v;
  }
  return "";
}

// What a run of stop cycles measured.
struct Samples {
  std::vector<std::vector<double>> cycle_ms;    // one window per segment
  std::vector<std::vector<double>> inspect_ms;  // one window per segment
  std::vector<double> cont_ms;                  // Session::cont alone
  std::vector<double> wait_stopped_ms;          // Session::wait_stopped alone
  double busy_s = 0;
  std::int64_t sibling_iterations = 0;
  Snapshot registry;  // deltas over the cycles
};

// `cycles` stop cycles on a fixture parked at its breakpoint.
Status run_cycles(Fixture& fx, int cycles, double deadline, Report& report,
                  Samples* out) {
  client::Session& session = fx.session();
  const std::int64_t tid = fx.main_tid();
  Snapshot before = registry_now();
  const double t_begin = now_s();
  const std::int64_t sib_begin = fx.shared().sibling_iterations.load();
  std::int64_t last_i = -1;
  std::vector<double>& cycle_ms = out->cycle_ms.emplace_back();
  std::vector<double>& inspect_ms = out->inspect_ms.emplace_back();
  Status status;
  for (int cycle = 0; cycle < cycles && now_s() < deadline; ++cycle) {
    report.attempt();
    double t0 = now_s();
    status = [&] {
      trace::Span span("client.cont", kSpanCategory);
      return session.cont(tid);
    }();
    if (!status.is_ok()) break;
    double t_cont = now_s();
    Result<client::StopInfo> stop = [&] {
      trace::Span span("client.wait_stopped", kSpanCategory);
      return session.wait_stopped(5000);
    }();
    double t1 = now_s();
    status = stop.is_ok() ? fx.check_stop(stop.value()) : stop.error();
    if (!status.is_ok()) break;
    cycle_ms.push_back((t1 - t0) * 1e3);
    out->cont_ms.push_back((t_cont - t0) * 1e3);
    out->wait_stopped_ms.push_back((t1 - t_cont) * 1e3);

    double t2 = now_s();
    auto [frames, locals] = [&] {
      trace::Span span("client.inspect", kSpanCategory);
      auto f = session.frames(tid);
      return std::make_pair(std::move(f), session.locals(tid, 0));
    }();
    double t3 = now_s();
    if (!frames.is_ok() || !locals.is_ok()) {
      status = Status(ErrorCode::kInternal, "inspect failed");
      break;
    }
    // Each cycle runs exactly one loop turn of the stopped thread.
    std::int64_t i = std::stoll("0" + local(locals.value(), "i"));
    if (frames.value().empty() || frames.value()[0].line != kBreakLine ||
        (last_i >= 0 && i != last_i + 1)) {
      status = Status(ErrorCode::kInternal,
                      strings::format("inspect: i=%lld after %lld",
                                      static_cast<long long>(i),
                                      static_cast<long long>(last_i)));
      break;
    }
    last_i = i;
    inspect_ms.push_back((t3 - t2) * 1e3);
  }
  out->busy_s += now_s() - t_begin;
  out->sibling_iterations += fx.shared().sibling_iterations.load() - sib_begin;
  merge(&out->registry, delta(registry_now(), before));
  return status;
}

}  // namespace

// A run makes kSegments segments of kSegmentCycles back-to-back stop
// cycles, each on a fresh debuggee, with the segments spread evenly
// over the budget and nothing running between them. The host's speed
// swings by a third from one half second to the next; spread-out
// segments, each summarized on its own (summarize_windows), read the
// average instead of whichever phase one burst hit. Fresh threads per
// segment average over how the scheduler places them. The count is
// fixed, and the debuggee only runs during segments, because the
// process keeps some memory per line the sibling runs (so memory, and
// peak_rss_mb, stay the same whatever the speed).
constexpr int kSegments = 40;
constexpr int kSegmentCycles = 200;

void run_stop_go(Context& ctx) {
  Report& report = *ctx.report;
  std::unique_ptr<Fixture> fx;
  // Every fixture start counts as a set-up, the segments' too.
  std::vector<double> setups;
  auto restart = [&]() -> bool {
    if (fx) {
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
    if (!s.is_ok()) report.fail("stop-go set-up: " + s.to_string());
    return s.is_ok();
  };
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    if (!restart()) return;
  }

  Samples samples;
  const double t0 = now_s();
  for (int segment = 0; segment < kSegments; ++segment) {
    if (segment > 0) {
      if (Status s = fx->finish(); !s.is_ok()) report.fail(s.to_string());
      fx.reset();
      double next = t0 + ctx.seconds * segment / kSegments;
      if (next > now_s()) sleep_for_millis(static_cast<std::int64_t>((next - now_s()) * 1e3));
      if (!restart()) break;
    }
    Status s = run_cycles(*fx, kSegmentCycles, ctx.deadline, report, &samples);
    if (!s.is_ok()) {
      report.fail(s.to_string());
      break;
    }
  }
  if (fx) {
    if (Status s = fx->finish(); !s.is_ok()) report.fail(s.to_string());
  }
  report_setup(ctx, setups);
  if (samples.sibling_iterations <= 0) {
    report.fail("the sibling thread made no progress");
  }
  const Snapshot& d = samples.registry;
  Summary cycle = summarize_windows(samples.cycle_ms, kTailCap);
  Summary inspect = summarize_windows(samples.inspect_ms, kTailCap);
  if (cycle.n == 0) return;

  report.add_timing("stop_cycle_p50_ms", "stop_cycle_tail_ms", "ms", cycle);
  report.add("inspect_p50_ms", "ms", inspect.p50, inspect.n);
  report.add("sibling_lines_per_s", "1/s",
             static_cast<double>(samples.sibling_iterations * kLinesPerIteration) /
                 samples.busy_s,
             cycle.n);

  // Per-layer, from the registry deltas of the measured loop.
  const double cycles = static_cast<double>(cycle.n);
  std::uint64_t acquires = count(d, Counter::kGilAcquires);
  report.add("vm.gil_wait_ns_p50", "ns",
             hist_percentile_ns(d, Histogram::kGilWaitNanos, 50),
             hist_count(d, Histogram::kGilWaitNanos));
  report.add("vm.gil_contended_ratio", "ratio",
             acquires == 0 ? 0
                           : static_cast<double>(count(d, Counter::kGilContended)) /
                                 static_cast<double>(acquires),
             acquires);
  report.add("debugger.command_ns_p50", "ns",
             hist_percentile_ns(d, Histogram::kCommandNanos, 50),
             hist_count(d, Histogram::kCommandNanos));
  report.add("debugger.command_ns_tail", "ns",
             hist_tail_ns(d, Histogram::kCommandNanos, kTailCap),
             hist_count(d, Histogram::kCommandNanos),
             tail_level(hist_count(d, Histogram::kCommandNanos), kTailCap));
  report.add("debugger.stop_park_ms_p50", "ms",
             hist_percentile_ns(d, Histogram::kStopParkNanos, 50) / 1e6,
             hist_count(d, Histogram::kStopParkNanos));
  report.add("debugger.stops", "count",
             static_cast<double>(count(d, Counter::kStops)), cycle.n);
  report.add("debugger.events_sent", "count",
             static_cast<double>(count(d, Counter::kEventsSent)), cycle.n);
  std::uint64_t frames_sent = count(d, Counter::kFramesSent);
  report.add("ipc.frames_per_cycle", "count",
             static_cast<double>(frames_sent) / cycles, cycle.n);
  report.add("ipc.bytes_per_frame", "bytes",
             frames_sent == 0 ? 0
                              : static_cast<double>(count(d, Counter::kFrameBytesSent)) /
                                    static_cast<double>(frames_sent),
             frames_sent);
  report.add("ipc.reactor_dispatch_ns_p50", "ns",
             hist_percentile_ns(d, Histogram::kReactorDispatchNanos, 50),
             hist_count(d, Histogram::kReactorDispatchNanos));
  report.add("client.cont_ms", "ms", percentile(samples.cont_ms, 50),
             samples.cont_ms.size());
  report.add("client.wait_stopped_ms", "ms",
             percentile(samples.wait_stopped_ms, 50),
             samples.wait_stopped_ms.size());
  std::vector<double> inspect_all;
  for (const auto& w : samples.inspect_ms) {
    inspect_all.insert(inspect_all.end(), w.begin(), w.end());
  }
  report.add("client.inspect_ms", "ms", percentile(inspect_all, 50),
             inspect_all.size());
}

}  // namespace perfbench
