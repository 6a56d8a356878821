// hub-fanout: open loop. Events are injected on a fixed schedule across
// many synthetic hub sessions, with one subscribed client; each event
// is timed from when it was due. Hub routing, the outbound queues and
// the reactor pool do the work; the VM and the debugger do none.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "client/client.hpp"
#include "debugger/protocol.hpp"
#include "hub/hub.hpp"
#include "scenarios.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

using namespace dionea;
namespace proto = dbg::proto;

constexpr int kSessions = 256;
constexpr int kShards = 2;  // + injector + receiver = 4 busy threads
constexpr double kFixedRate = 10000;  // events/s for route_p50/tail
constexpr double kWindowSeconds = 0.1;  // route_* are averaged per window
constexpr double kRouteTailLimitMs = 2.0;
constexpr double kLadderFirst = 40000;
constexpr double kLadderFactor = 1.1;
constexpr int kLadderRungs = 16;  // up to 40000 x 1.1^15 = 167 k/s

// Received (seq, time) pairs, filled by the client's poll thread.
class Receiver {
 public:
  explicit Receiver(client::Client& client) : client_(client) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Receiver() {
    stop_.store(true);
    thread_.join();
  }
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  std::uint64_t received() const { return count_.load(); }
  std::vector<std::pair<std::int64_t, double>> take() {
    std::scoped_lock lock(mutex_);
    return std::exchange(got_, {});
  }
  std::vector<double> poll_ms() {
    std::scoped_lock lock(mutex_);
    return poll_ms_;
  }
  std::string error() {
    std::scoped_lock lock(mutex_);
    return error_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      double t0 = now_s();
      auto events = client_.poll_events(20);
      double t = now_s();
      if (!events.is_ok()) {
        std::scoped_lock lock(mutex_);
        error_ = events.error().to_string();
        return;
      }
      std::scoped_lock lock(mutex_);
      if (!events.value().empty() && trace::enabled()) {
        poll_ms_.push_back((t - t0) * 1e3);
      }
      for (const client::Client::SessionEvent& se : events.value()) {
        std::int64_t seq = se.event.payload.get_int("seq");
        if (seq <= 0) continue;  // hub lifecycle traffic
        got_.emplace_back(seq, t);
        count_.fetch_add(1);
      }
    }
  }

  client::Client& client_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> count_{0};
  std::mutex mutex_;
  std::vector<std::pair<std::int64_t, double>> got_;  // guarded by mutex_
  std::vector<double> poll_ms_;                      // guarded by mutex_
  std::string error_;                                // guarded by mutex_
  std::thread thread_;  // last: joined before the members it uses go
};

struct Fixture {
  std::unique_ptr<hub::Hub> hub;
  std::vector<std::int64_t> sessions;
  std::unique_ptr<client::Client> client;
};

Status set_up(Fixture* fx) {
  hub::Hub::Options options;
  options.shards = kShards;
  // Large enough that a burst shows as latency, not as drops.
  options.client_queue_frames = 1 << 16;
  fx->hub = std::make_unique<hub::Hub>(options);
  if (Status s = fx->hub->start(); !s.is_ok()) return s;
  for (int i = 0; i < kSessions; ++i) {
    fx->sessions.push_back(fx->hub->register_synthetic(200'000 + i));
  }
  auto connected = client::Client::connect(fx->hub->port(), 5000);
  if (!connected.is_ok()) return connected.error();
  fx->client = std::move(connected).value();
  if (!fx->client->hub_mode()) {
    return Status(ErrorCode::kInternal, "hub did not advertise the hub capability");
  }
  return Status::ok();
}

// What one stretch of open-loop load measured.
struct Stretch {
  OpenLoop loop{0, 1};
  std::uint64_t backlog = 0;  // at the end of the schedule, before drain
  std::uint64_t dropped = 0;
  std::uint64_t missing = 0;  // neither received nor dropped after drain
  std::uint64_t duplicates = 0;
  std::vector<double> inject_us;
};

class Injector {
 public:
  Injector(Fixture& fx, Receiver& rx, std::uint64_t seed)
      : fx_(fx), rx_(rx), rng_(seed), text_(rng_.next_word(24, 24)) {}

  // Offer `rate` events/s for `seconds`, then wait (bounded) for every
  // event to be received or dropped.
  Stretch run(double rate, double seconds) {
    Stretch st;
    const std::uint64_t first_seq = next_seq_;
    const std::uint64_t n = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(rate * seconds));
    const std::uint64_t received_before = rx_.received();
    const std::uint64_t dropped_before = fx_.hub->events_dropped();
    st.loop = OpenLoop(now_s() + 1e-3, rate);
    const bool timed = trace::enabled();
    for (std::uint64_t i = 0; i < n; ++i) {
      double due = st.loop.due(i);
      for (double now = now_s(); now < due; now = now_s()) {
        if (due - now > 3e-4) {
          sleep_until(due - 2e-4);
        } else {
          std::this_thread::yield();
        }
      }
      ipc::wire::Value event = proto::make_event(proto::Event::kOutput);
      event.set("text", text_);
      event.set("seq", static_cast<std::int64_t>(next_seq_++));
      std::int64_t session =
          fx_.sessions[rng_.next_below(fx_.sessions.size())];
      double sent = now_s();
      fx_.hub->inject_event(session, std::move(event));
      if (timed) st.inject_us.push_back((now_s() - sent) * 1e6);
      st.loop.on_sent(i, sent);
    }
    auto accounted = [&] {
      return rx_.received() - received_before +
             (fx_.hub->events_dropped() - dropped_before);
    };
    std::uint64_t at_end = accounted();
    st.backlog = n > at_end ? n - at_end : 0;
    for (double give_up = now_s() + 2.0; accounted() < n && now_s() < give_up;) {
      sleep_until(now_s() + 1e-3);
    }
    st.dropped = fx_.hub->events_dropped() - dropped_before;
    std::unordered_set<std::int64_t> seen;
    for (const auto& [seq, t] : rx_.take()) {
      std::uint64_t index = static_cast<std::uint64_t>(seq) - first_seq;
      if (index >= n || !seen.insert(seq).second) {
        ++st.duplicates;
        continue;
      }
      st.loop.on_received(index, t);
    }
    std::uint64_t got = seen.size() + st.dropped;
    st.missing = n > got ? n - got : 0;
    return st;
  }

 private:
  static void sleep_until(double t) {
    double d = t - now_s();
    if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
  }

  Fixture& fx_;
  Receiver& rx_;
  Rng rng_;
  std::string text_;
  std::uint64_t next_seq_ = 1;
};

void account(Report& report, const Stretch& st, const char* what) {
  report.attempt(st.loop.sent());
  std::uint64_t bad = st.dropped + st.missing + st.duplicates;
  if (bad > 0) {
    report.fail(strings::format("%s: %llu dropped, %llu missing, %llu duplicated",
                                what, static_cast<unsigned long long>(st.dropped),
                                static_cast<unsigned long long>(st.missing),
                                static_cast<unsigned long long>(st.duplicates)),
                bad);
  }
}

}  // namespace

void run_hub_fanout(Context& ctx) {
  Report& report = *ctx.report;
  std::vector<double> setups;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    if (fx) fx->hub->stop();
    fx = std::make_unique<Fixture>();
    double t0 = now_s();
    Status s = set_up(fx.get());
    setups.push_back(now_s() - t0);
    report.attempt();
    if (!s.is_ok()) {
      report.fail("hub-fanout set-up: " + s.to_string());
      if (fx->hub) fx->hub->stop();
      return;
    }
  }
  report_setup(ctx, setups);

  Snapshot before = registry_now();
  std::vector<double> inject_us;
  Summary route;
  std::vector<double> lateness;
  std::size_t rungs = 0;
  double max_eps = 0;
  {
    Receiver rx(*fx->client);
    Injector injector(*fx, rx, ctx.seed);
    // Half the budget at the fixed rate, half (about) on the ladder.
    Stretch fixed = injector.run(kFixedRate, ctx.seconds / 2);
    account(report, fixed, "fixed rate");
    route = summarize_windows(
        fixed.loop.windows(static_cast<std::uint64_t>(kFixedRate * kWindowSeconds)),
        kTailCap);
    lateness = fixed.loop.lateness_ms();
    inject_us = fixed.inject_us;

    Ladder ladder(ladder_rates(kLadderFirst, kLadderFactor, kLadderRungs),
                  LadderLimits{kRouteTailLimitMs});
    // Rungs long enough to span the host's fast and slow phases; about
    // twelve rungs run before one fails every attempt.
    const double rung_s = std::clamp(ctx.seconds / 2 / 12, 0.15, 0.4);
    while (!ladder.done()) {
      double rate = ladder.next_rate();
      Stretch st = injector.run(rate, rung_s);
      account(report, st, "ladder");
      Rung rung;
      rung.rate = rate;
      rung.tail_ms = summarize(st.loop.latencies_ms(), kTailCap).tail;
      rung.late_ms = summarize(st.loop.lateness_ms(), kTailCap).tail;
      rung.backlog = st.backlog;
      rung.dropped = st.dropped;
      ladder.record(rung);
      std::fprintf(stderr,
                   "perfbench: hub rung %.0f/s: tail %.3f ms, late %.3f ms, "
                   "backlog %llu, dropped %llu\n",
                   rate, rung.tail_ms, rung.late_ms,
                   static_cast<unsigned long long>(rung.backlog),
                   static_cast<unsigned long long>(rung.dropped));
    }
    max_eps = ladder.max_rate();
    rungs = ladder.rungs().size();
    if (std::string e = rx.error(); !e.empty()) report.fail("poll_events: " + e);
    std::vector<double> poll = rx.poll_ms();
    if (!poll.empty()) {
      report.add("client.poll_events_ms", "ms", percentile(poll, 50), poll.size());
    }
  }
  Snapshot d = delta(registry_now(), before);
  fx->hub->stop();
  if (route.n == 0) return;

  report.add_timing("route_p50_ms", "route_tail_ms", "ms", route);
  report.add("hub_max_eps", "1/s", max_eps, rungs);
  Summary late = summarize(lateness, kTailCap);
  report.add("bench.gen_late_ms", "ms", late.tail, late.n, late.tail_level);
  if (!inject_us.empty()) {
    report.add("hub.inject_us", "us", percentile(inject_us, 50), inject_us.size());
  }
  report.add("hub.route_ns_p50", "ns",
             hist_percentile_ns(d, Histogram::kHubRouteNanos, 50),
             hist_count(d, Histogram::kHubRouteNanos));
  report.add("hub.route_ns_tail", "ns",
             hist_tail_ns(d, Histogram::kHubRouteNanos, kTailCap),
             hist_count(d, Histogram::kHubRouteNanos),
             tail_level(hist_count(d, Histogram::kHubRouteNanos), kTailCap));
  std::uint64_t routed = count(d, Counter::kHubEventsRouted);
  std::uint64_t dropped = count(d, Counter::kHubEventsDropped);
  report.add("hub.events_routed", "count", static_cast<double>(routed));
  report.add("hub.events_dropped", "count", static_cast<double>(dropped));
  report.add("hub.drop_ratio", "ratio",
             routed == 0 ? 0 : static_cast<double>(dropped) / static_cast<double>(routed));
}

}  // namespace perfbench
