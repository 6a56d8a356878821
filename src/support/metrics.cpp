#include "support/metrics.hpp"

#include <pthread.h>

#include <cstdlib>
#include <cstring>

namespace dionea::metrics {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTraceLineEvents: return "trace_line_events";
    case Counter::kTraceCallEvents: return "trace_call_events";
    case Counter::kTraceReturnEvents: return "trace_return_events";
    case Counter::kTraceThreadEvents: return "trace_thread_events";
    case Counter::kGilAcquires: return "gil_acquires";
    case Counter::kGilContended: return "gil_contended";
    case Counter::kReactorRounds: return "reactor_rounds";
    case Counter::kFramesSent: return "frames_sent";
    case Counter::kFrameBytesSent: return "frame_bytes_sent";
    case Counter::kFramesReceived: return "frames_received";
    case Counter::kFrameBytesReceived: return "frame_bytes_received";
    case Counter::kCommandsServed: return "commands_served";
    case Counter::kEventsSent: return "events_sent";
    case Counter::kStops: return "stops";
    case Counter::kForks: return "forks";
    case Counter::kMpPushes: return "mp_pushes";
    case Counter::kMpPops: return "mp_pops";
    case Counter::kMpBytesPushed: return "mp_bytes_pushed";
    case Counter::kReplaySteps: return "replay.steps";
    case Counter::kReplayDivergences: return "replay.divergences";
    case Counter::kReplayParkWaits: return "replay.park_waits";
    case Counter::kAnalysisAccesses: return "analysis.accesses";
    case Counter::kAnalysisSyncEvents: return "analysis.sync_events";
    case Counter::kAnalysisRaces: return "analysis.races";
    case Counter::kAnalysisLintFindings: return "analysis.lint_findings";
    case Counter::kForklintFindings: return "analysis.forklint_findings";
    case Counter::kCrashReports: return "crash_reports";
    case Counter::kWatchdogEscalations: return "watchdog_escalations";
    case Counter::kForkSelfcheckRepairs: return "fork_selfcheck_repairs";
    case Counter::kHubRegistrations: return "hub.registrations";
    case Counter::kHubEventsRouted: return "hub.events_routed";
    case Counter::kHubEventsDropped: return "hub.events_dropped";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::kMpQueueDepth: return "mp_queue_depth";
    case Gauge::kParkedThreads: return "parked_threads";
    case Gauge::kHubSessions: return "hub.sessions";
    case Gauge::kHubPeers: return "hub.peers";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* histogram_name(Histogram h) noexcept {
  switch (h) {
    case Histogram::kTraceHookNanos: return "trace_hook_nanos";
    case Histogram::kGilWaitNanos: return "gil_wait_nanos";
    case Histogram::kGilHoldNanos: return "gil_hold_nanos";
    case Histogram::kReactorDispatchNanos: return "reactor_dispatch_nanos";
    case Histogram::kCommandNanos: return "command_nanos";
    case Histogram::kStopParkNanos: return "stop_park_nanos";
    case Histogram::kMpPopWaitNanos: return "mp_pop_wait_nanos";
    case Histogram::kHubRouteNanos: return "hub.route_nanos";
    case Histogram::kCount: break;
  }
  return "?";
}

namespace {

// Index of the power-of-two bucket holding `nanos`.
int bucket_index(std::uint64_t nanos) noexcept {
  if (nanos < 2) return 0;
  int bit = 63 - __builtin_clzll(nanos);
  return bit >= kHistogramBuckets ? kHistogramBuckets - 1 : bit;
}

}  // namespace

std::uint64_t HistogramSnapshot::percentile_nanos(double p) const noexcept {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t rank = static_cast<std::uint64_t>(p *
                                                  static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Upper edge of this bucket, clamped to the observed maximum.
      std::uint64_t edge = i + 1 >= 64 ? max_nanos : (1ull << (i + 1));
      return edge < max_nanos || max_nanos == 0 ? edge : max_nanos;
    }
  }
  return max_nanos;
}

namespace internal {

void Shard::observe(Histogram h, std::uint64_t nanos) noexcept {
  Histo& histo = histograms[static_cast<int>(h)];
  histo.count.store(histo.count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  histo.sum.store(histo.sum.load(std::memory_order_relaxed) + nanos,
                  std::memory_order_relaxed);
  if (nanos > histo.max.load(std::memory_order_relaxed)) {
    histo.max.store(nanos, std::memory_order_relaxed);
  }
  auto& bucket = histo.buckets[static_cast<size_t>(bucket_index(nanos))];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

void Shard::zero() noexcept {
  for (auto& c : counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : histograms) {
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
    h.max.store(0, std::memory_order_relaxed);
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace internal

Registry::Registry() {
  const char* env = std::getenv("DIONEA_METRICS");
  if (env != nullptr && std::strcmp(env, "0") == 0) {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  // Leaked singleton: debuggee threads may record during static
  // destruction; shards must outlive everything.
  static Registry* registry = [] {
    auto* created = new Registry();
    // A thread's first metric (acquire_shard), its exit (release_shard)
    // and `stats` (snapshot) hold mutex_; a fork landing inside one of
    // them would hand the child a locked registry, and handler C's
    // reset() would deadlock on it. Pin the mutex across every fork;
    // it is a leaf lock, so the order against other handlers is moot.
    (void)pthread_atfork([] { instance().mutex_.lock(); },
                         [] { instance().mutex_.unlock(); },
                         [] { instance().mutex_.unlock(); });
    return created;
  }();
  return *registry;
}

internal::Shard* Registry::acquire_shard() {
  std::scoped_lock lock(mutex_);
  if (!free_shards_.empty()) {
    internal::Shard* shard = free_shards_.back();
    free_shards_.pop_back();
    return shard;  // values kept: totals are cumulative
  }
  shards_.push_back(std::make_unique<internal::Shard>());
  return shards_.back().get();
}

void Registry::release_shard(internal::Shard* shard) noexcept {
  std::scoped_lock lock(mutex_);
  free_shards_.push_back(shard);
}

struct Registry::ThreadSlot {
  internal::Shard* shard;
  ThreadSlot() : shard(Registry::instance().acquire_shard()) {}
  ~ThreadSlot() { Registry::instance().release_shard(shard); }
};

internal::Shard& Registry::local_shard() {
  thread_local ThreadSlot slot;
  return *slot.shard;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::scoped_lock lock(mutex_);
  for (const auto& shard : shards_) {
    for (int c = 0; c < kCounterCount; ++c) {
      out.counters[static_cast<size_t>(c)] +=
          shard->counters[static_cast<size_t>(c)].load(
              std::memory_order_relaxed);
    }
    for (int h = 0; h < kHistogramCount; ++h) {
      const auto& src = shard->histograms[static_cast<size_t>(h)];
      auto& dst = out.histograms[static_cast<size_t>(h)];
      dst.count += src.count.load(std::memory_order_relaxed);
      dst.sum_nanos += src.sum.load(std::memory_order_relaxed);
      std::uint64_t max = src.max.load(std::memory_order_relaxed);
      if (max > dst.max_nanos) dst.max_nanos = max;
      for (int b = 0; b < kHistogramBuckets; ++b) {
        dst.buckets[static_cast<size_t>(b)] +=
            src.buckets[static_cast<size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
  }
  for (int g = 0; g < kGaugeCount; ++g) {
    out.gauges[static_cast<size_t>(g)] =
        gauges_[static_cast<size_t>(g)].load(std::memory_order_relaxed);
  }
  return out;
}

void Registry::reset() {
  std::scoped_lock lock(mutex_);
  for (auto& shard : shards_) shard->zero();
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

size_t Registry::shard_count() const {
  std::scoped_lock lock(mutex_);
  return shards_.size();
}

}  // namespace dionea::metrics
