// Unit tests of the benchmark's statistics and load-generation rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

// ---- the tail: highest ladder percentile with >= 10 samples beyond ----

constexpr double kNoCap = 99.9;  // the top of the ladder

TEST(TailLevel, PicksHighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(tail_level(19, kNoCap), 0.0);     // median leaves 9 above
  EXPECT_EQ(tail_level(20, kNoCap), 50.0);    // median leaves exactly 10 above
  EXPECT_EQ(tail_level(39, kNoCap), 50.0);    // p75 leaves 9 above
  EXPECT_EQ(tail_level(40, kNoCap), 75.0);
  EXPECT_EQ(tail_level(99, kNoCap), 75.0);    // p90 leaves 9 above
  EXPECT_EQ(tail_level(100, kNoCap), 90.0);
  EXPECT_EQ(tail_level(200, kNoCap), 95.0);
  EXPECT_EQ(tail_level(999, kNoCap), 95.0);   // p99 leaves 9 above
  EXPECT_EQ(tail_level(1000, kNoCap), 99.0);
  EXPECT_EQ(tail_level(10000, kNoCap), 99.9);
}

TEST(TailLevel, CapKeepsOneLevelAcrossSampleCounts) {
  EXPECT_EQ(tail_level(10000, 99.0), 99.0);
  EXPECT_EQ(tail_level(5000, 99.0), 99.0);
  EXPECT_EQ(tail_level(150, 99.0), 90.0);  // too few for the cap
  EXPECT_EQ(tail_level(10000, kTailCap), 95.0);
}

TEST(TailLevel, TailHasTenSamplesAboveIt) {
  std::vector<double> v = one_to(1000);
  Summary s = summarize(v, kNoCap);
  EXPECT_EQ(s.tail_level, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  int above = 0;
  for (double x : v) above += x > s.tail ? 1 : 0;
  EXPECT_GE(above, 10);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.n, 1000u);
}

TEST(TailLevel, FewSamplesFallBackToMedian) {
  Summary s = summarize({3, 1, 2}, kNoCap);
  EXPECT_EQ(s.tail_level, 0.0);
  EXPECT_EQ(s.tail, s.p50);
  EXPECT_EQ(s.p50, 2.0);
}

// ---- windowed timings ----

TEST(Windows, AveragePerWindowMedianAndTail) {
  // Two windows of 20: 1..20 and 101..120. Pooled, the median would sit
  // at the edge of one phase (20); per window it is 10 and 110.
  std::vector<double> fast = one_to(20);
  std::vector<double> slow;
  for (double x : fast) slow.push_back(x + 100);
  Summary s = summarize_windows({fast, slow}, kNoCap);
  EXPECT_EQ(s.n, 40u);
  EXPECT_EQ(s.tail_level, 50.0);  // 20 samples in the smallest window
  EXPECT_DOUBLE_EQ(s.p50, 60.0);
  EXPECT_DOUBLE_EQ(s.tail, 60.0);
}

TEST(Windows, MovesInProportionToThePhaseMix) {
  // 20 windows, k of them slow. Trimming drops five windows from each
  // end, so between those the figure moves by a tenth of the gap per
  // slow window, where a pooled median jumps from one phase to the
  // other.
  std::vector<double> fast(100, 1.0), slow(100, 2.0);
  double last = 0;
  for (int k = 5; k <= 15; ++k) {
    std::vector<std::vector<double>> windows;
    for (int i = 0; i < 20; ++i) windows.push_back(i < k ? slow : fast);
    double p50 = summarize_windows(windows, kNoCap).p50;
    EXPECT_NEAR(p50, 1.0 + (k - 5) / 10.0, 1e-12);
    if (k > 5) {
      EXPECT_GT(p50, last);
    }
    last = p50;
  }
}

TEST(Windows, StalledWindowsDoNotMoveTheTail) {
  // 40 windows of 1000; nine of them stalled (every sample 50).
  std::vector<std::vector<double>> windows(40, std::vector<double>(1000, 1.0));
  for (int i = 0; i < 9; ++i) windows[static_cast<std::size_t>(i * 4)] = std::vector<double>(1000, 50.0);
  Summary s = summarize_windows(windows, 95);
  EXPECT_EQ(s.tail_level, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 1.0);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
}

TEST(Windows, EmptyWindowsAreSkipped) {
  Summary s = summarize_windows({one_to(20), {}}, kNoCap);
  EXPECT_EQ(s.n, 20u);
  EXPECT_DOUBLE_EQ(s.p50, 10.0);
  EXPECT_EQ(summarize_windows({}, kNoCap).n, 0u);
}

TEST(Mean, TrimmedDropsEachEnd) {
  EXPECT_DOUBLE_EQ(trimmed_mean({100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.1), 4.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({100, 1, 2, 3, 4, 5, 6, -50}, 0.25), 3.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({1, 2, 3}, 0.1), 2.0);  // nothing to drop
}

// ---- open-loop due-time accounting ----

TEST(OpenLoop, DueTimesFollowTheSchedule) {
  OpenLoop loop(10.0, 1000.0);
  EXPECT_DOUBLE_EQ(loop.due(0), 10.0);
  EXPECT_DOUBLE_EQ(loop.due(500), 10.5);
}

TEST(OpenLoop, StalledReceiverInflatesLatency) {
  // 100 events at 1 kHz, each sent on time. The receiver stalls for
  // 50 ms and then takes everything at t = 0.150 s.
  OpenLoop loop(0.0, 1000.0);
  for (std::uint64_t i = 0; i < 100; ++i) loop.on_sent(i, loop.due(i));
  for (std::uint64_t i = 0; i < 100; ++i) loop.on_received(i, 0.150);
  Summary s = summarize(loop.latencies_ms(), kNoCap);
  // From the due time, the first event waited 150 ms and the median one
  // 100 ms; the time from send to receipt of the last event (51 ms)
  // would have hidden most of the stall.
  EXPECT_NEAR(s.tail, 140.0, 1e-9);  // p90 of 51..150 ms
  EXPECT_NEAR(s.p50, 100.0, 1e-9);
  EXPECT_EQ(loop.received(), 100u);
}

TEST(OpenLoop, StalledGeneratorCountsAgainstLatencyAndLateness) {
  // The generator sleeps 20 ms before sending event 0 and then catches
  // up: every event it delayed is late, and its latency, measured from
  // when it was due, includes that wait even though delivery was quick.
  OpenLoop loop(0.0, 1000.0);
  for (std::uint64_t i = 0; i < 40; ++i) {
    double sent = std::max(loop.due(i), 0.020);
    loop.on_sent(i, sent);
    loop.on_received(i, sent + 0.001);
  }
  EXPECT_NEAR(loop.lateness_ms()[0], 20.0, 1e-9);
  EXPECT_NEAR(loop.lateness_ms()[30], 0.0, 1e-9);
  EXPECT_NEAR(loop.latencies_ms()[0], 21.0, 1e-9);
  EXPECT_NEAR(loop.latencies_ms()[30], 1.0, 1e-9);
  EXPECT_EQ(loop.sent(), 40u);
}

TEST(OpenLoop, WindowsGroupByDueTimeNotArrival) {
  OpenLoop loop(0.0, 1000.0);
  // Received out of order: event 3 first, then 0, 1, 2.
  loop.on_received(3, 0.010);
  loop.on_received(0, 0.010);
  loop.on_received(1, 0.010);
  loop.on_received(2, 0.010);
  std::vector<std::vector<double>> w = loop.windows(2);
  ASSERT_EQ(w.size(), 2u);
  ASSERT_EQ(w[0].size(), 2u);
  EXPECT_NEAR(w[0][0], 10.0, 1e-9);  // event 0
  EXPECT_NEAR(w[0][1], 9.0, 1e-9);   // event 1
  ASSERT_EQ(w[1].size(), 2u);
  EXPECT_NEAR(w[1][0], 7.0, 1e-9);   // event 3
  EXPECT_NEAR(w[1][1], 8.0, 1e-9);   // event 2
}

TEST(Mean, OfSamples) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ---- hub_max_eps ladder ----

Rung rung(double rate, double tail_ms, std::uint64_t backlog = 0,
          std::uint64_t dropped = 0, double late_ms = 0) {
  Rung r;
  r.rate = rate;
  r.tail_ms = tail_ms;
  r.backlog = backlog;
  r.dropped = dropped;
  r.late_ms = late_ms;
  return r;
}

TEST(Ladder, RatesAreGeometric) {
  std::vector<double> rates = ladder_rates(1000, 2, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_EQ(rates[0], 1000);
  EXPECT_EQ(rates[3], 8000);
}

TEST(Ladder, RungFailsOnTailDropsLatenessOrGrowingBacklog) {
  LadderLimits limits{5.0};
  EXPECT_TRUE(rung_passes(rung(1000, 4.9), limits));
  EXPECT_FALSE(rung_passes(rung(1000, 5.1), limits));
  EXPECT_FALSE(rung_passes(rung(1000, 1.0, 0, 1), limits));
  EXPECT_FALSE(rung_passes(rung(1000, 1.0, 0, 0, 6.0), limits));
  // 1000/s x 5 ms = 5 events may be in flight; more is a growing queue.
  EXPECT_TRUE(rung_passes(rung(1000, 1.0, 5), limits));
  EXPECT_FALSE(rung_passes(rung(1000, 1.0, 6), limits));
}

TEST(Ladder, StopsAtFirstRungThatFailsEveryAttempt) {
  Ladder ladder({1000, 2000, 4000, 8000}, LadderLimits{5.0});
  ASSERT_FALSE(ladder.done());
  EXPECT_EQ(ladder.next_rate(), 1000);
  ladder.record(rung(1000, 1.0));
  ladder.record(rung(2000, 2.0));
  EXPECT_FALSE(ladder.done());
  EXPECT_EQ(ladder.next_rate(), 4000);
  for (int attempt = 1; attempt < kLadderAttempts; ++attempt) {
    ladder.record(rung(4000, 9.0));  // fails: run again
    EXPECT_FALSE(ladder.done());
    EXPECT_EQ(ladder.next_rate(), 4000);
  }
  ladder.record(rung(4000, 9.0));  // failed every attempt: stop
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.max_rate(), 2000);
  EXPECT_EQ(ladder.rungs().size(), 2u + kLadderAttempts);
}

TEST(Ladder, OneHiccupDoesNotEndTheWalk) {
  Ladder ladder({1000, 2000, 4000}, LadderLimits{5.0});
  ladder.record(rung(1000, 1.0));
  ladder.record(rung(2000, 8.0));  // a stall
  ladder.record(rung(2000, 1.0));  // the re-run passes
  EXPECT_FALSE(ladder.done());
  EXPECT_EQ(ladder.next_rate(), 4000);
  ladder.record(rung(4000, 1.0));
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.max_rate(), 4000);
}

TEST(Ladder, AllRungsPassingReportsTheTop) {
  Ladder ladder({1000, 2000}, LadderLimits{5.0});
  ladder.record(rung(1000, 1.0));
  ladder.record(rung(2000, 1.0));
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.max_rate(), 2000);
}

TEST(Ladder, FirstRungFailingReportsZero) {
  Ladder ladder({1000, 2000}, LadderLimits{5.0});
  for (int attempt = 0; attempt < kLadderAttempts; ++attempt) {
    ladder.record(rung(1000, 50.0));
  }
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.max_rate(), 0);
}

}  // namespace
}  // namespace perfbench
