// Statistics and load-generation rules of the benchmark. Pure code (no
// program libraries) so tests/stats_test.cpp can pin every rule down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Percentile levels a tail may be reported at, lowest first.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
// The highest level the benchmark's timings use: stalls of a few ms
// that the virtual machine it was tuned on imposes now and then reach
// p99 on some runs and not on others; p95 reads the same run to run.
inline constexpr double kTailCap = 95.0;

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when
// empty.
double percentile(std::vector<double> samples, double p);
// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& samples);
// Mean after dropping floor(n * share) samples from each end.
double trimmed_mean(std::vector<double> samples, double share);

// The highest ladder level that leaves at least `beyond` samples above
// it out of `n`, capped at `cap` so one metric keeps one level across
// runs whose sample counts differ. 0 when even the median has fewer
// than `beyond` samples above it.
double tail_level(std::size_t n, double cap, std::size_t beyond = 10);

// A timing as the benchmark reports it: median, the tail at
// tail_level(n, cap), and the sample count.
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_level = 0;
  std::size_t n = 0;
};
Summary summarize(const std::vector<double>& samples, double cap);

// A timing sampled in windows (segments of a run, or stretches of
// time): p50 and tail are each window's median and tail, at one tail
// level fixed by the smallest window, averaged over the middle half of
// the windows (the quarter highest and lowest of each dropped: an
// interquartile mean). The host's speed flips
// between a fast and a slow phase every fraction of a second; a
// percentile of all samples pooled lands in one phase or the other
// depending on which held the run's majority, while an average of
// per-window figures moves in proportion to the mix. Trimming keeps
// windows the host stalled from moving the tail.
Summary summarize_windows(const std::vector<std::vector<double>>& windows,
                          double cap);

// Open-loop accounting. Event i is due at start + i / rate; latency is
// measured from the due time, not the send time, so a generator or
// receiver stall shows up in the latency of every event it delayed
// instead of hiding behind it. Lateness (send - due) is kept apart so
// a run whose generator fell behind can be recognised as invalid.
class OpenLoop {
 public:
  OpenLoop(double start_seconds, double rate_per_second);

  double due(std::uint64_t index) const;

  void on_sent(std::uint64_t index, double sent_seconds);
  void on_received(std::uint64_t index, double received_seconds);

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  // Latencies grouped by when the events were due: window k holds the
  // events with index in [k * per_window, (k + 1) * per_window).
  std::vector<std::vector<double>> windows(std::uint64_t per_window) const;
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }

 private:
  double start_;
  double rate_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<std::uint64_t> received_index_;  // parallel to latencies_ms_
  std::vector<double> lateness_ms_;
};

// One rung of the fixed rate ladder behind hub_max_eps.
struct Rung {
  double rate = 0;            // events per second offered
  double tail_ms = 0;         // route latency tail at this rate
  std::uint64_t backlog = 0;  // sent but neither received nor dropped, at the rung's end
  std::uint64_t dropped = 0;
  double late_ms = 0;         // generator lateness tail
};

struct LadderLimits {
  double tail_ms = 0;  // the route_tail_ms limit
};

// A rung passes when its tail meets the limit, nothing was dropped, the
// generator kept its schedule within the limit, and the backlog left
// at its end is no more than the events the limit lets be in flight
// (rate x limit): a larger backlog is one that grows.
bool rung_passes(const Rung& rung, const LadderLimits& limits);

// The fixed ladder: `count` rates from `first`, each `factor` times the
// one before.
std::vector<double> ladder_rates(double first, double factor, int count);

// Walks the ladder: rungs are recorded in order. A failing rung is run
// again, up to kLadderAttempts times in all, so that a stall of the
// host does not end the walk; the walk stops at the first rung that
// fails every attempt. max_rate() is the highest rate that passed
// before it (0 when the first rung failed).
inline constexpr int kLadderAttempts = 3;
class Ladder {
 public:
  Ladder(std::vector<double> rates, LadderLimits limits);

  bool done() const;
  double next_rate() const;  // valid while !done()
  void record(const Rung& rung);
  double max_rate() const { return max_rate_; }
  const std::vector<Rung>& rungs() const { return rungs_; }

 private:
  std::vector<double> rates_;
  LadderLimits limits_;
  std::vector<Rung> rungs_;
  std::size_t next_ = 0;  // index into rates_
  int failures_ = 0;      // failed attempts at rates_[next_]
  double max_rate_ = 0;
  bool failed_ = false;
};

}  // namespace perfbench
