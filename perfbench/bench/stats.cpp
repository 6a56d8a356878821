#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p out of n; the epsilon keeps
// 99.9 % of 10000 at 9990 despite binary rounding.
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = nearest_rank(p, samples.size());
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double total = 0;
  for (double x : samples) total += x;
  return total / static_cast<double>(samples.size());
}

double trimmed_mean(std::vector<double> samples, double share) {
  std::sort(samples.begin(), samples.end());
  std::size_t cut = static_cast<std::size_t>(static_cast<double>(samples.size()) * share);
  return mean(std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(cut),
                                  samples.end() - static_cast<std::ptrdiff_t>(cut)));
}

double tail_level(std::size_t n, double cap, std::size_t beyond) {
  double best = 0;
  for (double level : kTailLadder) {
    if (level > cap) break;
    // Samples strictly above the nearest-rank percentile.
    double rank = nearest_rank(level, n);
    if (static_cast<double>(n) - rank >= static_cast<double>(beyond)) {
      best = level;
    }
  }
  return best;
}

Summary summarize(const std::vector<double>& samples, double cap) {
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50);
  s.tail_level = tail_level(s.n, cap);
  s.tail = s.tail_level > 0 ? percentile(samples, s.tail_level) : s.p50;
  return s;
}

Summary summarize_windows(const std::vector<std::vector<double>>& windows,
                          double cap) {
  Summary s;
  std::size_t smallest = 0;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    smallest = s.n == 0 ? w.size() : std::min(smallest, w.size());
    s.n += w.size();
  }
  if (s.n == 0) return s;
  s.tail_level = tail_level(smallest, cap);
  std::vector<double> medians, tails;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    medians.push_back(percentile(w, 50));
    tails.push_back(percentile(w, s.tail_level > 0 ? s.tail_level : 50));
  }
  s.p50 = trimmed_mean(medians, 0.25);
  s.tail = trimmed_mean(tails, 0.25);
  return s;
}

OpenLoop::OpenLoop(double start_seconds, double rate_per_second)
    : start_(start_seconds), rate_(rate_per_second) {}

double OpenLoop::due(std::uint64_t index) const {
  return start_ + static_cast<double>(index) / rate_;
}

void OpenLoop::on_sent(std::uint64_t index, double sent_seconds) {
  ++sent_;
  lateness_ms_.push_back(std::max(0.0, sent_seconds - due(index)) * 1e3);
}

void OpenLoop::on_received(std::uint64_t index, double received_seconds) {
  ++received_;
  latencies_ms_.push_back((received_seconds - due(index)) * 1e3);
  received_index_.push_back(index);
}

std::vector<std::vector<double>> OpenLoop::windows(std::uint64_t per_window) const {
  std::vector<std::vector<double>> out;
  if (per_window == 0) return out;
  for (std::size_t i = 0; i < latencies_ms_.size(); ++i) {
    std::size_t k = static_cast<std::size_t>(received_index_[i] / per_window);
    if (k >= out.size()) out.resize(k + 1);
    out[k].push_back(latencies_ms_[i]);
  }
  return out;
}

bool rung_passes(const Rung& rung, const LadderLimits& limits) {
  double in_flight = rung.rate * limits.tail_ms / 1e3;
  return rung.tail_ms <= limits.tail_ms && rung.dropped == 0 &&
         rung.late_ms <= limits.tail_ms &&
         static_cast<double>(rung.backlog) <= in_flight;
}

std::vector<double> ladder_rates(double first, double factor, int count) {
  std::vector<double> rates;
  double rate = first;
  for (int i = 0; i < count; ++i) {
    rates.push_back(std::round(rate));
    rate *= factor;
  }
  return rates;
}

Ladder::Ladder(std::vector<double> rates, LadderLimits limits)
    : rates_(std::move(rates)), limits_(limits) {}

bool Ladder::done() const { return failed_ || next_ >= rates_.size(); }

double Ladder::next_rate() const { return rates_[next_]; }

void Ladder::record(const Rung& rung) {
  rungs_.push_back(rung);
  if (rung_passes(rung, limits_)) {
    max_rate_ = rung.rate;
    failures_ = 0;
    ++next_;
  } else if (++failures_ >= kLadderAttempts) {
    failed_ = true;
  }
}

}  // namespace perfbench
