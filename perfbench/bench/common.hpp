// What every scenario shares: the run context, the report it fills,
// and deltas of the program's metrics::Registry (read, never re-timed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "support/metrics.hpp"
#include "support/trace_export.hpp"
#include "vm/interp.hpp"

namespace perfbench {

double now_s();  // monotonic seconds, same clock as dionea::mono_seconds

// The benchmark's own spans around its calls into each layer go through
// the program's exporter (dionea::trace::Span), under this category;
// they are written only in a traced run, where DIONEA_TRACE_OUT is set.
inline constexpr const char* kSpanCategory = "bench";

// ---- registry deltas ----
using Snapshot = dionea::metrics::Snapshot;
using Counter = dionea::metrics::Counter;
using Histogram = dionea::metrics::Histogram;

Snapshot registry_now();
Snapshot delta(const Snapshot& after, const Snapshot& before);
// Fold `other` into `total` (counters and histogram buckets add).
void merge(Snapshot* total, const Snapshot& other);
std::uint64_t count(const Snapshot& s, Counter c);
// Bucket-resolution percentile of a histogram in a delta, in ns.
double hist_percentile_ns(const Snapshot& s, Histogram h, double p);
std::uint64_t hist_count(const Snapshot& s, Histogram h);
// The tail at tail_level(count, cap) of a histogram, in ns.
double hist_tail_ns(const Snapshot& s, Histogram h, double cap);

// A debuggee child returns out of run_string into benchmark code. It
// must leave here, never reaching the code that writes the result
// record. `stats_path` non-empty: first save the child's registry
// snapshot and CPU time there, for the parent to fold in.
void leave_if_forked_child(dionea::vm::Interp& interp,
                           const dionea::vm::RunResult& result,
                           const std::string& stats_path);
// Fold every child stats file in `dir` (and delete it); returns the
// number of files and adds their CPU time to *cpu_ns.
int collect_child_stats(const std::string& dir, Snapshot* total,
                        std::int64_t* cpu_ns);

// ---- the result ----
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
  double tail_level = 0;  // for a _tail metric: the percentile used
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 1, double tail_level = 0);
  // `p50_name` gets the summary's median, `tail_name` its tail.
  void add_timing(const std::string& p50_name, const std::string& tail_name,
                  const std::string& unit, const Summary& s);

  // One operation attempted; a failed one carries a reason.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few reasons
};

// ---- scenario context ----
struct Context {
  std::uint64_t seed = 1;
  double seconds = 1;      // time budget: sizes the planned work
  double deadline = 0;     // mono seconds after which a scenario stops early
  bool focus = false;      // the named workload (reports setup_s)
  int setup_reps = 1;      // set-ups to take the median of
  std::string work_dir;    // scratch space inside the checkout
  std::string trace_out;   // program trace file (traced runs), or ""
  int workers = 1;         // busy processes/threads the load may use
  Report* report = nullptr;
  // DebugServer::start() times (ms) of every scenario, for
  // debugger.server_start_ms.
  std::vector<double>* server_start_ms = nullptr;
};

// Median of the set-up times a scenario measured, as setup_s.
void report_setup(Context& ctx, const std::vector<double>& setup_seconds);

// One line of JSON-escaped text.
std::string json_escape(const std::string& text);

}  // namespace perfbench
