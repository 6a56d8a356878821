#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/timing.hpp"

namespace perfbench {

namespace metrics = dionea::metrics;

double now_s() { return dionea::mono_seconds(); }

// ------------------------------------------------------------- registry

Snapshot registry_now() { return metrics::Registry::instance().snapshot(); }

Snapshot delta(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (int i = 0; i < metrics::kCounterCount; ++i) {
    d.counters[i] = after.counters[i] - std::min(after.counters[i], before.counters[i]);
  }
  d.gauges = after.gauges;
  for (int h = 0; h < metrics::kHistogramCount; ++h) {
    const auto& a = after.histograms[h];
    const auto& b = before.histograms[h];
    auto& out = d.histograms[h];
    out.count = a.count - std::min(a.count, b.count);
    out.sum_nanos = a.sum_nanos - std::min(a.sum_nanos, b.sum_nanos);
    out.max_nanos = a.max_nanos;
    for (int i = 0; i < metrics::kHistogramBuckets; ++i) {
      out.buckets[i] = a.buckets[i] - std::min(a.buckets[i], b.buckets[i]);
    }
  }
  return d;
}

void merge(Snapshot* total, const Snapshot& other) {
  for (int i = 0; i < metrics::kCounterCount; ++i) {
    total->counters[i] += other.counters[i];
  }
  for (int h = 0; h < metrics::kHistogramCount; ++h) {
    auto& t = total->histograms[h];
    const auto& o = other.histograms[h];
    t.count += o.count;
    t.sum_nanos += o.sum_nanos;
    t.max_nanos = std::max(t.max_nanos, o.max_nanos);
    for (int i = 0; i < metrics::kHistogramBuckets; ++i) {
      t.buckets[i] += o.buckets[i];
    }
  }
}

std::uint64_t count(const Snapshot& s, Counter c) {
  return s.counters[static_cast<int>(c)];
}

std::uint64_t hist_count(const Snapshot& s, Histogram h) {
  return s.histograms[static_cast<int>(h)].count;
}

double hist_percentile_ns(const Snapshot& s, Histogram h, double p) {
  return static_cast<double>(
      s.histograms[static_cast<int>(h)].percentile_nanos(p / 100.0));
}

double hist_tail_ns(const Snapshot& s, Histogram h, double cap) {
  std::uint64_t n = hist_count(s, h);
  double level = tail_level(n, cap);
  return hist_percentile_ns(s, h, level > 0 ? level : 50);
}

// ------------------------------------------------------- forked children

void leave_if_forked_child(dionea::vm::Interp& interp,
                           const dionea::vm::RunResult& result,
                           const std::string& stats_path) {
  if (!interp.vm().is_forked_child()) return;
  if (!stats_path.empty()) {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    std::int64_t cpu_ns =
        (static_cast<std::int64_t>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
         1'000'000 +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
        1000;
    Snapshot s = registry_now();
    std::string path = stats_path + "/child." + std::to_string(::getpid());
    if (std::FILE* out = std::fopen(path.c_str(), "w")) {
      std::fprintf(out, "cpu %lld\n", static_cast<long long>(cpu_ns));
      for (int i = 0; i < metrics::kCounterCount; ++i) {
        std::fprintf(out, "c %d %llu\n", i,
                     static_cast<unsigned long long>(s.counters[i]));
      }
      for (int h = 0; h < metrics::kHistogramCount; ++h) {
        const auto& hs = s.histograms[h];
        std::fprintf(out, "h %d %llu %llu %llu", h,
                     static_cast<unsigned long long>(hs.count),
                     static_cast<unsigned long long>(hs.sum_nanos),
                     static_cast<unsigned long long>(hs.max_nanos));
        for (std::uint64_t b : hs.buckets) {
          std::fprintf(out, " %llu", static_cast<unsigned long long>(b));
        }
        std::fputc('\n', out);
      }
      std::fclose(out);
    }
  }
  interp.finish(result);  // _exits in a forked child
}

int collect_child_stats(const std::string& dir, Snapshot* total,
                        std::int64_t* cpu_ns) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::vector<std::string> files;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind("child.", 0) == 0) files.push_back(dir + "/" + name);
  }
  ::closedir(d);
  for (const std::string& path : files) {
    std::ifstream in(path);
    Snapshot s;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string tag;
      fields >> tag;
      if (tag == "cpu") {
        std::int64_t v = 0;
        fields >> v;
        *cpu_ns += v;
      } else if (tag == "c") {
        int i = 0;
        fields >> i;
        if (i >= 0 && i < metrics::kCounterCount) fields >> s.counters[i];
      } else if (tag == "h") {
        int h = 0;
        fields >> h;
        if (h < 0 || h >= metrics::kHistogramCount) continue;
        auto& hs = s.histograms[h];
        fields >> hs.count >> hs.sum_nanos >> hs.max_nanos;
        for (auto& b : hs.buckets) fields >> b;
      }
    }
    merge(total, s);
    std::remove(path.c_str());
  }
  return static_cast<int>(files.size());
}

// --------------------------------------------------------------- report

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::size_t samples, double tail_level) {
  metrics_.push_back(Metric{name, unit, value, samples, tail_level});
}

void Report::add_timing(const std::string& p50_name,
                        const std::string& tail_name, const std::string& unit,
                        const Summary& s) {
  add(p50_name, unit, s.p50, s.n);
  if (!tail_name.empty()) add(tail_name, unit, s.tail, s.n, s.tail_level);
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (failures_.size() < 8) failures_.push_back(why);
}

void report_setup(Context& ctx, const std::vector<double>& setup_seconds) {
  if (!ctx.focus || setup_seconds.empty()) return;
  ctx.report->add("setup_s", "s", percentile(setup_seconds, 50),
                  setup_seconds.size());
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
