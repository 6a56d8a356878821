#include "support/timing.hpp"

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <thread>

namespace dionea {

double mono_seconds() noexcept {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::int64_t mono_nanos() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_for_millis(std::int64_t millis) {
  if (millis <= 0) return;
  timespec req{};
  req.tv_sec = static_cast<time_t>(millis / 1000);
  req.tv_nsec = static_cast<long>((millis % 1000) * 1'000'000L);
  timespec rem{};
  while (::nanosleep(&req, &rem) != 0 &&  // sleep-ok: the primitive
         errno == EINTR) {
    req = rem;
  }
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else {
    int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%d'%02d\"", minutes,
                  static_cast<int>(seconds - minutes * 60.0));
  }
  return buf;
}

}  // namespace dionea
