#pragma once
/// \file progress.h
/// \brief Rate-limited stderr progress reporter with phase + ETA.
///
/// Long explorations (the full 2^NMAX * B * NVDD lattice) run for
/// minutes with no output; this sink prints an occasional one-line
/// status — phase name, done/total, rate, ETA — without ever becoming
/// the bottleneck: Tick() is a relaxed fetch-add plus a time check,
/// and only the thread that wins a CAS on the shared "last printed"
/// stamp formats and writes. Enabled via ADQ_PROGRESS=1 (see obs.h)
/// or EnableProgress(); off by default.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace adq::obs {

namespace detail {
extern std::atomic<bool> g_progress_enabled;
extern std::atomic<int> g_progress_interval_ms;
}  // namespace detail

inline bool ProgressEnabled() {
  return detail::g_progress_enabled.load(std::memory_order_relaxed);
}

void EnableProgress(bool on);

/// Minimum milliseconds between two printed lines (default 250).
void SetProgressIntervalMs(int ms);

/// One phase's progress. Construct with the total work-item count,
/// Tick() from any thread as items complete; a final 100% line is
/// printed on destruction if anything was printed before. Inert when
/// progress is disabled at construction.
class ProgressReporter {
 public:
  ProgressReporter(std::string phase, std::int64_t total);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void Tick(std::int64_t n = 1);

 private:
  void PrintLine(std::int64_t done, bool final_line);

  bool active_ = false;
  std::string phase_;
  std::int64_t total_ = 0;
  std::chrono::steady_clock::time_point t0_;
  std::atomic<std::int64_t> done_{0};
  std::atomic<std::int64_t> last_print_us_{0};
  std::atomic<bool> printed_{false};
};

}  // namespace adq::obs
