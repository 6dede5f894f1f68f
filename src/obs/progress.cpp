#include "obs/progress.h"

#include <cstdio>
#include <utility>

namespace adq::obs {

namespace detail {
std::atomic<bool> g_progress_enabled{false};
std::atomic<int> g_progress_interval_ms{250};
}  // namespace detail

void EnableProgress(bool on) {
  detail::g_progress_enabled.store(on, std::memory_order_relaxed);
}

void SetProgressIntervalMs(int ms) {
  detail::g_progress_interval_ms.store(ms < 0 ? 0 : ms,
                                       std::memory_order_relaxed);
}

ProgressReporter::ProgressReporter(std::string phase, std::int64_t total) {
  if (!ProgressEnabled()) return;
  active_ = true;
  phase_ = std::move(phase);
  total_ = total;
  t0_ = std::chrono::steady_clock::now();
}

ProgressReporter::~ProgressReporter() {
  if (active_ && printed_.load(std::memory_order_relaxed))
    PrintLine(done_.load(std::memory_order_relaxed), /*final_line=*/true);
}

void ProgressReporter::Tick(std::int64_t n) {
  if (!active_) return;
  const std::int64_t done =
      done_.fetch_add(n, std::memory_order_relaxed) + n;
  const std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count();
  const std::int64_t interval_us =
      1000ll * detail::g_progress_interval_ms.load(std::memory_order_relaxed);
  std::int64_t last = last_print_us_.load(std::memory_order_relaxed);
  if (now_us - last < interval_us) return;
  // One thread wins the right to print this interval; losers return.
  if (!last_print_us_.compare_exchange_strong(last, now_us,
                                              std::memory_order_relaxed))
    return;
  printed_.store(true, std::memory_order_relaxed);
  PrintLine(done, /*final_line=*/false);
}

void ProgressReporter::PrintLine(std::int64_t done, bool final_line) {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  const double rate = secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
  if (final_line) {
    std::fprintf(stderr, "[adq] %s: done %lld/%lld in %.2fs (%.0f/s)\n",
                 phase_.c_str(), static_cast<long long>(done),
                 static_cast<long long>(total_), secs, rate);
    return;
  }
  const double pct =
      total_ > 0 ? 100.0 * static_cast<double>(done) /
                       static_cast<double>(total_)
                 : 0.0;
  const double eta =
      rate > 0.0 && total_ > done
          ? static_cast<double>(total_ - done) / rate
          : 0.0;
  std::fprintf(stderr, "[adq] %s: %lld/%lld (%.1f%%) %.0f/s eta %.1fs\n",
               phase_.c_str(), static_cast<long long>(done),
               static_cast<long long>(total_), pct, rate, eta);
}

}  // namespace adq::obs
