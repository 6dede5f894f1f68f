#pragma once
/// \file metrics.h
/// \brief Process-wide metrics registry: counters, gauges and
/// histograms (reusing util::Histogram), with JSON/CSV snapshot
/// export.
///
/// The exploration engine's headline numbers — STA runs, pruning-
/// table hits, feasible/filtered point counts, per-phase wall time,
/// points/sec — are accumulated here so any binary can dump one
/// machine-readable snapshot (`--metrics=<file>`), and tests can pin
/// the instrumented path against ExplorationStats.
///
/// Hot-path contract: every mutating call first checks a single
/// relaxed atomic (MetricsEnabled); when metrics are off the cost is
/// one predictable branch. Counter increments are relaxed atomic
/// fetch-adds; histogram observations take a per-histogram mutex, so
/// keep them out of per-point parallel loops (the explorer folds its
/// histograms in the serial merge instead).

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace adq::obs {

/// One consistent copy of every metric, with serializers.
struct MetricsSnapshot {
  struct Histo {
    double lo = 0.0, hi = 0.0;
    long total = 0;
    double sum = 0.0;  ///< sum of raw samples (util::Histogram::sum)
    std::vector<long> counts;
  };
  std::map<std::string, long> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histo> histograms;

  std::string ToJson() const;
  std::string ToCsv() const;
};

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void EnableMetrics(bool on);

/// Zeroes every registered metric (registrations themselves persist,
/// so cached references stay valid). Intended for tests and for
/// delta-snapshotting one run out of a longer process.
void ResetMetrics();

class Counter {
 public:
  void Add(long n = 1) {
    if (MetricsEnabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  long value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> v_{0};
};

class Gauge {
 public:
  void Set(double x) {
    if (MetricsEnabled()) v_.store(x, std::memory_order_relaxed);
  }
  void Add(double x) {
    if (!MetricsEnabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, int bins)
      : lo_(lo), hi_(hi), bins_(bins), h_(lo, hi, bins) {}

  void Observe(double x) {
    if (!MetricsEnabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    h_.Add(x);
  }
  util::Histogram Snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return h_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lk(mu_);
    h_ = util::Histogram(lo_, hi_, bins_);
  }

 private:
  const double lo_, hi_;
  const int bins_;
  mutable std::mutex mu_;
  util::Histogram h_;
};

/// Registry lookups: create-on-first-use, stable addresses for the
/// process lifetime (cache the reference at the call site — a static
/// local is the idiom). Histogram shape parameters are fixed by the
/// first registration; later lookups ignore them.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
HistogramMetric& GetHistogram(const std::string& name, double lo, double hi,
                              int bins);

MetricsSnapshot SnapshotMetrics();

/// Snapshot to a file: ".csv" suffix selects CSV, anything else JSON.
/// Returns false on I/O failure.
bool WriteMetrics(const std::string& path);

}  // namespace adq::obs
