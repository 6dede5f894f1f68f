#include "obs/metrics.h"

#include <cstdio>
#include <memory>

#include "obs/openmetrics.h"

namespace adq::obs {

namespace {

void AppendNum(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(v);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendNum(out, v);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"lo\": ";
    AppendNum(out, h.lo);
    out += ", \"hi\": ";
    AppendNum(out, h.hi);
    out += ", \"total\": " + std::to_string(h.total) + ", \"sum\": ";
    AppendNum(out, h.sum);
    out += ", \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,value\n";
  for (const auto& [name, v] : counters)
    out += "counter," + name + "," + std::to_string(v) + "\n";
  for (const auto& [name, v] : gauges) {
    out += "gauge," + name + ",";
    AppendNum(out, v);
    out += "\n";
  }
  // Histogram bins flatten to one row per bin: name[i] with the bin's
  // inclusive-lo edge appended for self-containedness.
  for (const auto& [name, h] : histograms) {
    const double width =
        h.counts.empty() ? 0.0
                         : (h.hi - h.lo) / static_cast<double>(h.counts.size());
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out += "histogram_bin," + name + "[" + std::to_string(b) + "]@";
      AppendNum(out, h.lo + width * static_cast<double>(b));
      out += "," + std::to_string(h.counts[b]) + "\n";
    }
    out += "histogram_total," + name + "," + std::to_string(h.total) + "\n";
  }
  return out;
}

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

/// Registered metrics live forever (leaked singleton: threads caching
/// references must never observe destruction).
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms;
};

Registry& Reg() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

void EnableMetrics(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void ResetMetrics() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (auto& [name, c] : reg.counters) c->Reset();
  for (auto& [name, g] : reg.gauges) g->Reset();
  for (auto& [name, h] : reg.histograms) h->Reset();
}

Counter& GetCounter(const std::string& name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& GetGauge(const std::string& name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& GetHistogram(const std::string& name, double lo, double hi,
                              int bins) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(lo, hi, bins);
  return *slot;
}

MetricsSnapshot SnapshotMetrics() {
  Registry& reg = Reg();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(reg.mu);
  for (const auto& [name, c] : reg.counters) snap.counters[name] = c->value();
  for (const auto& [name, g] : reg.gauges) snap.gauges[name] = g->value();
  for (const auto& [name, h] : reg.histograms) {
    const util::Histogram hist = h->Snapshot();
    MetricsSnapshot::Histo out;
    out.lo = hist.bin_lo(0);
    out.hi = hist.bin_hi(hist.bins() - 1);
    out.total = hist.total();
    out.sum = hist.sum();
    out.counts.reserve(static_cast<std::size_t>(hist.bins()));
    for (int b = 0; b < hist.bins(); ++b) out.counts.push_back(hist.count(b));
    snap.histograms[name] = std::move(out);
  }
  return snap;
}

bool WriteMetrics(const std::string& path) {
  const MetricsSnapshot snap = SnapshotMetrics();
  const auto has_suffix = [&](const char* suf) {
    const std::string s(suf);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (has_suffix(".csv")) return WriteFile(path, snap.ToCsv());
  if (has_suffix(".prom") || has_suffix(".om"))
    return WriteFile(path, ToOpenMetrics(snap));
  return WriteFile(path, snap.ToJson());
}

}  // namespace adq::obs
