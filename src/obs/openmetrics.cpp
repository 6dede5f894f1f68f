#include "obs/openmetrics.h"

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

namespace adq::obs {

namespace {

void AppendNum(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Sample-line timestamp: OpenMetrics wants seconds (float ok).
void AppendTimestamp(std::string& out, std::int64_t ts_ms) {
  if (ts_ms <= 0) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %lld.%03d",
                static_cast<long long>(ts_ms / 1000),
                static_cast<int>(ts_ms % 1000));
  out += buf;
}

void HelpLine(std::string& out, const std::string& om_name,
              const std::string& raw_name) {
  out += "# HELP " + om_name + " adq metric " + raw_name + "\n";
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out = "adq_";
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string ToOpenMetrics(const MetricsSnapshot& snap,
                          std::int64_t timestamp_ms) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + std::to_string(v);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " gauge\n";
    out += om + ' ';
    AppendNum(out, v);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " histogram\n";
    // Cumulative buckets; the top bin doubles as +Inf because the
    // histogram clamps overflow samples into it.
    long cum = 0;
    const std::size_t nbins = h.counts.size();
    const double width =
        nbins ? (h.hi - h.lo) / static_cast<double>(nbins) : 0.0;
    for (std::size_t b = 0; b < nbins; ++b) {
      cum += h.counts[b];
      out += om + "_bucket{le=\"";
      if (b + 1 == nbins) {
        out += "+Inf";
      } else {
        AppendNum(out, h.lo + width * static_cast<double>(b + 1));
      }
      out += "\"} " + std::to_string(cum);
      AppendTimestamp(out, timestamp_ms);
      out += '\n';
    }
    if (nbins == 0) {
      out += om + "_bucket{le=\"+Inf\"} " + std::to_string(h.total);
      AppendTimestamp(out, timestamp_ms);
      out += '\n';
    }
    out += om + "_count " + std::to_string(h.total);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
    out += om + "_sum ";
    AppendNum(out, h.sum);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  out += "# EOF\n";
  return out;
}

namespace {

std::int64_t UnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool HasSuffix(const std::string& s, const char* suf) {
  const std::string t(suf);
  return s.size() >= t.size() &&
         s.compare(s.size() - t.size(), t.size(), t) == 0;
}

bool WriteWholeFile(const std::string& path, const std::string& body,
                    bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (!f) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

/// One snapshot write in the format the path's suffix selects.
bool PumpWriteOnce(const std::string& path) {
  const MetricsSnapshot snap = SnapshotMetrics();
  const std::int64_t now_ms = UnixMs();
  if (HasSuffix(path, ".jsonl"))
    return WriteWholeFile(path, SnapshotJsonLine(snap, now_ms) + "\n",
                          /*append=*/true);
  std::string body;
  if (HasSuffix(path, ".prom") || HasSuffix(path, ".om"))
    body = ToOpenMetrics(snap, now_ms);
  else if (HasSuffix(path, ".csv"))
    body = snap.ToCsv();
  else
    body = snap.ToJson();
  // Atomic replace so a concurrent scraper never reads a torn file.
  const std::string tmp = path + ".tmp";
  if (!WriteWholeFile(tmp, body, /*append=*/false)) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

struct Pump {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool stop_requested = false;
  bool running = false;
  std::string path;
  int interval_ms = 0;
};

Pump& ThePump() {
  static Pump* p = new Pump;
  return *p;
}

}  // namespace

std::string SnapshotJsonLine(const MetricsSnapshot& snap,
                             std::int64_t timestamp_ms) {
  std::string out = "{\"ts_ms\": " + std::to_string(timestamp_ms) +
                    ", \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": " + std::to_string(v);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": ";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
  out += "}}";
  return out;
}

bool StartMetricsPump(const std::string& path, int interval_ms) {
  if (path.empty() || interval_ms <= 0) return false;
  if (MetricsPumpRunning()) return false;  // one pump at a time
  Pump& p = ThePump();
  std::lock_guard<std::mutex> lk(p.mu);
  p.path = path;
  p.interval_ms = interval_ms;
  p.stop_requested = false;
  p.running = true;
  p.thread = std::thread([&p] {
    std::unique_lock<std::mutex> pump_lk(p.mu);
    for (;;) {
      const std::string path_copy = p.path;
      const int ms = p.interval_ms;
      pump_lk.unlock();
      PumpWriteOnce(path_copy);
      pump_lk.lock();
      if (p.cv.wait_for(pump_lk, std::chrono::milliseconds(ms),
                        [&p] { return p.stop_requested; }))
        return;
    }
  });
  return true;
}

void StopMetricsPump() {
  Pump& p = ThePump();
  std::thread joiner;
  std::string final_path;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (!p.running) return;
    p.stop_requested = true;
    p.running = false;
    final_path = p.path;
    joiner = std::move(p.thread);
  }
  p.cv.notify_all();
  if (joiner.joinable()) joiner.join();
  // Final write so the on-disk state reflects the end of the run.
  if (!final_path.empty()) PumpWriteOnce(final_path);
}

bool MetricsPumpRunning() {
  Pump& p = ThePump();
  std::lock_guard<std::mutex> lk(p.mu);
  return p.running;
}

}  // namespace adq::obs
