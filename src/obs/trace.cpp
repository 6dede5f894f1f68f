#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace adq::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct Event {
  std::string name;
  char ph = 'X';            // 'X' complete, 'i' instant, 'C' counter
  std::int64_t ts_ns = 0;   // since registry epoch
  std::int64_t dur_ns = 0;  // 'X' only
  double value = 0.0;       // 'C' only
  std::string detail;       // args.detail if non-empty
};

/// One thread's event stream. Appends are owner-thread only, but the
/// serializer reads concurrently, hence the (uncontended) mutex.
struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
  std::string lane_name;
  int tid = 0;
};

struct Registry {
  std::mutex mu;  // guards bufs (growth); each buf has its own lock
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

/// Leaked on purpose: threads may outlive static destruction order.
Registry& Reg() {
  static Registry* r = new Registry;
  return *r;
}

ThreadBuf& BufForThisThread() {
  thread_local ThreadBuf* buf = nullptr;
  if (!buf) {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lk(reg.mu);
    reg.bufs.push_back(std::make_unique<ThreadBuf>());
    buf = reg.bufs.back().get();
    buf->tid = static_cast<int>(reg.bufs.size());
  }
  return *buf;
}

void Append(Event e) {
  ThreadBuf& b = BufForThisThread();
  std::lock_guard<std::mutex> lk(b.mu);
  b.events.push_back(std::move(e));
}

void JsonEscapeTo(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

/// Microseconds with nanosecond precision, the unit Chrome expects.
void AppendUs(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03d",
                static_cast<long long>(ns / 1000),
                static_cast<int>(ns % 1000));
  out += buf;
}

}  // namespace

namespace detail {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Reg().epoch)
      .count();
}

void AppendComplete(std::string name, std::int64_t t0_ns,
                    std::int64_t t1_ns, std::string detail) {
  Event e;
  e.name = std::move(name);
  e.ph = 'X';
  e.ts_ns = t0_ns;
  e.dur_ns = t1_ns > t0_ns ? t1_ns - t0_ns : 0;
  e.detail = std::move(detail);
  Append(std::move(e));
}

}  // namespace detail

void StartTracing() {
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void ResetTracing() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  // Buffers are kept alive (threads cache pointers into them); only
  // their contents are dropped.
  for (auto& b : reg.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
    b->lane_name.clear();
  }
}

void NameThisThreadLane(const std::string& name) {
  // The profiler labels sample lanes independently of tracing, so a
  // `--profile`-only run still shows `explore worker N` roots.
  if (ProfilerEnabled()) SetProfLane(name);
  if (!TraceEnabled()) return;
  ThreadBuf& b = BufForThisThread();
  std::lock_guard<std::mutex> lk(b.mu);
  if (b.lane_name.empty()) b.lane_name = name;
}

void TraceInstant(const char* name) {
  if (!TraceEnabled()) return;
  Event e;
  e.name = name;
  e.ph = 'i';
  e.ts_ns = detail::NowNs();
  Append(std::move(e));
}

void TraceCounterSample(const char* name, double value) {
  if (!TraceEnabled()) return;
  Event e;
  e.name = name;
  e.ph = 'C';
  e.ts_ns = detail::NowNs();
  e.value = value;
  Append(std::move(e));
}

std::string TraceToJson() {
  Registry& reg = Reg();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lk(reg.mu);
  for (const auto& b : reg.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (!b->lane_name.empty()) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(b->tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      JsonEscapeTo(out, b->lane_name);
      out += "\"}}";
    }
    for (const Event& e : b->events) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"";
      out += e.ph;
      out += "\",\"pid\":0,\"tid\":" + std::to_string(b->tid) +
             ",\"cat\":\"adq\",\"name\":\"";
      JsonEscapeTo(out, e.name);
      out += "\",\"ts\":";
      AppendUs(out, e.ts_ns);
      if (e.ph == 'X') {
        out += ",\"dur\":";
        AppendUs(out, e.dur_ns);
      }
      if (e.ph == 'C') {
        char v[40];
        std::snprintf(v, sizeof(v), "%.17g", e.value);
        out += ",\"args\":{\"value\":";
        out += v;
        out += "}";
      } else if (!e.detail.empty()) {
        out += ",\"args\":{\"detail\":\"";
        JsonEscapeTo(out, e.detail);
        out += "\"}";
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

bool WriteTrace(const std::string& path) {
  const std::string json = TraceToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace adq::obs
