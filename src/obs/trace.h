#pragma once
/// \file trace.h
/// \brief Thread-safe scoped tracer emitting Chrome trace-event JSON.
///
/// The exploration engine's cost structure (paper Fig. 4: an
/// O(2^NMAX * B * NVDD) lattice, ~75% STA-filtered) is invisible from
/// aggregate wall times alone; this tracer records *where* a run
/// spends its time as a `chrome://tracing` / Perfetto-loadable
/// timeline. Design constraints, in order:
///
///   * near-zero overhead when off: every entry point is gated on a
///     single relaxed atomic load, so instrumented hot loops (one
///     span per lattice point) cost one predictable branch;
///   * per-thread buffers: each thread appends to its own buffer
///     (uncontended mutex), so `util::ThreadPool` workers never
///     serialize against each other and show up as separate lanes
///     (`tid`s) in the viewer;
///   * events survive thread exit: buffers are owned by a process-
///     wide registry, so a pool destroyed mid-run loses nothing.

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/profiler.h"

namespace adq::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
/// Nanoseconds since the tracer's process-wide epoch.
std::int64_t NowNs();
/// Appends one complete ("X") event to the calling thread's buffer.
void AppendComplete(std::string name, std::int64_t t0_ns,
                    std::int64_t t1_ns, std::string detail);
}  // namespace detail

/// The global on/off gate every tracing entry point checks first.
inline bool TraceEnabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Starts (resp. stops) event collection. Buffered events are kept
/// across stop/start; ResetTracing drops them.
void StartTracing();
void StopTracing();
void ResetTracing();

/// Names the calling thread's lane in the trace viewer (emitted as a
/// thread_name metadata event). First call wins; later calls and
/// calls while tracing is off are ignored.
void NameThisThreadLane(const std::string& name);

/// Instant ("i") event on the calling thread's lane.
void TraceInstant(const char* name);

/// Counter ("C") sample — renders as a value track in the viewer.
void TraceCounterSample(const char* name, double value);

/// Serializes everything buffered so far as one Chrome trace JSON
/// document ({"traceEvents": [...]}). Safe to call while tracing.
std::string TraceToJson();

/// TraceToJson() to a file; returns false on I/O failure.
bool WriteTrace(const std::string& path);

/// RAII span: records one complete event covering its lifetime on the
/// calling thread's lane. `detail` (optional) lands in args.detail.
/// When tracing is off at construction, the span is fully inert.
/// While the sampling profiler runs, the span name is also pushed on
/// the thread's attribution stack so samples taken inside it carry
/// the span as a synthetic profile frame (see profiler.h).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(name) {
    if (TraceEnabled()) {
      active_ = true;
      t0_ns_ = detail::NowNs();
    }
    prof_pushed_ = PushProfSpan(name);
  }
  TraceSpan(const char* name, std::string det) : TraceSpan(name) {
    SetDetail(std::move(det));
  }
  /// Replaces args.detail, for details known only partway through the
  /// span. No-op on an inert span.
  void SetDetail(std::string det) {
    if (active_) detail_ = std::move(det);
  }
  ~TraceSpan() {
    if (prof_pushed_) PopProfSpan();
    if (active_)
      detail::AppendComplete(name_, t0_ns_, detail::NowNs(),
                             std::move(detail_));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::string detail_;
  std::int64_t t0_ns_ = 0;
  bool active_ = false;
  bool prof_pushed_ = false;
};

}  // namespace adq::obs

#define ADQ_OBS_CONCAT_(a, b) a##b
#define ADQ_OBS_CONCAT(a, b) ADQ_OBS_CONCAT_(a, b)

/// Scoped trace span with a string-literal name.
#define ADQ_TRACE_SCOPE(name) \
  ::adq::obs::TraceSpan ADQ_OBS_CONCAT(adq_trace_span_, __LINE__)(name)

/// Scoped trace span with an extra runtime detail string (only
/// evaluated when tracing is enabled would be nicer, but the cost is
/// one small string per span — keep such spans out of per-point loops).
#define ADQ_TRACE_SCOPE2(name, detail)                               \
  ::adq::obs::TraceSpan ADQ_OBS_CONCAT(adq_trace_span_, __LINE__)(   \
      name, detail)
