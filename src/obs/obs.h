#pragma once
/// \file obs.h
/// \brief Umbrella for the observability subsystem: tracing
/// (trace.h), metrics (metrics.h), progress (progress.h), plus the
/// binary-facing configuration surface shared by the examples and
/// bench harnesses.
///
/// Configuration precedence: environment < command-line flags.
///
///   Environment   ADQ_TRACE=<file>    enable tracing, dump on Flush
///                 ADQ_METRICS=<file>  enable metrics, dump on Flush
///                 ADQ_PROFILE=<file>  sampling profiler, folded
///                                     stacks dumped on Flush
///                 ADQ_PROFILE_HZ=<n>  sampling rate (default 997)
///                 ADQ_PROGRESS=1      rate-limited stderr progress
///   Flags         --trace=<file> --metrics=<file> --profile=<file>
///                 --progress
///
/// A binary opts in with three calls:
///
///   obs::Options o = obs::OptionsFromEnv();
///   for each arg: if (obs::ParseObsFlag(arg, &o)) consume it;
///   obs::Configure(o);         // before the instrumented work
///   ...work...
///   obs::Flush();              // writes the requested files
///
/// Everything is inert by default: an unconfigured process pays one
/// relaxed atomic load per instrumentation site.

#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace adq::obs {

struct Options {
  std::string trace_path;    ///< empty = tracing off
  std::string metrics_path;  ///< empty = no metrics dump on Flush
  std::string profile_path;  ///< empty = sampling profiler off
  int profile_hz = 997;      ///< sampling rate when profiling
  bool enable_metrics = false;  ///< collect even without a dump path
  bool enable_progress = false;
};

/// Reads ADQ_TRACE / ADQ_METRICS / ADQ_PROFILE / ADQ_PROFILE_HZ /
/// ADQ_PROGRESS.
Options OptionsFromEnv();

/// Consumes one obs flag (--trace=, --metrics=, --profile=,
/// --progress) into `opt`; returns false (arg untouched) for
/// anything else.
bool ParseObsFlag(const char* arg, Options* opt);

/// Applies `opt` to the global gates (idempotent; also remembers the
/// dump paths for Flush).
void Configure(const Options& opt);

/// Writes the trace/metrics files requested by the last Configure,
/// reporting each written path on stderr. Safe to call repeatedly.
void Flush();

/// RAII phase instrumentation: one trace span plus an accumulating
/// `phase.<name>.wall_ms` gauge. Use for coarse stages (flow phases,
/// whole explorations), not per-point loops.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name)
      : name_(name), span_(name), t0_ns_(0) {
    if (MetricsEnabled()) t0_ns_ = NowTickNs();
  }
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  static std::int64_t NowTickNs();

  const char* name_;
  TraceSpan span_;
  std::int64_t t0_ns_;
};

}  // namespace adq::obs

/// Scoped phase: trace span + wall-time gauge, string-literal name.
#define ADQ_OBS_PHASE(name) \
  ::adq::obs::PhaseScope ADQ_OBS_CONCAT(adq_obs_phase_, __LINE__)(name)
