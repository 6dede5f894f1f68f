#include "obs/obs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace adq::obs {

namespace {

const char* FlagValue(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

}  // namespace

Options OptionsFromEnv() {
  Options o;
  if (const char* t = std::getenv("ADQ_TRACE"); t && *t) o.trace_path = t;
  if (const char* m = std::getenv("ADQ_METRICS"); m && *m)
    o.metrics_path = m;
  if (const char* i = std::getenv("ADQ_METRICS_INTERVAL_MS"); i && *i)
    o.metrics_interval_ms = std::atoi(i);
  if (const char* f = std::getenv("ADQ_PROFILE"); f && *f)
    o.profile_path = f;
  if (const char* hz = std::getenv("ADQ_PROFILE_HZ"); hz && *hz)
    if (const int v = std::atoi(hz); v > 0) o.profile_hz = v;
  if (const char* p = std::getenv("ADQ_PROGRESS"); p && *p && *p != '0')
    o.enable_progress = true;
  return o;
}

bool ParseObsFlag(const char* arg, Options* opt) {
  if (const char* v = FlagValue(arg, "--trace=")) {
    opt->trace_path = v;
    return true;
  }
  if (const char* v = FlagValue(arg, "--metrics=")) {
    opt->metrics_path = v;
    return true;
  }
  if (const char* v = FlagValue(arg, "--profile=")) {
    opt->profile_path = v;
    return true;
  }
  if (std::strcmp(arg, "--progress") == 0) {
    opt->enable_progress = true;
    return true;
  }
  return false;
}

namespace {

std::mutex g_cfg_mu;
Options g_cfg;  // last Configure()d options (dump paths for Flush)

}  // namespace

void Configure(const Options& opt) {
  {
    std::lock_guard<std::mutex> lk(g_cfg_mu);
    g_cfg = opt;
  }
  if (!opt.trace_path.empty())
    StartTracing();
  else
    StopTracing();
  EnableMetrics(opt.enable_metrics || !opt.metrics_path.empty());
  EnableProgress(opt.enable_progress);
  if (!opt.profile_path.empty()) {
    ProfilerOptions popt;
    popt.hz = opt.profile_hz;
    if (!StartProfiler(popt) && !ProfilerRunning())
      std::fprintf(stderr, "[adq] FAILED to start sampling profiler\n");
  } else if (ProfilerRunning()) {
    StopProfiler();
  }
  if (!opt.metrics_path.empty() && opt.metrics_interval_ms > 0)
    StartMetricsPump(opt.metrics_path, opt.metrics_interval_ms);
  else
    StopMetricsPump();
}

void Flush() {
  Options cfg;
  {
    std::lock_guard<std::mutex> lk(g_cfg_mu);
    cfg = g_cfg;
  }
  if (!cfg.profile_path.empty()) {
    StopProfiler();
    const ProfilerStats st = GetProfilerStats();
    if (WriteFoldedProfile(cfg.profile_path)) {
      std::fprintf(stderr,
                   "[adq] profile written to %s (%ld samples, %ld "
                   "dropped; %.0f Hz achieved of %d Hz requested over "
                   "%.3f CPU-s)\n",
                   cfg.profile_path.c_str(), st.samples, st.dropped,
                   st.achieved_hz(), st.requested_hz, st.cpu_s);
      if (st.achieved_hz() < 0.8 * st.requested_hz)
        std::fprintf(stderr,
                     "[adq] WARNING: the profiler sampled at %.0f%% of "
                     "the requested rate; sample counts under-state "
                     "CPU time\n",
                     100.0 * st.achieved_hz() / st.requested_hz);
    } else {
      std::fprintf(stderr, "[adq] FAILED to write profile %s\n",
                   cfg.profile_path.c_str());
    }
  }
  if (!cfg.trace_path.empty()) {
    if (WriteTrace(cfg.trace_path))
      std::fprintf(stderr, "[adq] trace written to %s\n",
                   cfg.trace_path.c_str());
    else
      std::fprintf(stderr, "[adq] FAILED to write trace %s\n",
                   cfg.trace_path.c_str());
  }
  // A running pump owns the metrics file; stopping it performs the
  // final snapshot write (and never clobbers a .jsonl time series
  // with a whole-file dump).
  if (MetricsPumpRunning()) {
    StopMetricsPump();
    std::fprintf(stderr, "[adq] metrics pump final snapshot in %s\n",
                 cfg.metrics_path.c_str());
  } else if (!cfg.metrics_path.empty()) {
    if (WriteMetrics(cfg.metrics_path))
      std::fprintf(stderr, "[adq] metrics written to %s\n",
                   cfg.metrics_path.c_str());
    else
      std::fprintf(stderr, "[adq] FAILED to write metrics %s\n",
                   cfg.metrics_path.c_str());
  }
}

std::int64_t PhaseScope::NowTickNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PhaseScope::~PhaseScope() {
  if (t0_ns_ != 0 && MetricsEnabled()) {
    const double ms =
        static_cast<double>(NowTickNs() - t0_ns_) * 1e-6;
    GetGauge(std::string("phase.") + name_ + ".wall_ms").Add(ms);
  }
}

}  // namespace adq::obs
