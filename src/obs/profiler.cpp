#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

namespace adq::obs {

namespace detail {

std::atomic<bool> g_profiler_enabled{false};

ProfThreadState& ProfState() {
  thread_local ProfThreadState st;
  return st;
}

}  // namespace detail

namespace {

/// The ring outlives everything (leaked on purpose: a signal can fire
/// during static destruction of other objects).
SampleRing* g_ring = nullptr;
std::mutex g_prof_mu;           // guards start/stop/ring swap
struct sigaction g_prev_action; // restored by StopProfiler
bool g_running = false;
int g_requested_hz = 0;
double g_cpu_s = 0.0;       // profiled CPU time of finished runs
double g_cpu_start_s = 0.0; // process CPU time at the last start

/// Process CPU time, the clock ITIMER_PROF counts.
double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Interned lane names: lane pointers must stay valid for the process
/// lifetime because samples hold them raw.
const char* InternLane(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string>* pool = new std::set<std::string>;
  std::lock_guard<std::mutex> lk(mu);
  return pool->insert(name).first->c_str();
}

void ProfilerSignalHandler(int) {
  // Async-signal-safe only: backtrace (pre-warmed in StartProfiler so
  // libgcc is already loaded), plain loads/stores, one fetch-add.
  const int saved_errno = errno;
  SampleRing* ring = g_ring;
  if (ring && detail::g_profiler_enabled.load(std::memory_order_relaxed)) {
    StackSample s;
    // backtrace() starts at this handler: frame 0 is the handler
    // itself, frame 1 the kernel signal trampoline (__restore_rt).
    // Both are static/unsymbolizable, so drop them here rather than
    // relying on the dump-time name filter.
    void* raw[StackSample::kMaxFrames + 2];
    int n = backtrace(raw, StackSample::kMaxFrames + 2);
    const int skip = n > 2 ? 2 : 0;
    n -= skip;
    for (int i = 0; i < n; ++i) s.frames[i] = raw[i + skip];
    s.num_frames = n;
    const detail::ProfThreadState& st = detail::ProfState();
    std::int32_t d = st.depth;
    if (d > StackSample::kMaxSpans) d = StackSample::kMaxSpans;
    if (d < 0) d = 0;
    for (std::int32_t i = 0; i < d; ++i) s.spans[i] = st.spans[i];
    s.num_spans = d;
    s.lane = st.lane;
    ring->TryPush(s);
  }
  errno = saved_errno;
}

std::string Demangle(const char* mangled) {
  int status = 0;
  char* out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && out) {
    std::string s(out);
    std::free(out);
    return s;
  }
  std::free(out);
  return mangled;
}

/// Folded-stack frame separators (';') and counts (' ') must not
/// appear inside a frame name.
std::string SanitizeFrame(std::string s) {
  for (char& c : s)
    if (c == ';' || c == '\n') c = ':';
    else if (c == ' ') c = '_';
  return s;
}

std::string SymbolizePc(void* pc, std::map<void*, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  // The return address points one instruction past the call; resolve
  // the call site itself so leaf attribution is not off by one symbol.
  void* lookup = static_cast<char*>(pc) - 1;
  if (dladdr(lookup, &info) && info.dli_sname) {
    name = Demangle(info.dli_sname);
  } else if (info.dli_fname) {
    char buf[256];
    const char* base = std::strrchr(info.dli_fname, '/');
    std::snprintf(buf, sizeof(buf), "%s+0x%zx",
                  base ? base + 1 : info.dli_fname,
                  static_cast<std::size_t>(static_cast<char*>(pc) -
                                           static_cast<char*>(info.dli_fbase)));
    name = buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx",
                  reinterpret_cast<std::size_t>(pc));
    name = buf;
  }
  name = SanitizeFrame(std::move(name));
  cache.emplace(pc, name);
  return name;
}

/// Frames that belong to the sampling machinery itself, not the
/// profiled code: the handler and the kernel signal trampoline.
bool IsProfilerFrame(const std::string& sym) {
  return sym.find("ProfilerSignalHandler") != std::string::npos ||
         sym.find("__restore_rt") != std::string::npos ||
         sym.find("killpg") != std::string::npos ||
         sym.find("__kernel_sigreturn") != std::string::npos;
}

}  // namespace

bool PushProfSpan(const char* literal_name) {
  if (!ProfilerEnabled()) return false;
  detail::ProfThreadState& st = detail::ProfState();
  const std::int32_t d = st.depth;
  if (d >= 0 && d < StackSample::kMaxSpans) st.spans[d] = literal_name;
  // Publish the frame before the depth so the handler never reads an
  // unwritten slot (same thread, so a signal fence orders it).
  std::atomic_signal_fence(std::memory_order_release);
  st.depth = d + 1;
  return true;
}

void PopProfSpan() {
  detail::ProfThreadState& st = detail::ProfState();
  const std::int32_t d = st.depth;
  if (d > 0) st.depth = d - 1;
}

void SetProfLane(const std::string& name) {
  detail::ProfThreadState& st = detail::ProfState();
  if (!st.lane) st.lane = InternLane(name);
}

bool StartProfiler(const ProfilerOptions& opt) {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  if (g_running || opt.hz <= 0 || opt.capacity == 0) return false;
  if (!g_ring || g_ring->capacity() != opt.capacity) {
    // Leak the old ring: a straggler signal may still hold the pointer.
    g_ring = new SampleRing(opt.capacity);
  }
  // Pre-warm backtrace: the first call dlopens libgcc (mallocs), which
  // must not happen inside the signal handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &ProfilerSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &sa, &g_prev_action) != 0) return false;

  detail::g_profiler_enabled.store(true, std::memory_order_relaxed);

  itimerval timer;
  const long us = std::max(1L, 1000000L / opt.hz);
  timer.it_interval.tv_sec = us / 1000000;
  timer.it_interval.tv_usec = us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
    sigaction(SIGPROF, &g_prev_action, nullptr);
    return false;
  }
  g_running = true;
  g_requested_hz = opt.hz;
  g_cpu_start_s = ProcessCpuSeconds();
  return true;
}

void StopProfiler() {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  if (!g_running) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
  sigaction(SIGPROF, &g_prev_action, nullptr);
  g_running = false;
  g_cpu_s += ProcessCpuSeconds() - g_cpu_start_s;
}

bool ProfilerRunning() {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  return g_running;
}

ProfilerStats GetProfilerStats() {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  ProfilerStats st;
  if (g_ring) {
    st.samples = static_cast<long>(g_ring->size());
    st.dropped = g_ring->dropped();
  }
  st.requested_hz = g_requested_hz;
  st.cpu_s = g_cpu_s;
  if (g_running) st.cpu_s += ProcessCpuSeconds() - g_cpu_start_s;
  return st;
}

void ResetProfiler() {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  if (g_running) return;
  if (g_ring) g_ring->Clear();
  g_cpu_s = 0.0;
}

std::string FoldedProfile() {
  std::lock_guard<std::mutex> lk(g_prof_mu);
  if (!g_ring) return "";
  std::map<void*, std::string> sym_cache;
  std::map<std::string, long> folded;
  g_ring->ForEach([&](const StackSample& s) {
    std::string key = s.lane ? s.lane : "main";
    key = SanitizeFrame(std::move(key));
    for (std::int32_t i = 0; i < s.num_spans; ++i) {
      key += ';';
      key += SanitizeFrame(s.spans[i]);
    }
    // Native frames, outermost first, with the sampler's own frames
    // (handler + trampoline) stripped off the inner end.
    for (std::int32_t f = s.num_frames - 1; f >= 0; --f) {
      const std::string sym = SymbolizePc(s.frames[f], sym_cache);
      if (IsProfilerFrame(sym)) continue;
      key += ';';
      key += sym;
    }
    ++folded[key];
  });
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool WriteFoldedProfile(const std::string& path) {
  const std::string body = FoldedProfile();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace adq::obs
