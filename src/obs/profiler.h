#pragma once
/// \file profiler.h
/// \brief In-process sampling profiler: a POSIX-timer (ITIMER_PROF /
/// SIGPROF) stack sampler with a lock-free sample ring, folded-stack
/// output for FlameGraph / speedscope, and obs-span attribution.
///
/// How it samples: the profiling interval timer ticks on *process CPU
/// time* and the kernel delivers each SIGPROF to a currently-running
/// thread, so busy threads are sampled in proportion to the CPU they
/// burn — exactly the per-thread attribution a wall-clock alarm on the
/// main thread cannot give. The handler captures the interrupted
/// thread's stack with backtrace(), copies the thread's open obs-span
/// names (maintained by TraceSpan, see PushProfSpan below) and its
/// lane name, and publishes the sample into a lock-free ring with one
/// fetch-add claim — no locks, no allocation, nothing async-signal-
/// unsafe on the hot path.
///
/// Symbolization (dladdr + __cxa_demangle, cached per PC) happens at
/// dump time, never in the handler. The folded output is one line per
/// distinct stack, root-first, leaf-last:
///
///   explore worker 3;explore;sta.point;adq::sta::... 412
///
/// so `flamegraph.pl out.folded` or https://speedscope.app render it
/// directly, and the obs spans (`flow.*` phases, `explore`) appear as
/// synthetic frames above the native ones — the profile and the trace
/// agree on where time went.
///
/// Overhead: at the default 997 Hz (prime, to dodge lockstep with
/// periodic work) a sample costs one backtrace + ~300 B copy;
/// measured <5% on bench_sta_batch (see EXPERIMENTS.md) and ~1% is
/// typical.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adq::obs {

/// One captured stack. PC frames are innermost-first (backtrace()
/// order); span names are outermost-first string literals owned by
/// the call sites (or interned lane strings that live forever).
struct StackSample {
  static constexpr int kMaxFrames = 40;
  static constexpr int kMaxSpans = 8;
  void* frames[kMaxFrames];
  const char* spans[kMaxSpans];
  const char* lane = nullptr;  ///< interned; nullptr = unnamed thread
  std::int32_t num_frames = 0;
  std::int32_t num_spans = 0;
};

struct ProfilerOptions {
  int hz = 997;  ///< sampling rate in samples per CPU-second (prime)
  std::size_t capacity = 1u << 15;  ///< ring slots (~33 s at 997 Hz)
};

struct ProfilerStats {
  long samples = 0;  ///< committed into the ring
  long dropped = 0;  ///< lost to a full ring
  int requested_hz = 0;  ///< ProfilerOptions::hz of the last start
  double cpu_s = 0.0;    ///< process CPU time while the timer ran

  /// Samples per profiled CPU-second (0 before any CPU was profiled).
  /// ITIMER_PROF under-delivers on a loaded box; compare with
  /// requested_hz before reading the profile's absolute counts.
  double achieved_hz() const {
    return cpu_s > 0.0 ? static_cast<double>(samples + dropped) / cpu_s
                       : 0.0;
  }
};

/// Lock-free multi-producer sample ring. Writers (signal handlers on
/// any thread) claim a slot with one fetch-add and commit it with a
/// release store; when all slots are claimed further pushes are
/// counted as drops rather than blocking — a profiler must never
/// stall the profiled code. Readers (Fold/size) see only committed
/// slots, so draining concurrently with writers is safe; Clear() may
/// only race with nothing.
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity)
      : slots_(capacity), committed_(capacity) {
    for (auto& c : committed_) c.store(0, std::memory_order_relaxed);
  }

  /// Async-signal-safe, lock-free. False = dropped (ring full).
  bool TryPush(const StackSample& s) {
    const std::size_t idx =
        claimed_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[idx] = s;
    committed_[idx].store(1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return slots_.size(); }
  /// Committed samples visible to a reader right now.
  std::size_t size() const {
    std::size_t n = 0;
    const std::size_t hi =
        std::min(claimed_.load(std::memory_order_acquire), slots_.size());
    for (std::size_t i = 0; i < hi; ++i)
      if (committed_[i].load(std::memory_order_acquire)) ++n;
    return n;
  }
  long dropped() const {
    return static_cast<long>(dropped_.load(std::memory_order_relaxed));
  }

  /// Visits every committed sample in claim order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const std::size_t hi =
        std::min(claimed_.load(std::memory_order_acquire), slots_.size());
    for (std::size_t i = 0; i < hi; ++i)
      if (committed_[i].load(std::memory_order_acquire)) fn(slots_[i]);
  }

  /// Not thread-safe: callers must quiesce writers first.
  void Clear() {
    claimed_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    for (auto& c : committed_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<StackSample> slots_;
  std::vector<std::atomic<std::uint8_t>> committed_;
  std::atomic<std::size_t> claimed_{0};
  std::atomic<std::size_t> dropped_{0};
};

namespace detail {
extern std::atomic<bool> g_profiler_enabled;

/// Per-thread open-span stack the signal handler snapshots. All
/// mutation happens on the owning thread; the handler interrupts that
/// same thread, so plain stores ordered by a signal fence suffice.
struct ProfThreadState {
  const char* spans[StackSample::kMaxSpans];
  volatile std::int32_t depth = 0;   ///< may exceed kMaxSpans (dropped)
  const char* lane = nullptr;        ///< interned, set once
};
ProfThreadState& ProfState();
}  // namespace detail

inline bool ProfilerEnabled() {
  return detail::g_profiler_enabled.load(std::memory_order_relaxed);
}

/// Pushes an open span name (string literal) for sample attribution.
/// Returns whether a matching PopProfSpan() is owed — the caller must
/// remember the answer so a profiler started mid-span never sees an
/// unbalanced pop.
bool PushProfSpan(const char* literal_name);
void PopProfSpan();

/// Records this thread's lane name for the profiler (interned copy;
/// first call wins). Independent of tracing so `--profile` alone
/// still labels worker lanes.
void SetProfLane(const std::string& name);

/// Installs the SIGPROF handler and starts the profiling timer.
/// Returns false if a profiler is already running or the timer could
/// not be created. Restartable after StopProfiler (samples accumulate
/// until ResetProfiler).
bool StartProfiler(const ProfilerOptions& opt = {});

/// Stops the timer and uninstalls the handler. Buffered samples are
/// kept for FoldedProfile / WriteFoldedProfile.
void StopProfiler();

bool ProfilerRunning();
ProfilerStats GetProfilerStats();
/// Drops buffered samples and the profiled CPU time (profiler
/// stopped).
void ResetProfiler();

/// Aggregates the buffered samples into folded-stack text:
/// `lane;span;...;frame;... count\n` per distinct stack, symbolized
/// via dladdr (demangled) with `module+0xoff` fallback. Call after
/// StopProfiler.
std::string FoldedProfile();

/// FoldedProfile() to a file; returns false on I/O failure.
bool WriteFoldedProfile(const std::string& path);

}  // namespace adq::obs
