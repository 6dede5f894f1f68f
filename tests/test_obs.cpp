/// Tests for the observability subsystem (src/obs): span nesting and
/// ordering, Chrome-trace JSON well-formedness (checked with a real
/// recursive-descent parse, not substring heuristics), counter /
/// gauge / histogram correctness, option/flag parsing, and a
/// multi-threaded tracer+metrics stress test (labelled `parallel` so
/// `ctest --preset tsan` races it).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/json.h"

#include "../bench/common.h"

#if defined(__SANITIZE_THREAD__)
#define ADQ_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADQ_TEST_TSAN 1
#endif
#endif

namespace adq::obs {
namespace {

// ---------------------------------------------------------------
// Minimal JSON well-formedness checker (validates, does not build a
// DOM). Accepts exactly the RFC 8259 grammar the tracer emits.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          for (int i = 2; i <= 5; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          pos_ += 6;
          continue;
        }
        if (std::string("\"\\/bfnrt").find(e) == std::string::npos)
          return false;
        pos_ += 2;
        continue;
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".+-eE").find(s_[pos_]) != std::string::npos))
      ++pos_;
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

long CountOccurrences(const std::string& hay, const std::string& needle) {
  long n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size()))
    ++n;
  return n;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopTracing();
    ResetTracing();
    EnableMetrics(false);
    ResetMetrics();
    EnableProgress(false);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ObsTest, SpanNestingAndOrdering) {
  StartTracing();
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
  }
  StopTracing();
  const std::string json = TraceToJson();
  ASSERT_TRUE(JsonChecker(json).Valid()) << json;
  // Spans close inside-out, so "inner" is appended before "outer".
  const std::size_t pi = json.find("\"name\":\"inner\"");
  const std::size_t po = json.find("\"name\":\"outer\"");
  ASSERT_NE(pi, std::string::npos);
  ASSERT_NE(po, std::string::npos);
  EXPECT_LT(pi, po);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2);
}

TEST_F(ObsTest, SpanTimingIsNested) {
  // The inner span's [ts, ts+dur] interval must sit inside the
  // outer's. Parse the two events' numbers directly.
  StartTracing();
  {
    TraceSpan outer("t_outer");
    {
      TraceSpan inner("t_inner");
      // Do measurable work so durations are nonzero on coarse clocks.
      volatile double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
    }
  }
  StopTracing();
  const std::string json = TraceToJson();
  auto field_after = [&](const char* name, const char* key) {
    const std::size_t ev = json.find(std::string("\"name\":\"") + name);
    EXPECT_NE(ev, std::string::npos);
    const std::size_t k = json.find(std::string("\"") + key + "\":", ev);
    EXPECT_NE(k, std::string::npos);
    return std::stod(json.substr(k + std::strlen(key) + 3));
  };
  const double o_ts = field_after("t_outer", "ts");
  const double o_dur = field_after("t_outer", "dur");
  const double i_ts = field_after("t_inner", "ts");
  const double i_dur = field_after("t_inner", "dur");
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_ts + i_dur, o_ts + o_dur + 1e-6);
  EXPECT_GT(o_dur, 0.0);
}

TEST_F(ObsTest, DisabledTracingBuffersNothing) {
  {
    TraceSpan s("should_not_appear");
    TraceInstant("nor_this");
    TraceCounterSample("nor_that", 1.0);
  }
  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 0);
}

TEST_F(ObsTest, InstantCounterAndEscaping) {
  StartTracing();
  TraceInstant("evil \"name\" with \\ and \n newline");
  TraceCounterSample("points_per_sec", 12345.5);
  StopTracing();
  const std::string json = TraceToJson();
  ASSERT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("12345.5"), std::string::npos);
}

TEST_F(ObsTest, LaneNamesBecomeThreadMetadata) {
  StartTracing();
  NameThisThreadLane("my main lane");
  NameThisThreadLane("second call loses");
  TraceInstant("tick");
  StopTracing();
  const std::string json = TraceToJson();
  ASSERT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("my main lane"), std::string::npos);
  EXPECT_EQ(json.find("second call loses"), std::string::npos);
}

TEST_F(ObsTest, CounterGatedOnEnable) {
  Counter& c = GetCounter("test.gated");
  c.Add(5);  // metrics disabled -> dropped
  EXPECT_EQ(c.value(), 0);
  EnableMetrics(true);
  c.Add(5);
  c.Add();
  EXPECT_EQ(c.value(), 6);
  EnableMetrics(false);
  c.Add(100);
  EXPECT_EQ(c.value(), 6);
}

TEST_F(ObsTest, GaugeSetAndAccumulate) {
  EnableMetrics(true);
  Gauge& g = GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.25);
  g.Add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST_F(ObsTest, HistogramObserveAndSnapshot) {
  EnableMetrics(true);
  HistogramMetric& h = GetHistogram("test.histo", 0.0, 10.0, 10);
  h.Observe(0.5);    // bin 0
  h.Observe(9.5);    // bin 9
  h.Observe(-50.0);  // clamps into bin 0 (util::Histogram contract)
  h.Observe(50.0);   // clamps into bin 9
  const MetricsSnapshot snap = SnapshotMetrics();
  const auto it = snap.histograms.find("test.histo");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.total, 4);
  ASSERT_EQ(it->second.counts.size(), 10u);
  EXPECT_EQ(it->second.counts[0], 2);
  EXPECT_EQ(it->second.counts[9], 2);
}

TEST_F(ObsTest, SnapshotSerializersAreWellFormed) {
  EnableMetrics(true);
  GetCounter("test.snap_counter").Add(7);
  GetGauge("test.snap_gauge").Set(1.5);
  GetHistogram("test.snap_histo", -1.0, 1.0, 4).Observe(0.0);
  const MetricsSnapshot snap = SnapshotMetrics();
  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.snap_counter\": 7"), std::string::npos);
  const std::string csv = snap.ToCsv();
  EXPECT_NE(csv.find("counter,test.snap_counter,7"), std::string::npos);
  EXPECT_NE(csv.find("gauge,test.snap_gauge,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram_total,test.snap_histo,1"),
            std::string::npos);
}

TEST_F(ObsTest, ResetMetricsZeroesButKeepsRegistrations) {
  EnableMetrics(true);
  Counter& c = GetCounter("test.reset_me");
  c.Add(3);
  ResetMetrics();
  EXPECT_EQ(c.value(), 0);          // same object, zeroed
  EXPECT_EQ(&c, &GetCounter("test.reset_me"));
}

TEST_F(ObsTest, PhaseScopeAccumulatesWallTime) {
  EnableMetrics(true);
  {
    ADQ_OBS_PHASE("unittest_phase");
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  }
  const MetricsSnapshot snap = SnapshotMetrics();
  const auto it = snap.gauges.find("phase.unittest_phase.wall_ms");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_GT(it->second, 0.0);
}

TEST_F(ObsTest, ProgressReporterPrintsWhenEnabled) {
  EnableProgress(true);
  SetProgressIntervalMs(0);  // print every tick
  ::testing::internal::CaptureStderr();
  {
    ProgressReporter prog("unit phase", 4);
    for (int i = 0; i < 4; ++i) prog.Tick();
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  SetProgressIntervalMs(250);
  EXPECT_NE(err.find("unit phase"), std::string::npos);
  EXPECT_NE(err.find("4/4"), std::string::npos);
  EXPECT_NE(err.find("done"), std::string::npos);  // final line
}

TEST_F(ObsTest, ProgressReporterSilentWhenDisabled) {
  ::testing::internal::CaptureStderr();
  {
    ProgressReporter prog("silent phase", 100);
    for (int i = 0; i < 100; ++i) prog.Tick();
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// ---------------------------------------------------------------
// Multi-threaded stress: all three pieces hammered from 8 threads.
// Racy use of the tracer/registry is exactly what the `parallel`
// CTest label + tsan preset are for.

TEST_F(ObsTest, MultithreadedTracerAndMetricsStress) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  StartTracing();
  EnableMetrics(true);
  EnableProgress(true);
  SetProgressIntervalMs(1000000);  // effectively silence stderr
  ::testing::internal::CaptureStderr();
  Counter& hits = GetCounter("stress.hits");
  HistogramMetric& histo = GetHistogram("stress.histo", 0.0, 1.0, 8);
  {
    ProgressReporter prog("stress", kThreads * kIters);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        NameThisThreadLane("stress worker " + std::to_string(t));
        for (int i = 0; i < kIters; ++i) {
          TraceSpan span("stress.iter");
          hits.Add();
          histo.Observe(static_cast<double>(i % 10) / 10.0);
          GetGauge("stress.gauge").Set(static_cast<double>(i));
          prog.Tick();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  StopTracing();
  ::testing::internal::GetCapturedStderr();
  SetProgressIntervalMs(250);

  EXPECT_EQ(hits.value(), static_cast<long>(kThreads) * kIters);
  const MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_EQ(snap.histograms.at("stress.histo").total,
            static_cast<long>(kThreads) * kIters);
  const std::string json = TraceToJson();
  ASSERT_TRUE(JsonChecker(json).Valid());
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"stress.iter\""),
            static_cast<long>(kThreads) * kIters);
  // One named lane per stress thread.
  EXPECT_EQ(CountOccurrences(json, "stress worker "),
            static_cast<long>(kThreads));
}

// ---------------------------------------------------------------
// Sampling profiler.

TEST_F(ObsTest, SampleRingMultiProducerStress) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  SampleRing ring(1024);
  std::vector<std::thread> threads;
  std::atomic<long> pushed{0};
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ring, &pushed, t] {
      StackSample s;
      s.num_frames = 1;
      s.frames[0] = reinterpret_cast<void*>(static_cast<std::uintptr_t>(
          0x1000 + t));
      for (int i = 0; i < kPerThread; ++i)
        if (ring.TryPush(s)) pushed.fetch_add(1);
    });
  for (std::thread& th : threads) th.join();
  // Every claim either committed or counted as a drop — none lost.
  EXPECT_EQ(pushed.load(), static_cast<long>(ring.size()));
  EXPECT_EQ(static_cast<long>(ring.size()) + ring.dropped(),
            static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(ring.size(), ring.capacity());  // 8000 pushes into 1024 slots
  long visited = 0;
  ring.ForEach([&visited](const StackSample& s) {
    ++visited;
    EXPECT_EQ(s.num_frames, 1);
  });
  EXPECT_EQ(visited, static_cast<long>(ring.size()));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0);
}

TEST_F(ObsTest, SampleRingNoDropsWhenSized) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  SampleRing ring(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ring] {
      StackSample s;
      s.num_frames = 0;
      for (int i = 0; i < kPerThread; ++i) ring.TryPush(s);
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(ring.dropped(), 0);
}

#ifndef ADQ_TEST_TSAN
namespace {
/// Burns `ms` of the calling thread's CPU time. ITIMER_PROF samples
/// CPU time, so bounding the loop by wall time would hand the
/// profiler fewer ticks whenever the machine is loaded. The clock is
/// getrusage(RUSAGE_THREAD), not clock_gettime(CLOCK_THREAD_CPUTIME_ID):
/// polling the latter more often than the timer interval suppressed
/// nearly every SIGPROF on a loaded Linux 6.x box (0-8 samples from
/// 300 ms of CPU, against ~75 with getrusage).
void BusyLoopMs(int ms) {
  const auto thread_cpu_ms = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    const auto tv_ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) * 1e-3;
    };
    return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
  };
  const double t0 = thread_cpu_ms();
  volatile double sink = 0.0;
  while (thread_cpu_ms() - t0 < ms)
    for (int i = 0; i < 20000; ++i) sink = sink + static_cast<double>(i);
}
}  // namespace

TEST_F(ObsTest, ProfilerAttributesSamplesToSpans) {
  StopProfiler();
  ResetProfiler();
  ProfilerOptions opt;
  opt.hz = 997;
  ASSERT_TRUE(StartProfiler(opt));
  EXPECT_TRUE(ProfilerRunning());
  EXPECT_FALSE(StartProfiler(opt));  // second profiler refused
  {
    TraceSpan span("flow.test_phase");
    BusyLoopMs(400);
  }
  StopProfiler();
  EXPECT_FALSE(ProfilerRunning());
  const ProfilerStats st = GetProfilerStats();
  // ITIMER_PROF resolution is bounded by the kernel tick, so expect
  // at least ~50 samples from 400ms of CPU, not the full 997 Hz.
  EXPECT_GT(st.samples, 20) << "sampling timer appears dead";
  const std::string folded = FoldedProfile();
  EXPECT_NE(folded.find("flow.test_phase"), std::string::npos)
      << folded.substr(0, 2000);
  // The busy loop runs on the (unnamed) main thread -> "main" lane.
  EXPECT_EQ(folded.rfind("main;", 0), 0u) << folded.substr(0, 200);
  // Folded lines end in a positive count.
  std::istringstream in(folded);
  std::string line;
  long total = 0;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const long n = std::stol(line.substr(sp + 1));
    EXPECT_GT(n, 0) << line;
    total += n;
  }
  EXPECT_EQ(total, st.samples);
  ResetProfiler();
  EXPECT_EQ(GetProfilerStats().samples, 0);
}

TEST_F(ObsTest, ProfilerReportsAchievedRate) {
  StopProfiler();
  ResetProfiler();
  EXPECT_EQ(GetProfilerStats().cpu_s, 0.0);
  EXPECT_EQ(GetProfilerStats().achieved_hz(), 0.0);
  ProfilerOptions opt;
  opt.hz = 997;
  ASSERT_TRUE(StartProfiler(opt));
  BusyLoopMs(200);
  StopProfiler();
  const ProfilerStats st = GetProfilerStats();
  EXPECT_EQ(st.requested_hz, 997);
  // The busy loop alone burns 200 ms of this process's CPU.
  EXPECT_GE(st.cpu_s, 0.19);
  EXPECT_GT(st.samples, 0);
  EXPECT_DOUBLE_EQ(st.achieved_hz(),
                   static_cast<double>(st.samples + st.dropped) / st.cpu_s);
  ResetProfiler();
  EXPECT_EQ(GetProfilerStats().cpu_s, 0.0);
}

TEST_F(ObsTest, ProfilerRestartsAndLanesStick) {
  StopProfiler();
  ResetProfiler();
  ASSERT_TRUE(StartProfiler());
  std::thread worker([] {
    NameThisThreadLane("stress worker 7");
    TraceSpan span("explore");
    BusyLoopMs(300);
  });
  worker.join();
  StopProfiler();
  const std::string folded = FoldedProfile();
  // The worker burned ~all the CPU, so its lane + span must appear
  // (spaces sanitize to underscores in folded output — the format
  // uses a space to separate the trailing count).
  EXPECT_NE(folded.find("stress_worker_7;explore;"), std::string::npos)
      << folded.substr(0, 2000);
  ResetProfiler();
}

TEST_F(ObsTest, ProfilerOverheadIsSmall) {
  StopProfiler();
  ResetProfiler();
  // Fixed-work workload timed with and without the profiler. The
  // bound is deliberately loose (CI machines are noisy); the real <5%
  // claim is measured on bench_sta_batch (see EXPERIMENTS.md).
  auto work = [] {
    volatile double sink = 0.0;
    for (int i = 0; i < 60'000'000; ++i)
      sink = sink + static_cast<double>(i % 7);
    return static_cast<double>(sink);
  };
  auto time_ms = [&work] {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
  };
  double base = 1e300, prof = 1e300;
  time_ms();  // warm up
  for (int rep = 0; rep < 3; ++rep) base = std::min(base, time_ms());
  ASSERT_TRUE(StartProfiler());
  for (int rep = 0; rep < 3; ++rep) prof = std::min(prof, time_ms());
  StopProfiler();
  ResetProfiler();
  const double overhead = (prof - base) / base;
  std::printf("[ profiler ] base=%.1fms profiled=%.1fms overhead=%.1f%%\n",
              base, prof, overhead * 100.0);
  EXPECT_LT(overhead, 0.50);
}
#endif  // !ADQ_TEST_TSAN

TEST_F(ObsTest, PushProfSpanBalancesOnlyWhenItPushed) {
  // A span opened before the profiler starts must not pop a frame it
  // never pushed (TraceSpan remembers PushProfSpan's answer).
  StopProfiler();
  ResetProfiler();
  EXPECT_FALSE(ProfilerEnabled());
  EXPECT_FALSE(PushProfSpan("never_recorded"));
  PopProfSpan();  // must be harmless even unbalanced
  ASSERT_TRUE(StartProfiler());
  EXPECT_TRUE(ProfilerEnabled());
  EXPECT_TRUE(PushProfSpan("recorded"));
  PopProfSpan();
  StopProfiler();
  ResetProfiler();
}

TEST(ObsOptions, ParseObsFlagRecognizesExactlyTheObsFlags) {
  Options o;
  EXPECT_TRUE(ParseObsFlag("--trace=/tmp/t.json", &o));
  EXPECT_EQ(o.trace_path, "/tmp/t.json");
  EXPECT_TRUE(ParseObsFlag("--metrics=m.csv", &o));
  EXPECT_EQ(o.metrics_path, "m.csv");
  EXPECT_TRUE(ParseObsFlag("--progress", &o));
  EXPECT_TRUE(o.enable_progress);
  EXPECT_TRUE(ParseObsFlag("--profile=/tmp/p.folded", &o));
  EXPECT_EQ(o.profile_path, "/tmp/p.folded");
  EXPECT_FALSE(ParseObsFlag("--threads=4", &o));
  EXPECT_FALSE(ParseObsFlag("booth", &o));
  EXPECT_FALSE(ParseObsFlag("--progressive", &o));
  EXPECT_EQ(o.trace_path, "/tmp/t.json");  // untouched by rejects
}

// ---------------------------------------------------------------
// BenchJson (bench/common.h): the BENCH_*.json emitter must produce
// well-formed JSON even for hostnames/build ids containing quotes,
// backslashes and control bytes — checked with the real util::Json
// parser, and the values must round-trip exactly.

TEST(BenchJson, EvilStringsStayWellFormed) {
  bench::BenchJson doc;
  doc.Str("host", "evil\"host\\name\nwith\tctrl\x01")
      .Str("build", "v1.2.3-4-gabc\"def")
      .Num("value", 1234.5)
      .Int("n", -7)
      .Bool("flag", true);
  doc.Row("rows").Str("k", "a;b\"c").Num("v", 1.0);
  const std::string body = doc.Render();
  std::string err;
  const util::Json parsed = util::Json::Parse(body, &err);
  ASSERT_TRUE(err.empty()) << err << "\n" << body;
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.Get("host")->AsString(),
            "evil\"host\\name\nwith\tctrl\x01");
  EXPECT_EQ(parsed.Get("build")->AsString(), "v1.2.3-4-gabc\"def");
  EXPECT_EQ(parsed.Get("value")->AsNumber(), 1234.5);
  EXPECT_EQ(parsed.Get("n")->AsNumber(), -7.0);
  EXPECT_TRUE(parsed.Get("flag")->AsBool());
  const util::Json* rows = parsed.Get("rows");
  ASSERT_TRUE(rows && rows->is_array());
  ASSERT_EQ(rows->items().size(), 1u);
  EXPECT_EQ(rows->items()[0].Get("k")->AsString(), "a;b\"c");
}

TEST(BenchJson, DirtyBuildIdDetection) {
  EXPECT_TRUE(bench::IsDirtyBuildId(""));
  EXPECT_TRUE(bench::IsDirtyBuildId("unknown"));
  EXPECT_TRUE(bench::IsDirtyBuildId("017ba74-dirty"));
  EXPECT_TRUE(bench::IsDirtyBuildId("-dirty"));
  EXPECT_FALSE(bench::IsDirtyBuildId("017ba74"));
  EXPECT_FALSE(bench::IsDirtyBuildId("v1.0-3-g017ba74"));
}

}  // namespace
}  // namespace adq::obs
