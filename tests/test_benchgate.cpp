/// Tests for the bench-history regression gate (src/obs/benchgate):
/// pinned-series extraction from BENCH_*.json documents, JSONL
/// round-tripping, and the median/MAD gate semantics benchdiff builds
/// on — pass on an unchanged rerun, fail naming the series on a 2x
/// slowdown, refuse dirty baselines, advise (not fail) on thin
/// history.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/benchgate.h"
#include "util/json.h"

namespace adq::obs {
namespace {

BenchRun MakeRun(const std::string& bench, const std::string& build,
                 const std::string& host, double scalar, double simd) {
  BenchRun r;
  r.schema_version = 2;
  r.bench = bench;
  r.build = build;
  r.ts_utc = "2026-08-08T00:00:00Z";
  r.host = host;
  r.hardware_threads = 8;
  r.series["scalar_masks_per_sec"] = scalar;
  r.series["simd_masks_per_sec"] = simd;
  return r;
}

TEST(BenchGate, ExtractsPinnedSeriesFromBenchDocument) {
  const std::string body = R"({
    "schema_version": 2, "bench": "sta_batch", "build": "abc123",
    "ts_utc": "2026-08-08T01:02:03Z", "host": "box", "hardware_threads": 16,
    "scalar_masks_per_sec": 1500.5, "simd_masks_per_sec": 12000.0,
    "widths": [{"width": 4, "masks_per_sec": 3000.0},
               {"width": 16, "masks_per_sec": 9000.0}]})";
  std::string err;
  const util::Json doc = util::Json::Parse(body, &err);
  ASSERT_TRUE(err.empty()) << err;
  BenchRun run;
  ASSERT_TRUE(ExtractBenchRun(doc, &run, &err)) << err;
  EXPECT_EQ(run.schema_version, 2);
  EXPECT_EQ(run.bench, "sta_batch");
  EXPECT_EQ(run.build, "abc123");
  EXPECT_EQ(run.host, "box");
  EXPECT_EQ(run.hardware_threads, 16);
  EXPECT_DOUBLE_EQ(run.series.at("scalar_masks_per_sec"), 1500.5);
  EXPECT_DOUBLE_EQ(run.series.at("simd_masks_per_sec"), 12000.0);
  // batch_masks_per_sec = max over the width sweep.
  EXPECT_DOUBLE_EQ(run.series.at("batch_masks_per_sec"), 9000.0);
}

TEST(BenchGate, UnknownBenchYieldsEmptySeriesNotError) {
  std::string err;
  const util::Json doc =
      util::Json::Parse(R"({"bench": "brand_new_bench"})", &err);
  BenchRun run;
  ASSERT_TRUE(ExtractBenchRun(doc, &run, &err)) << err;
  EXPECT_TRUE(run.series.empty());
}

TEST(BenchGate, NonBenchDocumentIsRejected) {
  std::string err;
  const util::Json doc = util::Json::Parse(R"({"foo": 1})", &err);
  BenchRun run;
  EXPECT_FALSE(ExtractBenchRun(doc, &run, &err));
  EXPECT_FALSE(err.empty());
}

TEST(BenchGate, HistoryRowRoundTrips) {
  const BenchRun run = MakeRun("sta_batch", "abc123", "box", 1000.0, 5.0);
  const std::string line = RunToJsonLine(run);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_TRUE(util::Json::Valid(line)) << line;
  BenchRun back;
  std::string err;
  ASSERT_TRUE(ParseHistoryLine(line, &back, &err)) << err;
  EXPECT_EQ(back.bench, run.bench);
  EXPECT_EQ(back.build, run.build);
  EXPECT_EQ(back.ts_utc, run.ts_utc);
  EXPECT_EQ(back.host, run.host);
  EXPECT_EQ(back.hardware_threads, run.hardware_threads);
  EXPECT_EQ(back.series, run.series);
}

TEST(BenchGate, LoadHistorySkipsBlankAndCollectsBadLines) {
  const std::string body =
      RunToJsonLine(MakeRun("sta_batch", "a1", "box", 1.0, 1.0)) +
      "\n\n   \nnot json at all\n" +
      RunToJsonLine(MakeRun("sta_batch", "a2", "box", 2.0, 2.0)) + "\n";
  std::vector<std::string> errs;
  const std::vector<BenchRun> hist = LoadHistory(body, &errs);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].build, "a1");
  EXPECT_EQ(hist[1].build, "a2");
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("line 4"), std::string::npos) << errs[0];
}

TEST(BenchGate, MedianAndMad) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Mad({1.0, 1.0, 1.0}, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Mad({1.0, 2.0, 9.0}, 2.0), 1.0);
}

TEST(BenchGate, PassesOnUnchangedRerun) {
  std::vector<BenchRun> hist;
  for (int i = 0; i < 5; ++i)
    hist.push_back(MakeRun("sta_batch", "a1", "box", 1000.0, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "a2", "box", 1000.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  ASSERT_EQ(verdicts.size(), 2u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.regressed) << v.series;
    EXPECT_FALSE(v.advisory) << v.series;
    EXPECT_EQ(v.baseline_n, 5) << v.series;
  }
  EXPECT_FALSE(AnyRegression(verdicts));
}

TEST(BenchGate, FailsNamingSeriesOnTwoXSlowdown) {
  std::vector<BenchRun> hist;
  for (int i = 0; i < 5; ++i)
    hist.push_back(MakeRun("sta_batch", "a1", "box", 1000.0, 5.0));
  // scalar halves, simd holds.
  const BenchRun fresh = MakeRun("sta_batch", "a2", "box", 500.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  bool scalar_flagged = false;
  for (const auto& v : verdicts) {
    if (v.series == "scalar_masks_per_sec") {
      EXPECT_TRUE(v.regressed);
      scalar_flagged = true;
    } else {
      EXPECT_FALSE(v.regressed) << v.series;
    }
  }
  EXPECT_TRUE(scalar_flagged);
  EXPECT_TRUE(AnyRegression(verdicts));
}

TEST(BenchGate, NoiseBandTracksBaselineSpread) {
  // Noisy baseline: the MAD term must widen the band beyond the 10%
  // relative floor so in-family jitter passes.
  std::vector<BenchRun> hist;
  const double vals[6] = {900, 1100, 950, 1050, 1000, 980};
  for (const double v : vals)
    hist.push_back(MakeRun("sta_batch", "a1", "box", v, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "a2", "box", 820.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  for (const auto& v : verdicts) {
    if (v.series == "scalar_masks_per_sec") {
      EXPECT_FALSE(v.regressed);
    }
  }
}

TEST(BenchGate, DirtyBaselinesAreRefused) {
  EXPECT_TRUE(IsDirtyBuildId("abc-dirty"));
  EXPECT_TRUE(IsDirtyBuildId("unknown"));
  EXPECT_TRUE(IsDirtyBuildId(""));
  EXPECT_FALSE(IsDirtyBuildId("abc123"));
  std::vector<BenchRun> hist;
  for (int i = 0; i < 5; ++i)
    hist.push_back(MakeRun("sta_batch", "a1-dirty", "box", 1000.0, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "a2", "box", 500.0, 5.0);
  // All history dirty -> no comparable baseline -> advisory, not fail.
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.advisory) << v.series;
    EXPECT_EQ(v.baseline_n, 0) << v.series;
  }
  EXPECT_FALSE(AnyRegression(verdicts));
  // Opting in to dirty baselines re-arms the gate.
  GateOptions opt;
  opt.allow_dirty = true;
  EXPECT_TRUE(AnyRegression(GateRun(fresh, hist, opt)));
}

TEST(BenchGate, OtherHostsDoNotCount) {
  std::vector<BenchRun> hist;
  for (int i = 0; i < 5; ++i)
    hist.push_back(MakeRun("sta_batch", "a1", "fast-box", 9999.0, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "a2", "slow-box", 500.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  for (const auto& v : verdicts) EXPECT_TRUE(v.advisory) << v.series;
  EXPECT_FALSE(AnyRegression(verdicts));
  GateOptions opt;
  opt.same_host_only = false;
  EXPECT_TRUE(AnyRegression(GateRun(fresh, hist, opt)));
}

TEST(BenchGate, WindowKeepsOnlyNewestRows) {
  std::vector<BenchRun> hist;
  // 10 slow ancient rows, then 8 fast recent ones: with window=8 the
  // baseline is all-fast, so a slow fresh run must regress.
  for (int i = 0; i < 10; ++i)
    hist.push_back(MakeRun("sta_batch", "old", "box", 100.0, 5.0));
  for (int i = 0; i < 8; ++i)
    hist.push_back(MakeRun("sta_batch", "new", "box", 1000.0, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "f", "box", 100.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  bool flagged = false;
  for (const auto& v : verdicts)
    if (v.series == "scalar_masks_per_sec") {
      EXPECT_EQ(v.baseline_n, 8);
      EXPECT_DOUBLE_EQ(v.median, 1000.0);
      flagged = v.regressed;
    }
  EXPECT_TRUE(flagged);
}

TEST(BenchGate, ThinHistoryIsAdvisory) {
  std::vector<BenchRun> hist;
  hist.push_back(MakeRun("sta_batch", "a1", "box", 1000.0, 5.0));
  hist.push_back(MakeRun("sta_batch", "a2", "box", 1000.0, 5.0));
  const BenchRun fresh = MakeRun("sta_batch", "a3", "box", 1.0, 5.0);
  const auto verdicts = GateRun(fresh, hist, GateOptions{});  // min 3
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.advisory) << v.series;
    EXPECT_EQ(v.baseline_n, 2) << v.series;
  }
  EXPECT_FALSE(AnyRegression(verdicts));
}

TEST(BenchGate, SimdBackendIsExtractedAndRetiredSeriesAreNot) {
  // The incremental-engine series are no longer pinned: an old bench
  // document that still carries them yields only the live series.
  const std::string body = R"({
    "schema_version": 2, "bench": "sta_batch", "build": "abc123",
    "ts_utc": "2026-08-09T01:02:03Z", "host": "box", "hardware_threads": 16,
    "simd_backend": "avx2", "simd_masks_per_sec": 650000.0,
    "incremental_speedup_w16": 6.25,
    "adaptive_speedup_gray_sweep": 1.1,
    "adaptive_speedup_neighborhood": 1.05,
    "adaptive_speedup_mode_walk": 2.3})";
  std::string err;
  const util::Json doc = util::Json::Parse(body, &err);
  ASSERT_TRUE(err.empty()) << err;
  BenchRun run;
  ASSERT_TRUE(ExtractBenchRun(doc, &run, &err)) << err;
  EXPECT_EQ(run.simd_backend, "avx2");
  EXPECT_DOUBLE_EQ(run.series.at("simd_masks_per_sec"), 650000.0);
  EXPECT_EQ(run.series.size(), 1u);
}

TEST(BenchGate, SimdBackendRoundTripsAndLegacyRowsStayByteStable) {
  // Tagged rows round-trip the backend; untagged rows must not grow a
  // key (the history file is append-only and diffed byte-for-byte).
  BenchRun tagged = MakeRun("sta_batch", "abc123", "box", 1000.0, 5.0);
  tagged.simd_backend = "avx2";
  const std::string line = RunToJsonLine(tagged);
  EXPECT_NE(line.find("\"simd_backend\": \"avx2\""), std::string::npos)
      << line;
  BenchRun back;
  std::string err;
  ASSERT_TRUE(ParseHistoryLine(line, &back, &err)) << err;
  EXPECT_EQ(back.simd_backend, "avx2");

  const BenchRun legacy = MakeRun("sta_batch", "abc123", "box", 1000.0, 5.0);
  const std::string legacy_line = RunToJsonLine(legacy);
  EXPECT_EQ(legacy_line.find("simd_backend"), std::string::npos)
      << legacy_line;
  ASSERT_TRUE(ParseHistoryLine(legacy_line, &back, &err)) << err;
  EXPECT_EQ(back.simd_backend, "");
}

TEST(BenchGate, BackendMismatchedBaselinesDoNotCount) {
  // A scalar-fallback history must not gate an AVX2 run (or vice
  // versa), and untagged pre-SIMD rows must not gate any tagged run:
  // each backend tag starts its own baseline.
  std::vector<BenchRun> hist;
  for (int i = 0; i < 3; ++i)
    hist.push_back(MakeRun("sta_batch", "a1", "box", 9000.0, 5.0));
  for (int i = 0; i < 3; ++i) {
    hist.push_back(MakeRun("sta_batch", "a2", "box", 8000.0, 5.0));
    hist.back().simd_backend = "scalar";
  }
  BenchRun fresh = MakeRun("sta_batch", "f", "box", 500.0, 5.0);
  fresh.simd_backend = "avx2";
  const auto verdicts = GateRun(fresh, hist, GateOptions{});
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.advisory) << v.series;
    EXPECT_EQ(v.baseline_n, 0) << v.series;
  }
  EXPECT_FALSE(AnyRegression(verdicts));

  // Rows with the matching tag re-arm the gate for that backend...
  for (int i = 0; i < 3; ++i) {
    hist.push_back(MakeRun("sta_batch", "a3", "box", 7000.0, 5.0));
    hist.back().simd_backend = "avx2";
  }
  EXPECT_TRUE(AnyRegression(GateRun(fresh, hist, GateOptions{})));

  // ...an untagged fresh run still gates against untagged history...
  const BenchRun legacy_fresh = MakeRun("sta_batch", "f2", "box", 500.0, 5.0);
  EXPECT_TRUE(AnyRegression(GateRun(legacy_fresh, hist, GateOptions{})));

  // ...and same_backend_only=false pools every row again.
  GateOptions pooled;
  pooled.same_backend_only = false;
  const auto pooled_verdicts = GateRun(fresh, hist, pooled);
  bool saw_scalar_series = false;
  for (const auto& v : pooled_verdicts)
    if (v.series == "scalar_masks_per_sec") {
      EXPECT_EQ(v.baseline_n, 8);  // window caps the pooled 9
      saw_scalar_series = true;
    }
  EXPECT_TRUE(saw_scalar_series);
}

}  // namespace
}  // namespace adq::obs
