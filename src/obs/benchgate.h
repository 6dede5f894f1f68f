#pragma once
/// \file benchgate.h
/// \brief Bench-history bookkeeping and the perf-regression gate
/// behind `examples/benchdiff`.
///
/// Every bench binary writes BENCH_<name>.json (see bench/common.h,
/// schema v2: build id, UTC timestamp, hostname, hardware threads).
/// This module turns those one-shot files into a trajectory:
///
///   * ExtractBenchRun pulls the *pinned series* out of a bench
///     document — the throughput numbers the ROADMAP gates its open
///     items on (masks/sec, the packed-sim speedup, explore
///     points/sec);
///   * BENCH_HISTORY.jsonl holds one append-only row per run
///     (RunToJsonLine / ParseHistoryLine);
///   * GateRun compares a fresh run against the baseline window with
///     a median/MAD noise band: a series regresses when it falls
///     below median - k * max(1.4826*MAD, rel_floor*median) (for
///     higher-is-better series; the direction flips for lower-is-
///     better ones). MAD instead of stddev so one historic outlier
///     cannot widen the band; the relative floor keeps a zero-MAD
///     baseline (identical reruns) from flagging measurement jitter.
///
/// Benchmarks move between machines and builds between ISAs, so by
/// default only baseline rows from the same hostname AND the same
/// compile-time SIMD backend count (rows predating the backend tag
/// match any run); with none available the gate passes advisorily
/// (verdict.advisory) instead of comparing apples to oranges. Rows carrying a `-dirty` or `unknown` build id are
/// refused as baselines — an unpinnable number cannot gate anything.

#include <map>
#include <string>
#include <vector>

namespace adq::util {
class Json;
}

namespace adq::obs {

/// One bench run's identity + pinned series values.
struct BenchRun {
  int schema_version = 0;
  std::string bench;      ///< "sta_batch", "sim_packed", ...
  std::string build;      ///< git describe build id
  std::string ts_utc;     ///< ISO-8601 Z timestamp
  std::string host;
  /// Compile-time-selected SIMD backend of the build that produced
  /// the run ("avx2", "sse2", "neon", "scalar"); empty for rows that
  /// predate the field. Part of the run's identity: an AVX2 build's
  /// throughput must not be held to a scalar-fallback baseline (or
  /// vice versa), so the gate filters baselines on it by default.
  std::string simd_backend;
  long hardware_threads = 0;
  std::map<std::string, double> series;  ///< pinned name -> value
};

/// True for build ids that must not enter a baseline ("-dirty"
/// suffix, "unknown", empty).
bool IsDirtyBuildId(const std::string& build);

/// Pulls identity + pinned series from a parsed BENCH_<name>.json.
/// Unknown benches yield a run with an empty series map (the gate
/// then has nothing to check — not an error, so new benches can land
/// before their series are pinned). Returns false only when the
/// document is not a bench file at all.
bool ExtractBenchRun(const util::Json& doc, BenchRun* run,
                     std::string* error);

/// One compact JSONL history row (no trailing newline).
std::string RunToJsonLine(const BenchRun& run);

/// Parses one history row; false (with error) on malformed lines.
bool ParseHistoryLine(const std::string& line, BenchRun* run,
                      std::string* error);

/// Parses a whole history file body, skipping blank lines. Malformed
/// lines are reported into `errors` (one message per line) but do not
/// abort the load — a truncated tail must not brick the gate.
std::vector<BenchRun> LoadHistory(const std::string& jsonl_body,
                                  std::vector<std::string>* errors);

struct GateOptions {
  int window = 8;        ///< newest same-bench rows used as baseline
  int min_baseline = 3;  ///< fewer rows -> advisory pass
  double k = 3.0;        ///< noise-band multiplier
  double rel_floor = 0.10;  ///< relative noise floor (fraction of median)
  bool same_host_only = true;  ///< ignore rows from other hostnames
  /// Only gate against baseline rows recorded with exactly the fresh
  /// run's simd_backend tag. Untagged rows (pre-SIMD history) were
  /// produced by a different engine generation whose throughput and
  /// engine-ratio series are not comparable to a tagged build, so
  /// they only gate equally-untagged runs; a tagged run starts a
  /// fresh per-backend baseline.
  bool same_backend_only = true;
  bool allow_dirty = false;    ///< accept -dirty/unknown baselines
};

struct SeriesVerdict {
  std::string series;   ///< pinned series name
  double value = 0.0;   ///< the fresh run's value
  double median = 0.0;  ///< baseline median
  double band = 0.0;    ///< regression threshold the value was held to
  int baseline_n = 0;   ///< rows the baseline was built from
  bool regressed = false;
  bool advisory = false;  ///< not enough comparable history
};

/// Gates one fresh run against the history. Baseline rows: same
/// bench, clean build id (unless allow_dirty), same host when
/// same_host_only, newest `window` of those. A series with fewer than
/// min_baseline comparable values gets an advisory (non-failing)
/// verdict.
std::vector<SeriesVerdict> GateRun(const BenchRun& run,
                                   const std::vector<BenchRun>& history,
                                   const GateOptions& opt);

/// Convenience fold: any non-advisory regressed verdict.
bool AnyRegression(const std::vector<SeriesVerdict>& verdicts);

/// Median / median-absolute-deviation of `v` (v may be reordered).
double Median(std::vector<double> v);
double Mad(const std::vector<double>& v, double median);

}  // namespace adq::obs
