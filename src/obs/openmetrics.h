#pragma once
/// \file openmetrics.h
/// \brief OpenMetrics / Prometheus text-format rendering of the
/// metrics registry, plus the periodic snapshot pump that turns a
/// long-running exploration into a scrapeable time series.
///
/// Rendering maps the registry onto the exposition format any
/// Prometheus-compatible scraper ingests:
///
///   counter    adq_sta_batch_lanes_total 12
///   gauge      adq_explore_points_per_sec 135383.2
///   histogram  adq_explore_best_wns_ns_bucket{le="0.01"} 3
///              ... adq_explore_best_wns_ns_bucket{le="+Inf"} 20
///              adq_explore_best_wns_ns_count 20
///              adq_explore_best_wns_ns_sum 1.25
///
/// Metric names are sanitized ('.' and any non-[a-zA-Z0-9_:] byte
/// become '_') and prefixed `adq_`; the original dotted name is kept
/// as a HELP line so dashboards stay greppable against the JSON
/// snapshot. Buckets are cumulative; because util::Histogram clamps
/// out-of-range samples into its edge bins, the last bucket is
/// le="+Inf" and always equals `_count`. The document ends with the
/// `# EOF` marker OpenMetrics requires.
///
/// The pump (`--metrics=<f> ` + ADQ_METRICS_INTERVAL_MS=<ms>, see
/// obs.h) rewrites the snapshot file atomically (tmp + rename) every
/// interval — or, for a `.jsonl` path, appends one timestamped
/// compact-JSON snapshot line per interval so a single file holds the
/// whole time series of a long run.

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace adq::obs {

/// Sanitizes one metric name for the exposition format: [a-zA-Z0-9_:]
/// kept, everything else '_', `adq_` prefixed.
std::string OpenMetricsName(const std::string& name);

/// Renders a snapshot as OpenMetrics text (ends in "# EOF\n").
/// `timestamp_ms` > 0 stamps every sample line with the given unix
/// epoch milliseconds (rendered in seconds, as the format specifies).
std::string ToOpenMetrics(const MetricsSnapshot& snap,
                          std::int64_t timestamp_ms = 0);

/// One compact single-line JSON snapshot ({"ts_ms":..., "counters":
/// {...}, "gauges": {...}}) for the `.jsonl` streaming mode.
std::string SnapshotJsonLine(const MetricsSnapshot& snap,
                             std::int64_t timestamp_ms);

/// Starts the background snapshot thread: every `interval_ms` the
/// current registry is written to `path` (atomic rewrite; `.jsonl`
/// appends a line instead — see file comment). A second call replaces
/// the running pump. Returns false for an empty path or non-positive
/// interval.
bool StartMetricsPump(const std::string& path, int interval_ms);

/// Stops the pump thread (idempotent) after one final snapshot write,
/// so a run's last state is always on disk.
void StopMetricsPump();

bool MetricsPumpRunning();

}  // namespace adq::obs
