#include "obs/benchgate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace adq::obs {

namespace {

/// The pinned series per bench: what the gate watches, and where in
/// the bench document it lives. Higher is better for every current
/// series (throughput / speedup); `lower_is_better` is carried per
/// entry so a latency series can be pinned later without reworking
/// the gate.
struct PinnedSeries {
  const char* bench;
  const char* name;
  bool lower_is_better;
  double (*extract)(const util::Json& doc);
};

double NumAt(const util::Json& doc, const char* path) {
  const util::Json* v = doc.GetPath(path);
  return v && v->is_number() ? v->AsNumber() : std::nan("");
}

/// Max of `field` over the objects of array `arr` (the "best width" /
/// "best thread count" rows the benches sweep).
double MaxOver(const util::Json& doc, const char* arr, const char* field) {
  const util::Json* a = doc.Get(arr);
  if (!a || !a->is_array()) return std::nan("");
  double best = std::nan("");
  for (const util::Json& row : a->items()) {
    const util::Json* v = row.Get(field);
    if (v && v->is_number() && !(v->AsNumber() <= best))  // NaN-safe max
      best = v->AsNumber();
  }
  return best;
}

const PinnedSeries kPinned[] = {
    {"sta_batch", "scalar_masks_per_sec", false,
     [](const util::Json& d) { return NumAt(d, "scalar_masks_per_sec"); }},
    {"sta_batch", "batch_masks_per_sec", false,
     [](const util::Json& d) { return MaxOver(d, "widths", "masks_per_sec"); }},
    // Width-16 batch throughput of the SIMD lane kernels.
    {"sta_batch", "simd_masks_per_sec", false,
     [](const util::Json& d) { return NumAt(d, "simd_masks_per_sec"); }},
    {"sim_packed", "packed_speedup", false,
     [](const util::Json& d) { return NumAt(d, "speedup"); }},
    {"sim_packed", "packed_cycles_per_sec", false,
     [](const util::Json& d) { return NumAt(d, "packed_cycles_per_sec"); }},
    {"parallel_explore", "explore_points_per_sec", false,
     [](const util::Json& d) {
       return MaxOver(d, "scaling", "points_per_sec");
     }},
    // Frontier branch-and-bound + persistent store (PR-9): certified
    // search throughput on the exhaustive-checkable grid, node
    // throughput beyond the exhaustive ceiling, and the warm-start
    // trade of STA evaluations for store hits (the >= 5x headline).
    {"frontier", "certified_nodes_per_sec", false,
     [](const util::Json& d) {
       return NumAt(d, "certified_nodes_per_sec");
     }},
    {"frontier", "large_grid_nodes_per_sec", false,
     [](const util::Json& d) {
       return NumAt(d, "large_grid_nodes_per_sec");
     }},
    {"frontier", "warm_eval_reduction", false,
     [](const util::Json& d) { return NumAt(d, "warm_eval_reduction"); }},
};

bool LowerIsBetter(const std::string& bench, const std::string& series) {
  for (const PinnedSeries& p : kPinned)
    if (bench == p.bench && series == p.name) return p.lower_is_better;
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool IsDirtyBuildId(const std::string& build) {
  if (build.empty() || build == "unknown") return true;
  const std::string suf = "-dirty";
  return build.size() >= suf.size() &&
         build.compare(build.size() - suf.size(), suf.size(), suf) == 0;
}

bool ExtractBenchRun(const util::Json& doc, BenchRun* run,
                     std::string* error) {
  if (!doc.is_object() || !doc.Get("bench") ||
      !doc.Get("bench")->is_string()) {
    if (error) *error = "not a bench document (no \"bench\" field)";
    return false;
  }
  run->bench = doc.Get("bench")->AsString();
  const util::Json* b = doc.Get("build");
  run->build = b && b->is_string() ? b->AsString() : "unknown";
  const util::Json* sv = doc.Get("schema_version");
  run->schema_version =
      sv && sv->is_number() ? static_cast<int>(sv->AsNumber()) : 1;
  const util::Json* ts = doc.Get("ts_utc");
  run->ts_utc = ts && ts->is_string() ? ts->AsString() : "";
  const util::Json* host = doc.Get("host");
  run->host = host && host->is_string() ? host->AsString() : "";
  const util::Json* ht = doc.Get("hardware_threads");
  run->hardware_threads =
      ht && ht->is_number() ? static_cast<long>(ht->AsNumber()) : 0;
  const util::Json* sb = doc.Get("simd_backend");
  run->simd_backend = sb && sb->is_string() ? sb->AsString() : "";
  run->series.clear();
  for (const PinnedSeries& p : kPinned) {
    if (run->bench != p.bench) continue;
    const double v = p.extract(doc);
    if (!std::isnan(v)) run->series[p.name] = v;
  }
  return true;
}

std::string RunToJsonLine(const BenchRun& run) {
  std::string out = "{\"schema_version\": " +
                    std::to_string(run.schema_version) + ", \"bench\": \"" +
                    JsonEscape(run.bench) + "\", \"build\": \"" +
                    JsonEscape(run.build) + "\", \"ts_utc\": \"" +
                    JsonEscape(run.ts_utc) + "\", \"host\": \"" +
                    JsonEscape(run.host) + "\", \"hardware_threads\": " +
                    std::to_string(run.hardware_threads);
  // Rows from builds predating the SIMD layer carry no backend; keep
  // their round-trip byte-stable by omitting the key entirely.
  if (!run.simd_backend.empty())
    out += ", \"simd_backend\": \"" + JsonEscape(run.simd_backend) + "\"";
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, v] : run.series) {
    out += first ? "" : ", ";
    first = false;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + JsonEscape(name) + "\": " + buf;
  }
  out += "}}";
  return out;
}

bool ParseHistoryLine(const std::string& line, BenchRun* run,
                      std::string* error) {
  std::string perr;
  const util::Json doc = util::Json::Parse(line, &perr);
  if (!perr.empty()) {
    if (error) *error = perr;
    return false;
  }
  if (!doc.is_object() || !doc.Get("bench") ||
      !doc.Get("bench")->is_string()) {
    if (error) *error = "history row has no \"bench\" field";
    return false;
  }
  run->bench = doc.Get("bench")->AsString();
  const util::Json* b = doc.Get("build");
  run->build = b && b->is_string() ? b->AsString() : "unknown";
  const util::Json* sv = doc.Get("schema_version");
  run->schema_version =
      sv && sv->is_number() ? static_cast<int>(sv->AsNumber()) : 1;
  const util::Json* ts = doc.Get("ts_utc");
  run->ts_utc = ts && ts->is_string() ? ts->AsString() : "";
  const util::Json* host = doc.Get("host");
  run->host = host && host->is_string() ? host->AsString() : "";
  const util::Json* ht = doc.Get("hardware_threads");
  run->hardware_threads =
      ht && ht->is_number() ? static_cast<long>(ht->AsNumber()) : 0;
  const util::Json* sb = doc.Get("simd_backend");
  run->simd_backend = sb && sb->is_string() ? sb->AsString() : "";
  run->series.clear();
  if (const util::Json* s = doc.Get("series"); s && s->is_object())
    for (const auto& [name, v] : s->fields())
      if (v.is_number()) run->series[name] = v.AsNumber();
  return true;
}

std::vector<BenchRun> LoadHistory(const std::string& jsonl_body,
                                  std::vector<std::string>* errors) {
  std::vector<BenchRun> out;
  std::size_t start = 0;
  int lineno = 0;
  while (start <= jsonl_body.size()) {
    std::size_t end = jsonl_body.find('\n', start);
    if (end == std::string::npos) end = jsonl_body.size();
    const std::string line = jsonl_body.substr(start, end - start);
    ++lineno;
    if (!line.empty() &&
        line.find_first_not_of(" \t\r") != std::string::npos) {
      BenchRun run;
      std::string err;
      if (ParseHistoryLine(line, &run, &err)) {
        out.push_back(std::move(run));
      } else if (errors) {
        errors->push_back("line " + std::to_string(lineno) + ": " + err);
      }
    }
    if (end == jsonl_body.size()) break;
    start = end + 1;
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mad(const std::vector<double>& v, double median) {
  if (v.empty()) return 0.0;
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - median));
  return Median(std::move(dev));
}

std::vector<SeriesVerdict> GateRun(const BenchRun& run,
                                   const std::vector<BenchRun>& history,
                                   const GateOptions& opt) {
  // Baseline rows, oldest-to-newest as stored; keep the newest
  // `window` comparable ones.
  std::vector<const BenchRun*> base;
  for (const BenchRun& h : history) {
    if (h.bench != run.bench) continue;
    if (!opt.allow_dirty && IsDirtyBuildId(h.build)) continue;
    if (opt.same_host_only && !run.host.empty() && h.host != run.host)
      continue;
    // Backend mismatch (AVX2 vs scalar, say) makes throughput rows
    // incomparable, and untagged legacy rows predate the SIMD engine
    // entirely — each backend tag gates only against its own rows.
    if (opt.same_backend_only && h.simd_backend != run.simd_backend)
      continue;
    base.push_back(&h);
  }
  if (static_cast<int>(base.size()) > opt.window)
    base.erase(base.begin(),
               base.end() - static_cast<std::ptrdiff_t>(opt.window));

  std::vector<SeriesVerdict> verdicts;
  for (const auto& [name, value] : run.series) {
    SeriesVerdict v;
    v.series = name;
    v.value = value;
    std::vector<double> samples;
    for (const BenchRun* h : base) {
      const auto it = h->series.find(name);
      if (it != h->series.end()) samples.push_back(it->second);
    }
    v.baseline_n = static_cast<int>(samples.size());
    if (v.baseline_n < opt.min_baseline) {
      v.advisory = true;
      verdicts.push_back(std::move(v));
      continue;
    }
    v.median = Median(samples);
    const double noise =
        std::max(1.4826 * Mad(samples, v.median),
                 opt.rel_floor * std::fabs(v.median));
    if (LowerIsBetter(run.bench, name)) {
      v.band = v.median + opt.k * noise;
      v.regressed = value > v.band;
    } else {
      v.band = v.median - opt.k * noise;
      v.regressed = value < v.band;
    }
    verdicts.push_back(std::move(v));
  }
  return verdicts;
}

bool AnyRegression(const std::vector<SeriesVerdict>& verdicts) {
  for (const SeriesVerdict& v : verdicts)
    if (v.regressed && !v.advisory) return true;
  return false;
}

}  // namespace adq::obs
