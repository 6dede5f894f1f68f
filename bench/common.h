#pragma once
/// Shared scaffolding for the figure/table reproduction harnesses:
/// the paper's Table I design set, plus the machine-readable
/// BENCH_<name>.json emitter and observability plumbing every bench
/// binary inherits (see InitObs / BenchJson below).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../examples/cli.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/pareto.h"
#include "gen/operator.h"
#include "netlist/stats.h"
#include "obs/obs.h"
#include "util/simd.h"

// Injected per-target by bench/CMakeLists.txt from `git describe`.
#ifndef ADQ_GIT_DESCRIBE
#define ADQ_GIT_DESCRIBE "unknown"
#endif

namespace adq::bench {

inline const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// The paper's three benchmark designs with their Table I grids.
struct DesignCase {
  const char* name;
  gen::Operator (*build)(int);
  place::GridConfig grid;
  // Paper Table I reference values.
  double paper_area_mm2;
  double paper_fclk_ghz;
  double paper_aovr_pct;
};

inline const DesignCase kDesigns[3] = {
    {"Booth", &gen::BuildBoothOperator, {2, 2}, 2.59e-3, 1.25, 15.0},
    {"Butterfly", &gen::BuildButterflyOperator, {3, 3}, 7.71e-3, 1.00, 17.0},
    {"FIR", &gen::BuildFirMacOperator, {3, 3}, 9.10e-3, 0.75, 16.0},
};

inline core::ImplementedDesign Implement(const DesignCase& c,
                                         place::GridConfig grid) {
  core::FlowOptions fopt;
  fopt.grid = grid;
  return core::RunImplementationFlow(c.build(16), Lib(), fopt);
}

inline double CellAreaMm2(const core::ImplementedDesign& d) {
  return netlist::ComputeStats(d.op.nl, Lib()).cell_area_um2 * 1e-6;
}

inline std::string MaskToString(tech::DomainMask mask, int ndom) {
  std::string s = "0b";
  for (int d = ndom - 1; d >= 0; --d) s += ((mask >> d) & 1u) ? '1' : '0';
  return s;
}

/// Strips the shared observability flags (--trace= / --metrics= /
/// --progress, env overridable) out of argv and configures the obs
/// subsystem. Call first in every bench main, before the positional
/// argv parsing; pair with obs::Flush() before returning.
inline void InitObs(int& argc, char** argv) {
  obs::Options o = obs::OptionsFromEnv();
  int out = 1;
  for (int i = 1; i < argc; ++i)
    if (!obs::ParseObsFlag(argv[i], &o)) argv[out++] = argv[i];
  argc = out;
  obs::Configure(o);
}

/// Prints one row of a markdown table; a header row also prints the
/// separator under it. The paper-artifact benches print their tables
/// this way, and EXPERIMENTS.md is regenerated from that output.
inline void MarkdownRow(const std::vector<std::string>& cells,
                        bool header = false) {
  for (const std::string& c : cells) std::printf("| %s ", c.c_str());
  std::printf("|\n");
  if (!header) return;
  for (std::size_t i = 0; i < cells.size(); ++i) std::printf("|---");
  std::printf("|\n");
}

/// The shape checks of a paper artifact: every check that fails is
/// printed, and Finish() returns the bench's exit status (1 if any
/// failed), so ctest's `paper` label and CI's bench drive both gate on
/// it.
class ShapeGate {
 public:
  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    ++failed_;
    std::printf("SHAPE VIOLATION: %s\n", what.c_str());
  }
  int Finish() const {
    std::printf("shape checks: %d of %d passed\n", checks_ - failed_,
                checks_);
    return failed_ > 0 ? 1 : 0;
  }

 private:
  int checks_ = 0;
  int failed_ = 0;
};

/// Bounds of the benches' positional arguments. Activity extraction
/// needs at least 2 cycles; the thread bound matches domain_explorer's.
inline constexpr long kMinCycles = 2;
inline constexpr long kMaxCycles = 1L << 20;
inline constexpr long kMaxThreads = 256;

/// One optional positional argument: `*value` holds its default and
/// receives the parsed value when the argument is given.
struct PositionalArg {
  const char* name;
  long lo;
  long hi;
  long* value;
};

/// Parses argv[1..] (InitObs has removed the obs flags) into `args` in
/// order, each as a whole base-10 integer in [lo, hi]. On a malformed,
/// out-of-range or surplus argument, prints why to stderr and returns
/// false; the bench then exits 1 before it builds any design.
inline bool ParsePositional(int argc, char** argv,
                            std::initializer_list<PositionalArg> args) {
  if (argc - 1 > static_cast<int>(args.size())) {
    std::fprintf(stderr, "unexpected argument %s\n", argv[args.size() + 1]);
    return false;
  }
  int i = 1;
  for (const PositionalArg& a : args) {
    if (i >= argc) break;
    if (!cli::ParseLong(argv[i++], a.lo, a.hi, a.name, a.value)) return false;
  }
  return true;
}

/// JSON string escaping for BenchJson: quotes, backslashes and
/// control bytes (hostnames and build ids come from the environment,
/// not from us — a hostname with a quote in it must not produce a
/// malformed perf row).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline bool IsDirtyBuildId(const std::string& build) {
  const std::string suf = "-dirty";
  return build.empty() || build == "unknown" ||
         (build.size() >= suf.size() &&
          build.compare(build.size() - suf.size(), suf.size(), suf) == 0);
}

/// Minimal ordered JSON-object builder for the BENCH_<name>.json
/// perf-trajectory files. Values are rendered on insertion; nested
/// one-level arrays of objects cover the per-thread/per-design rows
/// the harnesses emit. Write() stamps the schema-v2 provenance header
/// (benchmark name, git-describable build id, UTC timestamp, host,
/// hardware threads) so a result can always be pinned to a commit and
/// compared against history by `benchdiff`.
class BenchJson {
 public:
  BenchJson() = default;

  BenchJson& Str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + JsonEscape(v) + "\"");
    return *this;
  }
  BenchJson& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  BenchJson& Int(const std::string& key, long long v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  BenchJson& Bool(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
  }
  /// Appends one object to the array `key` (created on first use) and
  /// returns it for field population.
  BenchJson& Row(const std::string& key) {
    for (auto& [k, rows] : arrays_)
      if (k == key) {
        rows.emplace_back(new BenchJson);
        return *rows.back();
      }
    arrays_.emplace_back(key, std::vector<std::unique_ptr<BenchJson>>{});
    arrays_.back().second.emplace_back(new BenchJson);
    return *arrays_.back().second.back();
  }

  std::string Render() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields_) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + JsonEscape(k) + "\": " + v;
    }
    for (const auto& [k, rows] : arrays_) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + JsonEscape(k) + "\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i) out += ", ";
        out += rows[i]->Render();
      }
      out += "]";
    }
    out += "}";
    return out;
  }

  /// Writes BENCH_<name>.json in the working directory with the
  /// schema-v2 provenance header prepended. When ADQ_BENCH_REQUIRE_CLEAN
  /// is set (CI), a `-dirty`/unknown build id aborts loudly instead of
  /// poisoning the history with an unpinnable row.
  bool Write(const std::string& bench_name) const {
    const std::string build = ADQ_GIT_DESCRIBE;
    if (const char* req = std::getenv("ADQ_BENCH_REQUIRE_CLEAN");
        req && *req && std::string(req) != "0" && IsDirtyBuildId(build)) {
      std::fprintf(stderr,
                   "FATAL: bench %s has build id \"%s\" but "
                   "ADQ_BENCH_REQUIRE_CLEAN is set.\n"
                   "Configure with -DADQ_GIT_DESCRIBE=$(git describe "
                   "--always --tags) from a clean checkout.\n",
                   bench_name.c_str(), build.c_str());
      std::exit(3);
    }
    char ts[32] = "";
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc))
      std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    char host[256] = "";
    if (gethostname(host, sizeof(host)) != 0) host[0] = '\0';
    host[sizeof(host) - 1] = '\0';
    BenchJson doc;
    doc.Int("schema_version", 2)
        .Str("bench", bench_name)
        .Str("build", build)
        .Str("ts_utc", ts)
        .Str("host", host)
        .Int("hardware_threads",
             static_cast<long long>(std::thread::hardware_concurrency()))
        // Compile-time SIMD provenance: throughput rows from an AVX2
        // build must never be compared against scalar-fallback rows,
        // so the gate needs the selected backend in every document.
        .Str("simd_backend", simd::kBackendName)
        .Int("simd_f64_width", simd::F64::kWidth);
    std::string body = doc.Render();
    body.pop_back();  // strip '}' to splice our fields in
    const std::string inner = Render();
    if (inner.size() > 2) body += ", " + inner.substr(1);
    else body += "}";
    const std::string path = "BENCH_" + bench_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool ok = std::fclose(f) == 0 && wrote;
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<
      std::pair<std::string, std::vector<std::unique_ptr<BenchJson>>>>
      arrays_;
};

}  // namespace adq::bench
