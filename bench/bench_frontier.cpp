/// \file bench_frontier.cpp
/// \brief Study of the frontier branch-and-bound engine
/// (core::FrontierExplore) and the persistent exploration store:
///
///   1. certificate throughput — the paper's 16-bit Booth on its
///      Table I 2x2 grid, frontier-to-certificate vs the exhaustive
///      sweep, with an in-run check that every mode's certificate
///      reproduces the exhaustive optimum bit-for-bit;
///   2. beyond the exhaustive ceiling — a 25-domain grid (a 2^25
///      lattice per (VDD, bitwidth) row that exhaustive enumeration
///      cannot touch) searched under a node budget, reporting nodes/s
///      and the proved optimality gap per accuracy mode;
///   3. warm start — the certificate run repeated against a
///      populated exploration store: STA evaluations traded for
///      store hits (the warm_eval_reduction headline; the engines'
///      bit-identity contract is checked in-run).
///
/// Usage: bench_frontier [activity_cycles] [node_budget]
///                       [--trace=f] [--metrics=f] [--progress]
/// Defaults: 128 cycles, 300-node budget for the large grid. Cycles
/// must be in [2, 2^20] and the budget at least 1.
///
/// Appends to the perf trajectory by writing BENCH_frontier.json
/// (certified nodes/sec, warm-start eval reduction; gated by
/// benchdiff against BENCH_HISTORY.jsonl).

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "core/frontier.h"
#include "store/exploration_store.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(const Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Frontier certificates vs the exhaustive mode table, bit-for-bit.
bool MatchesExhaustive(const adq::core::FrontierResult& fr,
                       const adq::core::ExplorationResult& ex) {
  if (fr.modes.size() != ex.modes.size()) return false;
  for (std::size_t i = 0; i < fr.modes.size(); ++i) {
    const adq::core::FrontierModeResult& f = fr.modes[i];
    const adq::core::ModeResult& e = ex.modes[i];
    if (!f.certified || f.has_solution != e.has_solution) return false;
    if (!f.has_solution) continue;
    if (f.best.vdd != e.best.vdd || f.best.mask != e.best.mask ||
        f.best.wns_ns != e.best.wns_ns ||
        f.best.power.dynamic_w != e.best.power.dynamic_w ||
        f.best.power.leakage_w != e.best.power.leakage_w)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;
  bench::InitObs(argc, argv);
  long cycles_arg = 128;
  long budget = 300;  // >= 1: a budget <= 0 would run to certificate
  if (!bench::ParsePositional(argc, argv,
                              {{"activity_cycles", bench::kMinCycles,
                                bench::kMaxCycles, &cycles_arg},
                               {"node_budget", 1, LONG_MAX, &budget}}))
    return 1;
  const int cycles = static_cast<int>(cycles_arg);

  bench::BenchJson report;
  report.Int("activity_cycles", cycles);
  bool ok = true;

  // --- 1. certificate throughput on the exhaustive-checkable grid ---
  std::printf("implementing 16-bit Booth, 2x2 grid\n");
  const core::ImplementedDesign d22 =
      bench::Implement(bench::kDesigns[0], {2, 2});

  core::ExploreOptions xopt;
  xopt.activity_cycles = cycles;
  auto t0 = Clock::now();
  const core::ExplorationResult ex =
      core::ExploreDesignSpace(d22, bench::Lib(), xopt);
  const double ex_s = SecondsSince(t0);

  core::FrontierOptions fopt;
  fopt.activity_cycles = cycles;
  t0 = Clock::now();
  const core::FrontierResult fr = core::FrontierExplore(d22, bench::Lib(), fopt);
  const double fr_s = SecondsSince(t0);

  const bool certified_ok = MatchesExhaustive(fr, ex);
  ok = ok && certified_ok;
  const double nodes_per_sec =
      static_cast<double>(fr.stats.nodes_expanded) / fr_s;
  util::Table t1({"engine", "wall [s]", "STA runs", "nodes", "result"});
  t1.AddRow({"exhaustive", util::Table::Num(ex_s, 3),
             std::to_string(ex.stats.sta_runs), "--", "(reference)"});
  t1.AddRow({"frontier", util::Table::Num(fr_s, 3),
             std::to_string(fr.stats.sta_runs),
             std::to_string(fr.stats.nodes_expanded),
             certified_ok ? "certified, bit-identical" : "MISMATCH"});
  std::fputs(t1.Render().c_str(), stdout);
  std::printf("\n");
  report.Str("design", "booth16_2x2")
      .Num("exhaustive_wall_s", ex_s)
      .Int("exhaustive_sta_runs", ex.stats.sta_runs)
      .Num("certificate_wall_s", fr_s)
      .Int("certificate_sta_runs", fr.stats.sta_runs)
      .Int("certificate_nodes", fr.stats.nodes_expanded)
      .Num("certified_nodes_per_sec", nodes_per_sec)
      .Bool("certificate_bit_identical", certified_ok);

  // --- 2. beyond the exhaustive ceiling: 25 domains under budget ---
  std::printf("implementing 16-bit Booth, 5x5 grid (2^25 lattice)\n");
  core::FlowOptions flow;
  flow.grid = {5, 5};
  flow.lint = lint::LintGate::kWarn;  // wide grid trades area for it
  const core::ImplementedDesign d55 = core::RunImplementationFlow(
      gen::BuildBoothOperator(16), bench::Lib(), flow);

  core::FrontierOptions big;
  big.activity_cycles = cycles;
  big.bitwidths = {4, 8, 16};
  big.node_budget = budget;
  t0 = Clock::now();
  const core::FrontierResult frb =
      core::FrontierExplore(d55, bench::Lib(), big);
  const double big_s = SecondsSince(t0);
  util::Table t2({"bits", "status", "nodes", "gap [W]"});
  for (const core::FrontierModeResult& m : frb.modes) {
    t2.AddRow({std::to_string(m.bitwidth),
               m.certified ? "certified" : "budget",
               std::to_string(m.nodes_expanded),
               m.certified ? "0" : util::Table::Sci(m.gap_w, 3)});
    report.Row("large_grid_modes")
        .Int("bitwidth", m.bitwidth)
        .Bool("certified", m.certified)
        .Int("nodes_expanded", m.nodes_expanded)
        .Num("gap_w", m.gap_w);
  }
  std::fputs(t2.Render().c_str(), stdout);
  std::printf("25-domain search: %.3f s, %ld nodes, %ld STA runs\n\n",
              big_s, frb.stats.nodes_expanded, frb.stats.sta_runs);
  report.Int("large_grid_node_budget", budget)
      .Num("large_grid_wall_s", big_s)
      .Int("large_grid_nodes", frb.stats.nodes_expanded)
      .Int("large_grid_sta_runs", frb.stats.sta_runs)
      .Num("large_grid_nodes_per_sec",
           static_cast<double>(frb.stats.nodes_expanded) / big_s);

  // --- 3. warm start from the persistent store ---------------------
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      ("bench_frontier_store_" + std::to_string(getpid()));
  std::filesystem::remove_all(store_dir);
  core::FrontierResult cold, warm;
  double cold_s = 0.0, warm_s = 0.0;
  {
    store::ExplorationStore st(store_dir.string());
    core::FrontierOptions o = fopt;
    o.store = &st;
    t0 = Clock::now();
    cold = core::FrontierExplore(d22, bench::Lib(), o);
    cold_s = SecondsSince(t0);
    ok = ok && st.Flush();
  }
  {
    store::ExplorationStore st(store_dir.string());
    core::FrontierOptions o = fopt;
    o.store = &st;
    t0 = Clock::now();
    warm = core::FrontierExplore(d22, bench::Lib(), o);
    warm_s = SecondsSince(t0);
  }
  std::filesystem::remove_all(store_dir);
  const bool warm_ok = MatchesExhaustive(warm, ex) &&
                       warm.stats.nodes_expanded == cold.stats.nodes_expanded;
  ok = ok && warm_ok;
  // The warm run's STA count is 0 by contract; the reduction factor
  // reads "cold evals per warm eval" with a +1 guard for the gate.
  const double reduction =
      static_cast<double>(cold.stats.sta_runs) /
      static_cast<double>(warm.stats.sta_runs > 0 ? warm.stats.sta_runs
                                                  : 1);
  std::printf(
      "warm start: cold %ld STA (%.3f s) -> warm %ld STA + %ld store "
      "hits (%.3f s), %.0fx fewer evaluations, results %s\n",
      cold.stats.sta_runs, cold_s, warm.stats.sta_runs,
      warm.stats.store_hits, warm_s, reduction,
      warm_ok ? "bit-identical" : "DIVERGE");
  report.Int("cold_sta_runs", cold.stats.sta_runs)
      .Int("warm_sta_runs", warm.stats.sta_runs)
      .Int("warm_store_hits", warm.stats.store_hits)
      .Num("cold_wall_s", cold_s)
      .Num("warm_wall_s", warm_s)
      .Num("warm_eval_reduction", reduction)
      .Bool("warm_bit_identical", warm_ok);

  report.Bool("all_checks_passed", ok);
  report.Write("frontier");
  obs::Flush();
  return ok ? 0 : 1;
}
