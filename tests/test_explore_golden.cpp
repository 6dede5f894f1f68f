/// Golden regression pin for the design-space exploration: exact
/// stats counters and per-mode optima on a small fixed design
/// (width-8 Booth, 2x2 grid, 0.55 ns clock, default seed). Any
/// refactor of the explorer, the STA engine, the activity simulator
/// or the power model that shifts these numbers — even slightly —
/// fails here instead of silently changing every downstream result.
///
/// If a change is *intended* to shift them (model recalibration, new
/// pruning), re-derive the constants by running this test and copying
/// the "golden actual:" lines it prints on failure.

#include <gtest/gtest.h>

#include "core/explore.h"
#include "obs/obs.h"

namespace adq::core {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

const ImplementedDesign& Design() {
  static const ImplementedDesign design = [] {
    FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;
    return RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  }();
  return design;
}

ExploreOptions GoldenOptions(int num_threads) {
  ExploreOptions opt;
  opt.bitwidths = {2, 4, 6, 8};
  opt.activity_cycles = 128;
  opt.num_threads = num_threads;
  return opt;
}

const ExplorationResult& Result() {
  static const ExplorationResult r =
      ExploreDesignSpace(Design(), Lib(), GoldenOptions(1));
  return r;
}

struct GoldenMode {
  int bitwidth;
  double vdd;
  std::uint32_t mask;
  double total_power_w;
};

// --- Golden values (single deterministic run; see file comment).
// The paper reports ~75% of points filtered on its 16-bit designs;
// this deliberately tight 8-bit fixture filters harder (92.8%), which
// the range assertions below accommodate.
constexpr long kPointsConsidered = 320;
constexpr long kStaRuns = 37;
constexpr long kFiltered = 297;
// Monotone-pruning hits: points whose infeasibility was implied by a
// smaller bitwidth, skipped without an STA run. Mask-dominance hits:
// points whose infeasibility was implied by a failing supermask at
// the same (VDD, bitwidth). Consistency: kPointsConsidered = kStaRuns
// + kPruned + kMaskPruned, and kFiltered = kPruned + kMaskPruned +
// (kStaRuns - kFeasible). Before mask pruning this fixture ran 102
// STAs; dominance converts 65 of them into free skips while leaving
// every other counter (and all mode optima) untouched.
constexpr long kPruned = 218;
constexpr long kMaskPruned = 65;
constexpr long kFeasible = 23;
constexpr double kFilterRate = 0.92812499999999998;
constexpr GoldenMode kModes[] = {
    {2, 1.0, 0x8u, 4.0313686167828538e-4},
    {4, 1.0, 0xcu, 9.1540758518646008e-4},
    {6, 1.0, 0xfu, 1.4824010320673526e-3},
    {8, 1.0, 0xfu, 1.8153329756601293e-3},
};

TEST(ExploreGolden, StatsExactlyPinned) {
  const ExplorationResult& r = Result();
  std::printf("golden actual: points=%ld sta=%ld filtered=%ld "
              "pruned=%ld mask_pruned=%ld feasible=%ld rate=%.17g\n",
              r.stats.points_considered, r.stats.sta_runs,
              r.stats.filtered, r.stats.pruned, r.stats.mask_pruned,
              r.stats.feasible, r.stats.FilterRate());
  EXPECT_EQ(r.stats.points_considered, kPointsConsidered);
  EXPECT_EQ(r.stats.sta_runs, kStaRuns);
  EXPECT_EQ(r.stats.filtered, kFiltered);
  EXPECT_EQ(r.stats.pruned, kPruned);
  EXPECT_EQ(r.stats.mask_pruned, kMaskPruned);
  EXPECT_EQ(r.stats.feasible, kFeasible);
  // Every lattice point either got an STA run or was pruned away.
  EXPECT_EQ(r.stats.sta_runs + r.stats.pruned + r.stats.mask_pruned,
            r.stats.points_considered);
  EXPECT_NEAR(r.stats.FilterRate(), kFilterRate, 1e-12);
  // The paper's headline: the STA filter discards a large majority
  // (~75%) of the exhaustive lattice.
  EXPECT_GT(r.stats.FilterRate(), 0.5);
  EXPECT_LT(r.stats.FilterRate(), 0.95);
}

TEST(ExploreGolden, PerModeOptimaPinned) {
  const ExplorationResult& r = Result();
  ASSERT_EQ(r.modes.size(), std::size(kModes));
  for (std::size_t i = 0; i < std::size(kModes); ++i) {
    const ModeResult& m = r.modes[i];
    ASSERT_TRUE(m.has_solution) << "bitwidth " << kModes[i].bitwidth;
    std::printf("golden actual: bw=%d vdd=%.17g mask=0x%llx power=%.17g\n",
                m.bitwidth, m.best.vdd,
                static_cast<unsigned long long>(m.best.mask),
                m.best.total_power_w());
    EXPECT_EQ(m.bitwidth, kModes[i].bitwidth);
    EXPECT_EQ(m.best.vdd, kModes[i].vdd);
    EXPECT_EQ(m.best.mask, kModes[i].mask);
    // Tight relative pin (not bit-exact) so a legitimate FP-reorder
    // in a compiler upgrade doesn't fire, but any model change does.
    EXPECT_NEAR(m.best.total_power_w(), kModes[i].total_power_w,
                1e-9 * kModes[i].total_power_w + 1e-18);
  }
}

// The golden pins hold at every thread count: re-scheduling chunks
// across workers can change no stat, no optimum and no wns.
TEST(ExploreGolden, ThreadCountInvariant) {
  const ExplorationResult& ref = Result();
  for (const int nt : {1, 8}) {
    SCOPED_TRACE("nt=" + std::to_string(nt));
    const ExplorationResult r =
        ExploreDesignSpace(Design(), Lib(), GoldenOptions(nt));
    EXPECT_EQ(r.stats.points_considered, kPointsConsidered);
    EXPECT_EQ(r.stats.sta_runs, kStaRuns);
    EXPECT_EQ(r.stats.filtered, kFiltered);
    EXPECT_EQ(r.stats.pruned, kPruned);
    EXPECT_EQ(r.stats.mask_pruned, kMaskPruned);
    EXPECT_EQ(r.stats.feasible, kFeasible);
    ASSERT_EQ(r.modes.size(), ref.modes.size());
    for (std::size_t i = 0; i < ref.modes.size(); ++i) {
      // Bit-identical to the reference run, not merely close.
      EXPECT_EQ(r.modes[i].best.vdd, ref.modes[i].best.vdd);
      EXPECT_EQ(r.modes[i].best.mask, ref.modes[i].best.mask);
      EXPECT_EQ(r.modes[i].best.wns_ns, ref.modes[i].best.wns_ns);
      EXPECT_EQ(r.modes[i].best.total_power_w(),
                ref.modes[i].best.total_power_w());
    }
  }
}

// The observability layer must report exactly what ExplorationStats
// reports: the metrics snapshot is folded from the final stats in the
// deterministic merge, so the counters are identical at any thread
// count. Pinned at 1 (serial reference) and 8 (sharded path).
TEST(ExploreGolden, MetricsSnapshotMirrorsStats) {
  for (const int nt : {1, 8}) {
    obs::EnableMetrics(true);
    obs::ResetMetrics();
    const ExplorationResult r =
        ExploreDesignSpace(Design(), Lib(), GoldenOptions(nt));
    const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    obs::EnableMetrics(false);

    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    ASSERT_TRUE(snap.counters.count("explore.sta_runs"));
    EXPECT_EQ(snap.counters.at("explore.sta_runs"), r.stats.sta_runs);
    EXPECT_EQ(snap.counters.at("explore.pruned_hits"), r.stats.pruned);
    EXPECT_EQ(snap.counters.at("explore.mask_pruned"),
              r.stats.mask_pruned);
    EXPECT_EQ(snap.counters.at("explore.filtered"), r.stats.filtered);
    EXPECT_EQ(snap.counters.at("explore.feasible"), r.stats.feasible);
    EXPECT_EQ(snap.counters.at("explore.points_considered"),
              r.stats.points_considered);
    EXPECT_EQ(snap.counters.at("explore.runs"), 1);
    // And the run itself still matches the golden pin — in particular
    // the dominance prune fires identically at both thread counts.
    EXPECT_EQ(r.stats.sta_runs, kStaRuns);
    EXPECT_EQ(r.stats.pruned, kPruned);
    EXPECT_EQ(r.stats.mask_pruned, kMaskPruned);
    // The live sta.* counters mirror the explorer's accounting: every
    // explore-issued STA run is exactly one lane of one
    // TimingAnalyzer::AnalyzeBatch call.
    ASSERT_TRUE(snap.counters.count("sta.batch_lanes"));
    EXPECT_EQ(snap.counters.at("sta.batch_lanes"), r.stats.sta_runs);
  }
}

}  // namespace
}  // namespace adq::core
