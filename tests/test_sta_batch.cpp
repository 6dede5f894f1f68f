/// Contracts of the batched multi-mask STA kernel
/// (sta::TimingAnalyzer::AnalyzeBatch) and the monotonicity law the
/// exploration engine's mask-dominance prune is built on:
///
///   * every batch lane is bit-identical (==, not nearly-equal) to a
///     scalar Analyze of the same (VDD, mask) — at every batch width
///     from 1 to past core::kStaBatchWidth (full batches and padded
///     widths), with random (VDD, mask set, bitwidth) draws and with
///     lanes that mix supplies;
///   * the sweep-schedule cache never aliases two case analyses, even
///     when their digests collide;
///   * WNS is monotone non-increasing in the FBB mask lattice:
///     M ⊆ F implies WNS(M) ≤ WNS(F), hence an infeasible mask
///     condemns all its submasks (the prune is exact, not heuristic).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/accuracy.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/mode_context.h"
#include "obs/obs.h"
#include "sta/sta.h"

namespace adq {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// Same fixture as test_explore_golden: width-8 Booth, 2x2 grid
/// (4 bias domains), 0.55 ns clock.
const core::ImplementedDesign& Design() {
  static const core::ImplementedDesign d = [] {
    core::FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;
    return core::RunImplementationFlow(gen::BuildBoothOperator(8), Lib(),
                                       fopt);
  }();
  return d;
}

void ExpectReportsIdentical(const sta::TimingReport& batch,
                            const sta::TimingReport& scalar) {
  EXPECT_EQ(batch.wns_ns, scalar.wns_ns);  // bit-identical, == compare
  EXPECT_EQ(batch.num_violations, scalar.num_violations);
  EXPECT_EQ(batch.num_active_endpoints, scalar.num_active_endpoints);
  EXPECT_EQ(batch.num_disabled_endpoints, scalar.num_disabled_endpoints);
}

TEST(StaBatch, BitIdenticalToScalarLanes) {
  const core::ImplementedDesign& d = Design();
  sta::TimingAnalyzer analyzer(d.op.nl, Lib(), d.loads);
  const std::uint32_t nmasks = 1u << d.num_domains();

  std::mt19937 rng(20260805);
  std::uniform_real_distribution<double> vdd_dist(0.6, 1.0);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, nmasks - 1);
  std::uniform_int_distribution<int> bw_dist(1, d.op.spec.data_width);

  // Two trials per width, 1 .. kStaBatchWidth + 3: full batches of the
  // engines' width and every SIMD tail length around it.
  bool saw_disabled = false;
  const int max_width = static_cast<int>(core::kStaBatchWidth) + 3;
  for (int trial = 0; trial < 2 * max_width; ++trial) {
    const double vdd = vdd_dist(rng);
    const int bw = bw_dist(rng);
    // Every third trial analyzes the full circuit (no case analysis).
    const bool use_ca = trial % 3 != 0;
    const netlist::CaseAnalysis ca(d.op.nl, core::ForcedZeros(d.op, bw));
    const netlist::CaseAnalysis* cap = use_ca ? &ca : nullptr;

    std::vector<tech::DomainMask> lanes(
        static_cast<std::size_t>(trial % max_width + 1));
    for (tech::DomainMask& m : lanes) m = mask_dist(rng);

    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " vdd=" + std::to_string(vdd) + " bw=" +
                 std::to_string(bw) + " W=" + std::to_string(lanes.size()));
    const std::vector<sta::TimingReport> batch =
        analyzer.AnalyzeBatch(std::vector<double>(lanes.size(), vdd),
                              d.clock_ns, lanes, d.domain_of(), cap);
    ASSERT_EQ(batch.size(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      SCOPED_TRACE("lane=" + std::to_string(l) + " mask=" +
                   std::to_string(lanes[l]));
      const sta::TimingReport scalar = analyzer.Analyze(
          vdd, d.clock_ns, core::BiasVectorFor(d, lanes[l]), cap,
          /*collect_endpoints=*/true);
      ExpectReportsIdentical(batch[l], scalar);
      // The endpoint list has one entry per register, and its inactive
      // entries are exactly the disabled count.
      int disabled = 0;
      for (const sta::EndpointTiming& ep : scalar.endpoints)
        disabled += ep.active ? 0 : 1;
      EXPECT_EQ(scalar.endpoints.size(),
                static_cast<std::size_t>(scalar.num_active_endpoints +
                                         scalar.num_disabled_endpoints));
      EXPECT_EQ(disabled, batch[l].num_disabled_endpoints);
      saw_disabled = saw_disabled || batch[l].num_disabled_endpoints > 0;
    }
  }
  // Reduced bitwidths disable the zeroed LSBs' capture registers: the
  // schedule's precomputed disabled count must have been exercised.
  EXPECT_TRUE(saw_disabled);
}

long BatchLanesCounter() {
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  const auto it = snap.counters.find("sta.batch_lanes");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(StaBatch, PerLaneVddBitIdenticalToScalar) {
  const core::ImplementedDesign& d = Design();
  sta::TimingAnalyzer analyzer(d.op.nl, Lib(), d.loads);
  const std::uint32_t nmasks = 1u << d.num_domains();
  // The explorers' supply list, plus off-grid draws below.
  const std::vector<double> grid = core::ExploreOptions{}.vdds;

  std::mt19937 rng(20261018);
  std::uniform_real_distribution<double> vdd_dist(0.6, 1.0);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, nmasks - 1);
  std::uniform_int_distribution<int> bw_dist(1, d.op.spec.data_width);
  std::uniform_int_distribution<std::size_t> grid_dist(0, grid.size() - 1);

  obs::EnableMetrics(true);
  obs::ResetMetrics();
  long lanes_reported = 0;
  const int max_width = static_cast<int>(core::kStaBatchWidth) + 3;
  for (int w = 1; w <= max_width; ++w)
    for (const bool use_ca : {false, true}) {
      const int bw = bw_dist(rng);
      const netlist::CaseAnalysis ca(d.op.nl, core::ForcedZeros(d.op, bw));
      const netlist::CaseAnalysis* cap = use_ca ? &ca : nullptr;
      // Mixed supplies: runs of grid rows (as the explorers pack
      // them) with repeats and off-grid values interleaved.
      std::vector<double> vdds(static_cast<std::size_t>(w));
      std::vector<tech::DomainMask> lanes(vdds.size());
      for (std::size_t l = 0; l < vdds.size(); ++l) {
        vdds[l] = l % 3 == 2 ? vdd_dist(rng) : grid[grid_dist(rng)];
        lanes[l] = mask_dist(rng);
      }

      SCOPED_TRACE("W=" + std::to_string(w) + " bw=" + std::to_string(bw) +
                   (use_ca ? " ca" : " no ca"));
      const std::vector<sta::TimingReport> batch =
          analyzer.AnalyzeBatch(vdds, d.clock_ns, lanes, d.domain_of(), cap);
      lanes_reported += w;
      // Padded lanes are never reported or counted.
      ASSERT_EQ(batch.size(), lanes.size());
      EXPECT_EQ(BatchLanesCounter(), lanes_reported);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        SCOPED_TRACE("lane=" + std::to_string(l) + " vdd=" +
                     std::to_string(vdds[l]) + " mask=" +
                     std::to_string(lanes[l]));
        ExpectReportsIdentical(
            batch[l], analyzer.Analyze(vdds[l], d.clock_ns,
                                       core::BiasVectorFor(d, lanes[l]),
                                       cap));
      }
    }
  obs::EnableMetrics(false);
}

/// A digest hit in the sweep-schedule cache is confirmed against the
/// analysis's constant nets: with every digest forced equal, each
/// analysis still gets its own schedule and its own verdicts.
TEST(StaBatch, ScheduleCacheSurvivesFingerprintCollisions) {
  const core::ImplementedDesign& d = Design();
  const netlist::CaseAnalysis narrow(d.op.nl, core::ForcedZeros(d.op, 2));
  const netlist::CaseAnalysis wide(d.op.nl, core::ForcedZeros(d.op, 6));
  ASSERT_NE(narrow.num_constant(), wide.num_constant());
  const std::vector<tech::DomainMask> masks = {0, 3, 5, 15};
  const std::vector<double> vdds(masks.size(), 0.7);

  sta::TimingAnalyzer ref(d.op.nl, Lib(), d.loads);
  const std::vector<sta::TimingReport> want_narrow =
      ref.AnalyzeBatch(vdds, d.clock_ns, masks, d.domain_of(), &narrow);
  const std::vector<sta::TimingReport> want_wide =
      ref.AnalyzeBatch(vdds, d.clock_ns, masks, d.domain_of(), &wide);
  // The two analyses must time differently, or aliasing could not show.
  ASSERT_NE(want_narrow[0].num_disabled_endpoints,
            want_wide[0].num_disabled_endpoints);

  sta::ForceScheduleHashCollisionsForTest(true);
  sta::TimingAnalyzer an(d.op.nl, Lib(), d.loads);
  for (int round = 0; round < 2; ++round)
    for (const netlist::CaseAnalysis* ca : {&narrow, &wide}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   (ca == &narrow ? " narrow" : " wide"));
      const std::vector<sta::TimingReport>& want =
          ca == &narrow ? want_narrow : want_wide;
      const std::vector<sta::TimingReport> got =
          an.AnalyzeBatch(vdds, d.clock_ns, masks, d.domain_of(), ca);
      for (std::size_t l = 0; l < masks.size(); ++l)
        ExpectReportsIdentical(got[l], want[l]);
      ExpectReportsIdentical(
          an.Analyze(0.7, d.clock_ns, core::BiasVectorFor(d, masks[1]), ca),
          want[1]);
    }
  sta::ForceScheduleHashCollisionsForTest(false);
}

TEST(StaBatch, EmptyAndSingleLane) {
  const core::ImplementedDesign& d = Design();
  sta::TimingAnalyzer analyzer(d.op.nl, Lib(), d.loads);
  EXPECT_TRUE(analyzer
                  .AnalyzeBatch({}, d.clock_ns, {}, d.domain_of())
                  .empty());
  // W = 1 is the degenerate batch the explorer issues for leftover
  // chunks; it must match scalar like any other width.
  const std::uint32_t mask = 0x5;
  const std::vector<tech::DomainMask> one{mask};
  const std::vector<sta::TimingReport> batch =
      analyzer.AnalyzeBatch(std::vector<double>{0.8}, d.clock_ns, one,
                            d.domain_of());
  ASSERT_EQ(batch.size(), 1u);
  ExpectReportsIdentical(
      batch[0],
      analyzer.Analyze(0.8, d.clock_ns, core::BiasVectorFor(d, mask)));
}

/// The law behind the explorer's mask-dominance prune: forward body bias
/// only speeds cells up, so clearing FBB bits can only worsen WNS.
TEST(StaBatch, WnsMonotoneNonIncreasingInMaskLattice) {
  const core::ImplementedDesign& d = Design();
  sta::TimingAnalyzer analyzer(d.op.nl, Lib(), d.loads);
  const std::uint32_t nmasks = 1u << d.num_domains();

  std::mt19937 rng(987654321);
  std::uniform_real_distribution<double> vdd_dist(0.6, 1.0);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, nmasks - 1);
  std::uniform_int_distribution<int> bw_dist(1, d.op.spec.data_width);

  for (int trial = 0; trial < 48; ++trial) {
    const double vdd = vdd_dist(rng);
    const int bw = bw_dist(rng);
    const netlist::CaseAnalysis ca(d.op.nl, core::ForcedZeros(d.op, bw));
    const std::uint32_t sup = mask_dist(rng);
    const std::uint32_t sub = sup & mask_dist(rng);  // sub ⊆ sup

    SCOPED_TRACE("trial=" + std::to_string(trial) + " sup=" +
                 std::to_string(sup) + " sub=" + std::to_string(sub));
    const sta::TimingReport rep_sup = analyzer.Analyze(
        vdd, d.clock_ns, core::BiasVectorFor(d, sup), &ca);
    const sta::TimingReport rep_sub = analyzer.Analyze(
        vdd, d.clock_ns, core::BiasVectorFor(d, sub), &ca);
    EXPECT_LE(rep_sub.wns_ns, rep_sup.wns_ns);
    // The corollary the explorer's dominance prune relies on: an
    // infeasible supermask condemns every submask.
    if (!rep_sup.feasible()) {
      EXPECT_FALSE(rep_sub.feasible());
    }
  }
}

/// Full-lattice version at one operating point: all-FBB is the global
/// WNS maximum and all-NoBB the minimum.
TEST(StaBatch, LatticeExtremesBoundEveryMask) {
  const core::ImplementedDesign& d = Design();
  sta::TimingAnalyzer analyzer(d.op.nl, Lib(), d.loads);
  const std::uint32_t nmasks = 1u << d.num_domains();
  const double vdd = 0.8;

  std::vector<tech::DomainMask> lanes(nmasks);
  for (std::uint32_t m = 0; m < nmasks; ++m) lanes[m] = m;
  const std::vector<sta::TimingReport> reps =
      analyzer.AnalyzeBatch(std::vector<double>(nmasks, vdd), d.clock_ns,
                            lanes, d.domain_of());
  const double wns_none = reps[0].wns_ns;
  const double wns_all = reps[nmasks - 1].wns_ns;
  for (std::uint32_t m = 0; m < nmasks; ++m) {
    EXPECT_GE(reps[m].wns_ns, wns_none) << "mask " << m;
    EXPECT_LE(reps[m].wns_ns, wns_all) << "mask " << m;
  }
}

}  // namespace
}  // namespace adq
