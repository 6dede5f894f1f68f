/// End-to-end integration tests: the whole methodology (flow +
/// exploration + baselines) on a small operator, checking the
/// paper-level claims hold qualitatively at reduced scale.

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/pareto.h"
#include "sim/logic_sim.h"
#include "sta/slack_histogram.h"
#include "sta/sta.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

struct Setup {
  core::ImplementedDesign ours;
  core::ImplementedDesign flat;
  core::ExplorationResult proposed;
  core::ExplorationResult dvas_nobb;
  core::ExplorationResult dvas_fbb;
};

const Setup& GetSetup() {
  static const Setup s = [] {
    Setup out;
    core::FlowOptions grid;
    grid.grid = {2, 2};
    grid.clock_ns = 0.55;
    out.ours = core::RunImplementationFlow(gen::BuildBoothOperator(8),
                                           Lib(), grid);
    core::FlowOptions flat;
    flat.clock_ns = 0.55;
    out.flat = core::RunImplementationFlow(gen::BuildBoothOperator(8),
                                           Lib(), flat);
    core::ExploreOptions xopt;
    xopt.bitwidths = {2, 3, 4, 5, 6, 7, 8};
    xopt.activity_cycles = 192;
    out.proposed = core::ExploreDesignSpace(out.ours, Lib(), xopt);
    out.dvas_nobb =
        core::ExploreDvas(out.flat, Lib(), core::DvasVariant::kNoBB, xopt);
    out.dvas_fbb =
        core::ExploreDvas(out.flat, Lib(), core::DvasVariant::kFBB, xopt);
    return out;
  }();
  return s;
}

TEST(Integration, BothImplementationsCloseTiming) {
  EXPECT_TRUE(GetSetup().ours.timing_met);
  EXPECT_TRUE(GetSetup().flat.timing_met);
}

TEST(Integration, FunctionalAfterFullFlow) {
  // The flow (buffering + sizing) must preserve the multiply function.
  const netlist::Netlist& nl = GetSetup().ours.op.nl;
  sim::LogicSim sim(nl);
  util::Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    const std::int64_t a = rng.UniformInt(-128, 127);
    const std::int64_t b = rng.UniformInt(-128, 127);
    sim.SetBus(nl.InputBus("a"), util::FromSigned(a, 8));
    sim.SetBus(nl.InputBus("b"), util::FromSigned(b, 8));
    sim.Tick();
    sim.Tick();
    ASSERT_EQ(util::ToSigned(sim.ReadBus(nl.OutputBus("p")), 16), a * b);
  }
}

TEST(Integration, ProposedReachesMaxAccuracy) {
  // Like the paper: the partitioned design must have a full-accuracy
  // configuration (boost enough domains).
  EXPECT_TRUE(GetSetup().proposed.Mode(8).has_solution);
}

TEST(Integration, ProposedNeverWorseThanDvasNoBB) {
  const auto ours = core::Frontier(GetSetup().proposed);
  const auto base = core::Frontier(GetSetup().dvas_nobb);
  for (const core::ParetoPoint& p : base) {
    const auto saving = core::SavingAt(ours, base, p.bitwidth);
    if (!saving) continue;
    // Small guardband-induced regressions allowed (the paper sees the
    // same effect on the butterfly); large ones are a bug.
    EXPECT_GT(*saving, -0.15) << "bitwidth " << p.bitwidth;
  }
}

TEST(Integration, ProposedBeatsDvasFbbSomewhere) {
  // The headline claim at small scale: at some accuracy the partial
  // boost beats all-FBB by a clear margin (leakage of unboosted
  // domains saved).
  const auto ours = core::Frontier(GetSetup().proposed);
  const auto base = core::Frontier(GetSetup().dvas_fbb);
  double best = -1.0;
  for (const core::ParetoPoint& p : base) {
    const auto saving = core::SavingAt(ours, base, p.bitwidth);
    if (saving) best = std::max(best, *saving);
  }
  EXPECT_GT(best, 0.05);
}

TEST(Integration, DvasNoBBLimitedReach) {
  // DVAS(NoBB) must fail at full accuracy (the implementation was
  // characterized all-FBB) — exactly the paper's observation.
  EXPECT_FALSE(GetSetup().dvas_nobb.Mode(8).has_solution);
  EXPECT_TRUE(GetSetup().dvas_fbb.Mode(8).has_solution);
}

TEST(Integration, StaFilterRateSubstantial) {
  // Paper Sec. III-C: ~75% of explored points are filtered by STA.
  // At reduced scale the exact number differs; it must be material.
  const double rate = GetSetup().proposed.stats.FilterRate();
  EXPECT_GT(rate, 0.25);
  EXPECT_LT(rate, 0.99);
}

TEST(Integration, OptimalMasksBoostMoreAtHigherAccuracy) {
  // Popcount of the chosen FBB mask must not decrease as accuracy
  // rises from the lowest to the highest configurable mode.
  const auto& modes = GetSetup().proposed.modes;
  int lo = -1, hi = -1;
  for (const auto& m : modes)
    if (m.has_solution) {
      if (lo < 0) lo = __builtin_popcount(m.best.mask);
      hi = __builtin_popcount(m.best.mask);
    }
  ASSERT_GE(lo, 0);
  EXPECT_LE(lo, hi);
}

TEST(Integration, WallOfSlackVisibleInHistogram) {
  // Post-implementation endpoint slacks at the nominal corner: a
  // large share must sit within 25% of the clock period of zero
  // (the wall), as in Fig. 1a.
  const core::ImplementedDesign& d = GetSetup().flat;
  sta::TimingAnalyzer an(d.op.nl, Lib(), d.loads);
  const std::vector<tech::BiasState> fbb(d.op.nl.num_instances(),
                                         tech::BiasState::kFBB);
  const auto rep = an.Analyze(1.0, d.clock_ns, fbb, nullptr, true);
  int near_wall = 0, active = 0;
  for (const auto& ep : rep.endpoints) {
    if (!ep.active) continue;
    ++active;
    if (ep.slack_ns < 0.25 * d.clock_ns) ++near_wall;
  }
  ASSERT_GT(active, 0);
  EXPECT_GT((double)near_wall / active, 0.25);
}

TEST(Integration, ControllerRoundTrip) {
  const core::RuntimeController ctrl(GetSetup().proposed);
  const auto modes = ctrl.SupportedModes();
  ASSERT_GE(modes.size(), 2u);
  const double e =
      ctrl.SwitchEnergyFj(modes.front(), modes.back());
  EXPECT_GE(e, 0.0);
}

}  // namespace
}  // namespace adq
