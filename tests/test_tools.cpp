/// Tests for the Vth-variation timing yield of a mode table.

#include <gtest/gtest.h>

#include "core/variation.h"
#include "gen/operator.h"

namespace adq {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

const core::ImplementedDesign& Design22() {
  static const core::ImplementedDesign d = [] {
    core::FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;
    return core::RunImplementationFlow(gen::BuildBoothOperator(8), Lib(),
                                       fopt);
  }();
  return d;
}

const core::ExplorationResult& Result() {
  static const core::ExplorationResult r = [] {
    core::ExploreOptions opt;
    opt.bitwidths = {2, 4, 6, 8};
    opt.activity_cycles = 128;
    return core::ExploreDesignSpace(Design22(), Lib(), opt);
  }();
  return r;
}

// ---------------- variation ----------------

TEST(Variation, YieldsInUnitRangeAndCoverEveryMode) {
  core::VariationOptions vopt;
  vopt.samples = 60;
  const auto yields = core::TimingYield(Design22(), Lib(), Result(), vopt);
  int configured = 0;
  for (const auto& m : Result().modes) configured += m.has_solution;
  EXPECT_EQ((int)yields.size(), configured);
  for (const auto& y : yields) {
    EXPECT_GE(y.yield, 0.0);
    EXPECT_LE(y.yield, 1.0);
  }
}

TEST(Variation, ZeroSigmaGivesFullYield) {
  core::VariationOptions vopt;
  vopt.sigma_vth_v = 1e-9;
  vopt.samples = 20;
  const auto yields = core::TimingYield(Design22(), Lib(), Result(), vopt);
  for (const auto& y : yields)
    EXPECT_DOUBLE_EQ(y.yield, 1.0) << "bitwidth " << y.bitwidth;
}

TEST(Variation, LargerSigmaNeverImprovesWorstCase) {
  core::VariationOptions small, big;
  small.sigma_vth_v = 0.005;
  big.sigma_vth_v = 0.04;
  small.samples = big.samples = 80;
  const auto a = core::TimingYield(Design22(), Lib(), Result(), small);
  const auto b = core::TimingYield(Design22(), Lib(), Result(), big);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_GE(a[i].yield, b[i].yield - 1e-12);
}

}  // namespace
}  // namespace adq
