/// Tests for the power model: leakage physics, domain decomposition,
/// activity-annotated dynamic power arithmetic, and the leakage of
/// the logic an accuracy mode quiesces.

#include <gtest/gtest.h>

#include "core/accuracy.h"
#include "core/flow.h"
#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "place/wirelength.h"
#include "power/power.h"
#include "sim/activity.h"

namespace adq::power {
namespace {

using tech::BiasState;

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

struct Fixture {
  gen::Operator op = gen::BuildBoothOperator(8);
  place::NetLoads loads = place::EstimateLoadsByFanout(op.nl, Lib());
  PowerModel pm{op.nl, Lib(), loads};
};

TEST(Leakage, FbbGreaterThanNoBB) {
  Fixture f;
  const std::vector<BiasState> fbb(f.op.nl.num_instances(), BiasState::kFBB);
  const std::vector<BiasState> nobb(f.op.nl.num_instances(),
                                    BiasState::kNoBB);
  const double lf = f.pm.LeakageW(1.0, fbb);
  const double ln = f.pm.LeakageW(1.0, nobb);
  EXPECT_GT(lf, ln);
  // The exp(dVth / n*vT) ratio ~ 13x must survive aggregation.
  EXPECT_NEAR(lf / ln, std::exp(0.0935 / 0.0364), 0.5);
}

TEST(Leakage, ScalesWithVdd) {
  Fixture f;
  EXPECT_GT(f.pm.LeakageW(1.0, {}), f.pm.LeakageW(0.6, {}));
}

TEST(Leakage, DomainDecompositionMatchesFullScan) {
  Fixture f;
  // Arbitrary 3-domain assignment.
  std::vector<int> dom(f.op.nl.num_instances());
  for (std::size_t i = 0; i < dom.size(); ++i) dom[i] = (int)(i % 3);
  const auto weights = f.pm.LeakWeightByDomain(dom, 3);
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    std::vector<BiasState> bias(f.op.nl.num_instances());
    for (std::size_t i = 0; i < bias.size(); ++i)
      bias[i] = ((mask >> dom[i]) & 1) ? BiasState::kFBB : BiasState::kNoBB;
    double by_domain = 0.0;
    for (int d = 0; d < 3; ++d)
      by_domain += f.pm.DomainLeakageW(
          weights[(std::size_t)d], 0.9,
          ((mask >> d) & 1) ? BiasState::kFBB : BiasState::kNoBB);
    EXPECT_NEAR(by_domain, f.pm.LeakageW(0.9, bias), 1e-15)
        << "mask " << mask;
  }
}

TEST(Dynamic, QuadraticInVddLinearInFrequency) {
  EXPECT_DOUBLE_EQ(PowerModel::DynamicW(1000.0, 1.0, 1.0), 1e-3);
  EXPECT_DOUBLE_EQ(PowerModel::DynamicW(1000.0, 0.5, 1.0), 0.25e-3);
  EXPECT_DOUBLE_EQ(PowerModel::DynamicW(1000.0, 1.0, 2.0), 2e-3);
}

TEST(Dynamic, SwitchedEnergyGrowsWithActivity) {
  Fixture f;
  const auto quiet = sim::ExtractActivity(f.op, 8, 256, 7);
  const auto busy = sim::ExtractActivity(f.op, 0, 256, 7);
  EXPECT_GT(f.pm.SwitchedEnergyPerCycleFj(busy),
            f.pm.SwitchedEnergyPerCycleFj(quiet));
}

TEST(Dynamic, ClockTreeFloorWithZeroActivity) {
  // With fully-zeroed inputs the only switched capacitance left is
  // the register clock pins — a nonzero floor, as in a real design.
  Fixture f;
  const auto none = sim::ExtractActivity(f.op, 8, 256, 7);
  double clock_floor = 0.0;
  for (const auto& inst : f.op.nl.instances())
    if (inst.is_sequential())
      clock_floor += Lib().Variant(inst.kind, inst.drive).cap_clk_ff;
  EXPECT_GE(f.pm.SwitchedEnergyPerCycleFj(none), clock_floor);
}

TEST(Power, AnalyzeCombinesComponents) {
  Fixture f;
  const auto act = sim::ExtractActivity(f.op, 0, 128, 3);
  const std::vector<BiasState> fbb(f.op.nl.num_instances(), BiasState::kFBB);
  const PowerBreakdown pb = f.pm.Analyze(0.9, 1.25, act, fbb);
  EXPECT_GT(pb.dynamic_w, 0.0);
  EXPECT_GT(pb.leakage_w, 0.0);
  EXPECT_NEAR(pb.total_w(), pb.dynamic_w + pb.leakage_w, 1e-18);
  EXPECT_NEAR(pb.dynamic_w,
              PowerModel::DynamicW(f.pm.SwitchedEnergyPerCycleFj(act), 0.9,
                                   1.25),
              1e-15);
}

TEST(Power, DomainWeightsValidateInputs) {
  Fixture f;
  std::vector<int> bad(f.op.nl.num_instances(), 5);
  EXPECT_THROW(f.pm.LeakWeightByDomain(bad, 3), CheckError);
}

TEST(QuiescedLeakage, SplitsLeakageOfDisabledLogic) {
  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = {1, 1};
  const core::ImplementedDesign d =
      core::RunImplementationFlow(gen::BuildBoothOperator(8), lib, fopt);
  const power::PowerModel pmodel(d.op.nl, lib, d.loads);
  const double total = pmodel.LeakageW(1.0, {});
  const netlist::CaseAnalysis coarse(d.op.nl, core::ForcedZeros(d.op, 2));
  const double quiesced = pmodel.QuiescedLeakageW(coarse, 1.0, {});
  EXPECT_GT(quiesced, 0.0);
  EXPECT_LT(quiesced, total);
  // Full precision quiesces only the structurally-constant cones the
  // generator ships; a coarse mode must quiesce strictly more.
  const netlist::CaseAnalysis full(d.op.nl, core::ForcedZeros(d.op, 8));
  const double baseline = pmodel.QuiescedLeakageW(full, 1.0, {});
  EXPECT_LT(baseline, quiesced);
  // More zeroed bits can only quiesce more cells.
  const netlist::CaseAnalysis mid(d.op.nl, core::ForcedZeros(d.op, 5));
  const double midway = pmodel.QuiescedLeakageW(mid, 1.0, {});
  EXPECT_LE(baseline, midway);
  EXPECT_LE(midway, quiesced);
}

}  // namespace
}  // namespace adq::power
