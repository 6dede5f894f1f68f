/// Tests for the STA engine: exact arrival arithmetic on hand-built
/// chains, bias/VDD sensitivity, case-analysis path disabling, and
/// consistency between the endpoint and detailed analyses.

#include <gtest/gtest.h>

#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "place/wirelength.h"
#include "sta/slack_histogram.h"
#include "sta/sta.h"

namespace adq::sta {
namespace {

using tech::BiasState;
using tech::CellKind;
using tech::DriveStrength;

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// DFF -> N inverters -> DFF, with zero wire parasitics so delays are
/// exactly the library numbers.
struct Chain {
  netlist::Netlist nl;
  netlist::NetId in, out;
  int n;

  explicit Chain(int n_inv) : n(n_inv) {
    in = nl.AddInputPort("in");
    netlist::NetId x = nl.AddGate(CellKind::kDff, {in});
    for (int i = 0; i < n_inv; ++i) x = nl.AddGate(CellKind::kInv, {x});
    out = nl.AddGate(CellKind::kDff, {x});
    nl.AddOutputPort("out", out);
  }

  place::NetLoads ZeroLoads() const {
    place::NetLoads l;
    l.cap_ff.assign(nl.num_nets(), 0.0);
    l.wire_delay_ns.assign(nl.num_nets(), 0.0);
    return l;
  }

  /// Expected arrival at the capture D pin at (vdd, bias uniform).
  double ExpectedArrival(double vdd, BiasState b) const {
    const double s = Lib().DelayScale(vdd, b);
    const double clk2q = Lib().Variant(CellKind::kDff, DriveStrength::kX1).d0_ns;
    const double inv = Lib().Variant(CellKind::kInv, DriveStrength::kX1).d0_ns;
    return (clk2q + n * inv) * s;
  }
};

TEST(Sta, ExactArrivalOnInverterChain) {
  Chain c(10);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  const TimingReport rep = an.Analyze(1.0, 1.0, bias, nullptr, true);
  ASSERT_EQ(rep.endpoints.size(), 2u);  // both DFF D pins
  // Find the deep endpoint (the output register).
  double deep = 0.0;
  for (const auto& ep : rep.endpoints)
    deep = std::max(deep, ep.arrival_ns);
  EXPECT_NEAR(deep, c.ExpectedArrival(1.0, BiasState::kFBB), 1e-12);
}

TEST(Sta, SlackMatchesClockMinusSetupMinusArrival) {
  Chain c(6);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kNoBB);
  const double T = 0.5;
  const TimingReport rep = an.Analyze(0.9, T, bias, nullptr, true);
  const double s = Lib().DelayScale(0.9, BiasState::kNoBB);
  const double setup =
      Lib().Variant(CellKind::kDff, DriveStrength::kX1).setup_ns * s;
  for (const auto& ep : rep.endpoints) {
    if (!ep.active) continue;
    EXPECT_NEAR(ep.slack_ns, T - setup - ep.arrival_ns, 1e-12);
  }
}

TEST(Sta, LowerVddIncreasesArrival) {
  Chain c(8);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  const double a10 = an.Analyze(1.0, 1.0, bias, nullptr, true).wns_ns;
  const double a07 = an.Analyze(0.7, 1.0, bias, nullptr, true).wns_ns;
  EXPECT_GT(a10, a07) << "slack shrinks as VDD drops";
}

TEST(Sta, FbbFasterThanNoBB) {
  Chain c(8);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> fbb(c.nl.num_instances(), BiasState::kFBB);
  const std::vector<BiasState> nobb(c.nl.num_instances(), BiasState::kNoBB);
  EXPECT_GT(an.Analyze(1.0, 1.0, fbb).wns_ns,
            an.Analyze(1.0, 1.0, nobb).wns_ns);
}

TEST(Sta, PartialBoostBetweenExtremes) {
  Chain c(8);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  std::vector<BiasState> mixed(c.nl.num_instances(), BiasState::kNoBB);
  // Boost the first half of the inverters.
  for (std::uint32_t i = 0; i < c.nl.num_instances() / 2; ++i)
    mixed[i] = BiasState::kFBB;
  const std::vector<BiasState> fbb(c.nl.num_instances(), BiasState::kFBB);
  const std::vector<BiasState> nobb(c.nl.num_instances(), BiasState::kNoBB);
  const double wm = an.Analyze(1.0, 1.0, mixed).wns_ns;
  EXPECT_GT(wm, an.Analyze(1.0, 1.0, nobb).wns_ns);
  EXPECT_LT(wm, an.Analyze(1.0, 1.0, fbb).wns_ns);
}

TEST(Sta, CaseAnalysisDisablesEndpoint) {
  Chain c(4);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const netlist::CaseAnalysis ca(c.nl, {{c.in, false}});
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  const TimingReport rep = an.Analyze(1.0, 1.0, bias, &ca, true);
  EXPECT_EQ(rep.num_active_endpoints, 0);
  EXPECT_EQ(rep.num_disabled_endpoints, 2);
  EXPECT_TRUE(rep.feasible()) << "no active endpoints -> no violations";
}

TEST(Sta, WireLoadIncreasesDelay) {
  Chain c(4);
  place::NetLoads heavy = c.ZeroLoads();
  for (auto& cap : heavy.cap_ff) cap = 10.0;
  TimingAnalyzer light(c.nl, Lib(), c.ZeroLoads());
  TimingAnalyzer loaded(c.nl, Lib(), heavy);
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  EXPECT_GT(light.Analyze(1.0, 1.0, bias).wns_ns,
            loaded.Analyze(1.0, 1.0, bias).wns_ns);
}

TEST(Sta, DetailedConsistentWithEndpointAnalysis) {
  Chain c(12);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kNoBB);
  const TimingReport rep = an.Analyze(0.8, 0.6, bias, nullptr, true);
  const auto dt = an.AnalyzeDetailed(0.8, 0.6, bias);
  EXPECT_NEAR(rep.wns_ns, dt.wns_ns, 1e-12);
}

TEST(Sta, DetailedSlackDecreasesAlongPath) {
  // In a pure chain every net shares the single path, so slack is the
  // same everywhere on it.
  Chain c(5);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  const auto dt = an.AnalyzeDetailed(1.0, 1.0, bias);
  // Collect slacks of inverter output nets.
  double first_slack = 0.0;
  bool have = false;
  for (std::uint32_t i = 0; i < c.nl.num_instances(); ++i) {
    const netlist::Instance& inst = c.nl.instances()[i];
    if (inst.kind != CellKind::kInv) continue;
    const double s = dt.SlackOf(inst.out[0]);
    if (!have) {
      first_slack = s;
      have = true;
    } else {
      EXPECT_NEAR(s, first_slack, 1e-12);
    }
  }
}

TEST(SlackHistogram, BuildsFromEndpoints) {
  Chain c(6);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  const TimingReport rep = an.Analyze(1.0, 0.5, bias, nullptr, true);
  const util::Histogram h = SlackHistogram(rep);
  EXPECT_EQ(h.total(), rep.num_active_endpoints);
}

TEST(SlackHistogram, ClassifyCounts) {
  Chain c(6);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kNoBB);
  // Absurdly tight clock: everything that is active violates.
  const TimingReport rep = an.Analyze(1.0, 0.01, bias, nullptr, true);
  const PathClassCounts cls = ClassifyEndpoints(rep);
  EXPECT_EQ(cls.disabled, 0);
  EXPECT_GT(cls.negative, 0);
}

TEST(Sta, EmptyBiasMeansAllNoBB) {
  Chain c(7);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> nobb(c.nl.num_instances(), BiasState::kNoBB);
  EXPECT_NEAR(an.Analyze(1.0, 1.0, {}).wns_ns,
              an.Analyze(1.0, 1.0, nobb).wns_ns, 1e-12);
}

void ExpectSameReport(const TimingReport& a, const TimingReport& b) {
  EXPECT_EQ(a.wns_ns, b.wns_ns);
  EXPECT_EQ(a.num_violations, b.num_violations);
  EXPECT_EQ(a.num_active_endpoints, b.num_active_endpoints);
  EXPECT_EQ(a.num_disabled_endpoints, b.num_disabled_endpoints);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t e = 0; e < a.endpoints.size(); ++e) {
    EXPECT_EQ(a.endpoints[e].arrival_ns, b.endpoints[e].arrival_ns);
    EXPECT_EQ(a.endpoints[e].slack_ns, b.endpoints[e].slack_ns);
  }
}

// SetLoads keeps the cached sweep schedules and refreshes their
// delays in place: after resizing and new loads, an analyzer that
// cached schedules (with and without case analysis) must answer
// exactly as one built fresh on the new loads.
TEST(Sta, SetLoadsRefreshesCachedSchedules) {
  gen::Operator op = gen::BuildBoothOperator(8);
  const netlist::CaseAnalysis ca(op.nl, gen::ForcedZeroLsbs(op, 3));
  std::vector<int> domain_of(op.nl.num_instances());
  for (std::size_t i = 0; i < domain_of.size(); ++i)
    domain_of[i] = static_cast<int>(i % 3);
  const std::vector<tech::DomainMask> masks = {0, 1, 2, 3, 5, 7};
  const std::vector<double> vdds(masks.size(), 0.9);
  const std::vector<BiasState> bias(op.nl.num_instances(), BiasState::kFBB);
  const netlist::CaseAnalysis* cases[] = {nullptr, &ca};

  TimingAnalyzer warm(op.nl, Lib(),
                      place::EstimateLoadsByFanout(op.nl, Lib()));
  for (const netlist::CaseAnalysis* c : cases) {
    warm.Analyze(0.9, 0.8, bias, c);
    warm.AnalyzeBatch(vdds, 0.8, masks, domain_of, c);
  }
  for (std::uint32_t i = 0; i < op.nl.num_instances(); i += 4)
    if (!tech::IsTie(op.nl.instances()[i].kind))
      op.nl.SetDrive(netlist::InstId(i), DriveStrength::kX4);
  const place::NetLoads loads = place::EstimateLoadsByFanout(op.nl, Lib());
  warm.SetLoads(loads);
  TimingAnalyzer fresh(op.nl, Lib(), loads);

  for (const netlist::CaseAnalysis* c : cases) {
    ExpectSameReport(warm.Analyze(0.9, 0.8, bias, c, true),
                     fresh.Analyze(0.9, 0.8, bias, c, true));
    const auto wb = warm.AnalyzeBatch(vdds, 0.8, masks, domain_of, c);
    const auto fb = fresh.AnalyzeBatch(vdds, 0.8, masks, domain_of, c);
    ASSERT_EQ(wb.size(), fb.size());
    for (std::size_t l = 0; l < wb.size(); ++l) ExpectSameReport(wb[l], fb[l]);
  }
}

}  // namespace
}  // namespace adq::sta
