/// Tests for the STA engine: exact arrival arithmetic on hand-built
/// chains, bias/VDD sensitivity, case-analysis path disabling, and
/// consistency between the endpoint and detailed analyses.

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "netlist/topo.h"
#include "place/wirelength.h"
#include "sta/slack_histogram.h"
#include "sta/sta.h"
#include "util/rng.h"

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
  TimingAnalyzer::DetailedTiming dt;
  an.AnalyzeDetailed(0.8, 0.6, bias, nullptr, &dt);
  EXPECT_NEAR(rep.wns_ns, dt.wns_ns, 1e-12);
}

TEST(Sta, DetailedSlackDecreasesAlongPath) {
  // In a pure chain every net shares the single path, so slack is the
  // same everywhere on it.
  Chain c(5);
  TimingAnalyzer an(c.nl, Lib(), c.ZeroLoads());
  const std::vector<BiasState> bias(c.nl.num_instances(), BiasState::kFBB);
  TimingAnalyzer::DetailedTiming dt;
  an.AnalyzeDetailed(1.0, 1.0, bias, nullptr, &dt);
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

// Cached sweep schedules hold no delays: after resizing and
// UpdateLoads, an analyzer that cached schedules (with and without
// case analysis) must answer exactly as one built fresh on the new
// loads.
TEST(Sta, UpdateLoadsKeepsCachedSchedulesExact) {
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
  std::vector<std::uint32_t> resized;
  for (std::uint32_t i = 0; i < op.nl.num_instances(); i += 4)
    if (!tech::IsTie(op.nl.instances()[i].kind)) {
      op.nl.SetDrive(netlist::InstId(i), DriveStrength::kX4);
      resized.push_back(i);
    }
  const place::NetLoads loads = place::EstimateLoadsByFanout(op.nl, Lib());
  warm.UpdateLoads(loads, resized);
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

/// The historical backward sweep, kept as the oracle: required times
/// over the whole netlist in reverse topological order, from delay
/// rows rebuilt here from the library and the loads.
struct ReferenceDetailed {
  std::vector<double> required;
  double wns_ns = std::numeric_limits<double>::infinity();
};
ReferenceDetailed ReferenceBackwardSweep(
    const netlist::Netlist& nl, const place::NetLoads& loads, double vdd,
    double clock_ns, const std::vector<BiasState>& bias,
    const netlist::CaseAnalysis* ca, const std::vector<double>& arrival) {
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  const double scale[] = {Lib().DelayScale(vdd, BiasState::kNoBB),
                          Lib().DelayScale(vdd, BiasState::kFBB)};
  auto net_active = [&](netlist::NetId n) {
    return ca == nullptr || !ca->IsConstant(n);
  };
  ReferenceDetailed ref;
  ref.required.assign(nl.num_nets(), kPosInf);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    if (!inst.is_sequential() || !net_active(inst.in[0])) continue;
    const double setup = Lib().Variant(inst.kind, inst.drive).setup_ns *
                         scale[static_cast<int>(bias[i])];
    double& r = ref.required[inst.in[0].index()];
    r = std::min(r, clock_ns - setup);
  }
  const std::vector<netlist::InstId> order = netlist::TopologicalOrder(nl);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const netlist::Instance& inst = nl.inst(*it);
    if (inst.is_sequential() || tech::IsTie(inst.kind)) continue;
    const tech::CellVariant& v = Lib().Variant(inst.kind, inst.drive);
    const double m = scale[static_cast<int>(bias[it->index()])];
    double req_in = kPosInf;
    for (int o = 0; o < inst.num_outputs(); ++o) {
      const netlist::NetId out = inst.out[o];
      if (!net_active(out)) continue;
      const double base = v.d0_ns + v.kd_ns_per_ff * loads.cap_ff[out.index()];
      req_in = std::min(req_in, ref.required[out.index()] - base * m -
                                    loads.wire_delay_ns[out.index()]);
    }
    if (req_in == kPosInf) continue;
    for (int p = 0; p < inst.num_inputs(); ++p)
      if (net_active(inst.in[p]))
        ref.required[inst.in[p].index()] =
            std::min(ref.required[inst.in[p].index()], req_in);
  }
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    if (!net_active(netlist::NetId(n))) continue;
    if (arrival[n] == -kPosInf || ref.required[n] == kPosInf) continue;
    ref.wns_ns = std::min(ref.wns_ns, ref.required[n] - arrival[n]);
  }
  if (ref.wns_ns == kPosInf) ref.wns_ns = clock_ns;
  return ref;
}

// AnalyzeDetailed's backward sweep walks the cached schedule in
// reverse. On every net ActiveNet accepts it must give the required
// time of the full-netlist reverse walk bit for bit, accept exactly
// the same nets and report the same wns — with and without a case
// analysis, and with one DetailedTiming reused across all calls.
TEST(Sta, DetailedMatchesReferenceSweep) {
  gen::Operator op = gen::BuildBoothOperator(16);
  for (std::uint32_t i = 0; i < op.nl.num_instances(); i += 3)
    if (!tech::IsTie(op.nl.instances()[i].kind))
      op.nl.SetDrive(netlist::InstId(i), DriveStrength::kX2);
  const place::NetLoads loads = place::EstimateLoadsByFanout(op.nl, Lib());
  const netlist::CaseAnalysis ca6(op.nl, gen::ForcedZeroLsbs(op, 6));
  const netlist::CaseAnalysis ca12(op.nl, gen::ForcedZeroLsbs(op, 12));
  std::vector<BiasState> bias(op.nl.num_instances(), BiasState::kFBB);
  for (std::size_t i = 0; i < bias.size(); i += 5) bias[i] = BiasState::kNoBB;

  TimingAnalyzer an(op.nl, Lib(), loads);
  TimingAnalyzer::DetailedTiming dt;
  const netlist::CaseAnalysis* cases[] = {nullptr, &ca6, &ca12, nullptr};
  for (const double clock : {1.0, 0.4}) {
    for (const netlist::CaseAnalysis* ca : cases) {
      an.AnalyzeDetailed(0.9, clock, bias, ca, &dt);
      const ReferenceDetailed ref = ReferenceBackwardSweep(
          op.nl, loads, 0.9, clock, bias, ca, dt.arrival);
      EXPECT_EQ(dt.wns_ns, ref.wns_ns);
      int active = 0;
      for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
        const netlist::NetId id(n);
        const bool ref_active =
            dt.arrival[n] != -std::numeric_limits<double>::infinity() &&
            ref.required[n] != std::numeric_limits<double>::infinity();
        ASSERT_EQ(dt.ActiveNet(id), ref_active) << "net " << n;
        if (!ref_active) continue;
        ++active;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dt.required[n]),
                  std::bit_cast<std::uint64_t>(ref.required[n]))
            << "net " << n;
      }
      EXPECT_GT(active, 100);
    }
  }
}

// AnalyzeDetailed counts capture violations with Analyze's fold, so
// sizing recovery can check a move on the detailed analysis alone.
// Random loads, supplies, bias vectors and clocks around the critical
// delay, with and without a case analysis: the counts must agree, and
// the clocks must give both clean and partly violating points.
TEST(Sta, DetailedViolationsMatchAnalyze) {
  gen::Operator op = gen::BuildBoothOperator(16);
  util::Rng rng(9);
  place::NetLoads loads = place::EstimateLoadsByFanout(op.nl, Lib());
  for (std::size_t n = 0; n < loads.cap_ff.size(); ++n) {
    loads.cap_ff[n] *= rng.Uniform(0.5, 2.0);
    loads.wire_delay_ns[n] *= rng.Uniform(0.0, 3.0);
  }
  const netlist::CaseAnalysis ca(op.nl, gen::ForcedZeroLsbs(op, 7));
  TimingAnalyzer an(op.nl, Lib(), loads);
  TimingAnalyzer::DetailedTiming dt;
  int clean = 0, partial = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const double vdd = rng.Uniform(0.6, 1.0);
    std::vector<BiasState> bias(op.nl.num_instances());
    for (BiasState& b : bias)
      b = rng.UniformInt(0, 1) ? BiasState::kFBB : BiasState::kNoBB;
    const netlist::CaseAnalysis* c = trial % 2 ? &ca : nullptr;
    // The critical delay of this point, from a clock no path misses.
    const TimingReport loose = an.Analyze(vdd, 100.0, bias, c);
    const double clock = (100.0 - loose.wns_ns) * rng.Uniform(0.8, 1.05);
    const TimingReport rep = an.Analyze(vdd, clock, bias, c);
    an.AnalyzeDetailed(vdd, clock, bias, c, &dt);
    EXPECT_EQ(dt.num_violations, rep.num_violations) << "trial " << trial;
    clean += rep.num_violations == 0;
    partial += rep.num_violations > 0 &&
               rep.num_violations < rep.num_active_endpoints;
  }
  EXPECT_GT(clean, 0);
  EXPECT_GT(partial, 0);
}

}  // namespace
}  // namespace adq::sta
