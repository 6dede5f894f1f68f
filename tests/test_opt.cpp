/// Tests for the sizing optimizer (timing fix + power recovery /
/// wall-of-slack) and the high-fanout buffering pass.

#include <gtest/gtest.h>

#include <bit>

#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "obs/metrics.h"
#include "opt/buffering.h"
#include "opt/sizing.h"
#include "place/placer.h"
#include "sim/logic_sim.h"
#include "sta/slack_histogram.h"
#include "sta/sta.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq::opt {
namespace {

using tech::BiasState;

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

place::NetLoads FanoutLoads(const netlist::Netlist& nl) {
  return place::EstimateLoadsByFanout(nl, Lib());
}

TEST(Sizing, MeetsAchievableClock) {
  gen::Operator op = gen::BuildBoothOperator(8);
  SizingOptions sopt;
  sopt.clock_ns = 0.8;  // generous for an 8x8 multiplier
  const SizingResult res =
      OptimizeSizing(op.nl, Lib(), place::FanoutWires(op.nl), sopt);
  EXPECT_TRUE(res.timing_met);
  EXPECT_GE(res.wns_ns, 0.0);
}

TEST(Sizing, ReportsFailureOnImpossibleClock) {
  gen::Operator op = gen::BuildBoothOperator(8);
  SizingOptions sopt;
  sopt.clock_ns = 0.05;  // unreachable
  const SizingResult res =
      OptimizeSizing(op.nl, Lib(), place::FanoutWires(op.nl), sopt);
  EXPECT_FALSE(res.timing_met);
  EXPECT_LT(res.wns_ns, 0.0);
}

TEST(Sizing, RecoveryNeverBreaksTiming) {
  gen::Operator op = gen::BuildBoothOperator(8);
  SizingOptions sopt;
  sopt.clock_ns = 0.9;
  sopt.enable_recovery = true;
  const SizingResult res =
      OptimizeSizing(op.nl, Lib(), place::FanoutWires(op.nl), sopt);
  EXPECT_TRUE(res.timing_met);
  EXPECT_GT(res.downsize_moves, 0) << "ample slack must trigger recovery";
}

void ExpectSameLoads(const place::NetLoads& a, const place::NetLoads& b) {
  ASSERT_EQ(a.cap_ff.size(), b.cap_ff.size());
  for (std::size_t n = 0; n < a.cap_ff.size(); ++n) {
    ASSERT_EQ(a.cap_ff[n], b.cap_ff[n]) << "net " << n;
    ASSERT_EQ(a.wire_delay_ns[n], b.wire_delay_ns[n]) << "net " << n;
  }
}

void ExpectSameDetailed(const sta::TimingAnalyzer::DetailedTiming& a,
                        const sta::TimingAnalyzer::DetailedTiming& b) {
  ASSERT_EQ(a.arrival.size(), b.arrival.size());
  EXPECT_EQ(a.wns_ns, b.wns_ns);
  for (std::size_t n = 0; n < a.arrival.size(); ++n) {
    ASSERT_EQ(a.arrival[n], b.arrival[n]) << "net " << n;
    ASSERT_EQ(a.required[n], b.required[n]) << "net " << n;
  }
}

// OptimizeSizing refreshes only the input nets of the cells a round
// resized, and the analyzer only the rows those nets and cells feed
// (UpdateLoads). Replaying rounds of random resizes (on placed wires)
// against a full recompute pins that neither drifts: the loads equal
// ComputeLoads, and the incrementally updated analyzer, with cached
// schedules for the full circuit and a case analysis, answers every
// query exactly as one built fresh on the same loads.
TEST(Sizing, IncrementalLoadsMatchFullRecompute) {
  gen::Operator op = gen::BuildBoothOperator(8);
  const place::NetWires wires =
      place::PlacedWires(op.nl, place::PlaceDesign(op.nl, Lib()));
  place::NetLoads loads = place::ComputeLoads(op.nl, Lib(), wires);
  const netlist::CaseAnalysis ca(op.nl, gen::ForcedZeroLsbs(op, 3));
  const netlist::CaseAnalysis* cases[] = {nullptr, &ca};
  const std::vector<BiasState> bias(op.nl.num_instances(), BiasState::kFBB);
  sta::TimingAnalyzer inc(op.nl, Lib(), loads);
  sta::TimingAnalyzer::DetailedTiming inc_dt, full_dt;
  for (const netlist::CaseAnalysis* c : cases) inc.Analyze(1.0, 0.8, bias, c);
  util::Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint32_t> resized;
    for (int k = 0; k < 25; ++k) {
      const auto i = static_cast<std::uint32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(op.nl.num_instances()) - 1));
      const netlist::Instance& inst = op.nl.instances()[i];
      if (tech::IsTie(inst.kind)) continue;
      op.nl.SetDrive(netlist::InstId(i),
                     static_cast<tech::DriveStrength>(rng.UniformInt(
                         0, static_cast<int>(tech::DriveStrength::kX4))));
      for (int p = 0; p < inst.num_inputs(); ++p)
        place::UpdateNetLoad(op.nl, Lib(), wires, inst.in[p], &loads);
      resized.push_back(i);
    }
    ExpectSameLoads(loads, place::ComputeLoads(op.nl, Lib(), wires));
    inc.UpdateLoads(loads, resized);
    sta::TimingAnalyzer full(op.nl, Lib(), loads);
    for (const netlist::CaseAnalysis* c : cases) {
      const sta::TimingReport a = inc.Analyze(1.0, 0.8, bias, c, true);
      const sta::TimingReport b = full.Analyze(1.0, 0.8, bias, c, true);
      EXPECT_EQ(a.wns_ns, b.wns_ns);
      ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
      for (std::size_t e = 0; e < a.endpoints.size(); ++e)
        ASSERT_EQ(a.endpoints[e].slack_ns, b.endpoints[e].slack_ns);
      inc.AnalyzeDetailed(1.0, 0.8, bias, c, &inc_dt);
      full.AnalyzeDetailed(1.0, 0.8, bias, c, &full_dt);
      ExpectSameDetailed(inc_dt, full_dt);
    }
  }
}

// The same through OptimizeSizing itself: stopped after any number of
// rounds, the wns it reports (from its incrementally updated loads)
// equals a fresh analysis of the resized netlist on full loads.
TEST(Sizing, ReportedWnsMatchesFullRecomputeAfterEveryRound) {
  for (int rounds = 1; rounds <= 12; ++rounds) {
    gen::Operator op = gen::BuildBoothOperator(8);
    const place::NetWires wires = place::FanoutWires(op.nl);
    SizingOptions sopt;
    sopt.clock_ns = 0.55;
    sopt.max_iterations = rounds;
    const SizingResult res = OptimizeSizing(op.nl, Lib(), wires, sopt);
    sta::TimingAnalyzer fresh(op.nl, Lib(),
                              place::ComputeLoads(op.nl, Lib(), wires));
    const std::vector<BiasState> bias(op.nl.num_instances(),
                                      BiasState::kFBB);
    EXPECT_EQ(res.wns_ns, fresh.Analyze(sopt.vdd, sopt.clock_ns, bias).wns_ns)
        << rounds << " rounds";
  }
}

// A recovery revert restores the drives, and refresh_loads the loads
// and the analyzer's rows, so OptimizeSizing swaps the pre-move
// analysis back instead of recomputing it. Pins that: after any
// downsize batch, its revert and the incremental refresh, a detailed
// analysis equals the one saved before the move bit for bit, with
// and without a case analysis.
TEST(Sizing, RevertRestoresTiming) {
  gen::Operator op = gen::BuildBoothOperator(8);
  const place::NetWires wires =
      place::PlacedWires(op.nl, place::PlaceDesign(op.nl, Lib()));
  place::NetLoads loads = place::ComputeLoads(op.nl, Lib(), wires);
  const netlist::CaseAnalysis ca(op.nl, gen::ForcedZeroLsbs(op, 4));
  const std::vector<BiasState> bias(op.nl.num_instances(), BiasState::kFBB);
  sta::TimingAnalyzer an(op.nl, Lib(), loads);
  const auto resize = [&](const std::vector<std::uint32_t>& cells, int step) {
    for (const std::uint32_t i : cells) {
      const netlist::Instance& inst = op.nl.instances()[i];
      op.nl.SetDrive(netlist::InstId(i),
                     static_cast<tech::DriveStrength>(
                         static_cast<int>(inst.drive) + step));
      for (int p = 0; p < inst.num_inputs(); ++p)
        place::UpdateNetLoad(op.nl, Lib(), wires, inst.in[p], &loads);
    }
    an.UpdateLoads(loads, cells);
  };
  util::Rng rng(5);
  sta::TimingAnalyzer::DetailedTiming saved, moved, now;
  for (int round = 0; round < 12; ++round) {
    const netlist::CaseAnalysis* c = round % 3 == 2 ? &ca : nullptr;
    const double clock = round % 2 ? 0.45 : 0.9;
    an.AnalyzeDetailed(1.0, clock, bias, c, &saved);
    std::vector<std::uint32_t> cells;
    std::vector<std::uint8_t> picked(op.nl.num_instances(), 0);
    for (int k = 0; k < 40; ++k) {
      const auto i = static_cast<std::uint32_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(op.nl.num_instances()) - 1));
      const netlist::Instance& inst = op.nl.instances()[i];
      if (picked[i] || tech::IsTie(inst.kind) ||
          inst.drive == tech::DriveStrength::kX0P25)
        continue;
      picked[i] = 1;
      cells.push_back(i);
    }
    resize(cells, -1);
    an.AnalyzeDetailed(1.0, clock, bias, c, &moved);
    resize(cells, +1);
    an.AnalyzeDetailed(1.0, clock, bias, c, &now);
    EXPECT_NE(moved.wns_ns, saved.wns_ns) << "round " << round;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(now.wns_ns),
              std::bit_cast<std::uint64_t>(saved.wns_ns));
    EXPECT_EQ(now.num_violations, saved.num_violations);
    ASSERT_EQ(now.arrival.size(), saved.arrival.size());
    for (std::size_t n = 0; n < now.arrival.size(); ++n) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(now.arrival[n]),
                std::bit_cast<std::uint64_t>(saved.arrival[n]))
          << "round " << round << " net " << n;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(now.required[n]),
                std::bit_cast<std::uint64_t>(saved.required[n]))
          << "round " << round << " net " << n;
    }
  }
}

// Recovery runs one timing analysis per pass, the detailed one, and
// only the final report calls Analyze: sta.analyze_calls reads 1 per
// ECO however many recovery passes ran.
TEST(Sizing, OneAnalysisPerRecoveryPass) {
  obs::EnableMetrics(true);
  obs::Counter& analyze_calls = obs::GetCounter("sta.analyze_calls");
  obs::Counter& passes = obs::GetCounter("opt.recovery_passes");
  std::vector<long> pass_counts;
  for (const double steps : {0.2, 1.2}) {
    gen::Operator op = gen::BuildBoothOperator(8);
    SizingOptions sopt;
    sopt.clock_ns = 0.9;
    sopt.recovery_steps_per_cell = steps;
    const long calls_before = analyze_calls.value();
    const long passes_before = passes.value();
    const SizingResult res =
        OptimizeSizing(op.nl, Lib(), place::FanoutWires(op.nl), sopt);
    EXPECT_TRUE(res.timing_met);
    EXPECT_EQ(analyze_calls.value() - calls_before, 1) << steps;
    pass_counts.push_back(passes.value() - passes_before);
  }
  obs::EnableMetrics(false);
  EXPECT_GE(pass_counts[0], 1);
  EXPECT_GT(pass_counts[1], pass_counts[0]);
}

TEST(Sizing, RecoveryReducesAreaAndLeakage) {
  gen::Operator op_a = gen::BuildBoothOperator(8);
  gen::Operator op_b = gen::BuildBoothOperator(8);
  SizingOptions no_rec;
  no_rec.clock_ns = 1.0;
  no_rec.enable_recovery = false;
  SizingOptions rec = no_rec;
  rec.enable_recovery = true;
  OptimizeSizing(op_a.nl, Lib(), place::FanoutWires(op_a.nl), no_rec);
  OptimizeSizing(op_b.nl, Lib(), place::FanoutWires(op_b.nl), rec);
  auto area = [](const netlist::Netlist& nl) {
    double a = 0.0;
    for (const auto& inst : nl.instances())
      a += Lib().AreaUm2(inst.kind, inst.drive);
    return a;
  };
  EXPECT_LT(area(op_b.nl), area(op_a.nl));
}

TEST(Sizing, RecoveryNarrowsSlackDistribution) {
  // The wall of slack: after power recovery the mean endpoint slack
  // must drop (non-critical paths slowed toward the critical one).
  gen::Operator op_a = gen::BuildBoothOperator(16);
  gen::Operator op_b = gen::BuildBoothOperator(16);
  SizingOptions no_rec;
  no_rec.clock_ns = 0.9;
  no_rec.enable_recovery = false;
  SizingOptions rec = no_rec;
  rec.enable_recovery = true;
  OptimizeSizing(op_a.nl, Lib(), place::FanoutWires(op_a.nl), no_rec);
  OptimizeSizing(op_b.nl, Lib(), place::FanoutWires(op_b.nl), rec);
  auto mean_slack = [&](const netlist::Netlist& nl) {
    sta::TimingAnalyzer an(nl, Lib(), FanoutLoads(nl));
    const std::vector<BiasState> fbb(nl.num_instances(), BiasState::kFBB);
    const auto rep = an.Analyze(1.0, 0.9, fbb, nullptr, true);
    double sum = 0.0;
    int n = 0;
    for (const auto& ep : rep.endpoints)
      if (ep.active) {
        sum += ep.slack_ns;
        ++n;
      }
    return sum / n;
  };
  EXPECT_LT(mean_slack(op_b.nl), mean_slack(op_a.nl));
}

TEST(Buffering, EnforcesMaxFanout) {
  gen::Operator op = gen::BuildBoothOperator(16);
  const BufferingResult res = BufferHighFanout(op.nl, 8);
  EXPECT_GT(res.buffers_inserted, 0);
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
    const auto& net = op.nl.net(netlist::NetId(n));
    if (net.driver.valid() &&
        tech::IsTie(op.nl.inst(net.driver.inst).kind))
      continue;  // constants exempt
    EXPECT_LE(net.sinks.size(), 8u) << "net " << n;
  }
  EXPECT_NO_THROW(op.nl.Validate());
}

TEST(Buffering, PreservesFunction) {
  gen::Operator ref = gen::BuildBoothOperator(8);
  gen::Operator buf = gen::BuildBoothOperator(8);
  BufferHighFanout(buf.nl, 4);
  sim::LogicSim sr(ref.nl), sb(buf.nl);
  util::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const std::int64_t a = rng.UniformInt(-128, 127);
    const std::int64_t b = rng.UniformInt(-128, 127);
    for (auto* s : {&sr, &sb}) {
      const netlist::Netlist& nl = (s == &sr) ? ref.nl : buf.nl;
      s->SetBus(nl.InputBus("a"), util::FromSigned(a, 8));
      s->SetBus(nl.InputBus("b"), util::FromSigned(b, 8));
      s->Tick();
      s->Tick();
    }
    ASSERT_EQ(sr.ReadBus(ref.nl.OutputBus("p")),
              sb.ReadBus(buf.nl.OutputBus("p")));
  }
}

TEST(Buffering, IdempotentOnBoundedNetlist) {
  gen::Operator op = gen::BuildBoothOperator(8);
  BufferHighFanout(op.nl, 8);
  const BufferingResult again = BufferHighFanout(op.nl, 8);
  EXPECT_EQ(again.buffers_inserted, 0);
}

TEST(Buffering, RejectsDegenerateLimit) {
  gen::Operator op = gen::BuildBoothOperator(8);
  EXPECT_THROW(BufferHighFanout(op.nl, 1), CheckError);
}

}  // namespace
}  // namespace adq::opt
