/// Tests for the logic simulator, stimulus generators and activity
/// extraction.

#include <gtest/gtest.h>

#include "gen/operator.h"
#include "harness.h"
#include "sim/activity.h"
#include "sim/stimulus.h"
#include "util/fixed_point.h"

namespace adq::sim {
namespace {

using tech::CellKind;

TEST(LogicSim, SettleEvaluatesCombinational) {
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  const auto y = nl.AddGate(CellKind::kXor2, {a, b});
  nl.AddOutputPort("y", y);
  LogicSim sim(nl);
  sim.SetInput(a, true);
  sim.SetInput(b, false);
  sim.Settle();
  EXPECT_TRUE(sim.Value(y));
  sim.SetInput(b, true);
  sim.Settle();
  EXPECT_FALSE(sim.Value(y));
}

TEST(LogicSim, RegistersHoldState) {
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  LogicSim sim(nl);
  sim.Reset();
  sim.SetInput(d, true);
  sim.Settle();
  EXPECT_FALSE(sim.Value(q)) << "Q must not change before the edge";
  sim.Tick();
  EXPECT_TRUE(sim.Value(q));
  sim.SetInput(d, false);
  sim.Tick();
  EXPECT_FALSE(sim.Value(q));
}

TEST(LogicSim, TogglesCounted) {
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  LogicSim sim(nl);
  sim.Reset();
  // Alternate d: q toggles every cycle after the first.
  for (int t = 0; t < 10; ++t) {
    sim.SetInput(d, t % 2 == 0);
    sim.Tick();
  }
  // 9 comparisons between consecutive post-edge states, all differ.
  EXPECT_EQ(sim.toggles()[q.index()], 9u);
  EXPECT_EQ(sim.cycles(), 9u);
}

TEST(LogicSim, ResetClearsStateAndStats) {
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  LogicSim sim(nl);
  sim.SetInput(d, true);
  sim.Tick();
  sim.Tick();
  sim.Reset();
  EXPECT_FALSE(sim.Value(q));
  EXPECT_EQ(sim.cycles(), 0u);
  EXPECT_EQ(sim.toggles()[q.index()], 0u);
}

TEST(Stimulus, UniformStreamBounded) {
  util::Rng rng(1);
  const auto s = UniformStream(rng, 12, 500);
  ASSERT_EQ(s.size(), 500u);
  for (const auto v : s) EXPECT_LT(v, 1u << 12);
}

TEST(Stimulus, CorrelatedStreamBoundedAndCorrelated) {
  util::Rng rng(2);
  const auto s = CorrelatedStream(rng, 16, 4000, 0.95);
  double prev = 0.0, corr_acc = 0.0, power = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double v = (double)util::ToSigned(s[i], 16);
    EXPECT_LE(std::abs(v), 32767.0);
    if (i > 0) corr_acc += v * prev;
    power += v * v;
    prev = v;
  }
  // Empirical lag-1 autocorrelation must be clearly positive.
  EXPECT_GT(corr_acc / power, 0.7);
}

TEST(Stimulus, CorrelatedStreamSupportsFullWidthRange) {
  // Satellite contract: CorrelatedStream accepts every width
  // UniformStream does (1..64) instead of CHECK-failing at the edges.
  for (const int width : {1, 2, 62, 63, 64}) {
    util::Rng rng(7);
    const auto s = CorrelatedStream(rng, width, 600);
    ASSERT_EQ(s.size(), 600u);
    bool any_pos = false, any_neg = false;
    for (const auto v : s) {
      if (width < 64) {
        EXPECT_LT(v, 1ULL << width);
      }
      const std::int64_t sv = util::ToSigned(v, width);
      any_pos = any_pos || sv > 0;
      any_neg = any_neg || sv < 0;
    }
    EXPECT_TRUE(any_neg) << "width " << width << " never goes negative";
    if (width > 1) {
      EXPECT_TRUE(any_pos) << "width " << width << " never goes positive";
    }
  }
}

TEST(Stimulus, CorrelatedStreamWidthOneIsCorrelatedSignBit) {
  util::Rng rng(9);
  const auto s = CorrelatedStream(rng, 1, 4000, 0.95);
  int flips = 0;
  for (std::size_t i = 1; i < s.size(); ++i)
    if (s[i] != s[i - 1]) ++flips;
  // A rho=0.95 sign process flips far less often than a fair coin.
  EXPECT_GT(flips, 0);
  EXPECT_LT(flips, 1000);
}

TEST(Stimulus, CorrelatedStreamNarrowWidthsUnchanged) {
  // The widened contract must not disturb existing streams: width 16
  // keeps its exact historical full-scale constant, so the first few
  // samples stay pinned by determinism of the Rng.
  util::Rng a(2), b(2);
  const auto s1 = CorrelatedStream(a, 16, 100, 0.95);
  const auto s2 = CorrelatedStream(b, 16, 100, 0.95);
  EXPECT_EQ(s1, s2);
}

TEST(Stimulus, MaskStreamZeroesLsbs) {
  util::Rng rng(3);
  auto s = UniformStream(rng, 16, 100);
  MaskStream(s, 16, 6);
  for (const auto v : s) EXPECT_EQ(v & 0x3F, 0u);
}

TEST(Activity, RatesAreInUnitRange) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  const ActivityProfile prof = ExtractActivity(op, 0, 256, 11);
  ASSERT_EQ(prof.toggle_rate.size(), op.nl.num_nets());
  for (const double r : prof.toggle_rate) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Activity, ZeroedLsbsReduceActivity) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  const ActivityProfile full = ExtractActivity(op, 0, 512, 11);
  const ActivityProfile half = ExtractActivity(op, 8, 512, 11);
  const ActivityProfile none = ExtractActivity(op, 16, 512, 11);
  auto total = [](const ActivityProfile& p) {
    double t = 0.0;
    for (const double r : p.toggle_rate) t += r;
    return t;
  };
  EXPECT_LT(total(half), total(full));
  EXPECT_LT(total(none), 1e-9) << "all-zero inputs must be toggle-free";
}

TEST(Activity, TooFewCyclesRejected) {
  // cycles == 1 only establishes the toggle baseline (cycles() == 0),
  // which used to silently produce an all-zero profile and 0 W of
  // dynamic power; now it is a contract violation.
  const gen::Operator op = gen::BuildBoothOperator(8);
  EXPECT_THROW(ExtractActivity(op, 0, 1, 11), CheckError);
  EXPECT_THROW(ExtractActivity(op, 0, 0, 11), CheckError);
  EXPECT_THROW(ExtractActivityScalar(op, 0, 1, 11), CheckError);
  const ActivityProfile two = ExtractActivity(op, 0, 2, 11);
  EXPECT_EQ(two.cycles, 1u);
}

TEST(Activity, ClearCadenceFollowsOperatorSpec) {
  // The clr pulse period is the operator's declared accumulation
  // frame (ceil(30/4) = 8 for the folded FIR), not a hard-coded 15.
  const gen::Operator fir = gen::BuildFirMacOperator(8);
  EXPECT_EQ(fir.spec.accumulation_cycles,
            (gen::kFirTaps + gen::kFirMacsPerCycle - 1) /
                gen::kFirMacsPerCycle);
  const gen::Operator mac = gen::BuildMacOperator(8);
  EXPECT_GT(mac.spec.accumulation_cycles, 0);
  // An operator with a clr bus but no declared frame length is a
  // contract violation, not a silent default.
  gen::Operator broken = mac;
  broken.spec.accumulation_cycles = 0;
  EXPECT_THROW(ExtractActivityScalar(broken, 0, 64, 1), CheckError);
}

TEST(Activity, DeterministicInSeed) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  const ActivityProfile a = ExtractActivity(op, 2, 128, 42);
  const ActivityProfile b = ExtractActivity(op, 2, 128, 42);
  EXPECT_EQ(a.toggle_rate, b.toggle_rate);
}

TEST(Activity, UniformBeatsCorrelatedOnMsbs) {
  // Correlated DSP data toggles high-order bits less than uniform
  // noise — the reason activity annotation matters.
  const gen::Operator op = gen::BuildBoothOperator(16);
  const ActivityProfile uni =
      ExtractActivity(op, 0, 1024, 5, StimulusKind::kUniform);
  const ActivityProfile cor =
      ExtractActivity(op, 0, 1024, 5, StimulusKind::kCorrelated);
  const netlist::Bus& a = op.nl.InputBus("a");
  const auto msb = a.bits[15];
  EXPECT_LT(cor.RateOf(msb), uni.RateOf(msb));
}

}  // namespace
}  // namespace adq::sim
