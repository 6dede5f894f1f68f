/// Property-based randomized tests: every datapath generator is
/// cross-checked against 64-bit integer arithmetic under the DVAS
/// accuracy knob (random zeroed-LSB masks), and the exploration's
/// monotone-infeasibility assumption — the correctness basis of the
/// pruning filter — is checked point-by-point on a small design.
///
/// All randomness draws from util::Rng with fixed seeds, so failures
/// reproduce exactly.

#include <gtest/gtest.h>

#include <map>

#include "core/explore.h"
#include "gen/adders.h"
#include "gen/array_mult.h"
#include "gen/booth.h"
#include "gen/wallace.h"
#include "harness.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq {
namespace {

constexpr int kVectors = 1200;  // >= 1k random vectors per property

// ---------------------------------------------------------------
// Multipliers under random accuracy masks.

/// Shared property: a signed multiplier netlist computes the exact
/// product of its LSB-masked operands for every masking depth.
void CheckSignedMultiplier(netlist::Netlist& nl, int wa, int wb,
                           std::uint64_t seed) {
  nl.Validate();
  sim::LogicSim sim(nl);
  util::Rng rng(seed);
  for (int t = 0; t < kVectors; ++t) {
    // Random operands and a random accuracy mode per operand
    // (za/zb zeroed LSBs — 0 is full precision).
    const int za = (int)rng.UniformInt(0, wa - 1);
    const int zb = (int)rng.UniformInt(0, wb - 1);
    const std::uint64_t a = util::MaskLsbs(rng.Word(), wa, za);
    const std::uint64_t b = util::MaskLsbs(rng.Word(), wb, zb);
    sim.SetBus(nl.InputBus("a"), a);
    sim.SetBus(nl.InputBus("b"), b);
    sim.Settle();
    const std::int64_t expected =
        util::ToSigned(a, wa) * util::ToSigned(b, wb);
    ASSERT_EQ(util::ToSigned(sim.ReadBus(nl.OutputBus("p")), wa + wb),
              expected)
        << "a=" << util::ToSigned(a, wa) << " b=" << util::ToSigned(b, wb)
        << " za=" << za << " zb=" << zb;
  }
}

TEST(Properties, BoothMatchesIntegerReferenceUnderMasks) {
  netlist::Netlist nl;
  const gen::Word a = test::InWord(nl, "a", 9);
  const gen::Word b = test::InWord(nl, "b", 8);
  test::OutWord(nl, "p", gen::BoothMultiplySigned(nl, a, b));
  CheckSignedMultiplier(nl, 9, 8, /*seed=*/11);
}

TEST(Properties, BaughWooleyMatchesIntegerReferenceUnderMasks) {
  netlist::Netlist nl;
  const gen::Word a = test::InWord(nl, "a", 8);
  const gen::Word b = test::InWord(nl, "b", 8);
  test::OutWord(nl, "p", gen::BaughWooleyMultiplySigned(nl, a, b));
  CheckSignedMultiplier(nl, 8, 8, /*seed=*/12);
}

TEST(Properties, ArrayUnsignedMatchesIntegerReferenceUnderMasks) {
  netlist::Netlist nl;
  const gen::Word a = test::InWord(nl, "a", 8);
  const gen::Word b = test::InWord(nl, "b", 7);
  test::OutWord(nl, "p", gen::ArrayMultiplyUnsigned(nl, a, b));
  nl.Validate();
  sim::LogicSim sim(nl);
  util::Rng rng(13);
  for (int t = 0; t < kVectors; ++t) {
    const int za = (int)rng.UniformInt(0, 7);
    const int zb = (int)rng.UniformInt(0, 6);
    const std::uint64_t a_v = util::MaskLsbs(rng.Word(), 8, za);
    const std::uint64_t b_v = util::MaskLsbs(rng.Word(), 7, zb);
    sim.SetBus(nl.InputBus("a"), a_v);
    sim.SetBus(nl.InputBus("b"), b_v);
    sim.Settle();
    ASSERT_EQ(sim.ReadBus(nl.OutputBus("p")), a_v * b_v)
        << a_v << " * " << b_v;
  }
}

// ---------------------------------------------------------------
// Adders: all three carry-propagate architectures.

class AdderPropertyTest : public ::testing::TestWithParam<gen::AdderStyle> {
};

TEST_P(AdderPropertyTest, SumAndCarryMatchIntegerReferenceUnderMasks) {
  constexpr int kW = 16;
  netlist::Netlist nl;
  const gen::Word a = test::InWord(nl, "a", kW);
  const gen::Word b = test::InWord(nl, "b", kW);
  const netlist::NetId cin = nl.AddInputPort("cin");
  nl.AddInputBus("c", {cin});
  const gen::AdderResult r = gen::MakeAdder(nl, a, b, cin, GetParam());
  test::OutWord(nl, "s", r.sum);
  test::OutWord(nl, "co", {r.carry});
  nl.Validate();
  sim::LogicSim sim(nl);
  util::Rng rng(17 + (int)GetParam());
  for (int t = 0; t < kVectors; ++t) {
    const int za = (int)rng.UniformInt(0, kW);
    const int zb = (int)rng.UniformInt(0, kW);
    const std::uint64_t av = util::MaskLsbs(rng.Word(), kW, za);
    const std::uint64_t bv = util::MaskLsbs(rng.Word(), kW, zb);
    const std::uint64_t cv = rng.Flip() ? 1 : 0;
    sim.SetBus(nl.InputBus("a"), av);
    sim.SetBus(nl.InputBus("b"), bv);
    sim.SetBus(nl.InputBus("c"), cv);
    sim.Settle();
    const std::uint64_t full = av + bv + cv;
    ASSERT_EQ(sim.ReadBus(nl.OutputBus("s")), full & ((1ULL << kW) - 1));
    ASSERT_EQ(sim.ReadBus(nl.OutputBus("co")), (full >> kW) & 1ULL);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStyles, AdderPropertyTest,
                         ::testing::Values(gen::AdderStyle::kRipple,
                                           gen::AdderStyle::kCla,
                                           gen::AdderStyle::kKoggeStone));

// ---------------------------------------------------------------
// Wallace reduction: sum preservation on a randomized matrix shape.

TEST(Properties, WallaceReductionPreservesWeightedSum) {
  netlist::Netlist nl;
  util::Rng shape_rng(23);
  gen::BitMatrix m;
  std::vector<std::pair<int, netlist::NetId>> entries;  // (weight, net)
  int port = 0;
  for (int col = 0; col < 10; ++col) {
    const int height = 1 + (int)shape_rng.UniformInt(0, 6);
    for (int h = 0; h < height; ++h) {
      const netlist::NetId bit =
          nl.AddInputPort("i" + std::to_string(port++));
      gen::AddBit(m, bit, col);
      entries.push_back({col, bit});
    }
  }
  const gen::TwoRows rows = gen::ReduceToTwo(nl, m);
  test::OutWord(nl, "ra", rows.a);
  test::OutWord(nl, "rb", rows.b);
  nl.Validate();

  sim::LogicSim sim(nl);
  util::Rng rng(24);
  for (int t = 0; t < kVectors; ++t) {
    std::uint64_t expected = 0;
    for (const auto& [w, net] : entries) {
      const bool v = rng.Flip();
      sim.SetInput(net, v);
      if (v) expected += 1ULL << w;
    }
    sim.Settle();
    ASSERT_EQ(sim.ReadBus(nl.OutputBus("ra")) +
                  sim.ReadBus(nl.OutputBus("rb")),
              expected);
  }
}

// ---------------------------------------------------------------
// Monotone infeasibility: the assumption behind the exploration's
// pruning filter. If (VDD, mask) has a violation at bitwidth b, it
// must have one at every bitwidth > b (activating more input bits
// only ever adds timing paths).

TEST(Properties, InfeasibilityIsMonotoneInBitwidth) {
  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = {2, 2};
  fopt.clock_ns = 0.55;
  const core::ImplementedDesign design =
      core::RunImplementationFlow(gen::BuildBoothOperator(8), lib, fopt);

  core::ExploreOptions opt;
  opt.bitwidths = {1, 2, 3, 4, 5, 6, 7, 8};
  opt.activity_cycles = 64;
  opt.keep_all_points = true;  // evaluate every point explicitly
  const core::ExplorationResult r =
      core::ExploreDesignSpace(design, lib, opt);

  // (vdd, mask) -> feasibility by ascending bitwidth (all_points is
  // produced in ascending-bitwidth sweep order).
  std::map<std::pair<double, std::uint32_t>, std::vector<bool>> series;
  for (const core::ExploredPoint& p : r.all_points)
    series[{p.vdd, p.mask}].push_back(p.feasible);

  long checked = 0, infeasible = 0;
  for (const auto& [key, feas] : series) {
    ASSERT_EQ(feas.size(), opt.bitwidths.size());
    bool dead = false;
    for (const bool f : feas) {
      if (dead) {
        EXPECT_FALSE(f) << "VDD " << key.first << " mask " << key.second
                        << " resurrected";
      }
      if (!f) {
        dead = true;
        ++infeasible;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, (long)(opt.bitwidths.size() * 5 * 16));
  // The property is vacuous if nothing ever fails; this design/clock
  // must produce a real mix (the paper reports ~75% filtered).
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(r.stats.feasible, 0);
}

}  // namespace
}  // namespace adq
